#include "qos/quota.h"


#include "common/codec.h"

namespace arkfs::qos {
namespace {

// "AKQU" little-endian, same magic-number style as the lease epoch record.
constexpr std::uint32_t kUsageMagic = 0x55514B41;

}  // namespace

QuotaLimits QuotaManager::LimitsFor(TenantId tenant) const {
  auto it = config_.tenants.find(tenant);
  return it != config_.tenants.end() ? it->second : QuotaLimits{};
}

Status QuotaManager::Charge(TenantId tenant, std::int64_t delta,
                            bool inodes) {
  if (!config_.enabled || delta == 0) return Status::Ok();
  std::lock_guard lock(mu_);
  Usage& u = usage_[tenant];
  std::uint64_t& counter = inodes ? u.inodes : u.bytes;
  if (delta < 0) {
    const auto credit = static_cast<std::uint64_t>(-delta);
    counter = counter > credit ? counter - credit : 0;
    dirty_ = true;
    return Status::Ok();
  }
  const QuotaLimits limits = LimitsFor(tenant);
  const std::uint64_t limit = inodes ? limits.max_inodes : limits.max_bytes;
  const auto charge = static_cast<std::uint64_t>(delta);
  if (limit != 0 && counter + charge > limit) {
    if (metrics_) metrics_->For(tenant).quota_rejects.Add();
    return ErrStatus(Errc::kNoSpc,
                     "tenant " + std::to_string(tenant) + " over " +
                         (inodes ? "inode" : "byte") + " quota (" +
                         std::to_string(counter) + "+" +
                         std::to_string(charge) + " > " +
                         std::to_string(limit) + ")");
  }
  counter += charge;
  dirty_ = true;
  return Status::Ok();
}

Status QuotaManager::ChargeInodes(TenantId tenant, std::int64_t delta) {
  return Charge(tenant, delta, /*inodes=*/true);
}

Status QuotaManager::ChargeBytes(TenantId tenant, std::int64_t delta) {
  return Charge(tenant, delta, /*inodes=*/false);
}

QuotaManager::Usage QuotaManager::UsageFor(TenantId tenant) const {
  std::lock_guard lock(mu_);
  auto it = usage_.find(tenant);
  return it != usage_.end() ? it->second : Usage{};
}

Bytes QuotaManager::EncodeUsage() const {
  std::lock_guard lock(mu_);
  Encoder enc;
  enc.PutU32(kUsageMagic);
  enc.PutVarint(usage_.size());
  for (const auto& [tenant, u] : usage_) {
    enc.PutU32(tenant);
    enc.PutU64(u.inodes);
    enc.PutU64(u.bytes);
  }
  const std::uint32_t crc = Crc32c(enc.buffer());
  enc.PutU32(crc);
  return std::move(enc).Take();
}

Status QuotaManager::LoadUsage(ByteSpan data) {
  if (data.size() < 8) {
    return ErrStatus(Errc::kIo, "quota usage: truncated blob");
  }
  const ByteSpan body(data.data(), data.size() - 4);
  Decoder crc_dec(ByteSpan(data.data() + data.size() - 4, 4));
  ARKFS_ASSIGN_OR_RETURN(std::uint32_t stored_crc, crc_dec.GetU32());
  if (Crc32c(body) != stored_crc) {
    return ErrStatus(Errc::kIo, "quota usage: CRC mismatch");
  }
  Decoder dec(body);
  ARKFS_ASSIGN_OR_RETURN(std::uint32_t magic, dec.GetU32());
  if (magic != kUsageMagic) {
    return ErrStatus(Errc::kIo, "quota usage: bad magic");
  }
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t count, dec.GetVarint());
  std::map<TenantId, Usage> loaded;
  for (std::uint64_t i = 0; i < count; ++i) {
    ARKFS_ASSIGN_OR_RETURN(std::uint32_t tenant, dec.GetU32());
    Usage u;
    ARKFS_ASSIGN_OR_RETURN(u.inodes, dec.GetU64());
    ARKFS_ASSIGN_OR_RETURN(u.bytes, dec.GetU64());
    loaded[tenant] = u;
  }
  if (!dec.done()) {
    return ErrStatus(Errc::kIo, "quota usage: trailing bytes");
  }
  std::lock_guard lock(mu_);
  usage_ = std::move(loaded);
  dirty_ = false;
  return Status::Ok();
}

bool QuotaManager::ConsumeDirty() {
  std::lock_guard lock(mu_);
  const bool was = dirty_;
  dirty_ = false;
  return was;
}

void QuotaManager::MarkDirty() {
  std::lock_guard lock(mu_);
  dirty_ = true;
}

}  // namespace arkfs::qos
