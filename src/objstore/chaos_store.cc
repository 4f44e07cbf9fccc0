#include "objstore/chaos_store.h"

#include <iterator>

namespace arkfs {

namespace {

constexpr Nanos kLatencySpike = Millis(2);
// The codes a transient fault draws from: exactly the ones the retry stack
// (retry.h) considers retryable.
constexpr Errc kTransientPool[] = {Errc::kIo, Errc::kTimedOut, Errc::kAgain};

}  // namespace

ChaosStore::ChaosStore(ObjectStorePtr base, ChaosConfig config, FaultFn hook,
                       obs::MetricsRegistry* registry)
    : StoreDecorator(std::move(base)),
      config_(std::move(config)),
      hook_(std::move(hook)),
      rng_(config_.seed) {
  ops_.Attach(registry, "chaos.ops");
  transient_faults_.Attach(registry, "chaos.transient_faults");
  persistent_faults_.Attach(registry, "chaos.persistent_faults");
  hook_faults_.Attach(registry, "chaos.hook_faults");
  latency_spikes_.Attach(registry, "chaos.latency_spikes");
  torn_puts_.Attach(registry, "chaos.torn_puts");
  bit_flips_.Attach(registry, "chaos.bit_flips");
}

void ChaosStore::AddPersistentFault(const std::string& key, Errc e) {
  std::lock_guard lock(mu_);
  persistent_[key] = e;
}

void ChaosStore::ClearPersistentFault(const std::string& key) {
  std::lock_guard lock(mu_);
  persistent_.erase(key);
}

Errc ChaosStore::Decide(std::string_view op, const std::string& key) {
  ops_.Add();
  if (hook_) {
    if (Errc e = hook_(op, key); e != Errc::kOk) {
      hook_faults_.Add();
      return e;
    }
  }
  bool spike = false;
  Errc verdict = Errc::kOk;
  {
    std::lock_guard lock(mu_);
    if (auto it = persistent_.find(key); it != persistent_.end()) {
      persistent_faults_.Add();
      return it->second;
    }
    if (config_.latency_spike_rate > 0.0 &&
        rng_.NextDouble() < config_.latency_spike_rate) {
      latency_spikes_.Add();
      spike = true;
    }
    if (config_.fault_rate > 0.0 && rng_.NextDouble() < config_.fault_rate) {
      transient_faults_.Add();
      verdict = kTransientPool[rng_.Below(std::size(kTransientPool))];
    }
  }
  // Sleep outside the lock so a spiking op does not serialize the store.
  if (spike) SleepFor(kLatencySpike);
  return verdict;
}

Status ChaosStore::Put(const std::string& key, ByteSpan data) {
  return DoPut(key, data, nullptr);
}

Status ChaosStore::PutIf(const std::string& key, ByteSpan data,
                         const WriteGuard& guard) {
  return DoPut(key, data, &guard);
}

Status ChaosStore::DoPut(const std::string& key, ByteSpan data,
                         const WriteGuard* guard) {
  if (Errc e = Decide("put", key); e != Errc::kOk) return ErrStatus(e, key);
  // A torn guarded write keeps the guarded extent intact, so its retry
  // still matches: it can only cut inside [keep, size). A guard pinning the
  // whole object, or a create-only one, could never match again once torn,
  // so it never tears.
  std::uint64_t keep = 0;
  if (guard) {
    keep = guard->whole || guard->absent
               ? data.size()
               : guard->offset + guard->expected.size();
  }
  bool torn = false;
  std::uint64_t cut = 0;
  if (config_.torn_put_rate > 0.0 && data.size() > keep) {
    std::lock_guard lock(mu_);
    if (rng_.NextDouble() < config_.torn_put_rate) {
      torn = true;
      cut = keep + rng_.Below(data.size() - keep);  // strict prefix
      torn_puts_.Add();
    }
  }
  if (torn) {
    // The write "crashed" partway: a prefix of the payload replaced the
    // object, and the caller sees a transient error. A retry rewrites the
    // whole object, which is why full-object Put stays idempotent.
    Bytes prefix(data.begin(), data.begin() + cut);
    Status landed = guard ? base()->PutIf(key, prefix, *guard)
                          : base()->Put(key, prefix);
    if (landed.code() == Errc::kStale) return landed;
    return ErrStatus(Errc::kIo, "torn put: " + key);
  }
  return guard ? base()->PutIf(key, data, *guard) : base()->Put(key, data);
}

void ChaosStore::MaybeFlipBit(const std::string& key, Bytes* data) {
  if (config_.bit_flip_rate <= 0.0 || data->empty()) return;
  if (config_.bit_flip_filter && !config_.bit_flip_filter(key)) return;
  std::size_t byte = 0;
  int bit = 0;
  {
    std::lock_guard lock(mu_);
    if (rng_.NextDouble() >= config_.bit_flip_rate) return;
    byte = rng_.Below(data->size());
    bit = static_cast<int>(rng_.Below(8));
    bit_flips_.Add();
  }
  (*data)[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

Result<Bytes> ChaosStore::Get(const std::string& key) {
  if (Errc e = Decide("get", key); e != Errc::kOk) return ErrStatus(e, key);
  auto result = base()->Get(key);
  if (result.ok()) MaybeFlipBit(key, &*result);
  return result;
}

Result<Bytes> ChaosStore::GetRange(const std::string& key,
                                   std::uint64_t offset,
                                   std::uint64_t length) {
  if (Errc e = Decide("getrange", key); e != Errc::kOk) {
    return ErrStatus(e, key);
  }
  auto result = base()->GetRange(key, offset, length);
  if (result.ok()) MaybeFlipBit(key, &*result);
  return result;
}

Status ChaosStore::PutRange(const std::string& key, std::uint64_t offset,
                            ByteSpan data) {
  if (Errc e = Decide("putrange", key); e != Errc::kOk) {
    return ErrStatus(e, key);
  }
  return base()->PutRange(key, offset, data);
}

Status ChaosStore::PutRangeIf(const std::string& key, std::uint64_t offset,
                              ByteSpan data, const WriteGuard& guard) {
  if (Errc e = Decide("putrange", key); e != Errc::kOk) {
    return ErrStatus(e, key);
  }
  return base()->PutRangeIf(key, offset, data, guard);
}

Status ChaosStore::Delete(const std::string& key) {
  if (Errc e = Decide("delete", key); e != Errc::kOk) return ErrStatus(e, key);
  return base()->Delete(key);
}

Status ChaosStore::DeleteIf(const std::string& key, const WriteGuard& guard) {
  if (Errc e = Decide("delete", key); e != Errc::kOk) return ErrStatus(e, key);
  return base()->DeleteIf(key, guard);
}

Result<ObjectMeta> ChaosStore::Head(const std::string& key) {
  if (Errc e = Decide("head", key); e != Errc::kOk) return ErrStatus(e, key);
  return base()->Head(key);
}

Result<std::vector<std::string>> ChaosStore::List(const std::string& prefix) {
  if (Errc e = Decide("list", prefix); e != Errc::kOk) {
    return ErrStatus(e, prefix);
  }
  return base()->List(prefix);
}

ChaosStore::Counters ChaosStore::counters() const {
  return Counters{ops_.value(),           transient_faults_.value(),
                  persistent_faults_.value(), hook_faults_.value(),
                  latency_spikes_.value(),    torn_puts_.value(),
                  bit_flips_.value()};
}

}  // namespace arkfs
