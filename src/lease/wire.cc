#include "lease/wire.h"

namespace arkfs::lease {
namespace {

constexpr std::uint32_t kEpochRecordMagic = 0x414B4550u;  // "AKEP"

Status RequireDone(const Decoder& dec, const char* what) {
  if (!dec.done()) {
    return ErrStatus(Errc::kIo, std::string("trailing bytes in ") + what);
  }
  return Status::Ok();
}

}  // namespace

Bytes AcquireRequest::Encode() const {
  Encoder enc(64);
  enc.PutUuid(dir_ino);
  enc.PutString(client);
  enc.PutU8(want_delegation ? 1 : 0);
  enc.PutU64(watermark);
  enc.PutU32(tenant);
  return std::move(enc).Take();
}

Result<AcquireRequest> AcquireRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  AcquireRequest req;
  ARKFS_ASSIGN_OR_RETURN(req.dir_ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(req.client, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t want, dec.GetU8());
  if (want > 1) return ErrStatus(Errc::kIo, "bad want_delegation flag");
  req.want_delegation = want != 0;
  ARKFS_ASSIGN_OR_RETURN(req.watermark, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.tenant, dec.GetU32());
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "acquire request"));
  return req;
}

Bytes AcquireResponse::Encode() const {
  Encoder enc(96);
  enc.PutU8(static_cast<std::uint8_t>(outcome));
  enc.PutString(leader);
  enc.PutI64(lease_until_ns);
  enc.PutU8(fresh ? 1 : 0);
  enc.PutString(prev_leader);
  enc.PutU64(token.epoch);
  enc.PutU64(token.seq);
  enc.PutU64(watermark);
  enc.PutU8(deleg ? 1 : 0);
  enc.PutI64(deleg_until_ns);
  enc.PutI64(retry_after_ns);
  return std::move(enc).Take();
}

Result<AcquireResponse> AcquireResponse::Decode(ByteSpan data) {
  Decoder dec(data);
  AcquireResponse resp;
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t outcome, dec.GetU8());
  if (outcome > static_cast<std::uint8_t>(AcquireOutcome::kNotActive)) {
    return ErrStatus(Errc::kIo, "bad acquire outcome");
  }
  resp.outcome = static_cast<AcquireOutcome>(outcome);
  ARKFS_ASSIGN_OR_RETURN(resp.leader, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(resp.lease_until_ns, dec.GetI64());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t fresh, dec.GetU8());
  resp.fresh = fresh != 0;
  ARKFS_ASSIGN_OR_RETURN(resp.prev_leader, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(resp.token.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(resp.token.seq, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(resp.watermark, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t deleg, dec.GetU8());
  if (deleg > 1) return ErrStatus(Errc::kIo, "bad deleg flag");
  resp.deleg = deleg != 0;
  ARKFS_ASSIGN_OR_RETURN(resp.deleg_until_ns, dec.GetI64());
  ARKFS_ASSIGN_OR_RETURN(resp.retry_after_ns, dec.GetI64());
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "acquire response"));
  return resp;
}

Bytes ReleaseRequest::Encode() const {
  Encoder enc(64);
  enc.PutUuid(dir_ino);
  enc.PutString(client);
  enc.PutU64(token.epoch);
  enc.PutU64(token.seq);
  return std::move(enc).Take();
}

Result<ReleaseRequest> ReleaseRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  ReleaseRequest req;
  ARKFS_ASSIGN_OR_RETURN(req.dir_ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(req.client, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(req.token.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.token.seq, dec.GetU64());
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "release request"));
  return req;
}

Bytes RecoveryRequest::Encode() const {
  Encoder enc(64);
  enc.PutUuid(dir_ino);
  enc.PutString(client);
  enc.PutU8(static_cast<std::uint8_t>(phase));
  return std::move(enc).Take();
}

Result<RecoveryRequest> RecoveryRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  RecoveryRequest req;
  ARKFS_ASSIGN_OR_RETURN(req.dir_ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(req.client, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t phase, dec.GetU8());
  if (phase > static_cast<std::uint8_t>(RecoveryPhase::kEnd)) {
    return ErrStatus(Errc::kIo, "bad recovery phase");
  }
  req.phase = static_cast<RecoveryPhase>(phase);
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "recovery request"));
  return req;
}

Bytes PingRequest::Encode() const {
  Encoder enc(48);
  enc.PutU64(epoch);
  enc.PutString(from);
  return std::move(enc).Take();
}

Result<PingRequest> PingRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  PingRequest req;
  ARKFS_ASSIGN_OR_RETURN(req.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.from, dec.GetString());
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "ping request"));
  return req;
}

Bytes PingResponse::Encode() const {
  Encoder enc(48);
  enc.PutU64(epoch);
  enc.PutU8(active ? 1 : 0);
  enc.PutString(active_hint);
  return std::move(enc).Take();
}

Result<PingResponse> PingResponse::Decode(ByteSpan data) {
  Decoder dec(data);
  PingResponse resp;
  ARKFS_ASSIGN_OR_RETURN(resp.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t active, dec.GetU8());
  if (active > 1) return ErrStatus(Errc::kIo, "bad active flag");
  resp.active = active != 0;
  ARKFS_ASSIGN_OR_RETURN(resp.active_hint, dec.GetString());
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "ping response"));
  return resp;
}

Bytes EpochRecord::Encode() const {
  Encoder enc(64);
  enc.PutU32(kEpochRecordMagic);
  enc.PutU64(epoch);
  enc.PutString(active);
  const ByteSpan body(enc.buffer().data() + 4, enc.buffer().size() - 4);
  enc.PutU32(Crc32c(body));
  return std::move(enc).Take();
}

Result<EpochRecord> EpochRecord::Decode(ByteSpan data) {
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t magic, dec.GetU32());
  if (magic != kEpochRecordMagic) {
    return ErrStatus(Errc::kInval, "bad epoch record magic");
  }
  EpochRecord rec;
  ARKFS_ASSIGN_OR_RETURN(rec.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(rec.active, dec.GetString());
  const std::size_t body_end = dec.pos();
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t crc, dec.GetU32());
  if (crc != Crc32c(ByteSpan(data.data() + 4, body_end - 4))) {
    return ErrStatus(Errc::kIo, "epoch record CRC mismatch");
  }
  ARKFS_RETURN_IF_ERROR(RequireDone(dec, "epoch record"));
  return rec;
}

}  // namespace arkfs::lease
