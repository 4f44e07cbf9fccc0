#include "core/wire.h"

namespace arkfs::wire {
namespace {

void EncodeCred(Encoder& enc, const WireCred& cred) {
  enc.PutU32(cred.uid);
  enc.PutU32(cred.gid);
  enc.PutVarint(cred.groups.size());
  for (auto g : cred.groups) enc.PutU32(g);
}

Result<WireCred> DecodeCred(Decoder& dec) {
  WireCred cred;
  ARKFS_ASSIGN_OR_RETURN(cred.uid, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(cred.gid, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t n, dec.GetVarint());
  if (n > 1024) return ErrStatus(Errc::kIo, "implausible group count");
  cred.groups.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ARKFS_ASSIGN_OR_RETURN(std::uint32_t g, dec.GetU32());
    cred.groups.push_back(g);
  }
  return cred;
}

void EncodeAttr(Encoder& enc, const SetAttrRequest& attr) {
  enc.PutU32(attr.mask);
  enc.PutU32(attr.mode);
  enc.PutU32(attr.uid);
  enc.PutU32(attr.gid);
  enc.PutU64(attr.size);
  enc.PutI64(attr.atime_sec);
  enc.PutI64(attr.mtime_sec);
}

Result<SetAttrRequest> DecodeAttr(Decoder& dec) {
  SetAttrRequest attr;
  ARKFS_ASSIGN_OR_RETURN(attr.mask, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(attr.mode, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(attr.uid, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(attr.gid, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(attr.size, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(attr.atime_sec, dec.GetI64());
  ARKFS_ASSIGN_OR_RETURN(attr.mtime_sec, dec.GetI64());
  return attr;
}

}  // namespace

Bytes DirOpRequest::Encode() const {
  Encoder enc(256);
  enc.PutU8(static_cast<std::uint8_t>(op));
  enc.PutUuid(dir_ino);
  enc.PutString(name);
  enc.PutString(name2);
  enc.PutUuid(child_ino);
  enc.PutU32(mode);
  enc.PutU8(exclusive ? 1 : 0);
  enc.PutU64(size);
  enc.PutI64(mtime_sec);
  EncodeAttr(enc, attr);
  acl.EncodeTo(enc);
  EncodeCred(enc, cred);
  enc.PutString(client);
  enc.PutU64(trace_id);
  enc.PutU64(parent_span);
  enc.PutU32(tenant);
  return std::move(enc).Take();
}

Result<DirOpRequest> DirOpRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  DirOpRequest req;
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t op, dec.GetU8());
  if (op > static_cast<std::uint8_t>(DirOp::kCommitDir)) {
    return ErrStatus(Errc::kIo, "bad dir op");
  }
  req.op = static_cast<DirOp>(op);
  ARKFS_ASSIGN_OR_RETURN(req.dir_ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(req.name, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(req.name2, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(req.child_ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(req.mode, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t excl, dec.GetU8());
  req.exclusive = excl != 0;
  ARKFS_ASSIGN_OR_RETURN(req.size, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.mtime_sec, dec.GetI64());
  ARKFS_ASSIGN_OR_RETURN(req.attr, DecodeAttr(dec));
  ARKFS_ASSIGN_OR_RETURN(req.acl, Acl::DecodeFrom(dec));
  ARKFS_ASSIGN_OR_RETURN(req.cred, DecodeCred(dec));
  ARKFS_ASSIGN_OR_RETURN(req.client, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(req.trace_id, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.parent_span, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(req.tenant, dec.GetU32());
  // One build writes and reads every frame: anything after the last field
  // is corruption, not a newer peer's extension.
  if (!dec.done()) {
    return ErrStatus(Errc::kIo, "dir-op request: trailing bytes");
  }
  return req;
}

Bytes DirOpResponse::Encode() const {
  Encoder enc(256);
  enc.PutU32(static_cast<std::uint32_t>(code));
  enc.PutString(detail);
  enc.PutU8(has_dentry ? 1 : 0);
  if (has_dentry) dentry.EncodeTo(enc);
  enc.PutU8(has_inode ? 1 : 0);
  if (has_inode) inode.EncodeTo(enc);
  enc.PutU8(dir_meta.valid ? 1 : 0);
  if (dir_meta.valid) {
    enc.PutU32(dir_meta.mode);
    enc.PutU32(dir_meta.uid);
    enc.PutU32(dir_meta.gid);
    dir_meta.acl.EncodeTo(enc);
  }
  enc.PutVarint(entries.size());
  for (const auto& d : entries) d.EncodeTo(enc);
  enc.PutU8(lease_granted ? 1 : 0);
  enc.PutU8(empty_dir ? 1 : 0);
  enc.PutU64(fence.epoch);
  enc.PutU64(fence.seq);
  enc.PutU64(watermark);
  enc.PutVarint(child_inodes.size());
  for (const auto& ino : child_inodes) ino.EncodeTo(enc);
  return std::move(enc).Take();
}

Result<DirOpResponse> DirOpResponse::Decode(ByteSpan data) {
  Decoder dec(data);
  DirOpResponse resp;
  ARKFS_ASSIGN_OR_RETURN(std::uint32_t code, dec.GetU32());
  resp.code = static_cast<Errc>(code);
  ARKFS_ASSIGN_OR_RETURN(resp.detail, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t has_dentry, dec.GetU8());
  resp.has_dentry = has_dentry != 0;
  if (resp.has_dentry) {
    ARKFS_ASSIGN_OR_RETURN(resp.dentry, Dentry::DecodeFrom(dec));
  }
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t has_inode, dec.GetU8());
  resp.has_inode = has_inode != 0;
  if (resp.has_inode) {
    ARKFS_ASSIGN_OR_RETURN(resp.inode, Inode::DecodeFrom(dec));
  }
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t meta_valid, dec.GetU8());
  resp.dir_meta.valid = meta_valid != 0;
  if (resp.dir_meta.valid) {
    ARKFS_ASSIGN_OR_RETURN(resp.dir_meta.mode, dec.GetU32());
    ARKFS_ASSIGN_OR_RETURN(resp.dir_meta.uid, dec.GetU32());
    ARKFS_ASSIGN_OR_RETURN(resp.dir_meta.gid, dec.GetU32());
    ARKFS_ASSIGN_OR_RETURN(resp.dir_meta.acl, Acl::DecodeFrom(dec));
  }
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t n, dec.GetVarint());
  if (n > (1u << 24)) return ErrStatus(Errc::kIo, "implausible entry count");
  resp.entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ARKFS_ASSIGN_OR_RETURN(Dentry d, Dentry::DecodeFrom(dec));
    resp.entries.push_back(std::move(d));
  }
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t granted, dec.GetU8());
  resp.lease_granted = granted != 0;
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t empty, dec.GetU8());
  resp.empty_dir = empty != 0;
  ARKFS_ASSIGN_OR_RETURN(resp.fence.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(resp.fence.seq, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(resp.watermark, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t m, dec.GetVarint());
  if (m > (1u << 24)) return ErrStatus(Errc::kIo, "implausible inode count");
  resp.child_inodes.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    ARKFS_ASSIGN_OR_RETURN(Inode ino, Inode::DecodeFrom(dec));
    resp.child_inodes.push_back(std::move(ino));
  }
  if (!dec.done()) {
    return ErrStatus(Errc::kIo, "dir-op response: trailing bytes");
  }
  return resp;
}

Bytes FlushFileRequest::Encode() const {
  Encoder enc(24);
  enc.PutUuid(ino);
  return std::move(enc).Take();
}

Result<FlushFileRequest> FlushFileRequest::Decode(ByteSpan data) {
  Decoder dec(data);
  FlushFileRequest req;
  ARKFS_ASSIGN_OR_RETURN(req.ino, dec.GetUuid());
  return req;
}

}  // namespace arkfs::wire
