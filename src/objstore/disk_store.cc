#include "objstore/disk_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace arkfs {
namespace fs = std::filesystem;

namespace {
constexpr char kHex[] = "0123456789abcdef";

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}
}  // namespace

std::string DiskObjectStore::EncodeKey(const std::string& key) {
  std::string out;
  out.reserve(key.size() * 2);
  for (unsigned char c : key) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

Result<std::string> DiskObjectStore::DecodeKey(const std::string& file_name) {
  if (file_name.size() % 2 != 0) return ErrStatus(Errc::kInval, file_name);
  std::string out;
  out.reserve(file_name.size() / 2);
  for (std::size_t i = 0; i < file_name.size(); i += 2) {
    const int hi = HexVal(file_name[i]);
    const int lo = HexVal(file_name[i + 1]);
    if (hi < 0 || lo < 0) return ErrStatus(Errc::kInval, file_name);
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

Result<std::shared_ptr<DiskObjectStore>> DiskObjectStore::Open(
    const fs::path& root, std::uint64_t max_object_size) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) return ErrStatus(Errc::kIo, "create_directories: " + ec.message());
  const int fd =
      ::open((root / ".lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrStatus(Errc::kIo, "open lock file: " + root.string());
  return std::shared_ptr<DiskObjectStore>(
      new DiskObjectStore(root, max_object_size, fd));
}

DiskObjectStore::~DiskObjectStore() { ::close(lock_fd_); }

DiskObjectStore::WriteLock::WriteLock(DiskObjectStore& store)
    : lock_(store.mu_), fd_(store.lock_fd_) {
  while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
  }
}

DiskObjectStore::WriteLock::~WriteLock() { ::flock(fd_, LOCK_UN); }

fs::path DiskObjectStore::PathFor(const std::string& key) const {
  return root_ / EncodeKey(key);
}

Result<Bytes> DiskObjectStore::Get(const std::string& key) {
  std::FILE* f = std::fopen(PathFor(key).c_str(), "rb");
  if (!f) return ErrStatus(Errc::kNoEnt, key);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(static_cast<std::size_t>(size < 0 ? 0 : size));
  const std::size_t got = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (got != data.size()) return ErrStatus(Errc::kIo, "short read: " + key);
  return data;
}

Result<Bytes> DiskObjectStore::GetRange(const std::string& key,
                                        std::uint64_t offset,
                                        std::uint64_t length) {
  std::FILE* f = std::fopen(PathFor(key).c_str(), "rb");
  if (!f) return ErrStatus(Errc::kNoEnt, key);
  std::fseek(f, 0, SEEK_END);
  const auto size = static_cast<std::uint64_t>(std::ftell(f));
  if (offset >= size) {
    std::fclose(f);
    return Bytes{};
  }
  const std::uint64_t n = std::min(length, size - offset);
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  Bytes data(n);
  const std::size_t got = std::fread(data.data(), 1, n, f);
  std::fclose(f);
  if (got != n) return ErrStatus(Errc::kIo, "short read: " + key);
  return data;
}

Status DiskObjectStore::Put(const std::string& key, ByteSpan data) {
  return DoPut(key, data, nullptr);
}

Status DiskObjectStore::PutRange(const std::string& key, std::uint64_t offset,
                                 ByteSpan data) {
  return DoPutRange(key, offset, data, nullptr);
}

Status DiskObjectStore::PutIf(const std::string& key, ByteSpan data,
                              const WriteGuard& guard) {
  return DoPut(key, data, &guard);
}

Status DiskObjectStore::PutRangeIf(const std::string& key,
                                   std::uint64_t offset, ByteSpan data,
                                   const WriteGuard& guard) {
  return DoPutRange(key, offset, data, &guard);
}

Status DiskObjectStore::CheckGuardLocked(const std::string& key,
                                         const WriteGuard* guard) {
  if (guard == nullptr) return Status::Ok();
  auto prefix = GetRange(key, 0, guard->extent());
  if (!prefix.ok() && prefix.code() != Errc::kNoEnt) return prefix.status();
  if (!guard->Holds(prefix.ok() ? std::optional<ByteSpan>(*prefix)
                                : std::nullopt)) {
    return ErrStatus(Errc::kStale, "write guard mismatch: " + key);
  }
  return Status::Ok();
}

Status DiskObjectStore::DoPut(const std::string& key, ByteSpan data,
                              const WriteGuard* guard) {
  if (data.size() > max_object_size_) {
    return ErrStatus(Errc::kFBig, "object exceeds max object size");
  }
  WriteLock lock(*this);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, guard));
  // Write-then-rename so a crash never leaves a half-written object visible.
  const fs::path tmp = PathFor(key).string() + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return ErrStatus(Errc::kIo, "open for write: " + key);
  const std::size_t put = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (put != data.size()) return ErrStatus(Errc::kIo, "short write: " + key);
  std::error_code ec;
  fs::rename(tmp, PathFor(key), ec);
  if (ec) return ErrStatus(Errc::kIo, "rename: " + ec.message());
  return Status::Ok();
}

Status DiskObjectStore::DoPutRange(const std::string& key,
                                   std::uint64_t offset, ByteSpan data,
                                   const WriteGuard* guard) {
  if (offset + data.size() > max_object_size_) {
    return ErrStatus(Errc::kFBig, "range write exceeds max object size");
  }
  WriteLock lock(*this);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, guard));
  std::FILE* f = std::fopen(PathFor(key).c_str(), "r+b");
  if (!f) f = std::fopen(PathFor(key).c_str(), "w+b");
  if (!f) return ErrStatus(Errc::kIo, "open for update: " + key);
  std::fseek(f, 0, SEEK_END);
  auto size = static_cast<std::uint64_t>(std::ftell(f));
  // Zero-fill any gap between current EOF and the write offset.
  while (size < offset) {
    const std::uint64_t pad = std::min<std::uint64_t>(offset - size, 4096);
    static const char kZeros[4096] = {};
    if (std::fwrite(kZeros, 1, pad, f) != pad) {
      std::fclose(f);
      return ErrStatus(Errc::kIo, "pad write: " + key);
    }
    size += pad;
  }
  std::fseek(f, static_cast<long>(offset), SEEK_SET);
  const std::size_t put = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (put != data.size()) return ErrStatus(Errc::kIo, "short write: " + key);
  return Status::Ok();
}

Status DiskObjectStore::Delete(const std::string& key) {
  WriteLock lock(*this);  // never between a guard check and its write
  std::error_code ec;
  if (!fs::remove(PathFor(key), ec) || ec) return ErrStatus(Errc::kNoEnt, key);
  return Status::Ok();
}

Status DiskObjectStore::DeleteIf(const std::string& key,
                                 const WriteGuard& guard) {
  WriteLock lock(*this);
  std::error_code ec;
  if (!fs::exists(PathFor(key), ec)) return ErrStatus(Errc::kNoEnt, key);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, &guard));
  if (!fs::remove(PathFor(key), ec) || ec) return ErrStatus(Errc::kNoEnt, key);
  return Status::Ok();
}

Result<ObjectMeta> DiskObjectStore::Head(const std::string& key) {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(key), ec);
  if (ec) return ErrStatus(Errc::kNoEnt, key);
  return ObjectMeta{size, 0};
}

Result<std::vector<std::string>> DiskObjectStore::List(
    const std::string& prefix) {
  std::vector<std::string> keys;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    auto decoded = DecodeKey(entry.path().filename().string());
    if (!decoded.ok()) continue;  // skip temp files
    if (decoded->compare(0, prefix.size(), prefix) == 0) {
      keys.push_back(std::move(*decoded));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace arkfs
