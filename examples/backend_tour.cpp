// Backend tour: the PRT over several object-store backends (paper §III-F —
// "ArkFS can support any kind of object storage backend by registering the
// corresponding REST APIs").
//
// Mounts the same file system image on four built-in backends and one
// custom backend, and shows the capability differences that matter
// (partial writes vs whole-object PUTs). A backend is any ObjectStore
// implementation: construct it and hand it to the cluster, which puts its
// instrumented store stack on top.
#include <cstdio>
#include <filesystem>

#include "core/cluster.h"
#include "objstore/cluster_store.h"
#include "objstore/disk_store.h"
#include "objstore/memory_store.h"
#include "objstore/store_decorator.h"

using namespace arkfs;

#define CHECK_OK(expr)                                             \
  do {                                                             \
    ::arkfs::Status _st = (expr);                                  \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "FAILED %s: %s\n", #expr,               \
                   _st.ToString().c_str());                        \
      return 1;                                                    \
    }                                                              \
  } while (0)

namespace {

// A user-written backend: any ObjectStore implementation works. This one
// is a whole-object-only view of an in-memory store, like a plain REST
// key-value service; the same seven calls would carry a real REST client.
class WholeObjectBackend : public StoreDecorator {
 public:
  WholeObjectBackend()
      : StoreDecorator(std::make_shared<MemoryObjectStore>(1ull << 20)) {}
  Status PutRange(const std::string&, std::uint64_t, ByteSpan) override {
    return ErrStatus(Errc::kNotSup, "whole-object backend");
  }
  bool supports_partial_write() const override { return false; }
  std::string name() const override { return "whole-object/" + base()->name(); }
};

int ExerciseBackend(const std::string& label, ObjectStorePtr store) {
  std::printf("--- backend \"%s\" (%s): partial writes %s, max object %llu MB\n",
              label.c_str(), store->name().c_str(),
              store->supports_partial_write() ? "yes" : "no (RMW in the PRT)",
              static_cast<unsigned long long>(store->max_object_size() >> 20));

  auto cluster =
      ArkFsCluster::Create(std::move(store), ArkFsClusterOptions::ForTests())
          .value();
  auto fs = cluster->AddClient().value();
  const UserCred root = UserCred::Root();

  CHECK_OK(fs->MkdirAll("/tour/data", 0755, root));
  Bytes payload(64 * 1024, 0x42);
  CHECK_OK(fs->WriteFileAt("/tour/data/blob.bin", payload, root));
  // A small in-place overwrite: cheap on partial-write stores, a full-chunk
  // rewrite on whole-object (S3-style) ones.
  OpenOptions rw;
  rw.write = true;
  auto fd = fs->Open("/tour/data/blob.bin", rw, root);
  CHECK_OK(fd.status());
  CHECK_OK(fs->Write(*fd, 1000, AsBytes("patched")).status());
  CHECK_OK(fs->Fsync(*fd));
  CHECK_OK(fs->Close(*fd));

  auto back = fs->ReadWholeFile("/tour/data/blob.bin", root);
  CHECK_OK(back.status());
  if (back->size() != payload.size() || ToString(*back).substr(1000, 7) != "patched") {
    std::fprintf(stderr, "readback mismatch on %s\n", label.c_str());
    return 1;
  }
  // Every store call of the deployment, lease managers included.
  const auto counters = cluster->instrumented_store()->Snapshot();
  std::printf("    ops: %llu puts / %llu gets, %.1f KB written for the "
              "7-byte patch\n",
              static_cast<unsigned long long>(counters.puts),
              static_cast<unsigned long long>(counters.gets),
              static_cast<double>(counters.bytes_written) / 1024);
  CHECK_OK(fs->SyncAll());
  return 0;
}

}  // namespace

int main() {
  const auto tmp =
      (std::filesystem::temp_directory_path() / "arkfs_backend_tour").string();
  std::filesystem::remove_all(tmp);
  auto disk = DiskObjectStore::Open(tmp);
  CHECK_OK(disk.status());

  const std::vector<std::pair<std::string, ObjectStorePtr>> backends = {
      {"memory", std::make_shared<MemoryObjectStore>()},
      {"rados",
       std::make_shared<ClusterObjectStore>(ClusterConfig::RadosLike())},
      {"s3", std::make_shared<ClusterObjectStore>(ClusterConfig::S3Like())},
      {"disk", *disk},
      {"custom", std::make_shared<WholeObjectBackend>()},
  };
  for (const auto& [label, store] : backends) {
    if (int rc = ExerciseBackend(label, store); rc != 0) return rc;
  }
  std::printf("backend tour OK (%zu backends)\n", backends.size());
  return 0;
}
