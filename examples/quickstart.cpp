// Quickstart: bring up a single-client ArkFS over an in-memory object store
// and use the near-POSIX API.
//
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/cluster.h"
#include "objstore/memory_store.h"

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

int main() {
  // 1. An object store. Swap in a ClusterObjectStore (RADOS- or S3-like), a
  //    DiskObjectStore or your own ObjectStore for other deployments (see
  //    backend_tour.cpp).
  auto store = std::make_shared<MemoryObjectStore>();

  // 2. A cluster harness: formats the store (root inode), starts the lease
  //    manager, and lets us add clients.
  auto cluster =
      ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();
  auto fs = cluster->AddClient("quickstart-client").value();

  const UserCred me{1000, 1000, {}};
  const UserCred root = UserCred::Root();

  // 3. Build a small hierarchy.
  CHECK_OK(fs->Chmod("/", 0777, root));  // open up the root for user 1000
  CHECK_OK(fs->MkdirAll("/projects/demo/results", 0755, me));

  // 4. Write and read a file.
  const std::string text = "hello from ArkFS — metadata lives with me, the "
                           "client, not on a metadata server\n";
  CHECK_OK(fs->WriteFileAt("/projects/demo/results/readme.txt",
                           AsBytes(text), me));
  auto back = fs->ReadWholeFile("/projects/demo/results/readme.txt", me);
  CHECK_OK(back.status());
  std::printf("read back %zu bytes: %s", back->size(),
              ToString(*back).c_str());

  // 5. POSIX-style metadata: stat, chmod, ACLs, rename.
  auto st = fs->Stat("/projects/demo/results/readme.txt", me);
  CHECK_OK(st.status());
  std::printf("size=%llu mode=%o uid=%u\n",
              static_cast<unsigned long long>(st->size), st->mode, st->uid);

  Acl acl;
  acl.Set({AclTag::kUserObj, 0, 7});
  acl.Set({AclTag::kGroupObj, 0, 5});
  acl.Set({AclTag::kMask, 0, 7});
  acl.Set({AclTag::kOther, 0, 0});
  acl.Set({AclTag::kUser, 1001, kPermRead});  // grant a colleague read access
  CHECK_OK(fs->SetAcl("/projects/demo/results/readme.txt", acl, me));

  CHECK_OK(fs->Rename("/projects/demo/results/readme.txt",
                      "/projects/demo/results/README", me));

  // 6. Directory listing.
  auto entries = fs->ReadDir("/projects/demo/results", me);
  CHECK_OK(entries.status());
  std::printf("directory listing:\n");
  for (const auto& d : *entries) {
    std::printf("  %s%s\n", d.name.c_str(),
                d.type == FileType::kDirectory ? "/" : "");
  }

  // 7. Durability: fsync-equivalent for everything this client buffers.
  CHECK_OK(fs->SyncAll());

  auto stats = fs->stats();
  std::printf("client stats: %llu local metadata ops, %llu forwarded, "
              "%llu leases acquired\n",
              static_cast<unsigned long long>(stats.local_meta_ops),
              static_cast<unsigned long long>(stats.forwarded_ops),
              static_cast<unsigned long long>(stats.lease_acquires));
  std::printf("object store now holds %zu objects\n", store->ObjectCount());
  std::printf("quickstart OK\n");
  return 0;
}
