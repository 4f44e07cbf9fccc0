// Client-driven metadata in action: multiple clients, per-directory leases,
// leader forwarding, and crash recovery from the per-directory journal.
//
// Walks through the paper's Figure 3 scenario and the §III-E failure story.
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
  const UserCred root = UserCred::Root();
  auto store = std::make_shared<MemoryObjectStore>();
  auto cluster =
      ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();

  auto c1 = cluster->AddClient("C1").value();
  auto c2 = cluster->AddClient("C2").value();

  // --- Figure 3: C1 leads / and /home; C2 creates through C1 ---
  CHECK_OK(c1->Mkdir("/home", 0755, root));
  CHECK_OK(c1->WriteFileAt("/home/foo.txt", AsBytes("C1 wrote this"), root));

  // C2 wants /home/baz.txt. Its lease request is redirected to C1, and the
  // CREATE executes on C1's metatable on C2's behalf.
  CHECK_OK(c2->WriteFileAt("/home/baz.txt", AsBytes("C2 wrote this"), root));

  auto c1_stats = c1->stats();
  auto c2_stats = c2->stats();
  std::printf("C1: %llu local ops, served %llu remote ops\n",
              static_cast<unsigned long long>(c1_stats.local_meta_ops),
              static_cast<unsigned long long>(c1_stats.served_remote_ops));
  std::printf("C2: %llu ops forwarded to leaders, %llu lease redirects\n",
              static_cast<unsigned long long>(c2_stats.forwarded_ops),
              static_cast<unsigned long long>(c2_stats.lease_redirects));

  // C2 becomes a leader of its own directory — no forwarding there.
  CHECK_OK(c2->Mkdir("/home/doc", 0755, root));
  // (/home/doc's dentry lives with C1; the new directory's metatable will
  // belong to whoever accesses it first — C2, below.)
  CHECK_OK(c2->WriteFileAt("/home/doc/bar.txt", AsBytes("doc data"), root));
  // C1 reads through C2, the leader of /home/doc.
  auto via_leader = c1->ReadWholeFile("/home/doc/bar.txt", root);
  CHECK_OK(via_leader.status());
  std::printf("C1 read \"%s\" via C2's metatable\n",
              ToString(*via_leader).c_str());

  // --- §III-E: client failure and journal recovery ---
  auto c3 = cluster->AddClient("C3").value();
  CHECK_OK(c3->Mkdir("/scratch", 0755, root));
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int i = 0; i < 5; ++i) {
    auto fd = c3->Open("/scratch/f" + std::to_string(i), create, root);
    CHECK_OK(fd.status());
    CHECK_OK(c3->Write(*fd, 0, AsBytes("journaled")).status());
    CHECK_OK(c3->Fsync(*fd));  // durable in /scratch's journal
    CHECK_OK(c3->Close(*fd));
  }
  std::printf("C3 created 5 files in /scratch, then crashes hard...\n");
  c3->CrashHard();

  // Wait out C3's lease; the next client to touch /scratch finds valid
  // transactions in the journal and replays them before serving.
  SleepFor(cluster->lease_manager().config().lease_period + Millis(100));
  auto entries = c1->ReadDir("/scratch", root);
  CHECK_OK(entries.status());
  std::printf("after recovery, /scratch holds %zu files (%llu recoveries "
              "performed by C1)\n",
              entries->size(),
              static_cast<unsigned long long>(c1->stats().recoveries));

  // --- §III-E.2: the lease manager itself can restart ---
  cluster->lease_manager().Stop();
  CHECK_OK(cluster->lease_manager().Start());
  CHECK_OK(c2->WriteFileAt("/home/after_restart", AsBytes("still here"), root));
  std::printf("cluster still works after a lease-manager restart\n");

  std::printf("multi-client demo OK\n");
  return 0;
}
