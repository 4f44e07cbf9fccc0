// arkfs_cli — a command-line utility for ArkFS images on a persistent
// on-disk object store. State survives across invocations, so this behaves
// like a userspace mount you drive one command at a time:
//
//   arkfs_cli <store-dir> format
//   arkfs_cli <store-dir> mkdir /campaign/2026
//   arkfs_cli <store-dir> put local.dat /campaign/2026/data.bin
//   arkfs_cli <store-dir> ls /campaign
//   arkfs_cli <store-dir> cat /campaign/2026/data.bin
//   arkfs_cli <store-dir> get /campaign/2026/data.bin restored.dat
//   arkfs_cli <store-dir> stat /campaign/2026/data.bin
//   arkfs_cli <store-dir> mv /a /b
//   arkfs_cli <store-dir> rm /campaign/2026/data.bin
//   arkfs_cli <store-dir> rmdir /campaign/2026
//   arkfs_cli <store-dir> chmod 640 /campaign/2026/data.bin
//   arkfs_cli <store-dir> ln -s /target /link
//   arkfs_cli <store-dir> objects          # dump the raw object keys
//   arkfs_cli <store-dir> introspect [p]   # delegations, journal, metrics, spans
//   arkfs_cli <store-dir> scrub            # one EC scrub pass + ec.* metrics
//   arkfs_cli <store-dir> tier [status]    # hot/cold placement + tier counters
//   arkfs_cli <store-dir> tier migrate     # one migration pass (policy knobs)
//   arkfs_cli <store-dir> tier demote      # one pass demoting everything idle
//   arkfs_cli <store-dir> config           # dump every ARKFS_* knob
//
// Every invocation spins up a single-client deployment (client + lease
// manager) over the disk store, performs the operation, and shuts down
// cleanly (flush + lease release) — the "administrator process" usage the
// paper targets.
//
// ARKFS_PLACEMENT=ec switches data chunks to the erasure-coded archive tier
// (k=4/m=2 stripes, ec_store.h); `scrub` implies it. ARKFS_PLACEMENT=tiered
// runs the hot/cold tiered data path (tiering_store.h); the `tier` commands
// imply it. The image's resident layout is probed up
// front (ProbePlacementEvidence): a mode that cannot decode the resident
// data chunks — tiered over data-path EC stripes, or EC over tier
// pointers/cold copies — fails fast instead of silently serving kNoEnt,
// and when no placement is forced the CLI auto-selects the one the image
// was written with. All knobs parse through common/env_config; `config`
// dumps what this process would pick up.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "common/env_config.h"
#include "core/cluster.h"
#include "objstore/disk_store.h"

using namespace arkfs;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: arkfs_cli <store-dir> <command> [args...]\n"
               "commands: format | mkdir <p> | ls <p> | put <local> <p> |\n"
               "          get <p> <local> | cat <p> | rm <p> | rmdir <p> |\n"
               "          mv <from> <to> | stat <p> | chmod <octal> <p> |\n"
               "          ln -s <target> <p> | objects | introspect [p] |\n"
               "          scrub | tier [status|migrate|demote] | config\n"
               "env: ARKFS_PLACEMENT=replica|ec|tiered  data-chunk placement\n"
               "     ARKFS_DURABILITY=sync|group|async  journal ack mode\n"
               "     ARKFS_TENANT=<id>  QoS tenant this invocation runs as\n"
               "     (`config` dumps every knob, its source and its value)\n");
  return 2;
}

int Fail(const Status& st, const char* what) {
  std::fprintf(stderr, "arkfs_cli: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

Result<Bytes> ReadLocalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ErrStatus(Errc::kNoEnt, path);
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

Status WriteLocalFile(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return ErrStatus(Errc::kIo, "cannot open " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good() ? Status::Ok() : ErrStatus(Errc::kIo, "short write");
}

long long Ms(Nanos d) {
  return static_cast<long long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
}

// Renders the typed introspection report, one section per part.
void PrintReport(const Vfs::IntrospectReport& report) {
  std::printf("--- delegations ---\ndelegations held: %zu\n",
              report.delegations.size());
  const TimePoint now = Now();
  for (const auto& d : report.delegations) {
    std::printf("  dir %s leader=%s token={%llu,%llu} leader_watermark=%llu",
                d.dir.ToString().c_str(), d.leader.c_str(),
                static_cast<unsigned long long>(d.token.epoch),
                static_cast<unsigned long long>(d.token.seq),
                static_cast<unsigned long long>(d.leader_watermark));
    if (d.slice_watermark) {
      std::printf(" slice=%llu (%llu entries)",
                  static_cast<unsigned long long>(*d.slice_watermark),
                  static_cast<unsigned long long>(d.slice_entries));
    } else {
      std::printf(" slice=none");
    }
    std::printf(" ttl_ms=%lld\n", Ms(d.until - now));
  }
  if (report.journal) {
    const auto& j = *report.journal;
    std::printf(
        "--- journal ---\ndurability mode: %s\n"
        "dirty window: %llu records / %llu bytes (est), oldest %.3f ms"
        " (limits %llu records / %llu bytes / %lld ms)\n",
        journal::DurabilityModeName(j.durability),
        static_cast<unsigned long long>(j.depth.records),
        static_cast<unsigned long long>(j.depth.bytes),
        static_cast<double>(j.depth.oldest_age.count()) / 1e6,
        static_cast<unsigned long long>(j.limits.max_records),
        static_cast<unsigned long long>(j.limits.max_bytes),
        Ms(j.limits.max_age));
  }
  std::printf("--- metrics ---\n%s", obs::FormatMetrics(report.metrics).c_str());
  std::printf("--- spans ---\n%s",
              obs::Tracer::FormatText(report.spans).c_str());
}

void PrintTierCounters(const TieringStore::Counters& c) {
  std::printf(
      "--- tiering ---\n"
      "tracked_keys=%llu hot_keys=%llu cold_keys=%llu hot_gets=%llu "
      "cold_gets=%llu hot_puts=%llu\n"
      "demotions=%llu promotions=%llu demoted_bytes=%llu promoted_bytes=%llu "
      "races=%llu orphans_swept=%llu pointer_flips=%llu\n",
      static_cast<unsigned long long>(c.tracked_keys),
      static_cast<unsigned long long>(c.hot_keys),
      static_cast<unsigned long long>(c.cold_keys),
      static_cast<unsigned long long>(c.hot_gets),
      static_cast<unsigned long long>(c.cold_gets),
      static_cast<unsigned long long>(c.hot_puts),
      static_cast<unsigned long long>(c.demotions),
      static_cast<unsigned long long>(c.promotions),
      static_cast<unsigned long long>(c.demoted_bytes),
      static_cast<unsigned long long>(c.promoted_bytes),
      static_cast<unsigned long long>(c.races),
      static_cast<unsigned long long>(c.orphans_swept),
      static_cast<unsigned long long>(c.pointer_flips));
}

const char* TypeName(FileType t) {
  switch (t) {
    case FileType::kDirectory: return "dir";
    case FileType::kSymlink: return "link";
    default: return "file";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string store_dir = argv[1];
  const std::string command = argv[2];
  const UserCred user{static_cast<std::uint32_t>(getuid()),
                      static_cast<std::uint32_t>(getgid()),
                      {}};

  const env::EnvConfig env_config = env::EnvConfig::FromEnvironment();
  if (command == "config") {
    std::printf("%s", env_config.DumpText().c_str());
    for (const auto& knob : env_config.knobs()) {
      if (!knob.valid) return 1;
    }
    return 0;
  }
  // A malformed knob fails the invocation up front — running with a
  // silently ignored env override is worse than an error.
  for (const auto& knob : env_config.knobs()) {
    if (!knob.valid) {
      return Fail(ErrStatus(Errc::kInval, knob.raw + " (" + knob.error + ")"),
                  knob.name.c_str());
    }
  }

  auto store_or = DiskObjectStore::Open(store_dir);
  if (!store_or.ok()) return Fail(store_or.status(), "open store");
  ObjectStorePtr store = *store_or;

  if (command == "format") {
    Status st = Client::Format(store, /*force=*/argc > 3 &&
                                          std::strcmp(argv[3], "-f") == 0);
    if (!st.ok()) return Fail(st, "format");
    std::printf("formatted ArkFS image in %s\n", store_dir.c_str());
    return 0;
  }
  if (command == "objects") {
    auto keys = store->List("");
    if (!keys.ok()) return Fail(keys.status(), "list objects");
    for (const auto& key : *keys) {
      auto meta = store->Head(key);
      std::printf("%-40s %10llu bytes\n", key.substr(0, 40).c_str(),
                  meta.ok() ? static_cast<unsigned long long>(meta->size) : 0);
    }
    std::printf("(%zu objects)\n", keys->size());
    return 0;
  }

  ArkFsClusterOptions options;  // instant network: this is a local image
  options.format_store = false;
  const std::string tier_sub =
      (command == "tier" && argc >= 4) ? argv[3] : "status";
  // The data path must match how the image's resident chunks were written:
  // the tiered path cannot decode data-path EC stripes, and the EC path
  // cannot decode tier pointers / cold copies. Probe the image up front and
  // refuse a forced mismatch; with nothing forced, follow the evidence.
  auto evidence_or = ProbePlacementEvidence(*store);
  if (!evidence_or.ok()) return Fail(evidence_or.status(), "probe image");
  const PlacementEvidence evidence = *evidence_or;
  const bool want_tiered =
      command == "tier" || env_config.placement() == "tiered";
  const bool want_ec =
      !want_tiered && (command == "scrub" || env_config.placement() == "ec");
  const env::Knob* placement_knob = env_config.Find("ARKFS_PLACEMENT");
  const bool replica_forced = placement_knob && placement_knob->from_env &&
                              env_config.placement() == "replica";
  if (want_tiered && evidence.ec_data_chunks) {
    return Fail(ErrStatus(Errc::kInval,
                          "image holds data chunks written as EC stripes; "
                          "the tiered data path cannot decode them — rerun "
                          "with ARKFS_PLACEMENT=ec"),
                "placement");
  }
  if (want_ec && evidence.tier_records) {
    return Fail(ErrStatus(Errc::kInval,
                          "image holds tier pointers/cold copies; the EC "
                          "data path cannot decode them — rerun with "
                          "ARKFS_PLACEMENT=tiered"),
                "placement");
  }
  if (replica_forced && (evidence.ec_data_chunks || evidence.tier_records)) {
    return Fail(ErrStatus(Errc::kInval,
                          "image holds EC/tiered data chunks unreadable on "
                          "the replica path; drop ARKFS_PLACEMENT=replica"),
                "placement");
  }
  if (!want_tiered && !want_ec && evidence.ec_data_chunks &&
      evidence.tier_records) {
    return Fail(ErrStatus(Errc::kInval,
                          "image mixes data-path EC stripes with tier "
                          "records; no single data path can read both"),
                "placement");
  }
  if (want_tiered || (!want_ec && !replica_forced && evidence.tier_records)) {
    options.placement = DataPlacement::kTiered;
    // `tier demote` ignores idle clocks and pushes everything down.
    if (command == "tier" && tier_sub == "demote") {
      options.migrate.demote_after = Nanos(0);
    }
  } else if (want_ec || (!replica_forced && evidence.ec_data_chunks)) {
    options.placement = DataPlacement::kEc;
  }
  if (!env_config.durability().empty()) {
    auto mode = journal::ParseDurabilityMode(env_config.durability());
    if (!mode.ok()) return Fail(mode.status(), "ARKFS_DURABILITY");
    options.client_template.journal.durability = *mode;
  }
  if (env_config.tenant()) {
    options.client_template.tenant = *env_config.tenant();
  }
  auto cluster_or = ArkFsCluster::Create(store, options);
  if (!cluster_or.ok()) return Fail(cluster_or.status(), "start");
  auto& cluster = *cluster_or;
  auto client_or = cluster->AddClient("arkfs-cli");
  if (!client_or.ok()) return Fail(client_or.status(), "client");
  auto fs = *client_or;

  int rc = 0;
  if (command == "mkdir" && argc == 4) {
    Status st = fs->MkdirAll(argv[3], 0755, user);
    if (!st.ok()) rc = Fail(st, "mkdir");
  } else if (command == "ls" && argc == 4) {
    auto entries = fs->ReadDir(argv[3], user);
    if (!entries.ok()) {
      rc = Fail(entries.status(), "ls");
    } else {
      for (const auto& d : *entries) {
        auto st = fs->Stat(std::string(argv[3]) == "/"
                               ? "/" + d.name
                               : std::string(argv[3]) + "/" + d.name,
                           user);
        std::printf("%-5s %10llu  %s\n", TypeName(d.type),
                    st.ok() ? static_cast<unsigned long long>(st->size) : 0,
                    d.name.c_str());
      }
    }
  } else if (command == "put" && argc == 5) {
    auto data = ReadLocalFile(argv[3]);
    if (!data.ok()) {
      rc = Fail(data.status(), "read local file");
    } else if (Status st = fs->WriteFileAt(argv[4], *data, user); !st.ok()) {
      rc = Fail(st, "put");
    } else {
      std::printf("wrote %zu bytes to %s\n", data->size(), argv[4]);
    }
  } else if (command == "get" && argc == 5) {
    auto data = fs->ReadWholeFile(argv[3], user);
    if (!data.ok()) {
      rc = Fail(data.status(), "get");
    } else if (Status st = WriteLocalFile(argv[4], *data); !st.ok()) {
      rc = Fail(st, "write local file");
    } else {
      std::printf("restored %zu bytes to %s\n", data->size(), argv[4]);
    }
  } else if (command == "cat" && argc == 4) {
    auto data = fs->ReadWholeFile(argv[3], user);
    if (!data.ok()) {
      rc = Fail(data.status(), "cat");
    } else {
      std::fwrite(data->data(), 1, data->size(), stdout);
    }
  } else if (command == "rm" && argc == 4) {
    if (Status st = fs->Unlink(argv[3], user); !st.ok()) rc = Fail(st, "rm");
  } else if (command == "rmdir" && argc == 4) {
    if (Status st = fs->Rmdir(argv[3], user); !st.ok()) rc = Fail(st, "rmdir");
  } else if (command == "mv" && argc == 5) {
    if (Status st = fs->Rename(argv[3], argv[4], user); !st.ok()) {
      rc = Fail(st, "mv");
    }
  } else if (command == "stat" && argc == 4) {
    auto st = fs->Stat(argv[3], user);
    if (!st.ok()) {
      rc = Fail(st.status(), "stat");
    } else {
      std::printf("%s: %s mode=%o uid=%u gid=%u size=%llu mtime=%lld ino=%s\n",
                  argv[3], TypeName(st->type), st->mode, st->uid, st->gid,
                  static_cast<unsigned long long>(st->size),
                  static_cast<long long>(st->mtime_sec),
                  st->ino.ToString().substr(0, 12).c_str());
    }
  } else if (command == "chmod" && argc == 5) {
    const auto mode = static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 8));
    if (Status st = fs->Chmod(argv[4], mode, user); !st.ok()) {
      rc = Fail(st, "chmod");
    }
  } else if (command == "ln" && argc == 6 && std::strcmp(argv[3], "-s") == 0) {
    if (Status st = fs->Symlink(argv[4], argv[5], user); !st.ok()) {
      rc = Fail(st, "ln -s");
    }
  } else if (command == "introspect" && (argc == 3 || argc == 4)) {
    // With a path, touch it first so the lease / delegation plane reflects
    // at least that directory (a fresh CLI process starts cold).
    if (argc == 4) (void)fs->Stat(argv[3], user);
    PrintReport(fs->Introspect());
  } else if (command == "tier" && (argc == 3 || argc == 4)) {
    TieringStore& tiering = *cluster->tiering_store();
    if (tier_sub == "status") {
      // A fresh process has cached no placement; one probe per tiered key
      // brings the hot/cold split below in line with the store.
      auto keys = tiering.ListTiered("");
      if (!keys.ok()) {
        rc = Fail(keys.status(), "tier status");
      } else {
        for (const auto& key : *keys) (void)tiering.ProbeTier(key);
        PrintTierCounters(tiering.counters());
        std::printf("%s", obs::FormatMetrics(fs->Introspect().metrics,
                                             "tier.migrate.")
                              .c_str());
      }
    } else if (tier_sub == "migrate" || tier_sub == "demote") {
      auto report = cluster->migrator()->RunOnce();
      if (!report.ok()) {
        rc = Fail(report.status(), "tier");
      } else {
        std::printf("tier %s: %s\n", tier_sub.c_str(),
                    report->ToString().c_str());
        // A one-shot CLI process exits before any journal checkpoint, so
        // the advisory access stats would never reach the store; flush them
        // here so the next invocation tracks the keys this pass touched.
        if (tiering.ConsumeStatsDirty()) {
          const Bytes blob = tiering.EncodeAccessStats();
          if (!cluster->store()->Put(kTierStatsKey, blob).ok()) {
            tiering.MarkStatsDirty();
          }
        }
        // The tier.* slice of the metrics plane, for operators watching
        // placement drift.
        std::printf("%s",
                    obs::FormatMetrics(fs->Introspect().metrics, "tier.")
                        .c_str());
      }
    } else {
      rc = Usage();
    }
  } else if (command == "scrub" && argc == 3) {
    auto report = cluster->scrubber()->RunOnce();
    if (!report.ok()) {
      rc = Fail(report.status(), "scrub");
    } else {
      std::printf("scrub: %s\n", report->ToString().c_str());
      // The ec.* slice of the metrics plane, for operators watching decay.
      std::printf("%s",
                  obs::FormatMetrics(fs->Introspect().metrics, "ec.").c_str());
    }
  } else {
    rc = Usage();
  }

  Status st = fs->Shutdown();  // flush journals + caches, release leases
  if (rc == 0 && !st.ok()) rc = Fail(st, "shutdown");
  return rc;
}
