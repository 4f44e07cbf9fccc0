// Erasure-coded archive tier tests: the GF(2^8) Reed–Solomon codec, the
// strict stripe-manifest/shard codecs (truncation + bit-flip sweeps), the
// EcStore decorator, reconstruct-on-read under ANY m simultaneous node
// outages, and scrub-and-repair exactness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/ec_codec.h"
#include "objstore/ec_store.h"
#include "objstore/memory_store.h"
#include "objstore/scrubber.h"

namespace arkfs {
namespace {

Bytes Payload(int i, std::size_t n) {
  Bytes b(n);
  for (std::size_t j = 0; j < n; ++j) {
    b[j] = static_cast<std::uint8_t>((j * 131 + i * 17 + (j >> 8)) & 0xFF);
  }
  return b;
}

// --- GF(2^8) field + RS codec ---

TEST(GfMathTest, FieldProperties) {
  // Multiplicative inverse for every non-zero element.
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(ec::GfMul(static_cast<std::uint8_t>(a),
                        ec::GfInv(static_cast<std::uint8_t>(a))),
              1)
        << a;
  }
  // Zero annihilates; one is the identity.
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(ec::GfMul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(ec::GfMul(static_cast<std::uint8_t>(a), 1), a);
  }
  // Commutativity + distributivity on a sample grid.
  for (int a = 1; a < 256; a += 37) {
    for (int b = 1; b < 256; b += 41) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(ec::GfMul(ua, ub), ec::GfMul(ub, ua));
      for (int c = 1; c < 256; c += 43) {
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(ec::GfMul(ua, ub ^ uc),
                  ec::GfMul(ua, ub) ^ ec::GfMul(ua, uc));
      }
    }
  }
}

// Every possible m-erasure of a k=4/m=2 stripe must decode back to the
// original data, and every lost shard must be reconstructible — this is the
// "any k of k+m" property the durability story rests on.
TEST(RsCodecTest, AllTwoErasuresRecoverAllData) {
  const int k = 4, m = 2, n = k + m;
  const std::size_t shard_len = 257;  // odd, exercises non-word tails
  std::vector<Bytes> shards(static_cast<std::size_t>(n));
  std::vector<ByteSpan> data_spans;
  for (int i = 0; i < k; ++i) {
    shards[static_cast<std::size_t>(i)] = Payload(i, shard_len);
    data_spans.emplace_back(shards[static_cast<std::size_t>(i)]);
  }
  ec::RsCodec codec(k, m);
  std::vector<Bytes> parity;
  codec.EncodeParity(data_spans, &parity);
  for (int j = 0; j < m; ++j) {
    shards[static_cast<std::size_t>(k + j)] = parity[static_cast<std::size_t>(j)];
  }

  for (int dead1 = 0; dead1 < n; ++dead1) {
    for (int dead2 = dead1 + 1; dead2 < n; ++dead2) {
      std::vector<int> present;
      std::vector<ByteSpan> survive;
      for (int i = 0; i < n; ++i) {
        if (i == dead1 || i == dead2) continue;
        present.push_back(i);
        survive.emplace_back(shards[static_cast<std::size_t>(i)]);
      }
      std::vector<Bytes> recovered;
      ASSERT_TRUE(codec.RecoverData(present, survive, &recovered).ok())
          << dead1 << "," << dead2;
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(recovered[static_cast<std::size_t>(i)],
                  shards[static_cast<std::size_t>(i)])
            << "data shard " << i << " after erasing " << dead1 << ","
            << dead2;
      }
      // Rebuild each erased shard (data or parity) byte-identically.
      for (int target : {dead1, dead2}) {
        Bytes rebuilt;
        ASSERT_TRUE(
            codec.ReconstructShard(present, survive, target, &rebuilt).ok());
        EXPECT_EQ(rebuilt, shards[static_cast<std::size_t>(target)])
            << "shard " << target;
      }
    }
  }
}

TEST(RsCodecTest, RejectsBadSurvivorSets) {
  ec::RsCodec codec(4, 2);
  const Bytes shard = Payload(0, 16);
  std::vector<ByteSpan> four(4, ByteSpan(shard));
  std::vector<Bytes> out;
  // Fewer than k survivors.
  EXPECT_EQ(codec.RecoverData({0, 1, 2}, {four.begin(), four.begin() + 3},
                              &out)
                .code(),
            Errc::kIo);
  // Duplicate index.
  EXPECT_EQ(codec.RecoverData({0, 1, 1, 3}, four, &out).code(), Errc::kInval);
  // Out-of-range index.
  EXPECT_EQ(codec.RecoverData({0, 1, 2, 6}, four, &out).code(), Errc::kInval);
  // present/shards mismatch.
  EXPECT_EQ(codec.RecoverData({0, 1, 2, 3, 4}, four, &out).code(),
            Errc::kInval);
}

// --- strict stripe codecs: torn prefixes and bit flips must never decode ---

StripeManifest TestManifest() {
  StripeManifest m;
  m.k = 4;
  m.m = 2;
  m.object_size = 123456;
  m.gen = 7;
  m.stripe_id = 0xDEADBEEFCAFEF00Dull;
  for (int i = 0; i < 6; ++i) {
    m.shards.push_back(EcShardInfo{static_cast<std::uint8_t>(i * 3),
                                   0xA0B0C0D0u + static_cast<std::uint32_t>(i)});
  }
  return m;
}

TEST(EcCodecStrictness, ManifestRoundTrip) {
  const StripeManifest m = TestManifest();
  auto decoded = DecodeStripeManifest(EncodeStripeManifest(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->k, m.k);
  EXPECT_EQ(decoded->m, m.m);
  EXPECT_EQ(decoded->object_size, m.object_size);
  EXPECT_EQ(decoded->gen, m.gen);
  EXPECT_EQ(decoded->stripe_id, m.stripe_id);
  ASSERT_EQ(decoded->shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    EXPECT_EQ(decoded->shards[i].salt, m.shards[i].salt);
    EXPECT_EQ(decoded->shards[i].crc, m.shards[i].crc);
  }
  EXPECT_EQ(decoded->shard_size(), (m.object_size + 3) / 4);
}

TEST(EcCodecStrictness, ManifestRejectsEveryTruncationAndBitFlip) {
  const Bytes encoded = EncodeStripeManifest(TestManifest());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(DecodeStripeManifest(truncated).ok())
        << "decoded a " << len << "-byte torn prefix";
  }
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(DecodeStripeManifest(padded).ok()) << "trailing garbage";
  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = encoded;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeStripeManifest(flipped).ok())
          << "decoded with bit " << bit << " of byte " << byte << " flipped";
    }
  }
}

TEST(EcCodecStrictness, ShardObjectRejectsEveryTruncationAndBitFlip) {
  EcShardHeader header;
  header.index = 3;
  header.gen = 9;
  header.stripe_id = 0x1122334455667788ull;
  const Bytes payload = Payload(1, 64);
  header.payload_crc = Crc32c(payload);
  const Bytes encoded = EncodeShardObject(header, payload);

  auto decoded = DecodeShardObject(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.index, header.index);
  EXPECT_EQ(decoded->header.gen, header.gen);
  EXPECT_EQ(decoded->header.stripe_id, header.stripe_id);
  EXPECT_EQ(decoded->payload, payload);

  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(DecodeShardObject(truncated).ok())
        << "decoded a " << len << "-byte torn prefix";
  }
  Bytes padded = encoded;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeShardObject(padded).ok()) << "trailing garbage";
  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = encoded;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeShardObject(flipped).ok())
          << "decoded with bit " << bit << " of byte " << byte << " flipped";
    }
  }
}

TEST(EcCodecStrictness, KeyClassification) {
  const std::string key = "dabc.0000000000000001";
  std::string logical;
  std::uint64_t gen = 0;
  EXPECT_EQ(ClassifyEcKey(key, &logical), EcKeyKind::kLogical);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(ClassifyEcKey(EcManifestKey(key, 2, 0x1f), &logical),
            EcKeyKind::kManifest);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(ClassifyEcKey(EcShardKey(key, 5, 0x07, 0xabcdef12), &logical,
                          &gen),
            EcKeyKind::kShard);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(gen, 0xabcdef12u);
}

TEST(EcCodecStrictness, SingleDotSuffixesAreNotMistakenForInternalKeys) {
  // The internal grammar lives under the reserved ".." sentinel; a logical
  // key that merely ends in ".ecm"+hex or ".ecs"+hex+".g"+hex must stay
  // logical (it would otherwise be misfolded by List and swept by Delete).
  for (const std::string key :
       {"report.ecm001", "trace.ecs00ff.g00000001", "x.ecm", "x.ecs"}) {
    std::string logical;
    EXPECT_EQ(ClassifyEcKey(key, &logical), EcKeyKind::kLogical) << key;
    EXPECT_EQ(logical, key);
  }
}

TEST(EcCodecStrictness, ManifestRejectsOversizedParityCount) {
  // m caps at 15 (SanitizeEcOptions bound): a manifest claiming more was
  // never written by us, and decoding one would walk repair loops past the
  // 16-entry manifest-salt array.
  StripeManifest m = TestManifest();
  m.m = 16;
  m.shards.resize(static_cast<std::size_t>(m.k) + m.m);
  EXPECT_FALSE(DecodeStripeManifest(EncodeStripeManifest(m)).ok());
}

// --- EcStore over a plain memory base ---

class EcStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<MemoryObjectStore>();
    EcStoreOptions options;
    options.metrics = &registry_;
    options.async = AsyncIoConfig::ForTests();
    ec_ = std::make_shared<EcStore>(base_, options);
  }

  obs::MetricsRegistry registry_;
  ObjectStorePtr base_;
  EcStorePtr ec_;
};

TEST_F(EcStoreTest, RoundTripAcrossSizes) {
  const std::size_t sizes[] = {0, 1, 3, 5, 4096, 4 * 4096 + 17, 100000};
  int i = 0;
  for (const std::size_t size : sizes) {
    const std::string key = "obj" + std::to_string(size);
    const Bytes data = Payload(i++, size);
    ASSERT_TRUE(ec_->Put(key, data).ok()) << size;
    auto got = ec_->Get(key);
    ASSERT_TRUE(got.ok()) << size;
    EXPECT_EQ(*got, data) << size;
    auto head = ec_->Head(key);
    ASSERT_TRUE(head.ok()) << size;
    EXPECT_EQ(head->size, size);
  }
  EXPECT_EQ(ec_->counters().encodes, std::size(sizes));
  EXPECT_EQ(ec_->counters().degraded_reads, 0u);
}

TEST_F(EcStoreTest, GetRangeMatchesRestSemantics) {
  const Bytes data = Payload(3, 10000);  // shard_size = 2500
  ASSERT_TRUE(ec_->Put("r", data).ok());
  // In-shard, cross-shard, suffix, EOF-clamped, past-EOF.
  struct { std::uint64_t off, len; } cases[] = {
      {0, 100}, {2400, 300}, {9990, 10}, {9000, 5000}, {20000, 5}, {0, 10000}};
  for (const auto& c : cases) {
    auto got = ec_->GetRange("r", c.off, c.len);
    ASSERT_TRUE(got.ok()) << c.off << "+" << c.len;
    const std::uint64_t lo = std::min<std::uint64_t>(c.off, data.size());
    const std::uint64_t hi = std::min<std::uint64_t>(c.off + c.len, data.size());
    EXPECT_EQ(*got, Bytes(data.begin() + static_cast<std::ptrdiff_t>(lo),
                          data.begin() + static_cast<std::ptrdiff_t>(hi)))
        << c.off << "+" << c.len;
  }
}

TEST_F(EcStoreTest, ListFoldsInternalKeysAndDeleteSweepsThem) {
  ASSERT_TRUE(ec_->Put("alpha", Payload(1, 1000)).ok());
  ASSERT_TRUE(ec_->Put("beta", Payload(2, 1000)).ok());
  auto listed = ec_->List("");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"alpha", "beta"}));

  // The raw store holds manifests + shards, never the logical key.
  auto raw = base_->List("alpha");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 3u + 6u);  // m+1 manifest copies + k+m shards
  EXPECT_EQ(base_->Get("alpha").code(), Errc::kNoEnt);

  ASSERT_TRUE(ec_->Delete("alpha").ok());
  EXPECT_EQ(ec_->Get("alpha").code(), Errc::kNoEnt);
  raw = base_->List("alpha");
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->empty()) << "delete must sweep every internal object";
  EXPECT_EQ(ec_->Delete("alpha").code(), Errc::kNoEnt);
}

TEST_F(EcStoreTest, ReservedNamespaceKeysPassThroughUnencoded) {
  // Any key containing the "..ec" sentinel is refused by Encodes(), so a
  // stored manifest/shard key can only ever be one EcStore wrote itself.
  EXPECT_FALSE(ec_->Encodes("x..ecm0ff"));
  EXPECT_FALSE(ec_->Encodes("x..ecs0000.g00000001"));
  EXPECT_FALSE(ec_->Encodes("weird..economy"));
  EXPECT_TRUE(ec_->Encodes("report.ecm001"));  // single dot: plain logical
  // Reserved keys still round-trip — verbatim through the base store.
  ASSERT_TRUE(ec_->Put("weird..economy", Payload(0, 64)).ok());
  EXPECT_EQ(*base_->Get("weird..economy"), Payload(0, 64));
  EXPECT_EQ(*ec_->Get("weird..economy"), Payload(0, 64));
}

TEST_F(EcStoreTest, InvalidShardCountsAreClampedAtRuntime) {
  // Runtime validation, not assert-only: m=99 would index far past the
  // 16-entry manifest-salt array in a release build.
  auto base = std::make_shared<MemoryObjectStore>();
  EcStoreOptions options;
  options.k = 0;
  options.m = 99;
  options.async = AsyncIoConfig::ForTests();
  EcStore ec(base, options);
  EXPECT_EQ(ec.options().k, 1);
  EXPECT_EQ(ec.options().m, 15);
  const Bytes data = Payload(1, 2048);
  ASSERT_TRUE(ec.Put("clamped", data).ok());
  EXPECT_EQ(*ec.Get("clamped"), data);
}

TEST_F(EcStoreTest, ManifestCopiesAreFoundAfterTopologyChange) {
  const Bytes data = Payload(4, 6000);
  ASSERT_TRUE(ec_->Put("topo", data).ok());
  // Simulate a ring-membership change: manifest-copy keys embed salts
  // derived from the placement closure, so after the ring moves every copy
  // lives at a key the reader can no longer derive. Relocate all m+1
  // copies (written at salt 0 — no placement probe in this fixture) to a
  // salt the reader will never derive.
  for (int copy = 0; copy <= 2; ++copy) {
    const std::string old_key = EcManifestKey("topo", copy, 0);
    const Bytes raw = base_->Get(old_key).value();
    ASSERT_TRUE(base_->Delete(old_key).ok());
    ASSERT_TRUE(base_->Put(EcManifestKey("topo", copy, 9), raw).ok());
  }
  // Every derived-salt probe misses; the List fallback must still resolve
  // the stripe instead of concluding the key is not EC-placed.
  auto got = ec_->Get("topo");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, data);
  // A probe counts the derived copies as truly missing, and one repair
  // re-homes them at the derivable keys.
  auto probe = ec_->ProbeStripe("topo");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->manifest_copies_missing, 3);
  EXPECT_EQ(probe->manifest_copies_unreachable, 0);
  auto repaired = ec_->RepairStripe("topo", *probe);
  ASSERT_TRUE(repaired.ok());
  EXPECT_TRUE(base_->Get(EcManifestKey("topo", 0, 0)).ok());
  EXPECT_EQ(*ec_->Get("topo"), data);
}

TEST_F(EcStoreTest, PartialWritesAreRefused) {
  EXPECT_FALSE(ec_->supports_partial_write());
  ASSERT_TRUE(ec_->Put("p", Payload(0, 64)).ok());
  EXPECT_EQ(ec_->PutRange("p", 8, Payload(1, 8)).code(), Errc::kNotSup);
}

TEST_F(EcStoreTest, PredicateRoutesOnlyDataKeys) {
  auto base = std::make_shared<MemoryObjectStore>();
  EcStoreOptions options;
  options.should_encode = [](const std::string& key) {
    return !key.empty() && key.front() == 'd';
  };
  options.async = AsyncIoConfig::ForTests();
  EcStore ec(base, options);
  ASSERT_TRUE(ec.Put("d123", Payload(0, 256)).ok());
  ASSERT_TRUE(ec.Put("i123", Payload(1, 256)).ok());
  // The metadata key passes through verbatim; the data key is striped.
  EXPECT_EQ(*base->Get("i123"), Payload(1, 256));
  EXPECT_EQ(base->Get("d123").code(), Errc::kNoEnt);
  EXPECT_TRUE(base->Get(EcManifestKey("d123", 0, 0)).ok());
  EXPECT_EQ(*ec.Get("d123"), Payload(0, 256));
}

TEST_F(EcStoreTest, OverwriteBumpsGenerationAndSweepsOldShards) {
  ASSERT_TRUE(ec_->Put("g", Payload(1, 5000)).ok());
  ASSERT_TRUE(ec_->Put("g", Payload(2, 300)).ok());
  auto manifest = ec_->LoadManifest("g");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->gen, 2u);
  EXPECT_EQ(*ec_->Get("g"), Payload(2, 300));
  // Old-generation shards are gone (step 3 of the write protocol).
  auto raw = base_->List("g..ecs");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->size(), 6u);
  for (const auto& key : *raw) {
    std::uint64_t gen = 0;
    std::string logical;
    ASSERT_EQ(ClassifyEcKey(key, &logical, &gen), EcKeyKind::kShard);
    EXPECT_EQ(gen, 2u) << key;
  }
}

TEST_F(EcStoreTest, CorruptShardIsDetectedReconstructedAndCounted) {
  const Bytes data = Payload(7, 8192);
  ASSERT_TRUE(ec_->Put("c", data).ok());
  auto manifest = ec_->LoadManifest("c");
  ASSERT_TRUE(manifest.ok());
  // Rot a byte of data shard 0's payload at rest.
  const std::string skey =
      EcShardKey("c", 0, manifest->shards[0].salt, manifest->gen);
  Bytes raw = base_->Get(skey).value();
  raw[raw.size() - 1] ^= 0x40;
  ASSERT_TRUE(base_->Put(skey, raw).ok());

  auto got = ec_->Get("c");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data) << "reconstruction must hide the corruption";
  // Exactly one: the same rotted shard seen by the healthy pass AND by the
  // degraded refetch attempts is still one corruption event, not five.
  EXPECT_EQ(ec_->counters().read_corrupt, 1u);
  EXPECT_EQ(ec_->counters().degraded_reads, 1u);
  EXPECT_EQ(ec_->counters().reconstructs, 1u);
  EXPECT_EQ(registry_.Snapshot().counter("ec.read.corrupt"), 1u);
}

// --- scrub-and-repair ---

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_shared<MemoryObjectStore>();
    EcStoreOptions options;
    options.metrics = &registry_;
    options.async = AsyncIoConfig::ForTests();
    ec_ = std::make_shared<EcStore>(base_, options);
    scrubber_ = std::make_shared<Scrubber>(ec_, &registry_);
  }

  // Flips one payload byte of shard `index` of `key` at rest.
  void Corrupt(const std::string& key, int index) {
    auto manifest = ec_->LoadManifest(key);
    ASSERT_TRUE(manifest.ok());
    const std::string skey = EcShardKey(
        key, index, manifest->shards[static_cast<std::size_t>(index)].salt,
        manifest->gen);
    Bytes raw = base_->Get(skey).value();
    raw[raw.size() - 1] ^= 0x01;
    ASSERT_TRUE(base_->Put(skey, raw).ok());
  }

  void Erase(const std::string& key, int index) {
    auto manifest = ec_->LoadManifest(key);
    ASSERT_TRUE(manifest.ok());
    ASSERT_TRUE(base_
                    ->Delete(EcShardKey(
                        key, index,
                        manifest->shards[static_cast<std::size_t>(index)].salt,
                        manifest->gen))
                    .ok());
  }

  obs::MetricsRegistry registry_;
  ObjectStorePtr base_;
  EcStorePtr ec_;
  ScrubberPtr scrubber_;
};

TEST_F(ScrubTest, OnePassRepairsExactlyTheInjectedDamage) {
  std::vector<Bytes> originals;
  for (int i = 0; i < 5; ++i) {
    originals.push_back(Payload(i, 4000 + i * 111));
    ASSERT_TRUE(ec_->Put("s" + std::to_string(i), originals.back()).ok());
  }
  // Inject exactly 4 corruptions + 2 missing shards, never more than m=2
  // per stripe.
  Corrupt("s0", 1);
  Corrupt("s0", 4);
  Corrupt("s2", 0);
  Corrupt("s3", 5);
  Erase("s1", 2);
  Erase("s3", 3);

  auto report = scrubber_->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stripes, 5u);
  EXPECT_EQ(report->corrupt, 4u);
  EXPECT_EQ(report->missing, 2u);
  EXPECT_EQ(report->repaired, 6u) << "repaired must exactly match injected";
  EXPECT_EQ(report->unrecoverable, 0u);
  EXPECT_EQ(report->repair_failures, 0u);
  const auto snap = registry_.Snapshot();
  EXPECT_EQ(snap.counter("ec.scrub.repaired"), 6u);
  EXPECT_EQ(snap.counter("ec.scrub.passes"), 1u);

  // The stripe is fully healed: a second pass finds nothing, and every
  // object reads back healthy (no degraded path).
  const auto before = ec_->counters().degraded_reads;
  auto rescrub = scrubber_->RunOnce();
  ASSERT_TRUE(rescrub.ok());
  EXPECT_EQ(rescrub->corrupt, 0u);
  EXPECT_EQ(rescrub->missing, 0u);
  EXPECT_EQ(rescrub->repaired, 0u);
  for (int i = 0; i < 5; ++i) {
    auto got = ec_->Get("s" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, originals[static_cast<std::size_t>(i)]) << i;
  }
  EXPECT_EQ(ec_->counters().degraded_reads, before);
}

TEST_F(ScrubTest, MoreThanMLossesIsCountedUnrecoverable) {
  ASSERT_TRUE(ec_->Put("dead", Payload(9, 6000)).ok());
  Corrupt("dead", 0);
  Corrupt("dead", 1);
  Erase("dead", 2);
  auto report = scrubber_->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->unrecoverable, 1u);
  EXPECT_EQ(report->repaired, 0u);
  EXPECT_EQ(ec_->Get("dead").code(), Errc::kIo);
}

TEST_F(ScrubTest, RepairIsFencedAgainstConcurrentOverwrite) {
  ASSERT_TRUE(ec_->Put("race", Payload(1, 3000)).ok());
  Corrupt("race", 0);
  auto probe = ec_->ProbeStripe("race");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->corrupt.size(), 1u);
  // An overwrite lands between probe and repair: the stale probe must not
  // resurrect generation-1 shards.
  ASSERT_TRUE(ec_->Put("race", Payload(2, 3000)).ok());
  EXPECT_EQ(ec_->RepairStripe("race", *probe).code(), Errc::kAgain);
  EXPECT_EQ(*ec_->Get("race"), Payload(2, 3000));
}

TEST_F(ScrubTest, TrulyMissingManifestCopyIsRestored) {
  ASSERT_TRUE(ec_->Put("mcopy", Payload(5, 3000)).ok());
  const std::string lost = EcManifestKey("mcopy", 1, 0);
  ASSERT_TRUE(base_->Delete(lost).ok());
  auto report = scrubber_->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->manifest_fixed, 1u);
  EXPECT_EQ(report->repaired, 0u) << "only shard rebuilds count as repairs";
  EXPECT_TRUE(base_->Get(lost).ok()) << "the kNoEnt copy must be restored";
}

TEST_F(ScrubTest, OrphanedOldGenerationShardsAreSwept) {
  ASSERT_TRUE(ec_->Put("orph", Payload(1, 2000)).ok());
  auto m1 = ec_->LoadManifest("orph");
  ASSERT_TRUE(m1.ok());
  // Simulate a crashed overwrite's leftovers: re-plant a gen-1 shard after
  // the object moved to gen 2.
  const std::string old_shard =
      EcShardKey("orph", 0, m1->shards[0].salt, m1->gen);
  const Bytes old_raw = base_->Get(old_shard).value();
  ASSERT_TRUE(ec_->Put("orph", Payload(2, 2000)).ok());
  ASSERT_TRUE(base_->Put(old_shard, old_raw).ok());

  auto report = scrubber_->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphans_swept, 1u);
  EXPECT_EQ(base_->Get(old_shard).code(), Errc::kNoEnt);
  EXPECT_EQ(*ec_->Get("orph"), Payload(2, 2000));
}

// --- ChaosStore read-path bit flips (the fault the CRCs must catch) ---

TEST(ChaosBitFlipTest, FlipsExactlyOneBitOnFilteredKeysOnly) {
  auto base = std::make_shared<MemoryObjectStore>();
  ChaosConfig config;
  config.seed = 11;
  config.bit_flip_rate = 1.0;
  config.bit_flip_filter = [](const std::string& key) {
    return key.find("..ecs") != std::string::npos;
  };
  ChaosStore chaos(base, config);
  const Bytes data = Payload(0, 512);
  ASSERT_TRUE(chaos.Put("x..ecs0000.g00000001", data).ok());
  ASSERT_TRUE(chaos.Put("plain", data).ok());

  auto flipped = chaos.Get("x..ecs0000.g00000001");
  ASSERT_TRUE(flipped.ok());
  EXPECT_NE(*flipped, data);
  int diff_bits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    diff_bits += __builtin_popcount((*flipped)[i] ^ data[i]);
  }
  EXPECT_EQ(diff_bits, 1) << "exactly one bit per faulted read";
  EXPECT_EQ(chaos.counters().bit_flips, 1u);

  // Non-matching keys are never touched.
  EXPECT_EQ(*chaos.Get("plain"), data);
  EXPECT_EQ(chaos.counters().bit_flips, 1u);
}

// --- node outages: the "any m simultaneous" guarantee ---

class EcOutageTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 8;

  void SetUp() override {
    ClusterConfig cc = ClusterConfig::Instant(kNodes);
    cc.replication = 1;  // redundancy comes from EC, not replication
    nodes_ = std::make_shared<ClusterObjectStore>(cc);
    EcStoreOptions options;
    options.placement = ClusterPrimaryPlacement(nodes_);
    options.metrics = &registry_;
    options.async = AsyncIoConfig::ForTests();
    ec_ = std::make_shared<EcStore>(nodes_, options);
  }

  void AllUp() {
    for (int n = 0; n < kNodes; ++n) nodes_->SetNodeDown(n, false);
  }

  obs::MetricsRegistry registry_;
  std::shared_ptr<ClusterObjectStore> nodes_;
  EcStorePtr ec_;
};

TEST_F(EcOutageTest, ShardsAndManifestCopiesLandOnDistinctNodes) {
  ASSERT_TRUE(ec_->Put("place", Payload(0, 9000)).ok());
  auto manifest = ec_->LoadManifest("place");
  ASSERT_TRUE(manifest.ok());
  std::set<int> shard_nodes;
  for (int i = 0; i < 6; ++i) {
    shard_nodes.insert(
        nodes_
            ->ReplicaNodes(EcShardKey(
                "place", i, manifest->shards[static_cast<std::size_t>(i)].salt,
                manifest->gen))
            .front());
  }
  EXPECT_EQ(shard_nodes.size(), 6u) << "k+m shards on k+m distinct nodes";
}

TEST_F(EcOutageTest, EveryPairOfNodeOutagesStaysReadable) {
  std::vector<Bytes> originals;
  const std::size_t sizes[] = {0, 3, 700, 8192, 100000};
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    originals.push_back(Payload(static_cast<int>(i), sizes[i]));
    ASSERT_TRUE(
        ec_->Put("o" + std::to_string(i), originals.back()).ok());
  }
  // ANY m=2 simultaneous outages: all 28 node pairs, every object readable.
  for (int down1 = 0; down1 < kNodes; ++down1) {
    for (int down2 = down1 + 1; down2 < kNodes; ++down2) {
      nodes_->SetNodeDown(down1, true);
      nodes_->SetNodeDown(down2, true);
      for (std::size_t i = 0; i < std::size(sizes); ++i) {
        auto got = ec_->Get("o" + std::to_string(i));
        ASSERT_TRUE(got.ok())
            << "object " << i << " with nodes " << down1 << "," << down2
            << " down: " << got.status().ToString();
        EXPECT_EQ(*got, originals[i]) << i;
      }
      AllUp();
    }
  }
  EXPECT_GT(ec_->counters().degraded_reads, 0u);
  EXPECT_GT(registry_.Snapshot().counter("ec.degraded_reads"), 0u);
}

TEST_F(EcOutageTest, UnreachableManifestCopiesAreLeftAlone) {
  ASSERT_TRUE(ec_->Put("cold", Payload(3, 7000)).ok());
  auto copies = nodes_->List("cold..ecm");
  ASSERT_TRUE(copies.ok());
  ASSERT_EQ(copies->size(), 3u);
  // Down the node holding one manifest copy: the copy is intact on the
  // dead node, so the probe must report it unreachable — NOT missing — and
  // repair must find nothing to do. (Treating node-down as missing made
  // every scrub pass during an outage rewrite all manifest copies, racing
  // concurrent overwrites with a stale generation.)
  nodes_->SetNodeDown(nodes_->ReplicaNodes(copies->front()).front(), true);
  auto probe = ec_->ProbeStripe("cold");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->manifest_copies_unreachable, 1);
  EXPECT_EQ(probe->manifest_copies_missing, 0);
  EXPECT_EQ(probe->manifest_copies_bad, 0);
  EXPECT_TRUE(probe->missing.empty());
  EXPECT_TRUE(probe->corrupt.empty());
  auto repaired = ec_->RepairStripe("cold", *probe);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, 0);
  AllUp();
}

// The CI durability gate (ctest: ec_durability_smoke, chaos label, <30 s):
// encode → kill m nodes → read-verify → heal → corrupt → scrub-repair.
TEST(EcDurabilitySmoke, EncodeKillReadScrubHeal) {
  obs::MetricsRegistry registry;
  ClusterConfig cc = ClusterConfig::Instant(8);
  cc.replication = 1;
  auto nodes = std::make_shared<ClusterObjectStore>(cc);
  EcStoreOptions options;
  options.placement = ClusterPrimaryPlacement(nodes);
  options.metrics = &registry;
  options.async = AsyncIoConfig::ForTests();
  auto ec = std::make_shared<EcStore>(nodes, options);

  // Encode.
  std::vector<Bytes> originals;
  for (int i = 0; i < 8; ++i) {
    originals.push_back(Payload(i, 16384 + i * 777));
    ASSERT_TRUE(ec->Put("f" + std::to_string(i), originals.back()).ok());
  }
  // Kill m nodes, read-verify everything through reconstruction.
  nodes->SetNodeDown(1, true);
  nodes->SetNodeDown(5, true);
  for (int i = 0; i < 8; ++i) {
    auto got = ec->Get("f" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, originals[static_cast<std::size_t>(i)]) << i;
  }
  nodes->SetNodeDown(1, false);
  nodes->SetNodeDown(5, false);

  // Corrupt two shards at rest, then scrub: both repaired, stripe healthy.
  auto manifest = ec->LoadManifest("f0");
  ASSERT_TRUE(manifest.ok());
  for (int index : {0, 3}) {
    const std::string skey = EcShardKey(
        "f0", index, manifest->shards[static_cast<std::size_t>(index)].salt,
        manifest->gen);
    Bytes raw = nodes->Get(skey).value();
    raw[raw.size() / 2] ^= 0x80;
    ASSERT_TRUE(nodes->Put(skey, raw).ok());
  }
  Scrubber scrubber(ec, &registry);
  auto report = scrubber.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt, 2u);
  EXPECT_EQ(report->repaired, 2u);
  EXPECT_EQ(registry.Snapshot().counter("ec.scrub.repaired"), 2u);

  // Healed: a rescrub is clean and reads stay healthy.
  auto rescrub = scrubber.RunOnce();
  ASSERT_TRUE(rescrub.ok());
  EXPECT_EQ(rescrub->corrupt, 0u);
  EXPECT_EQ(*ec->Get("f0"), originals[0]);
}

}  // namespace
}  // namespace arkfs
