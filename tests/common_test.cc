// Unit tests for src/common: status, uuid, codec, crc, rng, stats.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/clock.h"
#include "common/codec.h"
#include "common/env_config.h"
#include "common/mpmc_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/uuid.h"

namespace arkfs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), Errc::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndDetail) {
  Status st = ErrStatus(Errc::kNoEnt, "missing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.errno_value(), 2);
  EXPECT_EQ(st.ToString(), "ENOENT: missing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ErrStatus(Errc::kIo, "boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::kIo);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MacroPropagation) {
  auto inner = []() -> Result<int> { return ErrStatus(Errc::kAccess); };
  auto outer = [&]() -> Result<int> {
    ARKFS_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  EXPECT_EQ(outer().code(), Errc::kAccess);
}

TEST(UuidTest, RoundTripsThroughString) {
  const Uuid u = NewUuid();
  auto parsed = Uuid::FromString(u.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, u);
}

TEST(UuidTest, RejectsMalformedStrings) {
  EXPECT_FALSE(Uuid::FromString("short").ok());
  EXPECT_FALSE(Uuid::FromString(std::string(32, 'g')).ok());
  EXPECT_TRUE(Uuid::FromString(std::string(32, 'a')).ok());
}

TEST(UuidTest, RandomUuidsAreDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(NewUuid().ToString()).second);
  }
}

TEST(UuidTest, DeterministicUuidIsStable) {
  EXPECT_EQ(DeterministicUuid(1, 2), DeterministicUuid(1, 2));
  EXPECT_NE(DeterministicUuid(1, 2), DeterministicUuid(1, 3));
  EXPECT_NE(DeterministicUuid(2, 2), DeterministicUuid(1, 2));
}

TEST(UuidTest, VersionBitsAreStamped) {
  const Uuid u = NewUuid();
  EXPECT_EQ((u.hi >> 12) & 0xF, 4u);        // version 4
  EXPECT_EQ((u.lo >> 62) & 0x3, 0x2u);      // variant 1
}

TEST(CodecTest, PrimitivesRoundTrip) {
  Encoder enc;
  enc.PutU8(0xAB);
  enc.PutU16(0x1234);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutString("hello");
  enc.PutUuid(Uuid{7, 9});

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.GetU8().value(), 0xAB);
  EXPECT_EQ(dec.GetU16().value(), 0x1234);
  EXPECT_EQ(dec.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetI64().value(), -42);
  EXPECT_EQ(dec.GetString().value(), "hello");
  EXPECT_EQ(dec.GetUuid().value(), (Uuid{7, 9}));
  EXPECT_TRUE(dec.done());
}

TEST(CodecTest, VarintBoundaries) {
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{127}, std::uint64_t{128},
                          std::uint64_t{16383}, std::uint64_t{16384},
                          std::uint64_t{UINT64_MAX}}) {
    Encoder enc;
    enc.PutVarint(v);
    Decoder dec(enc.buffer());
    EXPECT_EQ(dec.GetVarint().value(), v) << v;
  }
}

TEST(CodecTest, TruncatedBufferFailsCleanly) {
  Encoder enc;
  enc.PutU64(12345);
  Bytes data = std::move(enc).Take();
  data.pop_back();
  Decoder dec(data);
  EXPECT_EQ(dec.GetU64().code(), Errc::kIo);
}

TEST(CodecTest, TruncatedStringFailsCleanly) {
  Encoder enc;
  enc.PutString("abcdef");
  Bytes data = std::move(enc).Take();
  data.resize(3);
  Decoder dec(data);
  EXPECT_EQ(dec.GetString().code(), Errc::kIo);
}

TEST(Crc32cTest, KnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32c(AsBytes(s)), 0xE3069283u);
}

TEST(Crc32cTest, DetectsCorruption) {
  Bytes data = ToBytes("some journal transaction payload");
  const std::uint32_t crc = Crc32c(data);
  data[3] ^= 1;
  EXPECT_NE(Crc32c(data), crc);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    if (v == 3) saw_lo = true;
    if (v == 5) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LogNormalIsPositiveAndCenteredOnMedian) {
  Rng rng(11);
  int below = 0, total = 20000;
  for (int i = 0; i < total; ++i) {
    double v = rng.LogNormal(100.0, 0.8);
    EXPECT_GT(v, 0.0);
    if (v < 100.0) ++below;
  }
  // Median property: roughly half the samples fall below the median.
  EXPECT_NEAR(static_cast<double>(below) / total, 0.5, 0.03);
}

TEST(MpmcQueueTest, FifoOrder) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(MpmcQueueTest, CloseDrainsThenEnds) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, CrossThreadDelivery) {
  MpmcQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.Push(i);
    q.Close();
  });
  int count = 0;
  while (q.Pop().has_value()) ++count;
  producer.join();
  EXPECT_EQ(count, 1000);
}

TEST(LatencyHistogramTest, BasicPercentiles) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(Micros(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_GE(h.Percentile(50).count(), Micros(450).count());
  EXPECT_LE(h.Percentile(50).count(), Micros(600).count());
  EXPECT_GE(h.Percentile(99).count(), Micros(900).count());
  EXPECT_GE(h.max().count(), Micros(1000).count());
  EXPECT_LE(h.min().count(), Micros(2).count());
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(Micros(5));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(ThroughputMeterTest, CountsOpsAndBytes) {
  ThroughputMeter m;
  m.Start();
  m.AddOps(10);
  m.AddBytes(1 << 20);
  SleepFor(Millis(10));
  m.Stop();
  EXPECT_EQ(m.ops(), 10u);
  EXPECT_GT(m.OpsPerSecond(), 0.0);
  EXPECT_GT(m.BytesPerSecond(), 0.0);
}

TEST(FormatTest, HumanReadable) {
  EXPECT_NE(FormatOps(2.5e6).find("M ops/s"), std::string::npos);
  EXPECT_NE(FormatOps(2500).find("K ops/s"), std::string::npos);
  EXPECT_NE(FormatBytes(3e9).find("GB/s"), std::string::npos);
  EXPECT_NE(FormatBytes(3e6).find("MB/s"), std::string::npos);
}

// --- EnvConfig: the one parser for ARKFS_* knobs ---

// Scoped setenv/unsetenv so a failing assertion cannot leak a knob into
// later tests.
class EnvConfigTest : public ::testing::Test {
 protected:
  void Set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    touched_.insert(name);
  }
  void TearDown() override {
    for (const auto& name : touched_) ::unsetenv(name.c_str());
  }
  std::set<std::string> touched_;
};

TEST_F(EnvConfigTest, DefaultsWhenUnset) {
  const env::EnvConfig c = env::EnvConfig::FromEnvironment();
  EXPECT_EQ(c.placement(), "replica");
  EXPECT_EQ(c.durability(), "");
  EXPECT_FALSE(c.tenant().has_value());
  EXPECT_FALSE(c.bench_verbose());
  EXPECT_FALSE(c.chaos_seed().has_value());
  for (const env::Knob& knob : c.knobs()) {
    EXPECT_TRUE(knob.valid) << knob.name;
    EXPECT_FALSE(knob.from_env) << knob.name;
  }
}

TEST_F(EnvConfigTest, ParsesEveryKnob) {
  Set("ARKFS_PLACEMENT", "tiered");
  Set("ARKFS_DURABILITY", "group");
  Set("ARKFS_TENANT", "42");
  Set("ARKFS_BENCH_VERBOSE", "1");
  Set("ARKFS_CHAOS_SEED", "12345");
  const env::EnvConfig c = env::EnvConfig::FromEnvironment();
  EXPECT_EQ(c.placement(), "tiered");
  EXPECT_EQ(c.durability(), "group");
  ASSERT_TRUE(c.tenant().has_value());
  EXPECT_EQ(*c.tenant(), 42u);
  EXPECT_TRUE(c.bench_verbose());
  ASSERT_TRUE(c.chaos_seed().has_value());
  EXPECT_EQ(*c.chaos_seed(), 12345u);
  const env::Knob* knob = c.Find("ARKFS_PLACEMENT");
  ASSERT_NE(knob, nullptr);
  EXPECT_TRUE(knob->from_env);
  EXPECT_TRUE(knob->valid);
  EXPECT_EQ(knob->raw, "tiered");
  EXPECT_EQ(c.Find("ARKFS_NO_SUCH_KNOB"), nullptr);
}

TEST_F(EnvConfigTest, MalformedValuesKeepDefaultsAndReport) {
  Set("ARKFS_PLACEMENT", "raid6");
  Set("ARKFS_DURABILITY", "eventually");
  Set("ARKFS_TENANT", "-3");
  Set("ARKFS_CHAOS_SEED", "0x10");
  const env::EnvConfig c = env::EnvConfig::FromEnvironment();
  // Typed accessors fall back to the defaults...
  EXPECT_EQ(c.placement(), "replica");
  EXPECT_EQ(c.durability(), "");
  EXPECT_FALSE(c.tenant().has_value());
  EXPECT_FALSE(c.chaos_seed().has_value());
  // ...and the knob table records what went wrong for `arkfs_cli config`.
  for (const char* name : {"ARKFS_PLACEMENT", "ARKFS_DURABILITY",
                           "ARKFS_TENANT", "ARKFS_CHAOS_SEED"}) {
    const env::Knob* knob = c.Find(name);
    ASSERT_NE(knob, nullptr) << name;
    EXPECT_TRUE(knob->from_env) << name;
    EXPECT_FALSE(knob->valid) << name;
    EXPECT_FALSE(knob->error.empty()) << name;
  }
  EXPECT_NE(c.DumpText().find("error="), std::string::npos);
}

TEST_F(EnvConfigTest, DumpTextListsEveryKnobOnce) {
  const env::EnvConfig c = env::EnvConfig::FromEnvironment();
  const std::string dump = c.DumpText();
  for (const char* name : {"ARKFS_PLACEMENT", "ARKFS_DURABILITY",
                           "ARKFS_TENANT", "ARKFS_BENCH_VERBOSE",
                           "ARKFS_CHAOS_SEED"}) {
    // Anchor on "NAME source=" — knob descriptions may cross-reference
    // other knobs by name.
    const std::string line = std::string(name) + " source=";
    const std::size_t first = dump.find(line);
    EXPECT_NE(first, std::string::npos) << name;
    EXPECT_EQ(dump.find(line, first + 1), std::string::npos)
        << name << " listed twice";
  }
}

}  // namespace
}  // namespace arkfs
