// Tests for the unified observability plane: MetricsRegistry cell
// attachment/rollup, the runtime enable switch, concurrent mutation under
// Snapshot() (the TSan lane's target), the text renderers, and the Tracer
// ring.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arkfs::obs {
namespace {

TEST(MetricsRegistryTest, CountersSumAcrossSameNameCells) {
  MetricsRegistry registry;
  Counter a, b;
  a.Attach(&registry, "x.ops");
  b.Attach(&registry, "x.ops");
  a.Add(3);
  b.Add(4);
  EXPECT_EQ(registry.Snapshot().counter("x.ops"), 7u);
  EXPECT_EQ(registry.Snapshot().counter("absent"), 0u);
}

TEST(MetricsRegistryTest, GaugesTakeTheMaxAcrossCells) {
  MetricsRegistry registry;
  Gauge a, b;
  a.Attach(&registry, "x.peak");
  b.Attach(&registry, "x.peak");
  a.Set(9);
  b.UpdateMax(12);
  b.UpdateMax(5);  // never regresses
  EXPECT_EQ(registry.Snapshot().gauge("x.peak"), 12u);
}

TEST(MetricsRegistryTest, CellsDetachOnDestruction) {
  MetricsRegistry registry;
  {
    Counter tmp;
    tmp.Attach(&registry, "gone.ops");
    tmp.Add(5);
    EXPECT_EQ(registry.Snapshot().counter("gone.ops"), 5u);
  }
  EXPECT_EQ(registry.Snapshot().counters.count("gone.ops"), 0u);
}

TEST(MetricsRegistryTest, NullRegistryAttachesToProcessDefault) {
  Counter c;
  c.Attach(nullptr, "obs_test.default_cell");
  c.Add(2);
  EXPECT_EQ(MetricsRegistry::Default().Snapshot().counter(
                "obs_test.default_cell"),
            2u);
}

TEST(MetricsRegistryTest, DisableSwitchFreezesCells) {
  MetricsRegistry registry;
  Counter c;
  Gauge g;
  c.Attach(&registry, "x.ops");
  g.Attach(&registry, "x.peak");
  c.Add();
  SetMetricsEnabled(false);
  c.Add(100);
  g.Set(50);
  g.UpdateMax(50);
  SetMetricsEnabled(true);
  EXPECT_EQ(registry.Snapshot().counter("x.ops"), 1u);
  EXPECT_EQ(registry.Snapshot().gauge("x.peak"), 0u);
}

TEST(MetricsRegistryTest, HistogramsExportUnderPrefix) {
  MetricsRegistry registry;
  OpLatencySet lat({"put", "get"});
  registry.RegisterHistograms("objstore", &lat);
  lat.Record("put", Nanos(1000));
  lat.Record("put", Nanos(3000));
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histogram("objstore.put").count, 2u);
  EXPECT_GT(snap.histogram("objstore.put").p99_ns, 0);
  registry.UnregisterHistograms(&lat);
  EXPECT_EQ(registry.Snapshot().histograms.count("objstore.put"), 0u);
}

TEST(MetricsRegistryTest, DumpTextListsEveryKind) {
  MetricsRegistry registry;
  Counter c;
  Gauge g;
  OpLatencySet lat({"get"});
  c.Attach(&registry, "a.count");
  g.Attach(&registry, "b.gauge");
  registry.RegisterHistograms("c", &lat);
  lat.Record("get", Nanos(500));
  c.Add(7);
  g.Set(3);
  const MetricsSnapshot snap = registry.Snapshot();
  const std::string text = FormatMetrics(snap);
  EXPECT_NE(text.find("counter a.count 7"), std::string::npos);
  EXPECT_NE(text.find("gauge b.gauge 3"), std::string::npos);
  EXPECT_NE(text.find("hist c.get"), std::string::npos);
  // A prefix keeps only the names under it.
  EXPECT_EQ(FormatMetrics(snap, "b."), "gauge b.gauge 3\n");
  registry.UnregisterHistograms(&lat);
}

// The TSan-lane target: writers hammer shared cells, attachers churn
// cells in and out, and a reader snapshots concurrently. Correctness bar:
// no data race, and the final snapshot sums exactly what the permanent
// cells recorded.
TEST(MetricsRegistryTest, ConcurrentMutationAndSnapshot) {
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::vector<Counter> cells(kWriters);
  for (auto& c : cells) c.Attach(&registry, "stress.ops");

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.Snapshot().counter("stress.ops");
    }
  });
  std::thread churner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Counter ephemeral;
      ephemeral.Attach(&registry, "stress.churn");
      ephemeral.Add();
      Gauge peak;
      peak.Attach(&registry, "stress.peak");
      peak.UpdateMax(1);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) cells[w].Add();
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  churner.join();

  EXPECT_EQ(registry.Snapshot().counter("stress.ops"),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(TracerTest, SpansOutsideAnActiveTraceAreNoOps) {
  Tracer tracer(8);
  {
    Span s("orphan");  // no TraceScope installed
  }
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(TracerTest, RootSpanNestsChildrenUnderOneTraceId) {
  Tracer tracer(16);
  std::uint64_t trace_id = 0;
  {
    RootSpan root(&tracer, "vfs.op");
    trace_id = root.trace_id();
    Span child("lease.acquire");
    Span grandchild("objstore.put");
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& s : spans) EXPECT_EQ(s.trace_id, trace_id);
  // Innermost spans close first; the root closes last and has no parent.
  EXPECT_EQ(spans[2].name, "vfs.op");
  EXPECT_EQ(spans[2].parent_span, 0u);
  EXPECT_EQ(spans[1].name, "lease.acquire");
  EXPECT_EQ(spans[1].parent_span, spans[2].span_id);
  EXPECT_EQ(spans[0].name, "objstore.put");
  EXPECT_EQ(spans[0].parent_span, spans[1].span_id);
  // The text form lists the trace root-first, indented by depth.
  const std::string text = Tracer::FormatText(spans);
  EXPECT_EQ(text.rfind("trace " + std::to_string(trace_id) + "\n  vfs.op ", 0),
            0u);
  EXPECT_NE(text.find("\n    lease.acquire span="), std::string::npos);
  EXPECT_NE(text.find("\n      objstore.put span="), std::string::npos);
}

TEST(TracerTest, NestedRootSpanJoinsTheActiveTrace) {
  // Convenience wrappers (WriteFileAt -> Open/Write/Close) re-enter Vfs
  // entry points; the inner RootSpan must NOT fork a second trace.
  Tracer tracer(16);
  std::uint64_t outer_id = 0;
  {
    RootSpan outer(&tracer, "vfs.write_file_at");
    outer_id = outer.trace_id();
    RootSpan inner(&tracer, "vfs.open");
    EXPECT_EQ(inner.trace_id(), outer_id);
  }
  for (const auto& s : tracer.Spans()) EXPECT_EQ(s.trace_id, outer_id);
}

TEST(TracerTest, RingDropsOldestBeyondCapacity) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    RootSpan root(&tracer, i % 2 ? "odd" : "even");
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first order is preserved across the wrap.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
  }
}

TEST(TracerTest, CaptureReplaysOnAnotherThread) {
  Tracer tracer(16);
  {
    RootSpan root(&tracer, "vfs.fsync");
    const ActiveTrace capture = CaptureTrace();
    std::thread worker([&] {
      TraceScope scope(capture);
      Span s("journal.commit");
    });
    worker.join();
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].name, "journal.commit");
}

// The name predates the removal of the AKTR binary span codec. The span dump
// is now the Spans() snapshot rendered by FormatText, so the round trip
// checked here is that every recorded field of every span reaches the text.
TEST(TracerTest, BinaryDumpRoundTrips) {
  Tracer tracer(16);
  {
    RootSpan root(&tracer, "vfs.mkdir");
    Span child("journal.append");
  }
  {
    RootSpan root(&tracer, "vfs.stat");
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  const std::string text = Tracer::FormatText(spans);
  for (const SpanRecord& s : spans) {
    const std::string line = s.name + " span=" + std::to_string(s.span_id) +
                             " parent=" + std::to_string(s.parent_span) +
                             " dur=" + std::to_string(s.end_ns - s.start_ns) +
                             "ns\n";
    EXPECT_NE(text.find(line), std::string::npos) << line;
    const std::string header = "trace " + std::to_string(s.trace_id) + "\n";
    EXPECT_NE(text.find(header), std::string::npos) << header;
  }
  // One header per trace: two traces, two headers.
  std::size_t headers = 0;
  for (std::size_t at = text.find("trace "); at != std::string::npos;
       at = text.find("trace ", at + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 2u);
}

}  // namespace
}  // namespace arkfs::obs
