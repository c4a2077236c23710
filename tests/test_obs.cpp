// Observability layer: metrics registry semantics, snapshot diff
// windowing, time-series sampling, trace-analysis span reconstruction
// (incl. critical path + convoy pressure), the --self-check verdict, and
// the end-to-end protocol op-shape and time-accounting claims on live
// UTS/BPC traces.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_analysis.hpp"
#include "sws.hpp"

namespace sws::obs {
namespace {

// ----------------------------------------------------------- registry unit

TEST(MetricsRegistry, CounterAddsPerPeAndTotals) {
  MetricsRegistry reg(3);
  const MetricId c = reg.counter("test.count", "help text");
  reg.add(c, 0, 5);
  reg.add(c, 2, 7);
  reg.add(c, 2);
  EXPECT_EQ(reg.value(c, 0), 5u);
  EXPECT_EQ(reg.value(c, 1), 0u);
  EXPECT_EQ(reg.value(c, 2), 8u);
  EXPECT_EQ(reg.total(c), 13u);
}

TEST(MetricsRegistry, GaugeTotalsByMax) {
  MetricsRegistry reg(2);
  const MetricId g = reg.gauge("test.gauge");
  reg.set(g, 0, 100);
  reg.set(g, 1, 40);
  reg.set(g, 0, 60);  // overwrite, not accumulate
  EXPECT_EQ(reg.value(g, 0), 60u);
  EXPECT_EQ(reg.total(g), 60u);
}

TEST(MetricsRegistry, HistogramObserves) {
  MetricsRegistry reg(2);
  const MetricId h = reg.histogram("test.hist");
  reg.observe(h, 0, 10);
  reg.observe(h, 1, 1000);
  reg.observe(h, 1, 1001);
  EXPECT_EQ(reg.total(h), 3u);
  const MetricsSnapshot snap = reg.snapshot();
  const auto* e = snap.find("test.hist");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist.count(), 3u);  // merged across PEs
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry reg(1);
  const MetricId a = reg.counter("same.name");
  const MetricId b = reg.counter("same.name", "different help is fine");
  EXPECT_EQ(a.idx, b.idx);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find("same.name").idx, a.idx);
  EXPECT_FALSE(reg.find("no.such.metric").valid());
}

TEST(MetricsRegistry, InvalidIdIsIgnored) {
  MetricsRegistry reg(1);
  MetricId bad;
  reg.add(bad, 0, 1);  // must not crash
  reg.set(bad, 0, 1);
  reg.observe(bad, 0, 1);
  EXPECT_EQ(reg.total(bad), 0u);
}

TEST(MetricsRegistry, RegistrationAfterValuesExistExtendsSlabs) {
  MetricsRegistry reg(2);
  const MetricId a = reg.counter("first");
  reg.add(a, 1, 3);
  const MetricId h = reg.histogram("late.hist");
  const MetricId b = reg.counter("late.counter");
  reg.observe(h, 0, 9);
  reg.add(b, 0, 2);
  EXPECT_EQ(reg.value(a, 1), 3u);
  EXPECT_EQ(reg.total(h), 1u);
  EXPECT_EQ(reg.total(b), 2u);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg(2);
  const MetricId c = reg.counter("keep.me");
  reg.add(c, 0, 9);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.total(c), 0u);
  reg.add(c, 1, 4);
  EXPECT_EQ(reg.total(c), 4u);
}

TEST(MetricsRegistry, ResetResizesPeCount) {
  MetricsRegistry reg(1);
  const MetricId c = reg.counter("c");
  reg.add(c, 0, 1);
  reg.reset(4);
  EXPECT_EQ(reg.npes(), 4);
  EXPECT_EQ(reg.total(c), 0u);
  reg.add(c, 3, 2);
  EXPECT_EQ(reg.total(c), 2u);
}

// -------------------------------------------------------- snapshot algebra

TEST(MetricsSnapshot, MergeSumsCountersMaxesGauges) {
  MetricsRegistry reg(2);
  const MetricId c = reg.counter("runs.counter");
  const MetricId g = reg.gauge("runs.gauge");
  const MetricId h = reg.histogram("runs.hist");
  reg.add(c, 0, 10);
  reg.set(g, 0, 5);
  reg.observe(h, 0, 100);
  MetricsSnapshot first = reg.snapshot();

  reg.reset_values();
  reg.add(c, 0, 7);
  reg.add(c, 1, 1);
  reg.set(g, 0, 3);
  reg.observe(h, 1, 200);
  MetricsSnapshot second = reg.snapshot();

  first.merge(second);
  EXPECT_EQ(first.find("runs.counter")->total(), 18u);
  EXPECT_EQ(first.find("runs.counter")->per_pe[0], 17u);
  EXPECT_EQ(first.find("runs.gauge")->total(), 5u) << "gauges merge by max";
  EXPECT_EQ(first.find("runs.hist")->hist.count(), 2u);
}

TEST(MetricsSnapshot, MergeAppendsUnknownEntries) {
  MetricsRegistry a(1), b(1);
  a.add(a.counter("only.in.a"), 0, 1);
  b.add(b.counter("only.in.b"), 0, 2);
  MetricsSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  ASSERT_NE(sa.find("only.in.a"), nullptr);
  ASSERT_NE(sa.find("only.in.b"), nullptr);
  EXPECT_EQ(sa.find("only.in.b")->total(), 2u);
}

TEST(MetricsSnapshot, ExportersProduceOutput) {
  MetricsRegistry reg(2);
  reg.add(reg.counter("exp.counter", "a \"quoted\" help"), 1, 3);
  reg.observe(reg.histogram("exp.hist"), 0, 42);
  std::ostringstream text, json;
  reg.write_text(text);
  reg.write_json(json);
  EXPECT_NE(text.str().find("exp.counter"), std::string::npos);
  EXPECT_NE(text.str().find("p50="), std::string::npos);
  EXPECT_NE(json.str().find("\"schema\":\"sws-metrics\""), std::string::npos);
  EXPECT_NE(json.str().find("\\\"quoted\\\""), std::string::npos)
      << "JSON strings must escape quotes";
  EXPECT_NE(json.str().find("\"per_pe\":[0,3]"), std::string::npos);
  EXPECT_NE(json.str().find("\"buckets\":[[5,1]]"), std::string::npos);
}

TEST(MetricsSnapshot, SetHistReplacesWholesale) {
  MetricsRegistry reg(1);
  const MetricId h = reg.histogram("pub.hist");
  LogHistogram src;
  src.add(8);
  src.add(8);
  reg.set_hist(h, 0, src);
  reg.set_hist(h, 0, src);  // publish twice: idempotent, no doubling
  EXPECT_EQ(reg.total(h), 2u);
}

// --------------------------------------------- windowed diff edge cases

TEST(LogHistogram, SubtractIsPerBucketAndSaturating) {
  // 1023 and 1024 land in adjacent log2 buckets; a windowed delta must
  // subtract per bucket, never across the boundary.
  LogHistogram later, earlier;
  later.add(1023);
  later.add(1024);
  later.add(1024);
  earlier.add(1024);
  later.subtract(earlier);
  EXPECT_EQ(later.count(), 2u);
  EXPECT_EQ(later.bucket(9), 1u) << "[512,1024) untouched";
  EXPECT_EQ(later.bucket(10), 1u) << "[1024,2048) lost exactly one";

  // Unrelated baseline with more samples than we have: saturate at zero.
  LogHistogram big;
  big.add(1023);
  big.add(1023);
  later.subtract(big);
  EXPECT_EQ(later.bucket(9), 0u);
  EXPECT_EQ(later.count(), 1u) << "total recomputed from surviving buckets";
}

TEST(MetricsSnapshot, DiffAgainstEmptyBaselineIsIdentity) {
  MetricsRegistry reg(2);
  reg.add(reg.counter("win.counter"), 0, 12);
  reg.set(reg.gauge("win.gauge"), 1, 7);
  MetricsSnapshot later = reg.snapshot();
  later.diff(MetricsSnapshot{});  // no entries at all: implicit zero
  EXPECT_EQ(later.find("win.counter")->total(), 12u);
  EXPECT_EQ(later.find("win.gauge")->total(), 7u);
}

TEST(MetricsSnapshot, DiffSubtractsCountersSaturating) {
  MetricsRegistry reg(2);
  const MetricId c = reg.counter("win.counter");
  reg.add(c, 0, 5);
  reg.add(c, 1, 9);
  MetricsSnapshot earlier = reg.snapshot();
  reg.add(c, 0, 3);  // pe0 grows to 8; pe1 stays 9
  MetricsSnapshot later = reg.snapshot();
  later.diff(earlier);
  EXPECT_EQ(later.find("win.counter")->per_pe[0], 3u);
  EXPECT_EQ(later.find("win.counter")->per_pe[1], 0u);

  // A *reset* counter (later < earlier, e.g. across reset_values) must
  // saturate at 0, not wrap to ~2^64.
  MetricsSnapshot reset = earlier;
  reg.reset_values();
  reg.add(c, 0, 1);
  MetricsSnapshot after_reset = reg.snapshot();
  after_reset.diff(reset);
  EXPECT_EQ(after_reset.find("win.counter")->total(), 0u);
}

TEST(MetricsSnapshot, DiffGaugeIsLastValueWins) {
  // Gauges report a level: the window's value is whatever the gauge held
  // at the window's end, not a difference of levels.
  MetricsRegistry reg(1);
  const MetricId g = reg.gauge("win.gauge");
  reg.set(g, 0, 100);
  MetricsSnapshot earlier = reg.snapshot();
  reg.set(g, 0, 40);  // level *dropped* across the window
  MetricsSnapshot later = reg.snapshot();
  later.diff(earlier);
  EXPECT_EQ(later.find("win.gauge")->total(), 40u)
      << "gauge diff must keep the later level, not subtract";
}

TEST(MetricsSnapshot, DiffDisjointEntriesKeptVerbatim) {
  MetricsRegistry a(1), b(1);
  a.add(a.counter("only.later"), 0, 4);
  b.add(b.counter("only.earlier"), 0, 9);
  MetricsSnapshot later = a.snapshot();
  later.diff(b.snapshot());
  EXPECT_EQ(later.find("only.later")->total(), 4u);
  EXPECT_EQ(later.find("only.earlier"), nullptr)
      << "entries only in the earlier snapshot are ignored";
}

TEST(MetricsSnapshot, DiffHistogramSubtractsBucketwise) {
  MetricsRegistry reg(1);
  const MetricId h = reg.histogram("win.hist");
  reg.observe(h, 0, 1023);
  MetricsSnapshot earlier = reg.snapshot();
  reg.observe(h, 0, 1024);  // boundary neighbour of the baseline sample
  MetricsSnapshot later = reg.snapshot();
  later.diff(earlier);
  EXPECT_EQ(later.find("win.hist")->hist.count(), 1u);
  EXPECT_EQ(later.find("win.hist")->hist.bucket(10), 1u);
  EXPECT_EQ(later.find("win.hist")->hist.bucket(9), 0u);
}

// --------------------------------------------------- time-series sampling

TEST(TimeSeries, DeltaAndLevelExport) {
  std::uint64_t counter = 0;
  std::uint64_t level = 0;
  TimeSeries ts(10);
  ts.add_series("c", TimeSeries::Mode::kDelta, [&] { return counter; });
  ts.add_series("l", TimeSeries::Mode::kLevel, [&] { return level; });
  ts.add_meta("protocol", "\"sws\"");
  ts.add_meta("npes", "2");
  counter = 5;
  level = 3;
  ts.sample(10);
  counter = 4;  // re-attribution can shrink a cumulative source
  level = 9;
  ts.sample(20);
  std::ostringstream os;
  ts.write_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\":\"sws-timeseries\""), std::string::npos);
  EXPECT_NE(j.find("\"t\":[10,20]"), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"c\",\"mode\":\"delta\",\"v\":[5,-1]"),
            std::string::npos)
      << "delta mode exports signed per-window differences: " << j;
  EXPECT_NE(j.find("\"name\":\"l\",\"mode\":\"level\",\"v\":[3,9]"),
            std::string::npos)
      << "level mode exports raw samples: " << j;

  // Round-trip through the analyzer's parser.
  std::istringstream is(j);
  const TimeSeriesData parsed = parse_timeseries(is);
  EXPECT_EQ(parsed.interval_ns, 10u);
  EXPECT_EQ(parsed.protocol, "sws");
  EXPECT_EQ(parsed.npes, 2);
  ASSERT_EQ(parsed.t.size(), 2u);
  ASSERT_NE(parsed.find("c"), nullptr);
  EXPECT_TRUE(parsed.find("c")->delta);
  EXPECT_EQ(parsed.find("c")->v[1], -1);
  EXPECT_FALSE(parsed.find("l")->delta);
}

TEST(TimeSeries, SampleIsMonotoneAndIdempotent) {
  std::uint64_t v = 0;
  TimeSeries ts(10);
  ts.add_series("v", TimeSeries::Mode::kDelta, [&] { return v; });
  ts.sample(10);
  ts.sample(10);  // duplicate finalize: ignored
  ts.sample(5);   // stale time: ignored
  EXPECT_EQ(ts.samples(), 1u);
  ts.sample(20);
  EXPECT_EQ(ts.samples(), 2u);
  ts.clear();
  EXPECT_TRUE(ts.empty());
  ts.sample(10);  // reusable after clear (bench repetitions)
  EXPECT_EQ(ts.samples(), 1u);
}

TEST(TimeSeries, TruncatesAtSampleCap) {
  std::uint64_t v = 0;
  TimeSeries ts(10, /*max_samples=*/2);
  ts.add_series("v", TimeSeries::Mode::kDelta, [&] { return v; });
  ts.sample(10);
  ts.sample(20);
  ts.sample(30);  // past the cap: dropped, flagged
  EXPECT_EQ(ts.samples(), 2u);
  EXPECT_TRUE(ts.truncated());
  std::ostringstream os;
  ts.write_json(os);
  EXPECT_NE(os.str().find("\"truncated\":1"), std::string::npos);
}

TEST(TimeSeries, ChromeCounterRowsFollowTracerFormat) {
  std::uint64_t v = 0;
  TimeSeries ts(10);
  ts.add_series("acct.working", TimeSeries::Mode::kDelta, [&] { return v; });
  v = 1500;
  ts.sample(12345);
  std::ostringstream os;
  ts.write_chrome_counters(os);
  // ",\n"-prefixed rows, µs timestamps with exact .001 resolution — the
  // same convention the tracer's own counter rows use.
  EXPECT_EQ(os.str(),
            ",\n{\"name\":\"acct.working\",\"ph\":\"C\",\"ts\":12.345,"
            "\"pid\":0,\"tid\":0,\"args\":{\"value\":1500}}");
}

TEST(TimeSeriesCheck, AccountingInvariantHoldsAndFails) {
  const auto doc = [](const char* elapsed) {
    return std::string(
               "{\"schema\":\"sws-timeseries\",\"interval_ns\":10,"
               "\"samples\":2,\"truncated\":0,\"protocol\":\"sws\","
               "\"npes\":2,\"t\":[10,20],\"series\":["
               "{\"name\":\"acct.working\",\"mode\":\"delta\",\"v\":[10,9]},"
               "{\"name\":\"acct.probing\",\"mode\":\"delta\",\"v\":[5,11]},"
               "{\"name\":\"acct.stealing\",\"mode\":\"delta\",\"v\":[2,10]},"
               "{\"name\":\"acct.parked\",\"mode\":\"delta\",\"v\":[3,10]},"
               "{\"name\":\"acct.blocked_nbi\",\"mode\":\"delta\","
               "\"v\":[0,0]},"
               "{\"name\":\"acct.recovering\",\"mode\":\"delta\",\"v\":[0,0]},"
               "{\"name\":\"acct.idle_terminating\",\"mode\":\"delta\","
               "\"v\":[0,0]},"
               "{\"name\":\"acct.elapsed_ns\",\"mode\":\"delta\",\"v\":[") +
           elapsed + "]}]}";
  };
  {
    std::istringstream is(doc("20,40"));
    EXPECT_TRUE(check_accounting(parse_timeseries(is)).empty());
  }
  {
    std::istringstream is(doc("20,41"));  // one window off by 1 ns
    const auto errs = check_accounting(parse_timeseries(is));
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("t=20ns"), std::string::npos) << errs[0];
  }
  {
    // No acct.* series at all: nothing to check, vacuously clean.
    std::istringstream is(
        "{\"schema\":\"sws-timeseries\",\"interval_ns\":10,\"samples\":0,"
        "\"truncated\":0,\"t\":[],\"series\":[]}");
    EXPECT_TRUE(check_accounting(parse_timeseries(is)).empty());
  }
}

// ------------------------------------------------- trace-analysis parsing

/// Dumps `t` with SWS run metadata on a flat `npes`-PE fabric and parses
/// it back.
RunTrace reparse_sws(const core::Tracer& t, int npes) {
  std::ostringstream os;
  core::TraceMeta meta;
  meta.protocol = "sws";
  meta.npes = npes;
  meta.slot_bytes = 48;
  meta.topo = "flat";
  t.dump_chrome_json(os, meta);
  std::istringstream is(os.str());
  return parse_chrome_trace(is);
}

TEST(TraceAnalysis, ReconstructsSpansFromTracerDump) {
  core::Tracer t(2, 64);
  t.begin(1, 1000, core::TraceKind::kStealSpan, 77, 0);
  t.complete(1, 1010, 300, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kAmoFetchAdd),
             0 | (8u << 16));
  t.complete(1, 1400, 500, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kGet),
             0 | (96u << 16));
  t.complete(1, 1950, 40, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kNbiAmoAdd),
             0 | (8u << 16));
  t.end(1, 2000, core::TraceKind::kStealSpan, 77, 0, 0 | (2u << 8));
  const RunTrace rt = reparse_sws(t, 2);
  EXPECT_EQ(rt.protocol, "sws");
  EXPECT_EQ(rt.npes, 2);
  EXPECT_FALSE(rt.truncated);
  ASSERT_EQ(rt.spans.size(), 1u);
  const Span& s = rt.spans[0];
  EXPECT_EQ(s.kind, "steal");
  EXPECT_EQ(s.pe, 1);
  EXPECT_EQ(s.victim(), 0);
  EXPECT_EQ(s.outcome(), 0);
  EXPECT_EQ(s.ntasks(), 2u);
  EXPECT_EQ(s.duration_ns(), 1000u);
  ASSERT_EQ(s.ops.size(), 3u);
  EXPECT_EQ(s.ops[0].op, "amo_fetch_add");
  EXPECT_EQ(s.ops[1].op, "get");
  EXPECT_EQ(s.ops[1].bytes, 96u);
  EXPECT_TRUE(s.ops[0].blocking());
  EXPECT_FALSE(s.ops[2].blocking());

  const AnalyzeReport r = analyze(rt);
  EXPECT_EQ(r.steals_ok, 1u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first, "amo_fetch_add:1 get:1 nbi_amo_add:1");
}

TEST(TraceAnalysis, FlagsOrphansInUntruncatedTrace) {
  core::Tracer t(1, 64);
  t.begin(0, 100, core::TraceKind::kStealSpan, 5, 0);
  // No end: the span id stays open.
  const RunTrace rt = reparse_sws(t, 1);
  EXPECT_EQ(rt.orphan_begins, 1u);
  const AnalyzeReport r = analyze(rt);
  ASSERT_FALSE(r.violations.empty());
}

TEST(TraceAnalysis, RejectsMalformedJson) {
  std::istringstream is("{\"not\": \"an array\"}");
  EXPECT_THROW(parse_chrome_trace(is), std::runtime_error);
  std::istringstream truncated("[{\"name\":\"x\"");
  EXPECT_THROW(parse_chrome_trace(truncated), std::runtime_error);
}

TEST(TraceAnalysis, MissingTopoMetaFailsLoudly) {
  // A protocol-bearing trace from an older writer (no topo key): tier
  // attribution would silently default to flat, so the analyzer must
  // refuse instead of guessing.
  std::istringstream is(
      "[\n{\"name\":\"sws_run_meta\",\"ph\":\"i\",\"s\":\"g\",\"ts\":0,"
      "\"pid\":0,\"tid\":0,\"args\":{\"protocol\":\"sws\",\"npes\":2,"
      "\"slot_bytes\":48,\"truncated\":0}}\n]\n");
  const AnalyzeReport r = analyze(parse_chrome_trace(is));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("topo"), std::string::npos)
      << r.violations.front();
}

TEST(TraceAnalysis, BulkSwsShapeAdmittedExtraAmoRejected) {
  // A bulk claim of 4 blocks: one fetch-add, one coalesced get, one
  // completion add per block. Then a steal with a second fetch-add.
  core::Tracer t(2, 64);
  const auto op = [&](std::uint64_t span, net::Nanos ts, net::OpKind k) {
    t.complete(1, ts, 10, core::TraceKind::kFabricOp, span,
               static_cast<std::uint64_t>(k), 0 | (8u << 16));
  };
  t.begin(1, 100, core::TraceKind::kStealSpan, 1, 0);
  op(1, 110, net::OpKind::kAmoFetchAdd);
  op(1, 130, net::OpKind::kGet);
  for (int i = 0; i < 4; ++i) op(1, 150 + 10 * i, net::OpKind::kNbiAmoAdd);
  t.end(1, 200, core::TraceKind::kStealSpan, 1, 0, 0 | (4u << 8));
  AnalyzeReport r = analyze(reparse_sws(t, 2));
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  EXPECT_EQ(r.signatures.begin()->first, "amo_fetch_add:1 get:1 nbi_amo_add:4");

  t.begin(1, 300, core::TraceKind::kStealSpan, 2, 0);
  op(2, 310, net::OpKind::kAmoFetchAdd);
  op(2, 320, net::OpKind::kAmoFetchAdd);
  op(2, 330, net::OpKind::kGet);
  op(2, 350, net::OpKind::kNbiAmoAdd);
  t.end(1, 400, core::TraceKind::kStealSpan, 2, 0, 0 | (1u << 8));
  r = analyze(reparse_sws(t, 2));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("exactly 1 remote fetch-add"),
            std::string::npos)
      << r.violations.front();
}

TEST(TraceAnalysis, StormAndChurnWindowsCounted) {
  // 1 µs windows. Window 0: 16 empty attempts, no success — a storm.
  // Window 1: 8 retries + 8 successes — churn (retries are half of all
  // attempts). Window 2: 8 retries + 9 successes — neither.
  core::Tracer t(2, 1024);
  std::uint64_t id = 0;
  const auto attempt = [&](net::Nanos ts, std::uint64_t outcome) {
    ++id;
    t.begin(1, ts, core::TraceKind::kStealSpan, id, 0);
    t.end(1, ts + 5, core::TraceKind::kStealSpan, id, 0, outcome);
  };
  for (int i = 0; i < 16; ++i) attempt(10 + 50 * i, 1);
  for (int i = 0; i < 8; ++i) attempt(1000 + 50 * i, 2);
  for (int i = 0; i < 8; ++i) attempt(1500 + 50 * i, 0);
  for (int i = 0; i < 8; ++i) attempt(2000 + 50 * i, 2);
  for (int i = 0; i < 9; ++i) attempt(2500 + 50 * i, 0);
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const AnalyzeReport r =
      analyze(parse_chrome_trace(is), WindowConfig{.window_ns = 1000});
  EXPECT_EQ(r.steals_empty, 16u);
  EXPECT_EQ(r.steals_retry, 16u);
  EXPECT_EQ(r.storm_windows, 1u);
  EXPECT_EQ(r.churn_windows, 1u);
  EXPECT_EQ(r.peak_window_fails, 16u);
}

TEST(TraceAnalysis, SelfCheckFailsMultiPeTraceWithoutSteals) {
  // Two PEs, one failed attempt: no steal shape was validated, so it fails.
  core::Tracer t(2, 64);
  t.begin(1, 100, core::TraceKind::kStealSpan, 1, 0);
  t.end(1, 200, core::TraceKind::kStealSpan, 1, 0, 1);
  const AnalyzeReport r = analyze(reparse_sws(t, 2));
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  const SelfCheckVerdict v = self_check(r);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.message.find("no successful steals"), std::string::npos)
      << v.message;
}

// ------------------------------------ critical path + convoy (synthetic)

TEST(TraceAnalysis, CriticalPathBlameSumsToPathLength) {
  // PE0 works [0,1000) with one failed steal [100,300); PE1 steals from
  // PE0 over [1000,1400) (one 100 ns fabric op inside) and finishes last.
  // Expected walk: end at PE1, one hop back to PE0, then local to t=0.
  core::Tracer t(2, 64);
  t.begin(0, 100, core::TraceKind::kStealSpan, 5, 1);
  t.end(0, 300, core::TraceKind::kStealSpan, 5, 1, 1);  // outcome empty
  t.begin(1, 1000, core::TraceKind::kStealSpan, 77, 0);
  t.complete(1, 1100, 100, core::TraceKind::kFabricOp, 77,
             static_cast<std::uint64_t>(net::OpKind::kAmoFetchAdd),
             0 | (8u << 16));
  t.end(1, 1400, core::TraceKind::kStealSpan, 77, 0, 0 | (2u << 8));
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);

  const CriticalPath cp = critical_path(rt);
  EXPECT_EQ(cp.end_pe, 1);
  EXPECT_EQ(cp.path_ns, 1400u);
  EXPECT_EQ(cp.steal_hops, 1u);
  EXPECT_EQ(cp.steal_fabric_ns, 100u);
  EXPECT_EQ(cp.steal_proto_ns, 300u) << "hop minus its fabric occupancy";
  EXPECT_EQ(cp.search_ns, 200u) << "PE0's failed steal [100,300)";
  EXPECT_EQ(cp.work_ns, 800u);
  EXPECT_EQ(cp.work_ns + cp.search_ns + cp.steal_fabric_ns +
                cp.steal_proto_ns,
            cp.path_ns)
      << "every path nanosecond blamed exactly once";
  ASSERT_EQ(cp.hop_pes.size(), 2u);
  EXPECT_EQ(cp.hop_pes[0], 1);
  EXPECT_EQ(cp.hop_pes[1], 0);
}

TEST(TraceAnalysis, ConvoyRanksVictimsByPeakWindowPressure) {
  // Three thieves hammer victim 0 inside one window; victim 1 sees one
  // spread-out attempt. Victim 0 must rank first on peak pressure.
  core::Tracer t(4, 64);
  for (int pe = 1; pe <= 3; ++pe) {
    const auto id = static_cast<std::uint64_t>(pe);
    t.begin(pe, 100 + static_cast<net::Nanos>(pe), core::TraceKind::kStealSpan,
            id, 0);
    t.end(pe, 200 + static_cast<net::Nanos>(pe), core::TraceKind::kStealSpan,
          id, 0, pe == 1 ? 0 : 1);
  }
  t.begin(0, 5000, core::TraceKind::kStealSpan, 9, 1);
  t.end(0, 5100, core::TraceKind::kStealSpan, 9, 1, 1);
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const ConvoyReport cr = convoy_report(parse_chrome_trace(is),
                                        WindowConfig{.window_ns = 1000});
  ASSERT_EQ(cr.victims.size(), 2u);
  EXPECT_EQ(cr.victims[0].pe, 0);
  EXPECT_EQ(cr.victims[0].inbound_attempts, 3u);
  EXPECT_EQ(cr.victims[0].inbound_ok, 1u);
  EXPECT_EQ(cr.victims[0].peak_window_attempts, 3u);
  EXPECT_EQ(cr.victims[0].peak_window_start_ns, 0u);
  EXPECT_EQ(cr.victims[1].pe, 1);
  EXPECT_EQ(cr.victims[1].peak_window_attempts, 1u);
  EXPECT_EQ(cr.victims[1].peak_window_start_ns, 5000u);
}

TEST(TraceAnalysis, CounterRowsAreRetained) {
  core::Tracer t(1, 64);
  t.counter(0, 500, core::TraceKind::kQueueDepth, 7);
  std::ostringstream os;
  t.dump_chrome_json(os);
  std::istringstream is(os.str());
  const RunTrace rt = parse_chrome_trace(is);
  EXPECT_EQ(rt.counters, 1u);
  ASSERT_EQ(rt.counter_samples.size(), 1u);
  EXPECT_EQ(rt.counter_samples[0].name, "queue_depth");
  EXPECT_EQ(rt.counter_samples[0].pe, 0);
  EXPECT_EQ(rt.counter_samples[0].ts_ns, 500u);
  EXPECT_EQ(rt.counter_samples[0].value, 7);
}

// ----------------------------------------- live end-to-end (Fig 2 claims)

struct UtsRun {
  AnalyzeReport report;
  core::PoolRunReport pool_report;
  MetricsSnapshot metrics;
};

UtsRun run_uts_traced(core::QueueKind kind, int npes = 2) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = npes;
  rcfg.metrics = true;
  pgas::Runtime rt(rcfg);

  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 2000;
  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);

  core::PoolConfig pcfg;
  pcfg.kind = kind;
  pcfg.queue.slot_bytes = 48;
  pcfg.trace.enable = true;
  pcfg.trace.events = std::size_t{1} << 18;
  core::TaskPool pool(rt, registry, pcfg);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  std::ostringstream os;
  pool.dump_trace_json(os);
  std::istringstream is(os.str());

  UtsRun out;
  out.report = analyze(parse_chrome_trace(is));
  out.pool_report = pool.report();
  pool.publish_metrics(rt.metrics());
  out.metrics = rt.metrics().snapshot();
  return out;
}

TEST(TraceAnalysisLive, SwsStealIsOneFetchAddOneGet) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSws);
  const AnalyzeReport& r = run.report;
  ASSERT_FALSE(r.truncated) << "grow the trace ring";
  ASSERT_GT(r.steals_ok, 0u);
  EXPECT_EQ(r.steals_ok, run.pool_report.total.steals_ok);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  // The paper's SWS claim, verified op by op: every successful steal is
  // one remote fetch-add (fused discovery+claim) + one task-copy get +
  // one non-blocking completion add. 3 ops, 2 blocking.
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first, "amo_fetch_add:1 get:1 nbi_amo_add:1");
  EXPECT_DOUBLE_EQ(r.ops_per_success, 3.0);
  EXPECT_DOUBLE_EQ(r.blocking_per_success, 2.0);
  EXPECT_TRUE(self_check(r).ok) << self_check(r).message;
}

TEST(TraceAnalysisLive, SelfCheckPassesSoloRun) {
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    // A 1-PE run has no victim: zero steals, and still a clean trace.
    const AnalyzeReport r = run_uts_traced(kind, 1).report;
    EXPECT_EQ(r.npes, 1);
    EXPECT_EQ(r.steal_spans, 0u);
    const SelfCheckVerdict v = self_check(r);
    EXPECT_TRUE(v.ok) << v.message;
  }
}

TEST(TraceAnalysisLive, SdcStealIsSixOpSequence) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSdc);
  const AnalyzeReport& r = run.report;
  ASSERT_FALSE(r.truncated);
  ASSERT_GT(r.steals_ok, 0u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.front();
  // The SDC baseline: lock cswap + metadata get + tail-claim put +
  // unlock set + task-copy get + nbi completion set. 6 ops, 5 blocking.
  ASSERT_EQ(r.signatures.size(), 1u);
  EXPECT_EQ(r.signatures.begin()->first,
            "amo_cswap:1 amo_set:1 get:2 nbi_amo_set:1 put:1");
  EXPECT_DOUBLE_EQ(r.ops_per_success, 6.0);
  EXPECT_DOUBLE_EQ(r.blocking_per_success, 5.0);
  EXPECT_TRUE(self_check(r).ok) << self_check(r).message;
}

TEST(TraceAnalysisLive, CrashModeShapesAdmittedAndSummarized) {
  // A crash-mode run: PE 2 dies mid-run. The analyzer must (a) admit the
  // crash-mode SDC steal shape — the extra claim-intent put inside the
  // critical section is protocol, not a violation — and (b) surface the
  // recovery events in its summary counters.
  for (const auto kind : {core::QueueKind::kSdc, core::QueueKind::kSws}) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = 4;
    rcfg.net.faults.crashes.push_back({2, 300'000});
    pgas::Runtime rt(rcfg);

    workloads::UtsParams p;
    p.b0 = 4;
    p.gen_mx = 9;
    p.node_compute_ns = 2000;
    core::TaskRegistry registry;
    workloads::UtsBenchmark uts(registry, p);

    core::PoolConfig pcfg;
    pcfg.kind = kind;
    pcfg.queue.slot_bytes = 48;
    pcfg.trace.enable = true;
    pcfg.trace.events = std::size_t{1} << 18;
    core::TaskPool pool(rt, registry, pcfg);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });

    std::ostringstream os;
    pool.dump_trace_json(os);
    std::istringstream is(os.str());
    const RunTrace rtr = parse_chrome_trace(is);
    EXPECT_TRUE(rtr.crash_mode);
    const AnalyzeReport r = analyze(rtr);
    ASSERT_FALSE(r.truncated) << "grow the trace ring";
    EXPECT_TRUE(r.violations.empty()) << r.violations.front();
    EXPECT_GE(r.deaths_detected, 1u)
        << (kind == core::QueueKind::kSdc ? "SDC" : "SWS");
  }
}

TEST(TraceAnalysisLive, MetricsCoverEveryLayer) {
  const UtsRun run = run_uts_traced(core::QueueKind::kSws);
  const MetricsSnapshot& m = run.metrics;
  // Fabric layer (published by Runtime::run via config().metrics).
  const auto* fetch_adds = m.find("fabric.ops.amo_fetch_add");
  ASSERT_NE(fetch_adds, nullptr);
  EXPECT_GE(fetch_adds->total(), run.pool_report.total.steals_ok);
  // Runtime layer.
  ASSERT_NE(m.find("runtime.last_run_duration_ns"), nullptr);
  EXPECT_GT(m.find("runtime.last_run_duration_ns")->total(), 0u);
  EXPECT_EQ(m.find("runtime.runs")->total(), 1u);
  // Pool + queue layers (published by TaskPool::publish_metrics).
  ASSERT_NE(m.find("pool.tasks_executed"), nullptr);
  EXPECT_EQ(m.find("pool.tasks_executed")->total(),
            run.pool_report.total.tasks_executed);
  EXPECT_EQ(m.find("pool.steals_ok")->total(),
            run.pool_report.total.steals_ok);
  ASSERT_NE(m.find("pool.steal_latency_ns"), nullptr);
  EXPECT_EQ(m.find("pool.steal_latency_ns")->hist.count(),
            run.pool_report.total.steals_ok);
  ASSERT_NE(m.find("queue.releases"), nullptr);
  EXPECT_GT(m.find("queue.releases")->total(), 0u);
}

// -------------------------------------- live per-PE time accounting

/// Every PE's run time must be attributed to exactly one taxonomy
/// category: sum(phase_ns) == accounted_ns, exact integer arithmetic.
void expect_accounting_exact(const core::TaskPool& pool, int npes,
                             const char* what) {
  for (int pe = 0; pe < npes; ++pe) {
    const core::WorkerStats& w = pool.worker_stats(pe);
    const net::Nanos sum = std::accumulate(w.phase_ns.begin(),
                                           w.phase_ns.end(), net::Nanos{0});
    EXPECT_EQ(sum, w.accounted_ns) << what << " pe " << pe;
    EXPECT_GT(w.accounted_ns, 0u) << what << " pe " << pe;
    // The paper's steal/search time are read off the same clocks.
    const auto phase = [&](core::PoolPhase p) {
      return w.phase_ns[static_cast<std::size_t>(p)];
    };
    EXPECT_EQ(w.steal_time_ns, phase(core::PoolPhase::kStealing))
        << what << " pe " << pe;
    EXPECT_EQ(w.search_time_ns, phase(core::PoolPhase::kProbing) +
                                    phase(core::PoolPhase::kParked))
        << what << " pe " << pe;
  }
}

TEST(TimeAccountingLive, PhaseSumsEqualElapsedOnUtsAndBpc) {
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    const char* kname = kind == core::QueueKind::kSws ? "sws" : "sdc";
    {
      pgas::RuntimeConfig rcfg;
      rcfg.npes = 4;
      pgas::Runtime rt(rcfg);
      workloads::UtsParams p;
      p.b0 = 4;
      p.gen_mx = 9;
      p.node_compute_ns = 2000;
      core::TaskRegistry registry;
      workloads::UtsBenchmark uts(registry, p);
      core::PoolConfig pcfg;
      pcfg.kind = kind;
      pcfg.queue.slot_bytes = 48;
      core::TaskPool pool(rt, registry, pcfg);
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
      });
      expect_accounting_exact(pool, rcfg.npes,
                              (std::string("uts/") + kname).c_str());
      // kWorking covers at least the charged task compute.
      core::PoolRunReport r = pool.report();
      EXPECT_GE(r.total.phase_ns[static_cast<std::size_t>(
                    core::PoolPhase::kWorking)],
                r.total.compute_time_ns)
          << kname;
    }
    {
      pgas::RuntimeConfig rcfg;
      rcfg.npes = 4;
      pgas::Runtime rt(rcfg);
      workloads::BpcParams p;
      p.consumers_per_producer = 8;
      p.depth = 6;
      p.consumer_ns = 50'000;
      p.producer_ns = 10'000;
      core::TaskRegistry registry;
      workloads::BpcBenchmark bpc(registry, p);
      core::PoolConfig pcfg;
      pcfg.kind = kind;
      pcfg.queue.slot_bytes = 48;
      core::TaskPool pool(rt, registry, pcfg);
      rt.run([&](pgas::PeContext& ctx) {
        pool.run_pe(ctx, [&](core::Worker& w) { bpc.seed(w); });
      });
      expect_accounting_exact(pool, rcfg.npes,
                              (std::string("bpc/") + kname).c_str());
    }
  }
}

TEST(TimeAccountingLive, SampledWindowsSumExactlyToElapsed) {
  // A sampling run: every window's acct.* deltas must sum to the elapsed
  // delta (the invariant sws-analyze --timeseries re-checks offline), and
  // the cumulative total must equal the per-PE accounted time.
  for (const auto kind : {core::QueueKind::kSws, core::QueueKind::kSdc}) {
    pgas::RuntimeConfig rcfg;
    rcfg.npes = 2;
    pgas::Runtime rt(rcfg);
    workloads::UtsParams p;
    p.b0 = 4;
    p.gen_mx = 9;
    p.node_compute_ns = 2000;
    core::TaskRegistry registry;
    workloads::UtsBenchmark uts(registry, p);
    core::PoolConfig pcfg;
    pcfg.kind = kind;
    pcfg.queue.slot_bytes = 48;
    pcfg.trace.sample_interval_ns = 10'000;  // sampling without tracing
    core::TaskPool pool(rt, registry, pcfg);
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
    });

    std::ostringstream os;
    pool.dump_timeseries_json(os);
    std::istringstream is(os.str());
    const TimeSeriesData ts = parse_timeseries(is);
    EXPECT_GT(ts.t.size(), 1u) << "expected multiple sampled windows";
    const auto errs = check_accounting(ts);
    EXPECT_TRUE(errs.empty()) << errs.front();

    const TimeSeriesData::Series* elapsed = ts.find("acct.elapsed_ns");
    ASSERT_NE(elapsed, nullptr);
    const std::int64_t total =
        std::accumulate(elapsed->v.begin(), elapsed->v.end(),
                        std::int64_t{0});
    std::int64_t accounted = 0;
    for (int pe = 0; pe < rcfg.npes; ++pe)
      accounted +=
          static_cast<std::int64_t>(pool.worker_stats(pe).accounted_ns);
    EXPECT_EQ(total, accounted)
        << "cumulative sampled elapsed == sum of per-PE accounted time";
  }
}

TEST(TimeAccountingLive, SampledTraceCarriesCounterTracks) {
  // Sampling + tracing: the trace dump gains one Perfetto counter track
  // per sampled series, which the analyzer retains as counter samples.
  pgas::RuntimeConfig rcfg;
  rcfg.npes = 2;
  pgas::Runtime rt(rcfg);
  workloads::UtsParams p;
  p.b0 = 4;
  p.gen_mx = 9;
  p.node_compute_ns = 2000;
  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, p);
  core::PoolConfig pcfg;
  pcfg.queue.slot_bytes = 48;
  pcfg.trace.enable = true;
  pcfg.trace.events = std::size_t{1} << 18;
  pcfg.trace.sample_interval_ns = 10'000;
  core::TaskPool pool(rt, registry, pcfg);
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });

  std::ostringstream os;
  pool.dump_trace_json(os);
  std::istringstream is(os.str());
  const RunTrace rt2 = parse_chrome_trace(is);
  std::uint64_t acct_rows = 0;
  std::int64_t elapsed_total = 0;
  for (const CounterSample& cs : rt2.counter_samples) {
    if (cs.name.rfind("acct.", 0) == 0) ++acct_rows;
    if (cs.name == "acct.elapsed_ns") elapsed_total += cs.value;
  }
  EXPECT_GT(acct_rows, 0u) << "sampled series must appear as C rows";
  std::int64_t accounted = 0;
  for (int pe = 0; pe < rcfg.npes; ++pe)
    accounted +=
        static_cast<std::int64_t>(pool.worker_stats(pe).accounted_ns);
  EXPECT_EQ(elapsed_total, accounted);
}

}  // namespace
}  // namespace sws::obs
