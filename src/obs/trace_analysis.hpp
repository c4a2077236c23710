// Offline analysis of Tracer::dump_chrome_json output — the core behind
// tools/sws-analyze, the project's one trace analyzer.
//
// The analyzer reconstructs steal/release/acquire spans and their child
// fabric ops from a trace file, then derives the quantities the paper
// argues about: communication ops per successful steal (Fig 2's 6-vs-3),
// steal-latency quantiles per outcome, and pathology windows (steal
// storms, SDC abort churn). It also implements the protocol self-check CI
// runs on every push: a successful SWS steal must be exactly one remote
// fetch-add plus one task-copy get (two when the ring wrapped) plus one
// non-blocking completion add; a successful SDC steal must show the
// six-op lock / fetch / claim / unlock / copy / notify shape. Both checks
// admit the protocols' legitimate contention ops — SWS one empty-mode
// probe fetch, SDC one extra cswap + probe get per failed lock attempt.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "net/types.hpp"

namespace sws::obs {

/// One fabric op attributed to a span (a kFabricOp complete event).
struct TraceOp {
  std::string op;  ///< net::op_kind_name string ("get", "amo_fetch_add", …)
  int target = -1;
  std::uint64_t bytes = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  /// Blocking = everything that stalls the initiator (non-nbi).
  bool blocking() const noexcept { return op.rfind("nbi_", 0) != 0; }
};

/// A reconstructed begin/end pair plus its child ops.
struct Span {
  std::string kind;  ///< "steal" | "release_span" | "acquire_span"
  std::uint64_t id = 0;
  int pe = -1;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t a_begin = 0;  ///< steal: victim
  std::uint64_t a_end = 0;
  std::uint64_t b_end = 0;  ///< steal: outcome | (ntasks << 8)
  bool closed = false;
  std::vector<TraceOp> ops;

  std::uint64_t duration_ns() const noexcept { return end_ns - begin_ns; }
  // Steal-span decoding (StealOutcome values: 0 success, 1 empty, 2 retry).
  int victim() const noexcept { return static_cast<int>(a_begin); }
  int outcome() const noexcept { return static_cast<int>(b_end & 0xFF); }
  std::uint32_t ntasks() const noexcept {
    return static_cast<std::uint32_t>(b_end >> 8);
  }
};

/// One counter-track sample ("ph":"C") — queue depth, pending nbi, or an
/// injected time-series window value. Values may be negative (delta-mode
/// series re-attribute small amounts between related categories).
struct CounterSample {
  std::string name;
  int pe = -1;
  std::uint64_t ts_ns = 0;
  std::int64_t value = 0;
};

/// Everything parse_chrome_trace recovers from one trace file.
struct RunTrace {
  std::string protocol;  ///< from sws_run_meta; "" when absent
  int npes = 0;
  std::uint32_t slot_bytes = 0;
  std::string topo;  ///< topology spec string ("flat", "*x4", "2x4x48", …)
  bool crash_mode = false;  ///< run had a crash-stop FaultPlan armed
  bool truncated = false;  ///< ring wrapped: orphans at the front are benign
  std::vector<Span> spans;  ///< closed spans in begin-time order
  std::uint64_t orphan_begins = 0;  ///< begin with no matching end
  std::uint64_t orphan_ends = 0;    ///< end with no matching begin
  std::uint64_t orphan_ops = 0;     ///< fabric op outside any open span
  std::uint64_t instants = 0;
  // Crash-recovery instants (crash-mode runs only; docs/resilience.md).
  std::uint64_t deaths_detected = 0;  ///< death_detected events (per observer)
  std::uint64_t reroutes = 0;         ///< rerouted events
  std::uint64_t rerouted_tasks = 0;   ///< tasks re-homed off dead inboxes
  std::uint64_t counters = 0;
  std::vector<CounterSample> counter_samples;  ///< retained "C" rows
  std::uint64_t fabric_ops = 0;  ///< attributed + orphaned
  std::uint64_t duration_ns = 0;  ///< max event end time
};

/// Parse a Chrome trace-event JSON array as written by
/// Tracer::dump_chrome_json. Throws std::runtime_error on malformed
/// input (this is a validator for our own writer, not a general JSON
/// toolkit).
RunTrace parse_chrome_trace(std::istream& is);
RunTrace parse_chrome_trace_file(const std::string& path);

/// Pathology window scan parameters; defaults match sws-analyze's.
struct WindowConfig {
  std::uint64_t window_ns = 0;  ///< 0 = auto (duration / 64, min 1 µs)
  std::uint64_t storm_min_fails = 16;   ///< failed steals to call a storm
  std::uint64_t churn_min_retries = 8;  ///< kRetry results to call churn
};

struct AnalyzeReport {
  std::string protocol;
  int npes = 0;
  bool truncated = false;
  std::uint64_t duration_ns = 0;

  std::uint64_t steal_spans = 0;
  std::uint64_t steals_ok = 0;
  std::uint64_t steals_empty = 0;
  std::uint64_t steals_retry = 0;
  std::uint64_t tasks_stolen = 0;
  /// Steal mix by victim distance, derived from the trace's topology
  /// metadata: index t-1 holds attempts/successes against tier-t victims.
  /// ntiers == 1 on flat traces (everything lands in index 0).
  std::string topo;
  int ntiers = 1;
  std::array<std::uint64_t, net::kMaxTiers> attempts_by_tier{};
  std::array<std::uint64_t, net::kMaxTiers> steals_ok_by_tier{};
  std::uint64_t release_spans = 0;
  std::uint64_t acquire_spans = 0;
  /// Crash-recovery shapes (all zero on crash-free traces).
  std::uint64_t recovery_spans = 0;   ///< lease-paced fencing sweeps
  std::uint64_t tasks_recovered = 0;  ///< fenced claims handed back for re-run
  std::uint64_t deaths_detected = 0;  ///< per-observer death certificates
  std::uint64_t reroutes = 0;
  std::uint64_t rerouted_tasks = 0;
  std::uint64_t orphan_begins = 0;
  std::uint64_t orphan_ends = 0;
  std::uint64_t orphan_ops = 0;

  /// Canonical op-multiset signature ("amo_fetch_add:1 get:1
  /// nbi_amo_add:1") → number of *successful* steals showing it. The
  /// per-protocol op count claim is read straight off this map.
  std::map<std::string, std::uint64_t> signatures;
  double ops_per_success = 0.0;       ///< mean total ops
  double blocking_per_success = 0.0;  ///< mean blocking (initiator-stalling)

  sws::LogHistogram lat_ok_ns;     ///< successful-steal span durations
  sws::LogHistogram lat_empty_ns;  ///< kEmpty attempts
  sws::LogHistogram lat_retry_ns;  ///< kRetry attempts

  std::uint64_t window_ns = 0;
  std::uint64_t storm_windows = 0;  ///< fails >= min and >= 4x successes
  std::uint64_t churn_windows = 0;  ///< retries >= min and >= attempts/2
  std::uint64_t peak_window_fails = 0;

  /// Protocol self-check findings; empty = clean. Populated only when the
  /// trace carries run metadata naming the protocol.
  std::vector<std::string> violations;
};

AnalyzeReport analyze(const RunTrace& rt, const WindowConfig& wc = {});

/// The --self-check verdict on one analyzed trace. A trace passes when it
/// names its protocol, shows no violations, and has successful steals
/// whose wire shapes were validated. A 1-PE run (npes == 1 in the run
/// metadata) has no victim to steal from, so it passes with none; any
/// wider run without a successful steal fails — nothing was checked.
struct SelfCheckVerdict {
  bool ok = false;
  std::string message;  ///< one line: "OK (...)" or why the check failed
};

SelfCheckVerdict self_check(const AnalyzeReport& r);

/// Human-readable report (one metric per line, stable ordering).
void write_report(std::ostream& os, const AnalyzeReport& r);
/// Side-by-side A/B comparison of the headline metrics.
void write_diff(std::ostream& os, const AnalyzeReport& a,
                const AnalyzeReport& b);

// ----------------------------------------------------------- critical path

/// The longest dependency chain ending at the run's last event, walked
/// backwards through the steals that delivered the work: from the PE that
/// finished last, jump at each successful steal to the victim that held
/// the tasks beforehand, back to t=0. Every nanosecond of the walked path
/// is blamed on exactly one category (the four *_ns fields sum to
/// path_ns) — the "where did the makespan go" view.
struct CriticalPath {
  int end_pe = -1;             ///< PE whose event closes the run
  std::uint64_t path_ns = 0;   ///< walked span (== run duration)
  std::uint64_t steal_hops = 0;
  /// Blame taxonomy over the path:
  std::uint64_t work_ns = 0;   ///< unspanned time: task bodies + park waits
  std::uint64_t search_ns = 0; ///< failed steals + release/acquire/recovery
  std::uint64_t steal_fabric_ns = 0;  ///< fabric occupancy inside hop steals
  std::uint64_t steal_proto_ns = 0;   ///< hop-steal latency beyond the wire
  std::vector<int> hop_pes;    ///< PE chain, end PE first
};

CriticalPath critical_path(const RunTrace& rt);

/// Hot-victim convoy pressure: inbound steal attempts per victim bucketed
/// into fixed windows, victims ranked by their peak windowed pressure.
struct ConvoyVictim {
  int pe = -1;
  std::uint64_t inbound_attempts = 0;       ///< whole-run inbound spans
  std::uint64_t inbound_ok = 0;             ///< ... that lost work
  std::uint64_t peak_window_attempts = 0;   ///< ranking key
  std::uint64_t peak_window_start_ns = 0;
};

struct ConvoyReport {
  std::uint64_t window_ns = 0;
  std::vector<ConvoyVictim> victims;  ///< every victim, hottest first
};

ConvoyReport convoy_report(const RunTrace& rt, const WindowConfig& wc = {});

void write_critical_path(std::ostream& os, const CriticalPath& cp);
void write_convoy(std::ostream& os, const ConvoyReport& cr,
                  std::size_t top = 5);

// ------------------------------------------------------------- time series

/// A parsed "sws-timeseries" JSON document (TimeSeries::write_json).
/// Values are kept exactly as written: per-window deltas for delta-mode
/// series, raw samples for level-mode.
struct TimeSeriesData {
  std::uint64_t interval_ns = 0;
  bool truncated = false;
  std::string protocol;
  int npes = 0;
  std::vector<std::uint64_t> t;  ///< sample times (ns)
  struct Series {
    std::string name;
    bool delta = false;
    std::vector<std::int64_t> v;
  };
  std::vector<Series> series;

  const Series* find(const std::string& name) const noexcept;
};

TimeSeriesData parse_timeseries(std::istream& is);
TimeSeriesData parse_timeseries_file(const std::string& path);

/// The accounting invariant, checked to the nanosecond: in every window
/// the acct.* category deltas must sum exactly to acct.elapsed_ns.
/// Returns violation messages; empty = clean (also when the document
/// carries no acct.* series at all).
std::vector<std::string> check_accounting(const TimeSeriesData& ts);

/// Utilization timeline + phase breakdown of the sampled windows.
void write_timeseries_summary(std::ostream& os, const TimeSeriesData& ts);

}  // namespace sws::obs
