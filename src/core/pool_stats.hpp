// Per-PE and aggregated task-pool statistics — the quantities the paper's
// evaluation plots: steal time (successful steals), search time (failed
// attempts while hunting for work), task counts, and load-balance data.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "net/types.hpp"

namespace sws::core {

/// Exhaustive per-PE time taxonomy: every nanosecond of a PE's run is
/// attributed to exactly one category, and the categories sum *exactly* to
/// the PE's elapsed virtual time (tests/test_obs.cpp enforces it). The
/// scheduler transitions between categories at phase boundaries; the
/// windowed sampler reads the live accounting mid-run.
enum class PoolPhase : std::uint8_t {
  kWorking = 0,   ///< executing tasks, local queue ops, inbox drains, setup
  kProbing,       ///< steal attempts that end empty-handed (search)
  kStealing,      ///< steal attempts that land work (transfer included)
  kParked,        ///< inter-attempt backoff pauses
  kBlockedNbi,    ///< waiting for outstanding non-blocking ops to complete
  kRecovering,    ///< crash-recovery sweeps of dead PEs' queues
  kIdleTerm,      ///< termination detection + final teardown barrier
  kCount_,
};

inline constexpr std::size_t kNumPoolPhases =
    static_cast<std::size_t>(PoolPhase::kCount_);

const char* pool_phase_name(PoolPhase p) noexcept;

struct WorkerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_spawned = 0;   ///< children + seeds added by this PE
  std::uint64_t tasks_stolen = 0;    ///< tasks this PE pulled from victims
  std::uint64_t bytes_stolen = 0;    ///< payload bytes those tasks carried
  std::uint64_t steals_ok = 0;
  std::uint64_t steal_attempts = 0;  ///< successful + failed
  /// Steal traffic by victim tier distance (index t-1 = tier t): the
  /// per-tier op mix the locality ablation compares across policies.
  std::array<std::uint64_t, net::kMaxTiers> steal_attempts_by_tier{};
  std::array<std::uint64_t, net::kMaxTiers> steals_ok_by_tier{};
  net::Nanos steal_time_ns = 0;      ///< §5.3: phase_ns[kStealing]
  net::Nanos search_time_ns = 0;     ///< §5.3: phase_ns[kProbing + kParked]
  net::Nanos compute_time_ns = 0;    ///< task bodies (charged compute)
  net::Nanos run_time_ns = 0;        ///< this PE's whole-run time
  /// Exhaustive phase taxonomy (see PoolPhase): indexed by category, sums
  /// exactly to the elapsed time between run_pe entry and teardown
  /// (`accounted_ns`). The one per-PE time accounting: steal/search time
  /// above are read off it.
  std::array<net::Nanos, kNumPoolPhases> phase_ns{};
  net::Nanos accounted_ns = 0;       ///< total span the taxonomy covers
  // Crash-recovery accounting (zero in crash-free runs).
  std::uint64_t tasks_reexecuted = 0;  ///< fenced from dead claims, re-run
  std::uint64_t tasks_rerouted = 0;    ///< inbox pushes redirected from dead
  std::uint64_t deaths_witnessed = 0;  ///< kDeathDetected events on this PE
  /// Per-successful-steal latency distribution (ns, log2 buckets) — the
  /// tail view behind the Fig 6/7e/8e means.
  LogHistogram steal_latency;
  /// Blocks per successful steal claim (SWS bulk mode; all-1s at
  /// bulk_claim_max = 1) — the mean-claim-size view the bulk ablation plots.
  LogHistogram claim_blocks;

  void merge(const WorkerStats& o) noexcept {
    tasks_executed += o.tasks_executed;
    tasks_spawned += o.tasks_spawned;
    tasks_stolen += o.tasks_stolen;
    bytes_stolen += o.bytes_stolen;
    steals_ok += o.steals_ok;
    steal_attempts += o.steal_attempts;
    for (std::size_t i = 0; i < steal_attempts_by_tier.size(); ++i) {
      steal_attempts_by_tier[i] += o.steal_attempts_by_tier[i];
      steals_ok_by_tier[i] += o.steals_ok_by_tier[i];
    }
    steal_time_ns += o.steal_time_ns;
    search_time_ns += o.search_time_ns;
    compute_time_ns += o.compute_time_ns;
    run_time_ns = run_time_ns > o.run_time_ns ? run_time_ns : o.run_time_ns;
    for (std::size_t i = 0; i < phase_ns.size(); ++i)
      phase_ns[i] += o.phase_ns[i];
    accounted_ns += o.accounted_ns;
    tasks_reexecuted += o.tasks_reexecuted;
    tasks_rerouted += o.tasks_rerouted;
    deaths_witnessed += o.deaths_witnessed;
    steal_latency.merge(o.steal_latency);
    claim_blocks.merge(o.claim_blocks);
  }
};

/// Pool-level aggregation with per-PE distribution summaries.
struct PoolRunReport {
  WorkerStats total;             ///< sums (run_time = max across PEs)
  Summary per_pe_executed;       ///< load balance across PEs
  int npes = 0;

  /// Approximate steal-latency quantile in nanoseconds (q in [0,1]).
  std::uint64_t steal_latency_ns(double q) const {
    return total.steal_latency.quantile(q);
  }

  std::string to_string() const;
};

PoolRunReport aggregate_reports(const std::vector<WorkerStats>& per_pe);

}  // namespace sws::core
