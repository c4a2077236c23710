#include "core/pool_stats.hpp"

#include <sstream>

namespace sws::core {

const char* pool_phase_name(PoolPhase p) noexcept {
  switch (p) {
    case PoolPhase::kWorking: return "working";
    case PoolPhase::kProbing: return "probing";
    case PoolPhase::kStealing: return "stealing";
    case PoolPhase::kParked: return "parked";
    case PoolPhase::kBlockedNbi: return "blocked_nbi";
    case PoolPhase::kRecovering: return "recovering";
    case PoolPhase::kIdleTerm: return "idle_terminating";
    case PoolPhase::kCount_: break;
  }
  return "?";
}

PoolRunReport aggregate_reports(const std::vector<WorkerStats>& per_pe) {
  PoolRunReport r;
  r.npes = static_cast<int>(per_pe.size());
  for (const auto& w : per_pe) {
    r.total.merge(w);
    r.per_pe_executed.add(static_cast<double>(w.tasks_executed));
  }
  return r;
}

std::string PoolRunReport::to_string() const {
  std::ostringstream os;
  os << "pool run: npes=" << npes << " tasks=" << total.tasks_executed
     << " steals=" << total.steals_ok << "/" << total.steal_attempts
     << " runtime=" << static_cast<double>(total.run_time_ns) / 1e6 << "ms"
     << " steal=" << static_cast<double>(total.steal_time_ns) / 1e6 << "ms"
     << " search=" << static_cast<double>(total.search_time_ns) / 1e6 << "ms"
     << " balance(mean/max tasks per PE)=" << per_pe_executed.mean() << "/"
     << per_pe_executed.max();
  return os.str();
}

}  // namespace sws::core
