// perfbench-driver: the simulator side of the benchmark (perfbench/run.py
// drives it; see perfbench/README.md).
//
//   perfbench-driver sim --protocol sws|sdc --pes N --depth D --tree-seed S
//                        --node-ns NS --seeds R1,R2,... --seconds T
//                        [--engine-threads K] [--min-rounds A --max-rounds B]
//                        [--trace-out F --timeseries-out F] [--metrics-sim]
//   perfbench-driver layers --pes N
//
// `sim` simulates one UTS tree. A round is one simulation per runtime seed
// in --seeds. After one warm-up simulation (the first seed), it runs whole
// rounds with observation off, starting another round while it is expected
// to end inside --seconds, then optionally one traced and one metrics-on
// simulation of the first seed. It prints one JSON object per line: one
// "sim" record per simulation, with its set-up time (runtime, registry and
// pool construction) and its run time, and an "end" record with the peak
// RSS. Every simulation builds its own runtime, registry and pool, exactly
// as the paper-figure benches do, so the first simulation's set-up is the
// process's cold one.
//
// `layers` times single layers through their public API, from outside:
// the sequencer, fabric ops, runtime and pool construction, an empty SPMD
// run, empty tasks on a 1-PE pool, and the UTS child digest.
//
// Neither pins a thread: placement is left to the OS, as for any user of
// the simulator (perfbench/README.md gives the measurements behind this).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "net/fabric.hpp"
#include "net/time_model.hpp"
#include "sws.hpp"

using namespace sws;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long nvcsw = 0;
  long nivcsw = 0;
  long maxrss_kib = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  u.maxrss_kib = ru.ru_maxrss;
  return u;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  return f;
}

// Same ring geometry as the paper-figure benches (bench/fig8_uts.cpp):
// 1.04 MB of symmetric heap per PE.
constexpr std::uint32_t kSlotBytes = 48;
constexpr std::uint32_t kCapacity = 16384;
constexpr std::size_t kHeapBytes =
    std::size_t{kCapacity} * kSlotBytes + (std::size_t{256} << 10);

pgas::RuntimeConfig runtime_config(int npes, std::uint64_t seed,
                                   int engine_threads) {
  pgas::RuntimeConfig rcfg;
  rcfg.npes = npes;
  rcfg.seed = seed;
  rcfg.heap_bytes = kHeapBytes;
  rcfg.engine_threads = engine_threads;
  return rcfg;
}

core::PoolConfig pool_config(core::QueueKind kind) {
  core::PoolConfig pcfg;
  pcfg.kind = kind;
  pcfg.queue.slot_bytes = kSlotBytes;
  pcfg.queue.capacity = kCapacity;
  return pcfg;
}

volatile std::uint8_t digest_sink = 0;  // keeps the timed digest loop alive

enum class Obs { kOff, kTrace, kMetrics };

const char* obs_name(Obs o) {
  return o == Obs::kTrace ? "trace" : o == Obs::kMetrics ? "metrics" : "off";
}

struct SimSpec {
  core::QueueKind kind = core::QueueKind::kSws;
  int npes = 256;
  workloads::UtsParams uts;
  int engine_threads = 1;
  std::size_t trace_events = std::size_t{1} << 14;
  std::string trace_out;
  std::string timeseries_out;
};

/// One simulation: build, run, and print its "sim" record. `round` is -1
/// for simulations outside the timed rounds.
void simulate(const SimSpec& s, std::uint64_t seed, Obs obs, int index,
              int round) {
  const auto t0 = Clock::now();
  pgas::RuntimeConfig rcfg = runtime_config(s.npes, seed, s.engine_threads);
  rcfg.metrics = obs != Obs::kOff;
  pgas::Runtime rt(rcfg);
  const double runtime_build_s = since(t0);

  const auto t1 = Clock::now();
  core::TaskRegistry registry;
  workloads::UtsBenchmark uts(registry, s.uts);
  core::PoolConfig pcfg = pool_config(s.kind);
  if (obs != Obs::kOff) {
    pcfg.trace.enable = obs == Obs::kTrace;
    pcfg.trace.events = s.trace_events;
    pcfg.trace.sample_interval_ns = obs == Obs::kTrace ? 10'000 : 0;
  }
  core::TaskPool pool(rt, registry, pcfg);
  const double pool_build_s = since(t1);

  const Usage u0 = usage_now();
  const auto t2 = Clock::now();
  rt.run([&](pgas::PeContext& ctx) {
    pool.run_pe(ctx, [&](core::Worker& w) { uts.seed(w); });
  });
  const double wall_s = since(t2);
  const Usage u1 = usage_now();

  if (obs == Obs::kTrace) {
    auto f = open_out(s.trace_out);
    pool.dump_trace_json(f);
    auto g = open_out(s.timeseries_out);
    pool.dump_timeseries_json(g);
  }
  if (obs != Obs::kOff) pool.publish_metrics(rt.metrics());

  const core::PoolRunReport r = pool.report();
  net::FabricStats fab;
  for (int pe = 0; pe < s.npes; ++pe) fab.merge(rt.fabric().stats(pe));

  std::printf(
      "{\"event\":\"sim\",\"i\":%d,\"round\":%d,\"seed\":%llu,"
      "\"obs\":\"%s\",\"wall_s\":%.9f,"
      "\"runtime_build_s\":%.9f,\"pool_build_s\":%.9f,"
      "\"user_s\":%.6f,\"sys_s\":%.6f,\"nvcsw\":%ld,\"nivcsw\":%ld,"
      "\"tasks\":%llu,\"steals\":%llu,\"steal_attempts\":%llu,"
      "\"tasks_stolen\":%llu,\"remote_ops\":%llu,\"blocking_ops\":%llu,"
      "\"blocking_ns\":%llu,\"occupancy_wait_ns\":%llu,"
      "\"makespan_ns\":%llu,\"compute_ns\":%llu,\"steal_ns\":%llu,"
      "\"search_ns\":%llu,\"steal_p50_ns\":%llu,\"steal_p95_ns\":%llu,"
      "\"phase_ns\":{",
      index, round, static_cast<unsigned long long>(seed), obs_name(obs),
      wall_s, runtime_build_s, pool_build_s,
      u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.nvcsw - u0.nvcsw,
      u1.nivcsw - u0.nivcsw,
      static_cast<unsigned long long>(r.total.tasks_executed),
      static_cast<unsigned long long>(r.total.steals_ok),
      static_cast<unsigned long long>(r.total.steal_attempts),
      static_cast<unsigned long long>(r.total.tasks_stolen),
      static_cast<unsigned long long>(fab.remote_ops),
      static_cast<unsigned long long>(fab.blocking_ops()),
      static_cast<unsigned long long>(fab.blocking_ns),
      static_cast<unsigned long long>(fab.occupancy_wait_ns),
      static_cast<unsigned long long>(rt.last_run_duration()),
      static_cast<unsigned long long>(r.total.compute_time_ns),
      static_cast<unsigned long long>(r.total.steal_time_ns),
      static_cast<unsigned long long>(r.total.search_time_ns),
      static_cast<unsigned long long>(r.steal_latency_ns(0.5)),
      static_cast<unsigned long long>(r.steal_latency_ns(0.95)));
  for (std::size_t p = 0; p < core::kNumPoolPhases; ++p)
    std::printf("%s\"%s\":%llu", p ? "," : "",
                core::pool_phase_name(static_cast<core::PoolPhase>(p)),
                static_cast<unsigned long long>(r.total.phase_ns[p]));
  std::printf("}}\n");
  std::fflush(stdout);
}

int cmd_sim(const Options& opt) {
  SimSpec s;
  const std::string proto = opt.get("protocol", std::string("sws"));
  if (proto != "sws" && proto != "sdc")
    throw std::invalid_argument("--protocol must be sws or sdc");
  s.kind = proto == "sdc" ? core::QueueKind::kSdc : core::QueueKind::kSws;
  s.npes = static_cast<int>(opt.get("pes", std::int64_t{256}));
  s.uts.gen_mx = static_cast<std::uint32_t>(opt.get("depth", std::int64_t{15}));
  s.uts.root_seed =
      static_cast<std::uint32_t>(opt.get("tree-seed", std::int64_t{19}));
  s.uts.node_compute_ns =
      static_cast<net::Nanos>(opt.get("node-ns", std::int64_t{400}));
  std::vector<std::uint64_t> seeds;
  {
    std::stringstream ss(opt.get("seeds", std::string("1")));
    std::string item;
    while (std::getline(ss, item, ','))
      seeds.push_back(static_cast<std::uint64_t>(std::stoull(item)));
  }
  s.engine_threads =
      static_cast<int>(opt.get("engine-threads", std::int64_t{1}));
  s.trace_out = opt.get("trace-out", std::string(""));
  s.timeseries_out = opt.get("timeseries-out", std::string(""));
  const double seconds = opt.get("seconds", 10.0);
  const int min_rounds =
      static_cast<int>(opt.get("min-rounds", std::int64_t{1}));
  const int max_rounds =
      static_cast<int>(opt.get("max-rounds", std::int64_t{1000}));
  const bool metrics_sim = opt.get("metrics-sim", false);
  if (s.npes < 1 || seeds.empty() || min_rounds < 0 || max_rounds < min_rounds)
    throw std::invalid_argument("bad --pes/--seeds/--min-rounds/--max-rounds");
  if (s.trace_out.empty() != s.timeseries_out.empty())
    throw std::invalid_argument("--trace-out needs --timeseries-out");
  if (!opt.unused().empty())
    throw std::invalid_argument("unknown option --" + opt.unused().front());

  const auto t0 = Clock::now();
  int n = 0;
  simulate(s, seeds[0], Obs::kOff, n++, -1);
  // Start another round only while it is expected to end inside the
  // budget, judged by the slowest round so far.
  double slowest = 0;
  for (int round = 0; round < max_rounds &&
                      (round < min_rounds || since(t0) + slowest <= seconds);
       ++round) {
    const auto tr = Clock::now();
    for (const std::uint64_t seed : seeds)
      simulate(s, seed, Obs::kOff, n++, round);
    slowest = std::max(slowest, since(tr));
  }
  if (!s.trace_out.empty()) simulate(s, seeds[0], Obs::kTrace, n++, -1);
  if (metrics_sim) simulate(s, seeds[0], Obs::kMetrics, n++, -1);
  std::printf("{\"event\":\"end\",\"peak_rss_kib\":%ld}\n",
              usage_now().maxrss_kib);
  return 0;
}

// --- single-layer drivers ------------------------------------------------

template <class F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// ns per baton handoff: P threads advance in lockstep, so every advance
/// passes the baton to the next PE.
double seq_handoff_ns(int npes, int per_pe) {
  net::VirtualTimeModel tm(npes);
  tm.reset(npes);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int pe = 0; pe < npes; ++pe)
    threads.emplace_back([&tm, pe, per_pe] {
      tm.pe_begin(pe);
      for (int i = 0; i < per_pe; ++i) tm.advance(pe, 100);
      tm.pe_end(pe);
    });
  for (auto& t : threads) t.join();
  return since(t0) * 1e9 / (static_cast<double>(npes) * per_pe);
}

/// Runs `body(tm, fabric)` as PE 0 of a 2-PE sequencer whose PE 1 is parked
/// far in the future, so PE 0 self-continues and no advance hands off.
template <class F>
double solo_pe0(int iters, F&& body) {
  net::VirtualTimeModel tm(2);
  net::Fabric fab(tm, net::NetworkModel(net::NetworkParams{}, 2), 2);
  std::vector<std::byte> arena0(4096), arena1(4096);
  fab.register_arena(0, arena0.data(), arena0.size());
  fab.register_arena(1, arena1.data(), arena1.size());
  tm.reset(2);
  std::thread peer([&tm] {
    tm.pe_begin(1);
    tm.advance(1, net::Nanos{1} << 50);
    tm.pe_end(1);
  });
  tm.pe_begin(0);
  const auto t0 = Clock::now();
  body(tm, fab, iters);
  const double ns = since(t0) * 1e9 / iters;
  fab.quiet(0);
  tm.advance(0, net::Nanos{1} << 51);
  tm.pe_end(0);
  peer.join();
  return ns;
}

int cmd_layers(const Options& opt) {
  const int npes = static_cast<int>(opt.get("pes", std::int64_t{256}));
  constexpr int reps = 5;
  if (npes < 1) throw std::invalid_argument("bad --pes");
  if (!opt.unused().empty())
    throw std::invalid_argument("unknown option --" + opt.unused().front());
  const int seq_pes = std::max(2, npes);

  const double handoff_ns = median_of(reps, [&] {
    return seq_handoff_ns(seq_pes, 40'000 / seq_pes + 1);
  });
  const double advance_ns = median_of(reps, [] {
    return solo_pe0(2'000'000, [](net::TimeModel& tm, net::Fabric&, int n) {
      for (int i = 0; i < n; ++i) tm.advance(0, 100);
    });
  });
  const double blocking_ns = median_of(reps, [] {
    return solo_pe0(500'000, [](net::TimeModel&, net::Fabric& fab, int n) {
      for (int i = 0; i < n; ++i) fab.amo_fetch_add(0, 1, 0, 1);
    });
  });
  const double nbi_ns = median_of(reps, [] {
    return solo_pe0(500'000, [](net::TimeModel&, net::Fabric& fab, int n) {
      for (int i = 0; i < n; ++i) {
        fab.nbi_amo_add(0, 1, 64, 1);
        if ((i & 63) == 63) fab.quiet(0);
      }
    });
  });

  const double runtime_build_s = median_of(reps, [&] {
    const auto t0 = Clock::now();
    pgas::Runtime rt(runtime_config(npes, 1, 1));
    return since(t0);
  });
  const double spawn_join_ms = median_of(reps, [&] {
    pgas::Runtime rt(runtime_config(npes, 1, 1));
    const auto t0 = Clock::now();
    rt.run([](pgas::PeContext&) {});
    return since(t0) * 1e3;
  });
  const double pool_build_s = median_of(reps, [&] {
    pgas::Runtime rt(runtime_config(npes, 1, 1));
    core::TaskRegistry registry;
    workloads::UtsBenchmark uts(registry, workloads::UtsParams{});
    const auto t0 = Clock::now();
    core::TaskPool pool(rt, registry, pool_config(core::QueueKind::kSws));
    return since(t0);
  });

  // Empty tasks on one PE: a binary tree of 2^18 - 1 tasks whose bodies
  // only spawn their two children.
  const double local_task_ns = median_of(reps, [] {
    pgas::Runtime rt(runtime_config(1, 1, 1));
    core::TaskRegistry registry;
    core::TaskFnId fn = 0;
    fn = registry.register_fn(
        "perfbench.empty",
        [&fn](core::Worker& w, std::span<const std::byte> bytes) {
          std::uint32_t depth = 0;
          std::memcpy(&depth, bytes.data(), sizeof(depth));
          if (depth == 0) return;
          const std::uint32_t child = depth - 1;
          w.spawn(core::Task::of(fn, child));
          w.spawn(core::Task::of(fn, child));
        });
    core::TaskPool pool(rt, registry, pool_config(core::QueueKind::kSws));
    const auto t0 = Clock::now();
    rt.run([&](pgas::PeContext& ctx) {
      pool.run_pe(ctx, [&](core::Worker& w) {
        w.spawn(core::Task::of(fn, std::uint32_t{17}));
      });
    });
    const double s = since(t0);
    const std::uint64_t tasks = pool.report().total.tasks_executed;
    if (tasks != (std::uint64_t{1} << 18) - 1)
      throw std::runtime_error("empty-task tree ran a wrong task count");
    return s * 1e9 / static_cast<double>(tasks);
  });

  const double digest_ns = median_of(reps, [] {
    constexpr int kIters = 1'000'000;
    Sha1Digest d = workloads::uts_root_digest(workloads::UtsParams{});
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i)
      d = uts_child_digest(d, static_cast<std::uint32_t>(i & 3));
    const double ns = since(t0) * 1e9 / kIters;
    digest_sink = d[0];
    return ns;
  });

  std::printf(
      "{\"event\":\"layers\",\"net.seq.handoff_ns\":%.6g,"
      "\"net.seq.advance_ns\":%.6g,\"net.fabric.blocking_op_ns\":%.6g,"
      "\"net.fabric.nbi_op_ns\":%.6g,\"pgas.runtime_build_s\":%.6g,"
      "\"pgas.spawn_join_ms\":%.6g,\"core.pool_build_s\":%.6g,"
      "\"core.local_task_ns\":%.6g,\"sha1.child_digest_ns\":%.6g}\n",
      handoff_ns, advance_ns, blocking_ns, nbi_ns, runtime_build_s,
      spawn_join_ms, pool_build_s, local_task_ns, digest_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench-driver sim|layers ...");
    const std::string cmd = argv[1];
    const Options opt(argc - 1, argv + 1);
    if (cmd == "sim") return cmd_sim(opt);
    if (cmd == "layers") return cmd_layers(opt);
    throw std::invalid_argument("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-driver: %s\n", e.what());
    return 2;
  }
}
