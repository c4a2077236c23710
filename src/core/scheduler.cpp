#include "core/scheduler.hpp"

#include <algorithm>
#include <iomanip>
#include <string>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "net/parallel_time_model.hpp"

namespace sws::core {

// ----------------------------------------------------------------- worker

Worker::Worker(TaskPool& pool, pgas::PeContext& ctx)
    : pool_(pool), ctx_(ctx) {}

void Worker::spawn(const Task& t) {
  pool_.term_->count_created(ctx_, 1);
  ++stats_.tasks_spawned;
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kSpawn);
  if (pool_.queue_->push_local(ctx_, t)) return;
  // Ring full even after reclaim: run the task inline. Depth-first
  // execution keeps this bounded; it only triggers on under-sized queues.
  SWS_WARN("PE " << ctx_.pe() << ": task ring full, executing inline");
  execute(t);
}

void Worker::spawn_on(int target, const Task& t) {
  if (target == pe() || !pool_.inbox_ ||
      (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target))) {
    // No inbox, self-target, or a target we know is dead: spawn here.
    // Tasks are location-independent, so local execution is always legal.
    spawn(t);
    return;
  }
  pool_.term_->count_created(ctx_, 1);
  ++stats_.tasks_spawned;
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kSpawnRemote,
                         static_cast<std::uint64_t>(target));
  // Flush the created-delta BEFORE the task escapes to another PE. Once
  // the push lands, the target can execute the task and flush its
  // completion while our +1 still sits in the local delta — the global
  // counter then transiently reads zero with this task's *parent* still
  // running, and a termination check in that window ends the run early.
  // (Local spawns are safe without this: the executing parent's own
  // completion is unflushed until after its spawns, anchoring the counter
  // above zero.)
  pool_.term_->task_boundary(ctx_);
  // Bounded retries against a full inbox, then run it here — the task
  // must execute somewhere, and local execution is always legal under the
  // Scioto model (tasks are location-independent).
  for (int attempt = 0; attempt < 8; ++attempt) {
    if (pool_.inbox_->remote_push(ctx_, target, t)) return;
    if (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target)) {
      // The push failed because the target died (poisoned inbox cursor,
      // noted by remote_push). Run the task here instead.
      execute(t);
      return;
    }
    ctx_.compute(pool_.cfg_.steal.backoff_min_ns);
  }
  SWS_WARN("PE " << pe() << ": inbox of PE " << target
                 << " stayed full; executing task locally");
  execute(t);
}

void Worker::spawn_on_many(int target, std::span<const Task> tasks) {
  if (tasks.empty()) return;
  if (target == pe() || !pool_.inbox_ ||
      (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target))) {
    for (const Task& t : tasks) spawn(t);
    return;
  }
  pool_.term_->count_created(ctx_, tasks.size());
  stats_.tasks_spawned += tasks.size();
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kSpawnRemote,
                         static_cast<std::uint64_t>(target), tasks.size());
  // Same escape hazard as spawn_on, batched: flush the whole created-delta
  // before any of the tasks can land remotely.
  pool_.term_->task_boundary(ctx_);
  std::size_t done = 0;
  for (int attempt = 0; attempt < 8 && done < tasks.size(); ++attempt) {
    done += pool_.inbox_->remote_push_many(ctx_, target,
                                           tasks.subspan(done));
    if (done == tasks.size()) return;
    if (pool_.recovery_ && pool_.recovery_->known_dead(pe(), target)) break;
    ctx_.compute(pool_.cfg_.steal.backoff_min_ns);
  }
  // Whatever the target could not take runs here — always legal under the
  // Scioto model (tasks are location-independent).
  for (const Task& t : tasks.subspan(done)) execute(t);
}

void Worker::compute(net::Nanos dt) {
  stats_.compute_time_ns += dt;
  ctx_.compute(dt);
}

void Worker::execute(const Task& t) {
  if (pool_.tracer_.enabled())
    pool_.tracer_.record(pe(), ctx_.now(), TraceKind::kTaskExec, t.fn());
  pool_.registry_.fn(t.fn())(*this, t.payload());
  ++stats_.tasks_executed;
  pool_.term_->count_completed(ctx_, 1);
  // Flush policy: never sit on a positive (created-heavy) delta — the
  // counter detector's safety invariant.
  pool_.term_->task_boundary(ctx_);
}

// ------------------------------------------------------------------- pool

TaskPool::TaskPool(pgas::Runtime& rt, TaskRegistry& registry, PoolConfig cfg)
    : rt_(rt),
      registry_(registry),
      cfg_(cfg),
      phase_(static_cast<std::size_t>(rt.npes())),
      last_stats_(static_cast<std::size_t>(rt.npes())) {
  // The bulk-claim knob lives on StealTuning (the user-facing pacing
  // struct) but the queue implements it; mirror so either spelling works,
  // larger wins.
  cfg_.sws.bulk_claim_max =
      std::max(cfg_.sws.bulk_claim_max, cfg_.steal.bulk_claim_max);
  switch (cfg_.kind) {
    case QueueKind::kSws:
      queue_ = std::make_unique<SwsQueue>(rt, cfg_.queue, cfg_.sws);
      break;
    case QueueKind::kSdc:
      queue_ = std::make_unique<SdcQueue>(rt, cfg_.queue, cfg_.sdc);
      break;
  }
  term_ = make_detector(rt, cfg_.termination);
  if (cfg_.remote_spawn)
    inbox_ = std::make_unique<TaskInbox>(rt, cfg_.inbox_capacity,
                                         cfg_.queue.slot_bytes);
  if (rt.fabric().crashes_planned()) {
    // Crash mode: wire every layer to the shared death registry and swap
    // the termination protocol for the crash-tolerant idle-wave consensus
    // (both base detectors hang once a PE dies). None of this exists in a
    // crash-free pool — those runs stay byte-identical to older builds.
    recovery_ = std::make_unique<DeathRegistry>();
    recovery_->init(rt, RecoveryConfig{});
    queue_->attach_recovery(recovery_.get());
    if (inbox_) inbox_->attach_recovery(recovery_.get());
    term_ = std::make_unique<ResilientTermination>(rt, std::move(term_),
                                                   recovery_.get());
  }
  if (cfg_.trace.enable) {
    tracer_ = Tracer(rt.npes(), cfg_.trace.events);
    // Every fabric op issued under a nonzero span becomes a child event
    // of that span. The callback runs on the initiating PE's thread and
    // writes only that PE's trace ring, so it needs no synchronization
    // and cannot perturb the schedule (it never touches a clock).
    rt_.fabric().set_op_observer([this](const net::OpRecord& r) {
      tracer_.complete(
          r.initiator, r.begin, r.dur, TraceKind::kFabricOp, r.span,
          static_cast<std::uint64_t>(r.kind),
          static_cast<std::uint64_t>(static_cast<unsigned>(r.target)) |
              (static_cast<std::uint64_t>(r.bytes) << 16));
    });
  }
  if (cfg_.trace.sample_interval_ns > 0) {
    timeseries_ =
        std::make_unique<obs::TimeSeries>(cfg_.trace.sample_interval_ns);
    setup_timeseries();
    // The hook fires under the sequencer's serialization every time the
    // global floor crosses a boundary; it only *reads* pool/fabric state,
    // so sampled runs stay byte-identical to unsampled ones.
    rt_.time().set_sample_hook(
        [this](net::Nanos boundary) { timeseries_->sample(boundary); },
        cfg_.trace.sample_interval_ns);
  }
}

TaskPool::~TaskPool() {
  if (cfg_.trace.enable) rt_.fabric().set_op_observer(nullptr);
  if (timeseries_) rt_.time().set_sample_hook(nullptr, 0);
}

void TaskPool::setup_timeseries() {
  using Mode = obs::TimeSeries::Mode;
  obs::TimeSeries& ts = *timeseries_;
  const int npes = rt_.npes();
  ts.add_meta("protocol",
              cfg_.kind == QueueKind::kSws ? "\"sws\"" : "\"sdc\"");
  ts.add_meta("npes", std::to_string(npes));

  // Phase accounting: one series per category, each sampling the accrued
  // time plus the open phase's elapsed — so at *every* sample the
  // categories sum exactly to acct.elapsed_ns (sws-analyze --report and
  // tests/test_obs.cpp check the invariant to the nanosecond).
  for (std::size_t c = 0; c < kNumPoolPhases; ++c) {
    ts.add_series(
        std::string("acct.") + pool_phase_name(static_cast<PoolPhase>(c)),
        Mode::kDelta, [this, c, npes] {
          std::uint64_t sum = 0;
          for (int pe = 0; pe < npes; ++pe) {
            const PhaseSlot& ps = phase_[static_cast<std::size_t>(pe)];
            sum += ps.accrued[c];
            if (ps.active && static_cast<std::size_t>(ps.cur) == c)
              sum += rt_.time().now(pe) - ps.mark;
          }
          return sum;
        });
  }
  ts.add_series("acct.elapsed_ns", Mode::kDelta, [this, npes] {
    std::uint64_t sum = 0;
    for (int pe = 0; pe < npes; ++pe) {
      const PhaseSlot& ps = phase_[static_cast<std::size_t>(pe)];
      sum += (ps.active ? rt_.time().now(pe) : ps.end) - ps.base;
    }
    return sum;
  });

  const auto add_pool = [&](const char* name,
                            std::uint64_t WorkerStats::*field) {
    ts.add_series(name, Mode::kDelta, [this, npes, field] {
      std::uint64_t sum = 0;
      for (int pe = 0; pe < npes; ++pe) {
        const PhaseSlot& ps = phase_[static_cast<std::size_t>(pe)];
        const WorkerStats& s =
            ps.live ? *ps.live : last_stats_[static_cast<std::size_t>(pe)];
        sum += s.*field;
      }
      return sum;
    });
  };
  add_pool("pool.tasks_executed", &WorkerStats::tasks_executed);
  add_pool("pool.steals_ok", &WorkerStats::steals_ok);
  add_pool("pool.steal_attempts", &WorkerStats::steal_attempts);

  const auto add_fabric = [&](const char* name,
                              std::uint64_t net::FabricStats::*field) {
    ts.add_series(name, Mode::kDelta, [this, npes, field] {
      std::uint64_t sum = 0;
      for (int pe = 0; pe < npes; ++pe) sum += rt_.fabric().stats(pe).*field;
      return sum;
    });
  };
  add_fabric("fabric.remote_ops", &net::FabricStats::remote_ops);
  add_fabric("fabric.blocking_ns", &net::FabricStats::blocking_ns);
  add_fabric("fabric.occupancy_wait_ns",
             &net::FabricStats::occupancy_wait_ns);

  // Sharded-engine gauges (PR 9) become windowed series when the runtime
  // uses the parallel sequencer; engine_stats() is lock-free and the hook
  // runs inside drive(), the engine's sole executor.
  if (const auto* eng =
          dynamic_cast<const net::ParallelTimeModel*>(&rt_.time())) {
    using EngineStats = net::ParallelTimeModel::EngineStats;
    const auto add_engine = [&](const char* name,
                                std::uint64_t EngineStats::*field) {
      ts.add_series(name, Mode::kDelta,
                    [eng, field] { return eng->engine_stats().*field; });
    };
    add_engine("engine.windows", &EngineStats::windows);
    add_engine("engine.window_pes", &EngineStats::window_pes);
    add_engine("engine.solo_private", &EngineStats::solo_private);
    add_engine("engine.solo_global", &EngineStats::solo_global);
    add_engine("engine.deferred", &EngineStats::deferred);
    add_engine("engine.parks", &EngineStats::parks);
  }
}

void TaskPool::finalize_timeseries() const {
  if (!timeseries_) return;
  // Capture the final partial window at the clocks' max. sample() ignores
  // non-advancing times, so repeated dumps stay idempotent.
  net::Nanos end = 0;
  for (int pe = 0; pe < rt_.npes(); ++pe)
    end = std::max(end, rt_.time().now(pe));
  timeseries_->sample(end);
}

std::uint32_t TaskPool::drain_inbox(Worker& w) {
  if (!inbox_) return 0;
  const std::uint32_t n = inbox_->drain(w.ctx(), [&](const Task& t) {
    // Already counted as created by the sender.
    if (!queue_->push_local(w.ctx(), t)) w.execute(t);
  });
  if (n > 0 && tracer_.enabled())
    tracer_.record(w.pe(), w.ctx().now(), TraceKind::kInboxDrain, n);
  return n;
}

std::uint32_t TaskPool::drain_recovered(Worker& w) {
  std::vector<Task> rec;
  const std::uint32_t n = queue_->take_recovered(w.ctx(), rec);
  if (n == 0) return 0;
  // These were fenced from a dead thief's open claim: counted created when
  // first spawned, never completed. Re-publish without recounting;
  // execution is at-least-once with bounded multiplicity
  // (docs/resilience.md).
  w.stats_.tasks_reexecuted += n;
  for (const Task& t : rec) {
    if (!queue_->push_local(w.ctx(), t)) w.execute(t);
  }
  return n;
}

WorkerStats TaskPool::run_pe(pgas::PeContext& ctx,
                             const std::function<void(Worker&)>& seed) {
  Worker w(*this, ctx);

  // Phase accounting starts before anything can advance this PE's clock:
  // every later nanosecond lands in exactly one PoolPhase bucket. The
  // sampler cannot observe this slot mid-reset — no boundary can be
  // crossed until every PE (including this one) has advanced past it.
  PhaseSlot& ps = phase_[static_cast<std::size_t>(ctx.pe())];
  ps = PhaseSlot{};
  ps.base = ps.mark = ctx.now();
  ps.active = true;
  ps.live = &w.stats_;
  const auto set_phase = [&](PoolPhase p) {
    const net::Nanos pnow = ctx.now();
    ps.accrued[static_cast<std::size_t>(ps.cur)] += pnow - ps.mark;
    ps.mark = pnow;
    ps.cur = p;
  };

  queue_->reset_pe(ctx);
  term_->reset_pe(ctx);
  if (inbox_) inbox_->reset_pe(ctx);
  if (recovery_) recovery_->reset_pe(ctx);
  if (ctx.pe() == 0) {
    tracer_.clear();
    if (timeseries_) timeseries_->clear();
  }
  ctx.barrier();

  seed(w);
  term_->task_boundary(ctx);  // flush seed counts before anyone checks
  ctx.barrier();

  const net::Nanos t_start = ctx.now();
  const net::NetworkModel& netm = rt_.fabric().model();
  std::unique_ptr<VictimSelector> victims;
  if (ctx.npes() > 1)
    victims = make_victim_selector(cfg_.victim, netm.topology(), ctx.pe(),
                                   rt_.config().seed);
  const StealTuning& st = cfg_.steal;
  // Dedicated stream for backoff jitter: draws must not perturb the
  // workload's ctx.rng() sequence, or enabling jitter would change
  // task-level results under virtual time.
  Xoshiro256 backoff_rng(rt_.config().seed ^ 0xB0FF'0FF5'0000'0000ULL,
                         static_cast<std::uint64_t>(ctx.pe()));
  std::vector<Task> loot;
  Task t;

  // Crash-mode state. A plan with no crashes never constructs any of the
  // machinery, so crash-free runs take none of these branches.
  const bool crash_mode = recovery_ != nullptr;
  net::Nanos last_fence = 0;
  std::vector<char> death_traced;   ///< kDeathDetected emitted for PE i
  std::vector<char> inbox_rerouted; ///< ledger drained for dead PE i
  if (crash_mode) {
    death_traced.assign(static_cast<std::size_t>(ctx.npes()), 0);
    inbox_rerouted.assign(static_cast<std::size_t>(ctx.npes()), 0);
  }
  const auto trace_new_deaths = [&]() {
    if (!crash_mode || !tracer_.enabled()) return;
    for (int p = 0; p < ctx.npes(); ++p) {
      if (death_traced[static_cast<std::size_t>(p)] ||
          !recovery_->known_dead(ctx.pe(), p))
        continue;
      death_traced[static_cast<std::size_t>(p)] = 1;
      tracer_.record(ctx.pe(), ctx.now(), TraceKind::kDeathDetected,
                     static_cast<std::uint64_t>(p));
    }
  };

  // Span ids are unique per (PE, run): high bits name the PE, low bits
  // count this PE's spans. Restarting per run is fine — the tracer is
  // cleared above.
  std::uint64_t span_seq = 0;
  const auto next_span = [&]() noexcept {
    return (static_cast<std::uint64_t>(ctx.pe() + 1) << 40) | ++span_seq;
  };

  bool done = false;
  while (!done) {
    set_phase(PoolPhase::kWorking);
    queue_->progress(ctx);
    drain_inbox(w);
    // Owner-side fencing inside queue wait loops can surface recovered
    // tasks at any progress point; fold them back in before working.
    if (crash_mode) drain_recovered(w);

    // Release: shared portion exhausted but local work remains (paper §3).
    if (!queue_->shared_available(ctx) &&
        queue_->local_count(ctx) >= cfg_.release_threshold) {
      if (tracer_.enabled()) {
        const std::uint64_t span = next_span();
        tracer_.begin(ctx.pe(), ctx.now(), TraceKind::kReleaseSpan, span);
        ctx.fabric().set_span(ctx.pe(), span);
        const bool released = queue_->try_release(ctx);
        ctx.fabric().set_span(ctx.pe(), 0);
        tracer_.end(ctx.pe(), ctx.now(), TraceKind::kReleaseSpan, span,
                    released ? 1 : 0);
        if (released)
          tracer_.record(ctx.pe(), ctx.now(), TraceKind::kRelease);
      } else {
        queue_->try_release(ctx);
      }
    }

    if (queue_->pop_local(ctx, t)) {
      w.execute(t);
      if (tracer_.enabled()) {
        tracer_.counter(ctx.pe(), ctx.now(), TraceKind::kQueueDepth,
                        queue_->local_count(ctx));
        tracer_.counter(ctx.pe(), ctx.now(), TraceKind::kPendingNbi,
                        static_cast<std::uint64_t>(
                            ctx.fabric().pending(ctx.pe())));
      }
      continue;
    }
    bool acquired;
    if (tracer_.enabled()) {
      const std::uint64_t span = next_span();
      tracer_.begin(ctx.pe(), ctx.now(), TraceKind::kAcquireSpan, span);
      ctx.fabric().set_span(ctx.pe(), span);
      acquired = queue_->try_acquire(ctx);
      ctx.fabric().set_span(ctx.pe(), 0);
      tracer_.end(ctx.pe(), ctx.now(), TraceKind::kAcquireSpan, span,
                  acquired ? 1 : 0);
      if (acquired)
        tracer_.record(ctx.pe(), ctx.now(), TraceKind::kAcquire);
    } else {
      acquired = queue_->try_acquire(ctx);
    }
    if (acquired) continue;

    // Out of local and own-shared work: search the system. Successful
    // attempts accrue as kStealing (steal time, §5.3); failed attempts and
    // backoff as kProbing and kParked (search time).
    // kRetry failures get `retry_budget` fast retries paced by the
    // queue's hint; past that (and for empty victims) the pause grows
    // exponentially with jitter, and resets on the next search.
    std::uint32_t fails = 0;
    std::uint32_t fast_retries = 0;
    net::Nanos backoff = st.backoff_min_ns;
    set_phase(PoolPhase::kProbing);
    while (true) {
      // Remotely-spawned tasks may land while we search.
      if (drain_inbox(w) > 0) break;

      if (crash_mode && recovery_->known_count(ctx.pe()) > 0) {
        trace_new_deaths();
        // Lease-paced recovery sweep: break orphaned locks / fence dead
        // claims in the queue, and re-route ledgered inbox pushes whose
        // target died. Paced so a pack of idle searchers doesn't hammer
        // the same dead peer's state every attempt.
        if (ctx.now() - last_fence >= recovery_->config().lease_ns) {
          last_fence = ctx.now();
          set_phase(PoolPhase::kRecovering);
          std::uint64_t span = 0;
          if (tracer_.enabled()) {
            span = next_span();
            tracer_.begin(ctx.pe(), ctx.now(), TraceKind::kRecoverySpan,
                          span);
            ctx.fabric().set_span(ctx.pe(), span);
          }
          queue_->fence_dead(ctx);
          std::uint32_t recovered = drain_recovered(w);
          if (inbox_) {
            for (int p = 0; p < ctx.npes(); ++p) {
              if (inbox_rerouted[static_cast<std::size_t>(p)] ||
                  !recovery_->known_dead(ctx.pe(), p))
                continue;
              inbox_rerouted[static_cast<std::size_t>(p)] = 1;
              loot.clear();
              const std::uint32_t n = inbox_->reroute_dead(ctx, p, loot);
              if (n == 0) continue;
              w.stats_.tasks_rerouted += n;
              recovered += n;
              if (tracer_.enabled())
                tracer_.record(ctx.pe(), ctx.now(), TraceKind::kRerouted,
                               static_cast<std::uint64_t>(p), n);
              // Already counted created at the original spawn_on.
              for (const Task& rr : loot) {
                if (!queue_->push_local(ctx, rr)) w.execute(rr);
              }
            }
          }
          if (tracer_.enabled()) {
            ctx.fabric().set_span(ctx.pe(), 0);
            tracer_.end(ctx.pe(), ctx.now(), TraceKind::kRecoverySpan, span,
                        recovered);
          }
          set_phase(PoolPhase::kProbing);
          if (recovered > 0 || queue_->local_count(ctx) > 0)
            break;  // recovered work to process
        }
      }

      bool fast = false;
      net::Nanos hint = 0;
      int victim = -1;
      if (ctx.npes() > 1) {
        victim = victims->next();
        if (crash_mode && recovery_->known_count(ctx.pe()) > 0) {
          // Dead victims stay inside the selector — its draw sequence must
          // not depend on when deaths were learned — so resample around
          // them, bounded by npes draws.
          int tries = 0;
          while (recovery_->known_dead(ctx.pe(), victim) &&
                 ++tries <= ctx.npes())
            victim = victims->next();
          if (recovery_->known_dead(ctx.pe(), victim)) victim = -1;
        }
      }
      if (victim >= 0) {
        const net::Nanos t0 = ctx.now();
        loot.clear();
        const net::Tier vtier = netm.tier(ctx.pe(), victim);
        std::uint64_t span = 0;
        if (tracer_.enabled()) {
          span = next_span();
          tracer_.begin(ctx.pe(), ctx.now(), TraceKind::kStealSpan, span,
                        static_cast<std::uint64_t>(victim));
          ctx.fabric().set_span(ctx.pe(), span);
        }
        const StealResult res = queue_->steal(ctx, victim, loot);
        if (tracer_.enabled()) {
          ctx.fabric().set_span(ctx.pe(), 0);
          tracer_.end(ctx.pe(), ctx.now(), TraceKind::kStealSpan, span,
                      static_cast<std::uint64_t>(victim),
                      static_cast<std::uint64_t>(res.outcome) |
                          (static_cast<std::uint64_t>(res.ntasks) << 8));
        }
        const net::Nanos dt = ctx.now() - t0;
        ++w.stats_.steal_attempts;
        if (vtier >= 1)
          ++w.stats_.steal_attempts_by_tier[static_cast<std::size_t>(vtier -
                                                                     1)];
        victims->report(victim, res.outcome == StealOutcome::kSuccess);
        if (res.outcome == StealOutcome::kSuccess) {
          ++w.stats_.steals_ok;
          if (vtier >= 1)
            ++w.stats_.steals_ok_by_tier[static_cast<std::size_t>(vtier - 1)];
          w.stats_.tasks_stolen += res.ntasks;
          w.stats_.bytes_stolen += static_cast<std::uint64_t>(res.ntasks) *
                                   cfg_.queue.slot_bytes;
          if (res.blocks > 0) w.stats_.claim_blocks.add(res.blocks);
          w.stats_.steal_latency.add(dt);
          if (tracer_.enabled())
            tracer_.record(ctx.pe(), ctx.now(), TraceKind::kStealOk,
                           static_cast<std::uint64_t>(victim), res.ntasks);
          // The attempt accrued as kProbing (its outcome was unknown while
          // it ran); it succeeded, so re-attribute its span to kStealing.
          // Closing first guarantees the probing bucket holds >= dt. A
          // window boundary inside the span can make that window's probing
          // delta locally negative — the exports carry signed deltas.
          set_phase(PoolPhase::kProbing);
          ps.accrued[static_cast<std::size_t>(PoolPhase::kProbing)] -= dt;
          ps.accrued[static_cast<std::size_t>(PoolPhase::kStealing)] += dt;
          set_phase(PoolPhase::kWorking);
          for (const Task& stolen : loot) {
            if (!queue_->push_local(ctx, stolen)) w.execute(stolen);
          }
          break;  // back to processing
        }
        hint = res.retry_after_ns;
        fast = res.outcome == StealOutcome::kRetry &&
               fast_retries < st.retry_budget;
        if (tracer_.enabled())
          tracer_.record(ctx.pe(), ctx.now(),
                         res.outcome == StealOutcome::kRetry
                             ? TraceKind::kStealRetry
                             : TraceKind::kStealEmpty,
                         static_cast<std::uint64_t>(victim));
        ++fails;
      } else {
        ++fails;
      }

      if (fails % st.term_check_interval == 0 || ctx.npes() == 1) {
        set_phase(PoolPhase::kIdleTerm);
        const bool finished = term_->check(ctx);
        if (tracer_.enabled())
          tracer_.record(ctx.pe(), ctx.now(), TraceKind::kTermCheck,
                         finished ? 1 : 0);
        if (finished) {
          done = true;  // stay in kIdleTerm through teardown
          break;
        }
        set_phase(PoolPhase::kProbing);
      }

      net::Nanos pause;
      if (fast) {
        ++fast_retries;
        pause = hint > 0 ? hint : st.backoff_min_ns;
      } else {
        fast_retries = 0;
        pause = backoff;
        if (st.jitter > 0.0 && pause > 0) {
          // Jitter, then clamp: the scaled pause must stay inside
          // [backoff_min_ns, backoff_max_ns] — jitter decorrelates convoys,
          // it must not grow the pause past the configured cap (or shrink
          // it below the floor). Clamp in double BEFORE the cast: for
          // extreme jitter/mult configurations the scaled value can exceed
          // the integer range, and a double→Nanos cast of such a value is
          // undefined behavior.
          const double f =
              1.0 + st.jitter * (2.0 * backoff_rng.uniform() - 1.0);
          double scaled = static_cast<double>(pause) * f;
          scaled = std::min(scaled, static_cast<double>(st.backoff_max_ns));
          scaled = std::max(scaled, static_cast<double>(st.backoff_min_ns));
          pause = static_cast<net::Nanos>(scaled);
        }
        if (hint > pause) pause = hint;
        // Grow in double and compare before casting — casting first
        // overflows (UB) once backoff_mult compounds the value past the
        // integer range, and only then clamping is too late.
        const double grown =
            static_cast<double>(backoff) * st.backoff_mult;
        backoff = grown >= static_cast<double>(st.backoff_max_ns)
                      ? st.backoff_max_ns
                      : static_cast<net::Nanos>(grown);
      }
      set_phase(PoolPhase::kParked);
      ctx.compute(pause);
      set_phase(PoolPhase::kProbing);
    }
  }
  if (tracer_.enabled())
    tracer_.record(ctx.pe(), ctx.now(), TraceKind::kTerminated);

  w.stats_.run_time_ns = ctx.now() - t_start;
  if (crash_mode) {
    // Survivor teardown. A crash scheduled for after termination must not
    // fire during it, and the dead cannot join a barrier — so disarm our
    // own crash, gossip the done flag (a coordinator that died
    // mid-broadcast cannot strand anyone), settle our nbi ops, and drain
    // every effect still inbound to us instead of rendezvousing.
    ctx.fabric().disarm_crash(ctx.pe());
    trace_new_deaths();
    w.stats_.deaths_witnessed =
        static_cast<std::uint64_t>(recovery_->known_count(ctx.pe()));
    term_->on_exit(ctx);
    set_phase(PoolPhase::kBlockedNbi);
    ctx.quiet();
    while (ctx.fabric().pending_to_synced(ctx.pe()) > 0)
      ctx.compute(recovery_->config().probe_backoff_ns);
  } else {
    set_phase(PoolPhase::kBlockedNbi);
    ctx.quiet();  // complete our in-flight completion notifications
    set_phase(PoolPhase::kIdleTerm);
    ctx.barrier();
  }
  // After everyone's quiet (+ the barrier, crash-free), no nbi op of ours
  // may remain — a leak here would carry a stale completion into the next
  // run.
  SWS_ASSERT_MSG(ctx.fabric().pending(ctx.pe()) == 0,
                 "nbi ops still pending after pool teardown quiet");

  // Freeze the accounting: close the open phase, publish the taxonomy into
  // the stats, then retire the live pointer so late samples (other PEs
  // still tearing down) read the just-copied last_stats_ instead.
  set_phase(ps.cur);
  ps.end = ps.mark;
  ps.active = false;
  w.stats_.phase_ns = ps.accrued;
  w.stats_.accounted_ns = ps.end - ps.base;
  const auto phase = [&](PoolPhase p) {
    return ps.accrued[static_cast<std::size_t>(p)];
  };
  w.stats_.steal_time_ns = phase(PoolPhase::kStealing);
  w.stats_.search_time_ns =
      phase(PoolPhase::kProbing) + phase(PoolPhase::kParked);
  last_stats_[static_cast<std::size_t>(ctx.pe())] = w.stats_;
  ps.live = nullptr;
  return w.stats_;
}

void TaskPool::dump_trace_json(std::ostream& os) const {
  TraceMeta meta;
  meta.protocol = cfg_.kind == QueueKind::kSws ? "sws" : "sdc";
  meta.npes = rt_.npes();
  meta.slot_bytes = cfg_.queue.slot_bytes;
  meta.topo = rt_.fabric().model().topology().spec().to_string();
  meta.crashes = rt_.fabric().crashes_planned();
  finalize_timeseries();
  const auto* eng =
      dynamic_cast<const net::ParallelTimeModel*>(&rt_.time());
  tracer_.dump_chrome_json(os, meta, [&](std::ostream& xs) {
    // Sampled series become Perfetto counter tracks alongside the events.
    if (timeseries_) timeseries_->write_chrome_counters(xs);
    if (eng == nullptr) return;
    // Parallel-engine gauges as single-point counter tracks at the run's
    // end, so traced runs carry them even without windowed sampling.
    net::Nanos tend = 0;
    for (int pe = 0; pe < rt_.npes(); ++pe)
      tend = std::max(tend, rt_.time().now(pe));
    const auto es = eng->engine_stats();
    const auto row = [&](const char* name, std::uint64_t v) {
      xs << ",\n{\"name\":\"" << name << "\",\"ph\":\"C\",\"ts\":"
         << tend / 1000 << "." << std::setw(3) << std::setfill('0')
         << tend % 1000 << std::setfill(' ')
         << ",\"pid\":0,\"tid\":0,\"args\":{\"value\":" << v << "}}";
    };
    row("engine.windows", es.windows);
    row("engine.window_pes", es.window_pes);
    row("engine.solo_private", es.solo_private);
    row("engine.solo_global", es.solo_global);
    row("engine.cap_lookahead", es.cap_lookahead);
    row("engine.cap_global", es.cap_global);
    row("engine.cap_deadline", es.cap_deadline);
    row("engine.cap_target", es.cap_target);
    row("engine.deferred", es.deferred);
    row("engine.license_skips", es.license_skips);
    row("engine.parks", es.parks);
  });
}

void TaskPool::dump_timeseries_json(std::ostream& os) const {
  if (!timeseries_) {
    os << "{\"schema\":\"sws-timeseries\",\"interval_ns\":0,\"samples\":0,"
          "\"truncated\":0,\"t\":[],\"series\":[]}\n";
    return;
  }
  finalize_timeseries();
  timeseries_->write_json(os);
}

void TaskPool::publish_metrics(obs::MetricsRegistry& reg) const {
  const int npes = static_cast<int>(last_stats_.size());
  auto set_worker = [&](const char* name, const char* help, auto&& field) {
    const auto id = reg.counter(name, help);
    for (int pe = 0; pe < npes; ++pe)
      reg.set(id, pe, field(last_stats_[static_cast<std::size_t>(pe)]));
  };
  set_worker("pool.tasks_executed", "tasks run to completion",
             [](const WorkerStats& s) { return s.tasks_executed; });
  set_worker("pool.tasks_spawned", "children + seeds added",
             [](const WorkerStats& s) { return s.tasks_spawned; });
  set_worker("pool.tasks_stolen", "tasks pulled from victims",
             [](const WorkerStats& s) { return s.tasks_stolen; });
  set_worker("pool.bytes_stolen", "payload bytes moved by successful steals",
             [](const WorkerStats& s) { return s.bytes_stolen; });
  set_worker("pool.steals_ok", "successful steal operations",
             [](const WorkerStats& s) { return s.steals_ok; });
  set_worker("pool.steal_attempts", "successful + failed steals",
             [](const WorkerStats& s) { return s.steal_attempts; });
  for (net::Tier t = 1; t <= rt_.fabric().model().ntiers(); ++t) {
    const std::string suffix = ".t" + std::to_string(t);
    const auto attempts =
        reg.counter("pool.steal_attempts_by_tier" + suffix,
                    "steal attempts against victims at this tier distance");
    const auto ok = reg.counter("pool.steals_ok_by_tier" + suffix,
                                "successful steals at this tier distance");
    for (int pe = 0; pe < npes; ++pe) {
      const WorkerStats& s = last_stats_[static_cast<std::size_t>(pe)];
      reg.set(attempts, pe,
              s.steal_attempts_by_tier[static_cast<std::size_t>(t - 1)]);
      reg.set(ok, pe, s.steals_ok_by_tier[static_cast<std::size_t>(t - 1)]);
    }
  }
  set_worker("pool.compute_time_ns", "charged task compute",
             [](const WorkerStats& s) { return s.compute_time_ns; });
  // Exhaustive phase taxonomy: per PE the categories sum exactly to
  // pool.phase.accounted_ns (docs/observability.md).
  for (std::size_t c = 0; c < kNumPoolPhases; ++c) {
    const auto id = reg.counter(
        std::string("pool.phase.") +
            pool_phase_name(static_cast<PoolPhase>(c)) + "_ns",
        "time attributed to this phase (taxonomy sums to accounted_ns)");
    for (int pe = 0; pe < npes; ++pe)
      reg.set(id, pe, last_stats_[static_cast<std::size_t>(pe)].phase_ns[c]);
  }
  set_worker("pool.phase.accounted_ns",
             "elapsed span the phase taxonomy covers",
             [](const WorkerStats& s) { return s.accounted_ns; });
  const auto run_time =
      reg.gauge("pool.run_time_ns", "per-PE whole-run time (max = Fig 8 y)");
  for (int pe = 0; pe < npes; ++pe)
    reg.set(run_time, pe, last_stats_[static_cast<std::size_t>(pe)].run_time_ns);
  const auto lat = reg.histogram("pool.steal_latency_ns",
                                 "per-successful-steal latency");
  for (int pe = 0; pe < npes; ++pe)
    reg.set_hist(lat, pe,
                 last_stats_[static_cast<std::size_t>(pe)].steal_latency);
  const auto cblocks = reg.histogram("pool.claim_blocks",
                                     "blocks per successful steal claim");
  for (int pe = 0; pe < npes; ++pe)
    reg.set_hist(cblocks, pe,
                 last_stats_[static_cast<std::size_t>(pe)].claim_blocks);

  auto set_queue = [&](const char* name, const char* help, auto&& field) {
    const auto id = reg.counter(name, help);
    for (int pe = 0; pe < npes; ++pe)
      reg.set(id, pe, field(queue_->op_stats(pe)));
  };
  set_queue("queue.releases", "local→shared transfers",
            [](const QueueOpStats& s) { return s.releases; });
  set_queue("queue.acquires", "shared→local transfers",
            [](const QueueOpStats& s) { return s.acquires; });
  set_queue("queue.acquire_poll_ns", "acquire time waiting on epochs",
            [](const QueueOpStats& s) { return s.acquire_poll_ns; });
  set_queue("queue.steals_empty", "steals finding no work",
            [](const QueueOpStats& s) { return s.steals_empty; });
  set_queue("queue.steals_retry", "steals bouncing off busy victims",
            [](const QueueOpStats& s) { return s.steals_retry; });
  set_queue("queue.damping_probes", "SWS empty-mode read-only probes",
            [](const QueueOpStats& s) { return s.damping_probes; });
  set_queue("queue.renews", "SWS owner-forced allotment renewals",
            [](const QueueOpStats& s) { return s.renews; });
  set_queue("queue.bulk_claims", "SWS successes claiming more than one block",
            [](const QueueOpStats& s) { return s.bulk_claims; });
  set_queue("queue.blocks_claimed", "SWS blocks claimed across successes",
            [](const QueueOpStats& s) { return s.blocks_claimed; });
  set_queue("queue.pressure_releases", "SWS enlarged releases under pressure",
            [](const QueueOpStats& s) { return s.pressure_releases; });

  // Crash-recovery series exist only for crash-mode pools, keeping
  // crash-free metric dumps identical to older builds.
  if (recovery_) {
    set_worker("pool.reexec_tasks", "tasks fenced from dead claims, re-run",
               [](const WorkerStats& s) { return s.tasks_reexecuted; });
    set_worker("pool.rerouted_tasks", "inbox pushes re-routed from dead PEs",
               [](const WorkerStats& s) { return s.tasks_rerouted; });
    set_worker("runtime.recoveries", "deaths this PE witnessed and recovered around",
               [](const WorkerStats& s) { return s.deaths_witnessed; });
    set_queue("queue.steals_dead", "steal attempts answered by a dead PE",
              [](const QueueOpStats& s) { return s.steals_dead; });
    set_queue("queue.leases_broken", "dead peers' leases/locks broken",
              [](const QueueOpStats& s) { return s.leases_broken; });
    set_queue("queue.tasks_recovered", "tasks fenced off dead thieves' claims",
              [](const QueueOpStats& s) { return s.tasks_recovered; });
  }
}

PoolRunReport TaskPool::report() const { return aggregate_reports(last_stats_); }

const WorkerStats& TaskPool::worker_stats(int pe) const {
  SWS_ASSERT(pe >= 0 && pe < static_cast<int>(last_stats_.size()));
  return last_stats_[static_cast<std::size_t>(pe)];
}

}  // namespace sws::core
