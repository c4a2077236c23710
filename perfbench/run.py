#!/usr/bin/env python3
"""The simulator's benchmark: one command for every workload.

  python3 perfbench/run.py --workload uts_wide_sws --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds perfbench/ (the simulator
libraries, sws-analyze and perfbench-driver) into .bench_build/, runs the
workload, checks every simulation against the independent reference in
perfbench/reference.py, and prints one JSON object as the last line of
standard output. With --trace 0 it reports the end-to-end metrics
(observation off); with --trace 1 the per-layer metrics of a traced run.
Progress and details go to standard error. See perfbench/README.md.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "out")
DRIVER = os.path.join(BUILD_DIR, "perfbench-driver")
ANALYZE = os.path.join(BUILD_DIR, "sws-analyze")

NODE_NS = 400   # virtual compute per UTS node, as in bench/fig8_uts.cpp

# Trees for uts_solo: linear geometric, b0 4, depth 19, whose node counts
# lie within 0.9% of one another (1,672,462 to 1,687,155), so that --seed
# can pick the tree without
# changing the amount of work (on one PE the runtime seed moves nothing).
# `python3 perfbench/reference.py --tree-seed S --depth 19` recounts any.
SOLO_TREES = (19, 481, 512, 529, 1002, 1262)

# A round simulates the tree once per runtime seed of the run; a run times
# whole rounds, after one warm-up simulation that is checked but not timed.
# On 256 PEs the runtime seed moves the makespan by several percent, so a
# round there averages over six seeds; one round of them fills a run.
WORKLOADS = {
    "uts_wide_sws": {"protocol": "sws", "pes": 256, "depth": 15,
                     "trees": (19,), "round": 6, "min_rounds": 1},
    "uts_wide_sdc": {"protocol": "sdc", "pes": 256, "depth": 15,
                     "trees": (19,), "round": 6, "min_rounds": 1},
    "uts_solo": {"protocol": "sws", "pes": 1, "depth": 19,
                 "trees": SOLO_TREES, "round": 1, "min_rounds": 4},
}

# The traced run also traces the other protocol on this smaller machine,
# to compare blocking fabric ops per successful steal (Fig 2).
COMPANION = {"pes": 32, "depth": 13}

PHASES = ("working", "probing", "stealing", "parked", "blocked_nbi",
          "recovering", "idle_terminating")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    for need in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/sws_analyze.cpp"):
        if not os.path.isfile(need):
            sys.exit(f"perfbench: {need} not found; run from the root of a "
                     "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)


def run_driver(args):
    """Runs perfbench-driver; returns its records."""
    p = subprocess.run([DRIVER] + args, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"perfbench: driver exited with {p.returncode}")
    return [json.loads(line) for line in p.stdout.splitlines() if line]


def sims_of(recs, obs=None):
    return [r for r in recs if r["event"] == "sim" and
            (obs is None or r["obs"] == obs)]


def analyze(trace, timeseries, steals):
    """sws-analyze on one trace: --report, and --self-check of the steal op
    shapes (when there are steals) and of the per-window time accounting.
    Returns the report text and whether every check passed."""
    rep = subprocess.run([ANALYZE, "--report", trace],
                         stdout=subprocess.PIPE, text=True)
    chk = subprocess.run([ANALYZE] + (["--self-check", trace] if steals else [])
                         + ["--timeseries=" + timeseries],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    ok = rep.returncode == 0 and chk.returncode == 0
    if not ok:
        log(f"sws-analyze failed on {trace}:\n{chk.stdout}{chk.stderr}")
    return rep.stdout, ok


def report_value(text, label):
    m = re.search(r"^\s*" + re.escape(label) + r"\s+(-?[0-9.]+)", text, re.M)
    if not m:
        sys.exit(f"perfbench: no '{label}' line in the sws-analyze report")
    return float(m.group(1))


def expected_nodes(w, tree):
    # Called after the timed simulations, so the walk never runs beside them.
    return reference.tree_info(tree, w["depth"])[0]


def check_all(sims, expected, pes):
    """Checks every simulation; repeats are compared with the first
    simulation of the same runtime seed. Returns the number that failed."""
    failed = 0
    first = {}
    for s in sims:
        first.setdefault(s["seed"], s)
        reasons = checks.check_sim(s, first[s["seed"]], expected, NODE_NS, pes)
        if reasons:
            failed += 1
            log(f"simulation {s['i']} ({s['obs']}) failed: " + "; ".join(reasons))
    return failed


def runtime_seeds(w, seed):
    return [seed * w["round"] + j for j in range(w["round"])]


def sim_args(w, tree, seeds, seconds, extra=()):
    return ["sim", "--protocol", w["protocol"], "--pes", str(w["pes"]),
            "--depth", str(w["depth"]), "--tree-seed", str(tree),
            "--node-ns", str(NODE_NS), "--seeds", ",".join(map(str, seeds)),
            "--seconds", str(seconds)] + list(extra)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, tree, args):
    recs = run_driver(sim_args(
        w, tree, runtime_seeds(w, args.seed), args.seconds,
        ["--min-rounds", str(w["min_rounds"]),
         "--engine-threads", str(args.engine_threads)]))
    sims = sims_of(recs)
    failed = check_all(sims, expected_nodes(w, tree), w["pes"])
    # The first simulation's set-up is the process's cold one.
    setup_s = sims[0]["runtime_build_s"] + sims[0]["pool_build_s"]
    walls = [s["wall_s"] for s in sims if s["round"] >= 0]
    first_round = [s["makespan_ns"] for s in sims if s["round"] == 0]
    end = [r for r in recs if r["event"] == "end"][0]
    log("wall_s per simulation: " + ", ".join(
        f"{s['wall_s']:.3f}" for s in sims if s["round"] >= 0))
    metrics = {
        # Interference from other processes only ever adds time, so the
        # fastest simulation is the statistic it cannot drag.
        "wall_s": metric(min(walls), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mib": metric(end["peak_rss_kib"] / 1024.0, "MiB"),
        "sim_makespan_us": metric(statistics.mean(first_round) / 1e3, "us"),
    }
    return len(sims), failed, True, metrics


def per_layer(w, tree, args):
    name = args.workload
    layers = [r for r in run_driver(["layers", "--pes", str(w["pes"])])
              if r["event"] == "layers"][0]
    trace = os.path.join(OUT_DIR, name + ".trace.json")
    series = os.path.join(OUT_DIR, name + ".timeseries.json")
    seeds = runtime_seeds(w, args.seed)
    recs = run_driver(sim_args(
        w, tree, seeds[:1], 0,
        ["--min-rounds", "1", "--max-rounds", "1",
         "--engine-threads", str(args.engine_threads), "--trace-out", trace,
         "--timeseries-out", series, "--metrics-sim"]))
    sims = sims_of(recs)
    failed = check_all(sims, expected_nodes(w, tree), w["pes"])
    off = [s for s in sims_of(recs, "off") if s["round"] >= 0]
    traced = sims_of(recs, "trace")[0]
    with_metrics = sims_of(recs, "metrics")[0]
    report, correct = analyze(trace, series, traced["steals"])
    # On one PE the rings keep only the last events of the run; on 256 PEs
    # they must hold all of it.
    traced_steals = report_value(report, "ok")
    if w["pes"] > 1 and traced_steals != traced["steals"]:
        log(f"the trace holds {traced_steals:.0f} of {traced['steals']} "
            "successful steals; its rings are too small")
        correct = False

    if w["pes"] > 1:
        other = "sdc" if w["protocol"] == "sws" else "sws"
        cw = dict(w, protocol=other, **COMPANION)
        ctrace = os.path.join(OUT_DIR, name + ".companion.trace.json")
        cseries = os.path.join(OUT_DIR, name + ".companion.timeseries.json")
        crecs = run_driver(sim_args(
            cw, 19, seeds[:1], 0, ["--min-rounds", "0", "--max-rounds", "0",
                                   "--trace-out", ctrace,
                                   "--timeseries-out", cseries]))
        csims = sims_of(crecs)
        cexpected = reference.tree_info(19, cw["depth"])[0]
        if check_all(csims, cexpected, cw["pes"]):
            correct = False
        creport, cok = analyze(ctrace, cseries, csims[-1]["steals"])
        correct = correct and cok
        per_steal = {w["protocol"]: report_value(report, "blocking ops"),
                     other: report_value(creport, "blocking ops")}
        reason = checks.check_fig2(per_steal["sws"], per_steal["sdc"])
        if reason:
            log("Fig 2 check failed: " + reason)
            correct = False

    s0 = sims[0]
    pes = w["pes"]
    steals = s0["steals"]

    def med(key):
        return statistics.median(s[key] for s in off)

    # Both untraced simulations, warm-up included, are of the traced seed.
    untraced_s = min(s["wall_s"] for s in sims_of(recs, "off"))

    m = {
        "net.seq.handoff_ns": metric(layers["net.seq.handoff_ns"], "ns"),
        "net.seq.advance_ns": metric(layers["net.seq.advance_ns"], "ns"),
        "host.vol_ctx_switches": metric(med("nvcsw"), "count"),
        "host.sys_s": metric(med("sys_s"), "s"),
        "host.user_s": metric(med("user_s"), "s"),
        "net.fabric.blocking_op_ns": metric(layers["net.fabric.blocking_op_ns"], "ns"),
        "net.fabric.nbi_op_ns": metric(layers["net.fabric.nbi_op_ns"], "ns"),
        "net.remote_ops": metric(s0["remote_ops"], "count"),
        "net.ops_per_steal": metric(report_value(report, "ops"), "ops"),
        "net.blocking_ops_per_steal": metric(report_value(report, "blocking ops"), "ops"),
        "net.blocking_us": metric(s0["blocking_ns"] / 1e3, "us"),
        "net.occupancy_wait_us": metric(s0["occupancy_wait_ns"] / 1e3, "us"),
        "pgas.runtime_build_s": metric(layers["pgas.runtime_build_s"], "s"),
        "pgas.spawn_join_ms": metric(layers["pgas.spawn_join_ms"], "ms"),
        "core.pool_build_s": metric(layers["core.pool_build_s"], "s"),
        "core.steal_attempts": metric(s0["steal_attempts"], "count"),
        "core.steals_ok": metric(steals, "count"),
        "core.tasks_stolen": metric(s0["tasks_stolen"], "count"),
        "core.steal_ok_ratio": metric(
            steals / s0["steal_attempts"] if s0["steal_attempts"] else 0.0, "ratio"),
        "core.sim_steal_us_per_pe": metric(s0["steal_ns"] / pes / 1e3, "us"),
        "core.sim_search_us_per_pe": metric(s0["search_ns"] / pes / 1e3, "us"),
        "core.steal_latency_p50_ns": metric(s0["steal_p50_ns"], "ns"),
        "core.steal_latency_p95_ns": metric(s0["steal_p95_ns"], "ns"),
    }
    for ph in PHASES:
        m[f"core.phase.{ph}_us"] = metric(s0["phase_ns"][ph] / pes / 1e3, "us")
    m.update({
        "core.local_task_ns": metric(layers["core.local_task_ns"], "ns"),
        "sha1.child_digest_ns": metric(layers["sha1.child_digest_ns"], "ns"),
        "cp.task_work_us": metric(report_value(report, "task work + park") / 1e3, "us"),
        "cp.steal_search_us": metric(report_value(report, "steal search") / 1e3, "us"),
        "cp.steal_fabric_us": metric(report_value(report, "hop steal fabric") / 1e3, "us"),
        "cp.steal_protocol_us": metric(report_value(report, "hop steal protocol") / 1e3, "us"),
        "cp.steal_hops": metric(report_value(report, "steal hops"), "count"),
        "obs.trace_overhead_s": metric(traced["wall_s"] - untraced_s, "s"),
        "obs.metrics_overhead_s": metric(with_metrics["wall_s"] - untraced_s, "s"),
    })
    return len(sims), failed, correct, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="runtime seed; on uts_solo it also picks the tree")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tree-seed", type=int, default=None,
                    help="simulate this tree instead of the workload's own")
    ap.add_argument("--engine-threads", type=int, default=1,
                    help="host threads of the virtual-time engine (1 = serial)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    build()
    w = WORKLOADS[args.workload]
    tree = args.tree_seed if args.tree_seed is not None else \
        w["trees"][args.seed % len(w["trees"])]
    log(f"{args.workload}: {w['protocol']} on {w['pes']} PEs, tree seed "
        f"{tree}, depth {w['depth']}, runtime seed {args.seed}")
    run = per_layer if args.trace else end_to_end
    attempted, failed, correct, metrics = run(w, tree, args)
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
