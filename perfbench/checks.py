"""Output checks the benchmark applies to every simulation it runs.

Each check returns None when the input passes and a one-line reason when
it does not; run.py counts a simulation as failed when any check on it
gives a reason. test_checks.py feeds each check a deliberately wrong input.
"""

# Virtual-time results of one simulation. With the same tree and runtime
# seeds they must repeat exactly, observed (traced, metrics on) or not.
VIRTUAL_KEYS = (
    "tasks", "steals", "steal_attempts", "tasks_stolen", "remote_ops",
    "blocking_ops", "blocking_ns", "occupancy_wait_ns", "makespan_ns",
    "compute_ns", "steal_ns", "search_ns", "phase_ns",
)


def check_node_count(tasks, expected_nodes):
    """Tasks executed, summed over PEs, equal the reference node count."""
    if tasks != expected_nodes:
        return f"executed {tasks} tasks, the tree has {expected_nodes} nodes"
    return None


def check_work_law(makespan_ns, nodes, node_ns, pes):
    """Makespan is at least the total node compute time divided by PEs."""
    floor_ns = nodes * node_ns / pes
    if makespan_ns < floor_ns:
        return (f"makespan {makespan_ns} ns is below the work-law bound "
                f"{floor_ns:.0f} ns ({nodes} nodes x {node_ns} ns / {pes})")
    return None


def check_repeatable(sim, first):
    """`sim` reports the same virtual results as `first`."""
    diff = [k for k in VIRTUAL_KEYS if sim.get(k) != first.get(k)]
    if diff:
        return "virtual results differ from the first simulation in " + \
            ", ".join(diff)
    return None


def check_fig2(sws_blocking_per_steal, sdc_blocking_per_steal):
    """SWS needs fewer blocking fabric ops per successful steal than SDC."""
    if not sws_blocking_per_steal < sdc_blocking_per_steal:
        return (f"SWS blocking ops per steal {sws_blocking_per_steal} is not "
                f"below SDC's {sdc_blocking_per_steal}")
    return None


def check_sim(sim, first, expected_nodes, node_ns, pes):
    """Every check that applies to one simulation; returns the reasons."""
    reasons = [
        check_node_count(sim["tasks"], expected_nodes),
        check_work_law(sim["makespan_ns"], expected_nodes, node_ns, pes),
        check_repeatable(sim, first),
    ]
    return [r for r in reasons if r]
