"""One repetition of one workload, in a fresh process.

Usage::

    python3 perfbench/worker.py --workload NAME --seed N [--traced]
                                [--size full|small] [--deadline SIM_S]

Builds the workload's system from its seeded inputs, timing set-up apart
from the run phase, checks the outcome and prints one JSON object on the
last line of standard output.  The reference loop is timed before set-up,
between set-up and the run phase, and after the run phase, so each phase
can be rescaled to the reference speed.  With ``--traced`` the last
set-up and the run phase run under the ledger's profiler and the system
records telemetry spans (passive: the simulated outcome is unchanged).
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import ledger
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE_DIR = os.path.join(SRC, "repro")


def repetition(workload, seed, traced=False, size="full", deadline=None):
    """Run one repetition in this process; returns the JSON-ready result."""
    inputs = workloads.generate(workload, seed, size=size, deadline=deadline)
    workloads.import_program()
    reference_before_setup = reference.reference_s()
    setup_times = []
    setups = workloads.SETUPS_PER_REP[workload]
    for index in range(setups):
        system = None
        gc.collect()
        started = time.perf_counter()
        if traced and index == setups - 1:
            system, setup_ledger = ledger.profile(
                lambda: workloads.build(inputs, telemetry=True), PACKAGE_DIR)
        else:
            system = workloads.build(inputs)
        setup_times.append(time.perf_counter() - started)
    gc.collect()
    reference_before = reference.reference_s()
    started = time.perf_counter()
    if traced:
        completed, run_ledger = ledger.profile(
            lambda: workloads.run(system, inputs), PACKAGE_DIR)
    else:
        completed = workloads.run(system, inputs)
    run_s = time.perf_counter() - started
    reference_after = reference.reference_s()
    result = workloads.outcome(system, inputs, completed)
    result.update({
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": statistics.median(setup_times),
        "setup_samples": setup_times,
        "run_s": run_s,
        "reference_setup_s":
            (reference_before_setup + reference_before) / 2.0,
        "reference_run_s": (reference_before + reference_after) / 2.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if traced:
        result["layers"] = _layer_metrics(
            system, setup_ledger, run_ledger, run_s, setup_times[-1])
    return result


def _layer_metrics(system, setup_ledger, run_ledger, run_s, setup_s):
    metrics = {"trace.wall_s": run_s, "trace.setup_wall_s": setup_s}
    for layer, seconds in run_ledger.self_s.items():
        metrics[layer + ".self_s"] = seconds
    metrics["unattributed.self_s"] = run_s - sum(run_ledger.self_s.values())
    for layer in ledger.SETUP_LAYERS:
        metrics[layer + ".setup_self_s"] = setup_ledger.self_s[layer]
    calls = run_ledger.calls
    matches = calls("rules/conditions.py", "match")
    metrics.update({
        "rules.engine_runs": calls("rules/engine.py", "run"),
        "rules.facts_in": calls("rules/facts.py", "assert_fact"),
        "rules.pattern_matches": matches,
        "snmp.device_ticks": calls("snmp/device.py", "_advance"),
        "snmp.pdus_handled": calls("snmp/engine.py", "_evaluate"),
        "simkernel.events": calls("simkernel/events.py", "pop"),
    })
    stages = system.telemetry.pipeline_report()["stage_latency"]
    dispatch = stages.get("dispatch")
    metrics["core.processor.dispatch_wait_p50_sim_s"] = (
        dispatch["p50"] if dispatch else 0.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--deadline", type=float, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    result = repetition(args.workload, args.seed, traced=args.traced,
                        size=args.size, deadline=args.deadline)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
