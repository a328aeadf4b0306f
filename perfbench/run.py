"""End-to-end simulator benchmark with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload correlate|fleet|lossy_mesh \\
        --seed N --seconds S --trace 0|1

Repeats the workload, each repetition in a fresh single-threaded process,
one at a time, until ``--seconds`` have passed (at least three
repetitions), and reports medians.  ``setup_s`` and ``records_per_s``
are rescaled to the reference speed (see ``reference.py``): each phase's
host seconds times ``NOMINAL_S`` over the reference loop's time measured
around that phase, which keeps the shared host's speed phases out of
them; the raw host figures are the ``host.*`` per-layer metrics.
``--trace 1`` adds one profiled
repetition and reports the per-layer ledger instead of the end-to-end
metrics.  Every repetition's outputs are checked; the command exits 1 when
a check fails, after printing the result with ``"correct": false``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from ledger import LAYERS, SETUP_LAYERS
from reference import at_reference_speed
from workloads import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
    ("makespan_sim_s", "sim_s"),
    ("report_latency_p50_sim_s", "sim_s"),
    ("report_latency_p95_sim_s", "sim_s"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
PER_LAYER = (
    ("host.setup_s", "s"),
    ("host.records_per_s", "records/s"),
    ("host.reference_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.setup_wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("unattributed.self_s", "s"),
) + tuple((layer + ".self_s", "s") for layer in LAYERS) + tuple(
    (layer + ".setup_self_s", "s") for layer in SETUP_LAYERS) + (
    ("rules.engine_runs", "count"),
    ("rules.facts_in", "count"),
    ("rules.firings", "count"),
    ("rules.pattern_matches", "count"),
    ("rules.firings_per_kmatch", "firings/kmatch"),
    ("snmp.device_ticks", "count"),
    ("snmp.pdus_handled", "count"),
    ("simkernel.events", "count"),
    ("simkernel.processes_spawned", "count"),
    ("network.messages_sent", "count"),
    ("network.messages_dropped", "count"),
    ("network.reliable.retransmits", "count"),
    ("network.reliable.dup_drops", "count"),
    ("network.reliable.dead_letters", "count"),
    ("network.reliable.acked_per_send", "fraction"),
    ("agents.messages_routed", "count"),
    ("agents.messages_failed", "count"),
    ("core.collector.polls_completed", "count"),
    ("core.collector.polls_failed", "count"),
    ("core.collector.poll_retries_used", "count"),
    ("core.collector.records_shipped", "count"),
    ("core.classifier.records_classified", "count"),
    ("core.classifier.datasets_published", "count"),
    ("core.storage.records_stored", "count"),
    ("core.storage.queries_answered", "count"),
    ("core.processor.jobs_dispatched", "count"),
    ("core.processor.jobs_redispatched", "count"),
    ("core.processor.fetch_retries_used", "count"),
    ("core.processor.duplicate_results", "count"),
    ("core.processor.dispatch_wait_p50_sim_s", "sim_s"),
    ("core.federation.beacons_sent", "count"),
    ("core.federation.beacons_received", "count"),
    ("core.federation.partitions_declared", "count"),
    ("core.federation.jobs_forwarded", "count"),
    ("core.federation.duplicate_results", "count"),
    ("core.interface.reports", "count"),
    ("core.interface.findings", "count"),
    ("outcome.records_failed_frac", "fraction"),
    ("outcome.false_alarms", "count"),
    ("outcome.latency_samples", "count"),
)

MIN_REPETITIONS = 3
#: A repetition that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    """A repetition crashed or timed out (no result can be trusted)."""


def run_worker(workload, seed, traced=False, size="full", deadline=None):
    """One repetition in a fresh single-threaded process; its JSON result."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--size", size]
    if traced:
        command.append("--traced")
    if deadline is not None:
        command += ["--deadline", repr(float(deadline))]
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError("%s seed %d: repetition exceeded %.0f s"
                          % (workload, seed, WORKER_TIMEOUT_S))
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise WorkerError("%s seed %d: repetition failed (exit %d)\n%s"
                          % (workload, seed, completed.returncode,
                             completed.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def summarize(timed, traced=None):
    """Fold repetitions into ``(correct, attempted, failed, metrics,
    problems)``; ``metrics`` holds every end-to-end value, plus the
    ledger when a traced repetition is given."""
    repetitions = list(timed) + ([traced] if traced is not None else [])
    first = repetitions[0]
    problems = []
    attempted = failed = 0
    for index, rep in enumerate(repetitions):
        attempted += rep["requested"]
        rep_problems = [
            "%s failed" % name
            for name, ok in sorted(rep["checks"].items()) if not ok]
        if rep["digest"] != first["digest"] or rep["sim"] != first["sim"]:
            rep_problems.append("outcome differs from the first repetition")
        if rep_problems:
            label = "traced repetition" if rep["traced"] else \
                "repetition %d" % (index + 1)
            problems.extend("%s: %s" % (label, text) for text in rep_problems)
            failed += rep["requested"]  # its outputs cannot be trusted
        else:
            failed += rep["requested"] - rep["reported"]
    sim = first["sim"]
    metrics = {
        "setup_s": statistics.median(
            at_reference_speed(rep["setup_s"], rep["reference_setup_s"])
            for rep in timed),
        "records_per_s": statistics.median(
            rep["reported"] / _reference_run_s(rep) for rep in timed),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in timed),
        "makespan_sim_s": sim["makespan_sim_s"],
        "report_latency_p50_sim_s": sim["report_latency_p50_sim_s"],
        "report_latency_p95_sim_s": sim["report_latency_p95_sim_s"],
        "outcome.records_failed_frac": failed / attempted,
        "outcome.false_alarms": sim["false_alarms"],
        "outcome.latency_samples": sim["latency_samples"],
        "host.setup_s": statistics.median(rep["setup_s"] for rep in timed),
        "host.records_per_s": statistics.median(
            rep["reported"] / rep["run_s"] for rep in timed),
        "host.reference_s": statistics.median(
            rep["reference_run_s"] for rep in timed),
    }
    if traced is not None:
        metrics.update(traced["counters"])
        metrics.update(traced["layers"])
        metrics["trace.overhead_frac"] = _reference_run_s(traced) / \
            statistics.median(_reference_run_s(rep) for rep in timed) - 1.0
        matches = metrics["rules.pattern_matches"]
        metrics["rules.firings_per_kmatch"] = (
            1000.0 * metrics["rules.firings"] / matches if matches else 0.0)
    return not problems, attempted, failed, metrics, problems


def _reference_run_s(rep):
    return at_reference_speed(rep["run_s"], rep["reference_run_s"])


def measure(workload, seed, seconds, trace, size="full", deadline=None):
    """Untraced repetitions for ``seconds`` (at least MIN_REPETITIONS);
    with ``trace``, MIN_REPETITIONS untraced ones -- only the base of
    ``trace.overhead_frac`` -- and then one traced repetition."""
    started = time.monotonic()
    timed = []
    while len(timed) < MIN_REPETITIONS or (
            not trace and time.monotonic() - started < seconds):
        timed.append(run_worker(workload, seed, size=size, deadline=deadline))
    traced = (run_worker(workload, seed, traced=True, size=size,
                         deadline=deadline) if trace else None)
    return timed, traced


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: %s holds no src/repro package to benchmark" % ROOT,
              file=sys.stderr)
        return 2
    try:
        timed, traced = measure(args.workload, args.seed, args.seconds,
                                args.trace)
    except WorkerError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    correct, attempted, failed, values, problems = summarize(timed, traced)
    wanted = PER_LAYER if args.trace else END_TO_END
    print("workload %s  seed %d  repetitions %d%s" % (
        args.workload, args.seed, len(timed),
        "  (+1 traced)" if traced else ""))
    for index, rep in enumerate(timed + ([traced] if traced else [])):
        print("  repetition %d%s: setup %.4f s  run %.3f s  reference %.4f s"
              "  rss %.1f MB" % (
                  index + 1, " (traced)" if rep["traced"] else "",
                  rep["setup_s"], rep["run_s"], rep["reference_run_s"],
                  rep["peak_rss_mb"]))
    for problem in problems:
        print("CHECK FAILED  " + problem)
    # The outcome counts and raw host figures are printed on every run,
    # traced or not.
    shown = wanted if args.trace else END_TO_END + tuple(
        metric for metric in PER_LAYER
        if metric[0].startswith(("outcome.", "host.")))
    for name, unit in shown:
        print("  %-42s %-16r %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
