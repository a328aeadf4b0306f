"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import ledger  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    metrics = run.END_TO_END + run.PER_LAYER
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_every_metric_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOAD_NAMES)


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOAD_NAMES:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
        assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_and_untraced_outcomes_match(workload):
    timed = run.run_worker(workload, 3, size="small")
    traced = run.run_worker(workload, 3, traced=True, size="small")
    assert timed["digest"] == traced["digest"]
    assert timed["sim"] == traced["sim"]
    assert all(timed["checks"].values()), timed["checks"]
    correct, attempted, failed, metrics, problems = run.summarize(
        [timed], traced)
    assert correct, problems
    assert (attempted, failed) == (2 * timed["requested"], 0)
    for name, _ in run.END_TO_END + run.PER_LAYER:
        assert isinstance(metrics[name], (int, float)), name


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_ledger_shares_sum_to_the_traced_wall_time(workload):
    traced = run.run_worker(workload, 5, traced=True, size="small")
    layers = traced["layers"]
    total = sum(layers[layer + ".self_s"] for layer in ledger.LAYERS)
    assert total + layers["unattributed.self_s"] == \
        pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert total > 0.5 * layers["trace.wall_s"]


def test_run_past_its_deadline_counts_failed_records():
    rep = run.run_worker("correlate", 1, size="small", deadline=5.0)
    assert rep["reported"] < rep["requested"]
    assert not rep["checks"]["all_records_reported"]
    correct, attempted, failed, metrics, problems = run.summarize([rep])
    assert not correct
    assert metrics["outcome.records_failed_frac"] > 0
    assert failed == attempted == rep["requested"]


def test_layer_of_maps_modules_to_layers():
    package = os.path.join("/x", "src", "repro")

    def path(*parts):
        return os.path.join(package, *parts)

    assert ledger.layer_of(path("rules", "engine.py"), package) == "rules"
    assert ledger.layer_of(path("core", "processor.py"), package) == \
        "core.processor"
    assert ledger.layer_of(path("core", "records.py"), package) == \
        "core.other"
    assert ledger.layer_of("/usr/lib/python3/heapq.py", package) is None
    assert ledger.layer_of("~", package) is None


def test_builtin_self_time_is_charged_to_its_callers():
    package = os.path.join("/x", "src", "repro")
    rules = (os.path.join(package, "rules", "engine.py"), 1, "run")
    kernel = (os.path.join(package, "simkernel", "events.py"), 1, "pop")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stats = {
        rules: (1, 1, 2.0, 3.0, {}),
        kernel: (1, 1, 1.0, 1.5, {}),
        append: (4, 4, 1.5, 1.5, {rules: (3, 3, 1.0, 1.0),
                                  kernel: (1, 1, 0.5, 0.5)}),
    }
    folded = ledger.Ledger(stats, package).self_s
    assert folded["rules"] == pytest.approx(3.0)
    assert folded["simkernel"] == pytest.approx(1.5)
    assert sum(folded.values()) == pytest.approx(4.5)


def test_host_time_metrics_are_rescaled_to_the_reference_speed():
    rep = run.run_worker("correlate", 2, size="small")
    slower = dict(rep)
    for key in ("setup_s", "run_s", "reference_setup_s", "reference_run_s"):
        slower[key] = 2.0 * rep[key]
    _, _, _, fast, _ = run.summarize([rep])
    _, _, _, slow, _ = run.summarize([slower])
    # A host twice as slow halves the raw figures, not the rescaled ones.
    assert slow["setup_s"] == pytest.approx(fast["setup_s"])
    assert slow["records_per_s"] == pytest.approx(fast["records_per_s"])
    assert slow["host.setup_s"] == pytest.approx(2.0 * fast["host.setup_s"])
    assert slow["host.records_per_s"] == \
        pytest.approx(fast["host.records_per_s"] / 2.0)
    assert fast["setup_s"] == pytest.approx(
        rep["setup_s"] * reference.NOMINAL_S / rep["reference_setup_s"])


def test_reference_loop_does_fixed_work():
    assert reference.reference_loop() == reference.CHECKSUM
    assert reference.reference_loop(100) != reference.CHECKSUM
    assert reference.reference_s(samples=1) > 0
