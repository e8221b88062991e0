"""Tests of the benchmark itself: span arithmetic, inputs, checks, counters."""

import json
import os

import pytest

import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ("job", "root", 0.0, 10.0, -1),
        ("a", "a", 1.0, 4.0, 0),
        ("b", "a.child", 2.0, 3.0, 1),
        ("b", "b", 5.0, 9.0, 0),
        # Overlaps its sibling and runs past its parent's end: the parent
        # loses only the covered part of its own interval.
        ("a", "c", 8.0, 11.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])
    assert spans.layer_self_times(tree) == pytest.approx({"job": 2.0, "a": 5.0, "b": 5.0})


def _without_seeds(value):
    if isinstance(value, dict):
        return {k: None if k == "seed" else _without_seeds(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_seeds(v) for v in value]
    return value


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_changes_the_inputs_and_nothing_else(workload):
    one, two = jobs.make_inputs(workload, 1), jobs.make_inputs(workload, 2)
    assert one != two
    assert _without_seeds(one) == _without_seeds(two)
    assert jobs.make_inputs(workload, 1) == one


def test_failures_are_counted_not_raised(tmp_path):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    inputs = {"runs": [
        {"scenario": "fig14", "seed": pins["seed"]},
        {"scenario": "no_such_scenario", "seed": pins["seed"]},
    ]}
    job = jobs.run_job(inputs, str(tmp_path))
    jobs.check_pins(job.outcomes, pins, "paper", pins["seed"])
    assert [o.failed for o in job.outcomes] == [False, True]
    assert "raised KeyError" in job.outcomes[1].problems[0]

    tampered = {"seed": pins["seed"], "digests": {"paper": {"fig14": "0" * 64}}}
    job = jobs.run_job({"runs": inputs["runs"][:1]}, str(tmp_path))
    jobs.check_pins(job.outcomes, tampered, "paper", pins["seed"])
    assert job.failed == 1
    assert job.outcomes[0].problems == ["digest differs from the pinned digest"]


def _traced_counts(inputs, scratch):
    tracer = spans.Tracer()
    with tracer:
        job = jobs.run_job(inputs, scratch, root=lambda: tracer.span(spans.ROOT_LAYER, "t"))
    return job, spans.work_counters(spans.per_layer_metrics(tracer, job.wall_s))


def test_counters_repeat_and_the_paper_bypasses_the_wlan_layers(tmp_path):
    inputs = jobs.make_inputs("paper", 0)
    first_job, first = _traced_counts(inputs, str(tmp_path))
    second_job, second = _traced_counts(inputs, str(tmp_path))
    assert first == second
    assert [o.digest for o in first_job.outcomes] == [o.digest for o in second_job.outcomes]
    for name in ("engine.solve_calls", "sim.multicell.barriers",
                 "sim.traffic.calls", "experiments.store.calls"):
        assert first[name] == 0, name
    assert first["core.calls"] > 0 and first["phy.fec.calls"] > 0
    assert first["experiments.trials"] == 236


def test_counters_repeat_on_the_wlan_and_store_layers(tmp_path):
    # One cell of the load_sweep grid, cold into a fresh store then resumed.
    inputs = {"sweep": {"scenario": "load_latency",
                        "grid": {"load": [0.5], "n_clients": [8]}, "seed": 0}}
    first_job, first = _traced_counts(inputs, str(tmp_path))
    second_job, second = _traced_counts(inputs, str(tmp_path))
    assert first == second
    assert first_job.failed == second_job.failed == 0
    for name in ("phy.channel.calls", "mac.association.calls", "mac.drift_reports",
                 "engine.solve_calls", "engine.groups_solved", "sim.traffic.calls",
                 "sim.wlan.slots", "experiments.store.calls", "experiments.store.bytes"):
        assert first[name] > 0, name
    assert 0.0 < first["engine.memo_hit_ratio"] < 1.0
    assert first["phy.fec.calls"] == 0


def test_tracing_restores_every_entry_point():
    from repro.experiments.runner import ExperimentRunner
    from repro.sim import wlan

    before = (ExperimentRunner.run, wlan.best_ap_link)
    with spans.Tracer():
        assert ExperimentRunner.run is not before[0]
        assert wlan.best_ap_link is not before[1]
    assert (ExperimentRunner.run, wlan.best_ap_link) == before
