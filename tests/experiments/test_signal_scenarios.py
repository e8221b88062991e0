"""Tests for the sample-accurate scatter scenarios (fig12_signal/fig13b_signal)."""

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, get_scenario, scenarios_by_tag
from repro.experiments.sweep import run_sweep
from repro.experiments.signal_scenarios import SIGNAL_SCENARIOS


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(testbed_seed=42)


class TestRegistration:
    def test_registered(self):
        for name in SIGNAL_SCENARIOS:
            scenario = get_scenario(name)
            assert "signal" in scenario.tags
            assert scenario.formatter is not None

    def test_signal_tag_query(self):
        assert {s.name for s in scenarios_by_tag("signal")} == set(SIGNAL_SCENARIOS)


class TestTrials:
    @pytest.mark.parametrize("name", SIGNAL_SCENARIOS)
    def test_metrics_shape(self, runner, name):
        result = runner.run(name, n_trials=3, seed=0)
        assert result.n_trials == 3
        for record in result.records:
            metrics = record.metrics
            assert set(metrics) >= {"dot11", "iac", "gain", "delivered", "n_packets"}
            assert metrics["dot11"] > 0
            assert 0 <= metrics["delivered"] <= metrics["n_packets"] == 3
            assert metrics["iac"] >= 0

    def test_delivers_at_testbed_snrs(self, runner):
        """At the testbed's 8-22 dB average SNRs with rate-1/2 conv BPSK,
        the pipeline should deliver most packets."""
        result = runner.run("fig12_signal", n_trials=6, seed=1)
        delivered = sum(r.metrics["delivered"] for r in result.records)
        total = sum(r.metrics["n_packets"] for r in result.records)
        assert delivered >= 0.5 * total

    def test_worker_count_invariant(self, runner):
        serial = runner.run("fig12_signal", n_trials=4, seed=3)
        parallel = ExperimentRunner(testbed_seed=42, workers=2).run(
            "fig12_signal", n_trials=4, seed=3
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_reference_engine_param_agrees(self, runner, monkeypatch, tmp_path):
        """``engine`` accepts only ``"fast"`` (naming it), before a sweep
        keys a cell or a trial runs; the scalar oracle behind the same
        scenario surface gives identical deliveries and rates (the trial's
        RNG draws do not depend on the kernels)."""
        from repro.core.session import run_session_reference
        from repro.experiments import signal_scenarios

        spec = get_scenario("fig13b_signal")
        with pytest.raises(ValueError, match="engine accepts only 'fast'"):
            spec.canonical_params({**spec.default_params, "engine": "reference"})
        cache = tmp_path / "cells.jsonl"
        with pytest.raises(ValueError, match="engine accepts only 'fast'"):
            run_sweep(
                "fig13b_signal", {"payload_bytes": [20, 40]}, n_trials=1,
                params={"engine": "reference"}, cache=cache,
            )
        assert not cache.exists()
        with pytest.raises(ValueError, match="engine accepts only 'fast'"):
            runner.run(
                "fig13b_signal", n_trials=2, seed=5, params={"engine": "reference"}
            )
        fast = runner.run("fig13b_signal", n_trials=2, seed=5)
        monkeypatch.setattr(signal_scenarios, "run_session", run_session_reference)
        ref = runner.run("fig13b_signal", n_trials=2, seed=5)
        assert ref.params == fast.params
        for a, b in zip(fast.records, ref.records):
            assert a.metrics["delivered"] == b.metrics["delivered"]
            assert a.metrics["iac"] == pytest.approx(b.metrics["iac"], abs=1e-6)

    def test_formatter_renders(self, runner):
        result = runner.run("fig12_signal", n_trials=2, seed=0)
        text = get_scenario("fig12_signal").formatter(result, quiet=True)
        assert "fig12_signal" in text and "mean gain" in text
