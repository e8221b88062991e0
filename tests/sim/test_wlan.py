"""Tests for the integrated WLAN simulation."""

import dataclasses

import numpy as np
import pytest

from repro.engine import ScalarGroupEvaluator
from repro.sim.multicell import MultiCellConfig
from repro.sim.wlan import ScalarReferenceWLANSimulation, WLANConfig, WLANSimulation


@pytest.fixture(scope="module")
def static_stats():
    sim = WLANSimulation(WLANConfig(n_clients=6, rho=1.0, seed=3))
    return sim.run(40)


class TestStaticEnvironment:
    def test_all_clients_served(self, static_stats):
        assert all(rate > 0 for rate in static_stats.per_client_rate.values())

    def test_no_staleness_loss_when_static(self, static_stats):
        """With rho=1 the associated estimates never go stale."""
        assert static_stats.staleness_loss_db < 1.0

    def test_total_rate_positive(self, static_stats):
        assert static_stats.total_rate > 0


class TestMobileEnvironment:
    def test_tracking_reports_drift(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=0.97, seed=4))
        stats = sim.run(40, track=True)
        assert stats.drift_reports > 0
        assert stats.update_bytes > 0

    def test_tracking_beats_no_tracking_under_mobility(self):
        """The §7.1(c)/§8a machinery earns its keep when channels move."""
        tracked = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5)).run(
            60, track=True
        )
        stale = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5)).run(
            60, track=False
        )
        assert tracked.total_rate > stale.total_rate

    def test_static_needs_no_reports_after_association(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=1.0, drift_threshold=0.2, seed=6))
        stats = sim.run(30, track=True)
        assert stats.drift_reports == 0


class TestValidation:
    def test_needs_three_aps(self):
        with pytest.raises(ValueError):
            WLANSimulation(WLANConfig(n_aps=2))

    def test_needs_enough_clients(self):
        with pytest.raises(ValueError):
            WLANSimulation(WLANConfig(n_aps=3, n_clients=2))

    def test_unknown_engine_rejected(self):
        """One execution path: neither config has an engine field."""
        for cls in (WLANConfig, MultiCellConfig):
            assert "engine" not in {f.name for f in dataclasses.fields(cls)}

    @pytest.mark.parametrize("engine", ["columnar", "event", "scalar", "batched"])
    def test_removed_engines_rejected_at_config(self, engine):
        """Every former engine name fails at construction."""
        with pytest.raises(TypeError, match="engine"):
            WLANConfig(engine=engine)


class TestConfigIsolation:
    def test_default_config_is_not_shared(self):
        """Regression: the old ``config=WLANConfig()`` default was one
        module-level instance shared by every simulation."""
        first = WLANSimulation()
        second = WLANSimulation()
        assert first.config is not second.config
        first.config.ack_period = 999
        assert second.config.ack_period == WLANConfig().ack_period == 4

    def test_explicit_config_is_used(self):
        config = WLANConfig(n_clients=5, seed=8)
        assert WLANSimulation(config).config is config


class TestRepeatedRuns:
    def test_stats_accumulate_like_one_long_run(self):
        """Regression: ``per_client_rate`` used to be overwritten with only
        the latest call's totals divided by the latest ``n_slots``."""
        config = WLANConfig(n_clients=6, rho=0.98, seed=11)
        split = WLANSimulation(config)
        split.run(20)
        split_stats = split.run(20)
        whole_stats = WLANSimulation(WLANConfig(n_clients=6, rho=0.98, seed=11)).run(40)

        assert split_stats.slots == whole_stats.slots == 40
        assert split_stats.drift_reports == whole_stats.drift_reports
        for client, rate in whole_stats.per_client_rate.items():
            assert split_stats.per_client_rate[client] == pytest.approx(rate, rel=1e-9)
        assert split_stats.total_rate == pytest.approx(whole_stats.total_rate, rel=1e-9)

    def test_mean_staleness_loss_normalises_by_slots(self):
        sim = WLANSimulation(WLANConfig(n_clients=6, rho=0.96, seed=5))
        stats = sim.run(30)
        assert stats.mean_staleness_loss_db == pytest.approx(
            stats.staleness_loss_db / 30
        )

    def test_mean_staleness_loss_defaults_to_zero(self):
        from repro.sim.wlan import WLANStats

        assert WLANStats().mean_staleness_loss_db == 0.0


class TestEngineEquivalenceInSim:
    def test_scalar_engine_selectable(self):
        """The scalar-solver oracle is a class, not a config value."""
        sim = ScalarReferenceWLANSimulation(
            WLANConfig(n_clients=6, rho=1.0, seed=3)
        )
        assert isinstance(sim.evaluator, ScalarGroupEvaluator)
        assert sim.run(10).total_rate > 0
