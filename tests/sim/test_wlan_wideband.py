"""Wideband WLAN: flat-limit bit-identity and the §6c regime end-to-end."""

import dataclasses

import numpy as np
import pytest

from repro.sim.wlan import ScalarReferenceWLANSimulation, WLANConfig, WLANSimulation


def wideband_config(**kwargs):
    defaults = dict(
        n_clients=6, rho=0.995, seed=4, channel="wideband",
        n_taps=8, delay_spread=2.0, n_fft=64, n_bins=4,
    )
    defaults.update(kwargs)
    return WLANConfig(**defaults)


class TestFlatLimitBitIdentity:
    """A single-tap wideband deployment IS the flat deployment."""

    @pytest.mark.parametrize("rho", [1.0, 0.97])
    def test_single_tap_single_bin_reproduces_flat_run(self, rho):
        flat = WLANSimulation(WLANConfig(n_clients=6, rho=rho, seed=4)).run(30)
        wide = WLANSimulation(
            wideband_config(rho=rho, n_taps=1, delay_spread=0.0, n_bins=1)
        ).run(30)
        # Bit-identical WLANStats: same RNG streams, same compute path.
        assert wide.per_client_rate == flat.per_client_rate
        assert wide.staleness_loss_db == flat.staleness_loss_db
        assert wide.drift_reports == flat.drift_reports
        assert wide.update_bytes == flat.update_bytes
        assert dataclasses.asdict(wide) == dataclasses.asdict(flat)

    def test_single_tap_multi_bin_rates_match_flat(self):
        """With one tap every bin is the same matrix: rates are identical
        to the flat run; only the update-byte accounting scales (each
        drift report annotates every evaluated subcarrier)."""
        flat = WLANSimulation(WLANConfig(n_clients=6, rho=0.97, seed=4)).run(30)
        wide = WLANSimulation(
            wideband_config(rho=0.97, n_taps=1, delay_spread=0.0, n_bins=4)
        ).run(30)
        for c, rate in flat.per_client_rate.items():
            assert wide.per_client_rate[c] == pytest.approx(rate, rel=1e-9)
        assert wide.drift_reports == flat.drift_reports
        assert wide.update_bytes > flat.update_bytes

    def test_degenerate_backlog_flat_limit(self):
        """The < 3-client point-to-point fallback also reduces exactly."""
        flat = WLANSimulation(
            WLANConfig(n_clients=3, rho=1.0, seed=9, traffic="poisson",
                       traffic_params={"rate_per_client": 0.2})
        ).run(40)
        wide = WLANSimulation(
            wideband_config(n_clients=3, rho=1.0, seed=9, n_taps=1,
                            delay_spread=0.0, n_bins=1, traffic="poisson",
                            traffic_params={"rate_per_client": 0.2})
        ).run(40)
        assert wide.per_client_rate == flat.per_client_rate
        assert wide.idle_slots == flat.idle_slots


class TestWidebandRegime:
    def test_all_clients_served_on_selective_channels(self):
        stats = WLANSimulation(wideband_config(rho=1.0)).run(30)
        assert all(rate > 0 for rate in stats.per_client_rate.values())

    def test_per_subcarrier_beats_flat_anchor_under_dispersion(self):
        """The tentpole claim: independent per-bin alignment holds the
        gain that one band-wide anchor solution loses to selectivity."""
        per_bin = WLANSimulation(
            wideband_config(alignment="per_subcarrier")
        ).run(40)
        anchor = WLANSimulation(
            wideband_config(alignment="flat_anchor")
        ).run(40)
        assert per_bin.total_rate > anchor.total_rate

    def test_scalar_engine_matches_batched_on_wideband(self):
        """Banded evaluators walk the same trajectory, like the flat ones:
        the scalar-solver oracle against the production run."""
        config = wideband_config(rho=0.98, n_bins=2)
        scalar = ScalarReferenceWLANSimulation(config).run(12)
        batched = WLANSimulation(config).run(12)
        assert batched.drift_reports == scalar.drift_reports
        for client, rate in scalar.per_client_rate.items():
            assert np.isclose(batched.per_client_rate[client], rate,
                              rtol=1e-9, atol=1e-12)

    def test_tracking_beats_no_tracking_on_wideband_mobility(self):
        tracked = WLANSimulation(wideband_config(rho=0.96, seed=5)).run(60, track=True)
        stale = WLANSimulation(wideband_config(rho=0.96, seed=5)).run(60, track=False)
        assert tracked.total_rate > stale.total_rate

    def test_wideband_reports_cost_more_ethernet_bytes(self):
        """A drift report annotates every evaluated bin (§6c's price)."""
        narrow = WLANSimulation(wideband_config(rho=0.96, n_bins=2)).run(30)
        wide = WLANSimulation(wideband_config(rho=0.96, n_bins=8)).run(30)
        if narrow.drift_reports and wide.drift_reports:
            assert (wide.update_bytes / wide.drift_reports) > (
                narrow.update_bytes / narrow.drift_reports
            )

    def test_unknown_channel_substrate_rejected(self):
        with pytest.raises(ValueError):
            WLANSimulation(WLANConfig(channel="ultrawide"))

    def test_unknown_alignment_rejected(self):
        with pytest.raises(ValueError):
            WLANSimulation(wideband_config(alignment="oracle"))
