"""Equivalence tests for the subcarrier-batched (banded) engine.

The acceptance contract of the wideband layer: the band-batched solver
must match the per-bin scalar reference loop to <= 1e-6 dB SINR across
2-4 antennas, and the ``B = 1`` route must be the flat path itself.
"""

import numpy as np
import pytest

from repro.core.plans import BandedChannelSet, ChannelSet
from repro.engine import (
    BatchedGroupEvaluator,
    ColumnarGroupEvaluator,
    ScalarGroupEvaluator,
    StaticChannelSource,
    downlink_sinrs_band,
    solve_downlink_three_band,
    solve_downlink_three_batch,
    stack_downlink_channels,
    stack_downlink_channels_band,
)
from repro.phy.channel.selective import MultiTapChannel, exponential_pdp

APS = (0, 1, 2)
CLIENTS = (100, 101, 102, 103)
GROUP = (100, 101, 102)

#: Satellite acceptance bound: batched vs per-bin reference in dB.
MAX_DB = 1e-6

N_FFT = 64


def banded_channels(seed, n_antennas=2, n_bins=8, delay_spread=2.0, clients=CLIENTS):
    rng = np.random.default_rng(seed)
    bins = np.linspace(1, N_FFT - 1, n_bins, dtype=int)
    pdp = exponential_pdp(6, delay_spread)
    out = {}
    for a in APS:
        for c in clients:
            ch = MultiTapChannel.random(n_antennas, n_antennas, pdp, rng)
            out[(a, c)] = ch.frequency_response(N_FFT)[bins]
    return BandedChannelSet(out)


def make_pair(seed, n_antennas=2, alignment="per_subcarrier", n_bins=8):
    source = StaticChannelSource(
        banded_channels(seed, n_antennas, n_bins=n_bins), APS
    )
    return (
        ScalarGroupEvaluator(source, APS, alignment=alignment),
        BatchedGroupEvaluator(source, APS, alignment=alignment),
    )


def db(x):
    return 10 * np.log10(x)


class TestBandSolverEquivalence:
    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rate_matches_per_bin_reference(self, seed, n_antennas):
        scalar, batched = make_pair(seed, n_antennas)
        assert np.isclose(
            batched.evaluate(GROUP), scalar.evaluate(GROUP), rtol=1e-9
        )

    @pytest.mark.parametrize("n_antennas", [2, 3, 4])
    def test_transmit_sinrs_within_acceptance_bound(self, n_antennas):
        """Per-bin per-packet SINRs agree to <= 1e-6 dB (satellite)."""
        scalar, batched = make_pair(7, n_antennas)
        true = banded_channels(17, n_antennas, clients=GROUP)
        actual_s, ideal_s = scalar.transmit_sinrs(GROUP, true)
        actual_b, ideal_b = batched.transmit_sinrs(GROUP, true)
        assert actual_s.shape == (8, 3)
        assert np.max(np.abs(db(actual_s) - db(actual_b))) <= MAX_DB
        assert np.max(np.abs(db(ideal_s) - db(ideal_b))) <= MAX_DB

    @pytest.mark.parametrize("n_antennas", [2, 3])
    def test_flat_anchor_mode_matches_reference(self, n_antennas):
        scalar, batched = make_pair(3, n_antennas, alignment="flat_anchor")
        assert np.isclose(
            batched.evaluate(GROUP), scalar.evaluate(GROUP), rtol=1e-9
        )
        true = banded_channels(23, n_antennas, clients=GROUP)
        actual_s, _ = scalar.transmit_sinrs(GROUP, true)
        actual_b, _ = batched.transmit_sinrs(GROUP, true)
        assert np.max(np.abs(db(actual_s) - db(actual_b))) <= MAX_DB

    def test_per_subcarrier_beats_anchor_under_dispersion(self):
        """The §6c claim at engine level: independent per-bin alignment
        outscores one band-wide anchor solution on selective channels."""
        per_bin = make_pair(5, alignment="per_subcarrier")[1]
        anchor = make_pair(5, alignment="flat_anchor")[1]
        assert per_bin.evaluate(GROUP) > anchor.evaluate(GROUP)

    def test_modes_coincide_on_flat_band(self):
        """Zero delay spread: every bin is the anchor bin."""
        per_bin = make_pair(9, alignment="per_subcarrier")[1]
        anchor = make_pair(9, alignment="flat_anchor")[1]
        # Rebuild with flat (spread 0) channels.
        src = StaticChannelSource(banded_channels(9, delay_spread=0.0), APS)
        per_bin = BatchedGroupEvaluator(src, APS, alignment="per_subcarrier")
        anchor = BatchedGroupEvaluator(src, APS, alignment="flat_anchor")
        assert np.isclose(per_bin.evaluate(GROUP), anchor.evaluate(GROUP), rtol=1e-9)


class TestFlatRoutePreserved:
    def test_one_bin_band_solve_is_bit_identical_to_flat(self):
        """B = 1 through the band solver == the flat batch, bit for bit."""
        rng = np.random.default_rng(4)
        h = rng.standard_normal((5, 3, 3, 2, 2)) + 1j * rng.standard_normal((5, 3, 3, 2, 2))
        v_flat, r_flat, s_flat = solve_downlink_three_batch(h)
        v_band, r_band, s_band = solve_downlink_three_band(h[:, None])
        assert np.array_equal(v_flat, v_band[:, 0])
        assert np.array_equal(r_flat, r_band[:, 0])
        assert np.array_equal(s_flat, s_band[:, 0])

    def test_one_bin_source_takes_the_flat_evaluator_path(self):
        """A banded set with one bin produces flat (3, M) cache entries —
        the literal pre-wideband computation."""
        src = StaticChannelSource(banded_channels(2, n_bins=1), APS)
        batched = BatchedGroupEvaluator(src, APS)
        batched.evaluate(GROUP)
        entry = batched._cache[GROUP]
        assert entry.encodings.shape == (3, 2)
        assert entry.sinrs.shape == (3,)

    def test_band_stack_accepts_flat_maps(self):
        flat = ChannelSet(
            {
                (a, c): banded_channels(0).h_bins(a, c)[0]
                for a in APS
                for c in GROUP
            }
        )
        maps = {c: {a: flat.h(a, c) for a in APS} for c in GROUP}
        band = stack_downlink_channels_band([GROUP], maps, APS)
        assert band.shape[:2] == (1, 1)
        assert np.array_equal(band[:, 0], stack_downlink_channels([GROUP], maps, APS))


class TestBandedInterface:
    def test_memoisation_still_keyed_on_versions(self):
        _, batched = make_pair(0)
        batched.evaluate(GROUP)
        batched.evaluate(GROUP)
        assert batched.cache_info() == {"hits": 1, "misses": 1, "entries": 1}

    def test_unknown_alignment_rejected(self):
        src = StaticChannelSource(banded_channels(0), APS)
        with pytest.raises(ValueError):
            BatchedGroupEvaluator(src, APS, alignment="oracle")
        with pytest.raises(ValueError):
            ColumnarGroupEvaluator(src, APS, alignment="oracle")

    def test_factory_passes_alignment(self):
        """Every simulation class hands the config's alignment to the
        evaluator it builds."""
        from repro.sim import wlan

        config = wlan.WLANConfig(channel="wideband", n_bins=2,
                                 alignment="flat_anchor")
        for cls in (wlan.WLANSimulation, wlan.ReferenceWLANSimulation,
                    wlan.ScalarReferenceWLANSimulation):
            assert cls(config).evaluator.alignment == "flat_anchor"

    def test_solve_returns_anchor_solution_for_banded_sources(self):
        scalar, batched = make_pair(1)
        sol_b = batched.solve(GROUP)
        sol_s = scalar.solve(GROUP)
        assert len(sol_b.packets) == len(sol_s.packets) == 3
        assert not sol_b.cooperative

    def test_downlink_sinrs_band_broadcasts_anchor_encodings(self):
        src = StaticChannelSource(banded_channels(6), APS)
        batched = BatchedGroupEvaluator(src, APS, alignment="flat_anchor")
        batched.evaluate(GROUP)
        entry = batched._cache[GROUP]
        maps = {c: src.channel_map(c) for c in GROUP}
        h = stack_downlink_channels_band([GROUP], maps, APS)
        sinrs = downlink_sinrs_band(h, entry.encodings[None, None], 1.0)
        assert sinrs.shape == (1, 8, 3)
