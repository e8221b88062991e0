"""Equivalence tests: ``run_session`` vs its scalar oracle
``run_session_reference``.

The bar: the fast and reference paths must produce **bit-identical
decoded payloads** and **matching SessionReport SNRs**, on hand-picked
configurations and across the whole config space (a hypothesis property).
The block phase tracker is additionally validated symbol-by-symbol
against the scalar PLL on CFO-impaired payloads.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChannelSet,
    SignalConfig,
    run_session,
    solve_uplink_three_packets,
)
from repro.core.session import (
    _BlockPhaseTracker,
    _PhaseTracker,
    run_session_reference,
)
from repro.phy.channel.model import rayleigh_channel
from repro.phy.modulation import get_modulator
from repro.phy.packet import Packet


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(77)
    chans = ChannelSet(
        {(c, a): rayleigh_channel(2, 2, rng) for c in (0, 1) for a in (0, 1)}
    )
    solution = solve_uplink_three_packets(chans, rng=rng)
    payloads = {i: Packet.random(rng, 120, src=i, seq=i) for i in range(3)}
    return solution, chans, payloads


def _impaired_symbols(modulation: str, n_bits: int, cfo: float, snr_db: float, seed: int):
    """A CFO-impaired noisy payload stream for tracker validation."""
    rng = np.random.default_rng(seed)
    mod = get_modulator(modulation)
    bits = rng.integers(0, 2, n_bits).astype(np.uint8)
    clean = mod.modulate(bits)
    n = clean.size
    ramp = np.exp(1j * (0.05 + 2 * np.pi * cfo * np.arange(n)))
    noise_scale = 10 ** (-snr_db / 20.0)
    noise = noise_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return clean * ramp + noise


class TestBlockPhaseTracker:
    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk", "8psk"])
    @pytest.mark.parametrize("cfo", [0.0, 1e-4, -3e-4])
    def test_matches_scalar_tracker(self, modulation, cfo):
        import zlib

        seed = zlib.crc32(f"{modulation}/{cfo}".encode())  # deterministic per case
        symbols = _impaired_symbols(modulation, 1200, cfo, snr_db=20.0, seed=seed)
        mod = get_modulator(modulation)
        scalar = _PhaseTracker(mod).track(symbols.copy())
        block = _BlockPhaseTracker(mod).track(symbols.copy())
        # Same decision fixed point: outputs agree to float noise and the
        # demodulated bits are identical.
        assert np.allclose(scalar, block, atol=1e-9)
        assert np.array_equal(mod.demodulate(scalar), mod.demodulate(block))

    def test_final_loop_state_matches(self):
        symbols = _impaired_symbols("qpsk", 800, 2e-4, snr_db=18.0, seed=4)
        mod = get_modulator("qpsk")
        scalar = _PhaseTracker(mod)
        block = _BlockPhaseTracker(mod)
        scalar.track(symbols.copy())
        block.track(symbols.copy())
        assert scalar._phase == pytest.approx(block._phase, abs=1e-9)
        assert scalar._freq == pytest.approx(block._freq, abs=1e-12)

    def test_odd_block_sizes_and_short_streams(self):
        mod = get_modulator("bpsk")
        for n in (0, 1, 5, 63, 64, 65, 130):
            symbols = _impaired_symbols("bpsk", n, 1e-4, snr_db=15.0, seed=n)
            scalar = _PhaseTracker(mod).track(symbols.copy())
            block = _BlockPhaseTracker(mod, block_size=33).track(symbols.copy())
            assert np.allclose(scalar, block, atol=1e-9)

    def test_zero_symbols_ignored(self):
        """Zero-magnitude symbols freeze the error update in both trackers."""
        mod = get_modulator("bpsk")
        symbols = _impaired_symbols("bpsk", 200, 1e-4, snr_db=25.0, seed=9)
        symbols[50:70] = 0.0
        scalar = _PhaseTracker(mod).track(symbols.copy())
        block = _BlockPhaseTracker(mod).track(symbols.copy())
        assert np.allclose(scalar, block, atol=1e-9)


#: Representative configurations: every FEC, multiple modulations, the §6
#: impairments, and a marginal-SNR case where some packets fail.
ENGINE_CONFIGS = [
    dict(modulation="bpsk", fec="conv", noise_power=1e-4),
    dict(modulation="bpsk", fec=None, noise_power=1e-3, cfo_spread=5e-5),
    dict(modulation="qpsk", fec="conv", noise_power=1e-3, cfo_spread=5e-5,
         max_timing_offset=16, estimate_channels=True),
    dict(modulation="qam16", fec="hamming", noise_power=1e-4, cfo_spread=2e-5),
    dict(modulation="ofdm-qpsk", fec="conv", noise_power=1e-5),
    dict(modulation="bpsk", fec="conv", noise_power=5e-2),  # marginal: failures
]


def _assert_reports_agree(fast, ref):
    # Bit-identical decoded payloads (same packets delivered, and a
    # delivered packet equals its payload by the CRC/frame check).
    assert fast.decoded == ref.decoded
    assert [o.delivered for o in fast.outcomes] == [
        o.delivered for o in ref.outcomes
    ]
    assert [o.bit_errors_precrc for o in fast.outcomes] == [
        o.bit_errors_precrc for o in ref.outcomes
    ]
    # Matching measured SNRs (float noise only).
    for a, b in zip(fast.outcomes, ref.outcomes):
        if np.isinf(a.snr_db) or np.isinf(b.snr_db):
            assert a.snr_db == b.snr_db
        else:
            assert a.snr_db == pytest.approx(b.snr_db, abs=1e-6)


class TestEngineEquivalence:
    @pytest.mark.parametrize("kw", ENGINE_CONFIGS, ids=lambda kw: f"{kw['modulation']}-{kw['fec']}")
    def test_fast_matches_reference(self, scene, kw):
        solution, chans, payloads = scene
        cfg = SignalConfig(**kw)
        for seed in range(3):
            fast = run_session(
                solution, chans, payloads, cfg, rng=np.random.default_rng(seed)
            )
            ref = run_session_reference(
                solution, chans, payloads, cfg, rng=np.random.default_rng(seed)
            )
            _assert_reports_agree(fast, ref)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        modulation=st.sampled_from(["bpsk", "qpsk", "8psk", "qam16", "ofdm-qpsk"]),
        fec=st.sampled_from([None, "conv", "hamming"]),
        cfo_spread=st.sampled_from([0.0, 2e-5, 1e-4]),
        max_timing_offset=st.sampled_from([0, 8, 16]),
        estimate_channels=st.booleans(),
        noise_db=st.floats(min_value=-50.0, max_value=-10.0),
        payload_bytes=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fast_matches_reference_over_config_space(
        self, scene, modulation, fec, cfo_spread, max_timing_offset,
        estimate_channels, noise_db, payload_bytes, seed,
    ):
        """Every corner of modulation x fec x impairments x noise, with
        payload lengths the hand-picked grid never tries."""
        solution, chans, _ = scene
        rng = np.random.default_rng(seed)
        payloads = {
            i: Packet.random(rng, payload_bytes, src=i, seq=i) for i in range(3)
        }
        cfg = SignalConfig(
            modulation=modulation,
            fec=fec,
            noise_power=10 ** (noise_db / 10),
            cfo_spread=cfo_spread,
            max_timing_offset=max_timing_offset,
            estimate_channels=estimate_channels,
        )
        fast = run_session(
            solution, chans, payloads, cfg, rng=np.random.default_rng(seed)
        )
        ref = run_session_reference(
            solution, chans, payloads, cfg, rng=np.random.default_rng(seed)
        )
        _assert_reports_agree(fast, ref)

    def test_unknown_engine_raises(self):
        """Six knobs, none of them selects kernels: the entry point does."""
        assert [f.name for f in dataclasses.fields(SignalConfig)] == [
            "modulation", "fec", "noise_power", "cfo_spread",
            "max_timing_offset", "estimate_channels",
        ]
        for knob, value in [
            ("engine", "turbo"), ("engine", "reference"),
            ("preamble_length", 64), ("training_preamble_length", 128),
            ("phase_tracking", False), ("refine_cancellation", False),
        ]:
            with pytest.raises(TypeError):
                SignalConfig(**{knob: value})

    def test_fast_is_faster_on_conv_payloads(self, scene):
        """Smoke perf check (generous margin; the bench records the real
        number): the fast path must not be slower than the reference."""
        import time

        solution, chans, payloads = scene
        cfg = SignalConfig(modulation="bpsk", fec="conv", noise_power=1e-4)
        timings = {}
        for name, run in (("fast", run_session), ("reference", run_session_reference)):
            start = time.perf_counter()
            for seed in range(3):
                run(solution, chans, payloads, cfg, rng=np.random.default_rng(seed))
            timings[name] = time.perf_counter() - start
        assert timings["fast"] < timings["reference"]


class TestEngineDefaults:
    def test_default_engine_is_fast(self, scene, monkeypatch):
        """``run_session`` hands the shared body the fast kernels."""
        from repro.core import session

        seen = []
        monkeypatch.setattr(
            session, "_run_pipeline", lambda *args: seen.append(args[-1])
        )
        solution, chans, payloads = scene
        session.run_session(solution, chans, payloads, SignalConfig())
        session.run_session_reference(solution, chans, payloads, SignalConfig())
        fast, scalar = seen
        assert fast.tracker is _BlockPhaseTracker and fast.batch_viterbi
        assert scalar.tracker is _PhaseTracker and not scalar.batch_viterbi

    def test_make_fec_is_cached(self):
        a = SignalConfig(fec="conv").make_fec()
        b = SignalConfig(fec="conv").make_fec()
        assert a is b

    def test_replace_keeps_engine(self):
        """``replace`` cannot smuggle a kernel choice back in."""
        with pytest.raises(TypeError):
            dataclasses.replace(SignalConfig(), engine="reference")
