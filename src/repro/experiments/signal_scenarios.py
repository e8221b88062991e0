"""Signal-level scatter scenarios: sample-accurate sweeps as experiments.

The rate-level scatter scenarios (``fig12``/``fig13b``) compute achievable
rates from post-projection SINRs.  These scenarios instead push every trial
through the *sample-accurate* pipeline the paper's GNU-Radio prototype ran
(:func:`repro.core.run_session`): FEC-encode, modulate, superimpose, mix
through the channel with CFO and timing offsets, then synchronise, cancel,
phase-track, demodulate and CRC-check — the IAC rate comes from the
*measured* per-packet EVM SNRs of delivered packets (Eq. 9 over measured
SNRs, exactly how the paper's Figs. 12-14 were produced).  The 802.11
baseline stays the rate-level best-AP eigenmode link, as in the rate-level
trials, so gains are comparable across the two scenario families.

Registered here (imported by ``repro.experiments``):

============== ========================================================
name           experiment
============== ========================================================
fig12_signal   Fig. 12 at signal level: 3 concurrent uplink packets
               from 2 clients to 2 APs per trial
fig13b_signal  Fig. 13b at signal level: 3 concurrent downlink packets
               from 3 APs to 3 clients per trial
============== ========================================================

These sweeps only became practical when the pipeline was vectorized
(block phase tracking, batched Viterbi — see ``BENCH_signal.json``).
Trials always run that one path, :func:`~repro.core.session.run_session`.
Its ``engine`` parameter accepts only ``"fast"``: it selects nothing, but
every result's ``params`` (so every pinned digest) and every sweep cell's
identity hold it; any other value fails before a trial runs or a cell is
keyed.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from repro.baselines.dot11_mimo import best_ap_link
from repro.core import (
    SignalConfig,
    run_session,
    solve_downlink_three_packets,
    solve_uplink_three_packets,
)
from repro.experiments.registry import TrialContext, check_engine, register_scenario
from repro.experiments.scenarios import _format_scatter
from repro.phy.packet import Packet

#: Modest payload: large enough for meaningful BER statistics, small
#: enough that a thousand-trial sweep stays interactive.
DEFAULT_PAYLOAD_BYTES = 60

#: The one value the signal scenarios' ``engine`` parameter accepts.
SIGNAL_ENGINE = "fast"

_SIGNAL_DEFAULTS = {
    "payload_bytes": DEFAULT_PAYLOAD_BYTES,
    "modulation": "bpsk",  # the prototype's scheme (§10b)
    "fec": "conv",
    "cfo_spread": 5e-5,
    "max_timing_offset": 16,
    "engine": SIGNAL_ENGINE,
}


def canonical_signal_params(p: Mapping[str, Any]) -> Mapping[str, Any]:
    """Reject a retired ``engine`` before a sweep keys a cell; ``engine``
    itself stays in the identity, so signal store keys never moved."""
    check_engine(p, SIGNAL_ENGINE)
    return p


def _signal_config(ctx: TrialContext) -> SignalConfig:
    p = ctx.params
    check_engine(p, SIGNAL_ENGINE)
    return SignalConfig(
        modulation=str(p["modulation"]),
        fec=p["fec"] if p["fec"] is None else str(p["fec"]),
        noise_power=ctx.testbed.noise_power,
        cfo_spread=float(p["cfo_spread"]),
        max_timing_offset=int(p["max_timing_offset"]),
    )


def _signal_trial(ctx: TrialContext, direction: str) -> Dict[str, float]:
    """One alignment solution through the sample-level pipeline, against
    the rate-level best-AP 802.11 baseline of the same nodes."""
    config = _signal_config(ctx)
    n_clients, n_aps = int(ctx.params["n_clients"]), int(ctx.params["n_aps"])
    nodes = ctx.testbed.pick_nodes(n_clients + n_aps, ctx.rng)
    clients, aps = nodes[:n_clients], nodes[n_clients:]
    noise = ctx.testbed.noise_power
    uplink = direction == "uplink"
    senders, receivers = (clients, aps) if uplink else (aps, clients)
    channels = ctx.testbed.channel_set(senders, receivers)
    links = [best_ap_link(channels, c, aps, noise, direction=direction) for c in clients]
    dot11 = float(np.mean([link.rate for link in links]))
    solve = solve_uplink_three_packets if uplink else solve_downlink_three_packets
    solution = solve(channels, clients=tuple(clients), aps=tuple(aps), rng=ctx.rng)
    payload_bytes = int(ctx.params["payload_bytes"])
    payloads = {
        p.packet_id: Packet.random(ctx.rng, payload_bytes, src=p.tx, seq=p.packet_id)
        for p in solution.packets
    }
    report = run_session(solution, channels, payloads, config, rng=ctx.rng)
    iac = report.total_rate
    return {
        "dot11": dot11,
        "iac": iac,
        "gain": iac / dot11 if dot11 > 0 else 0.0,
        "delivered": float(report.delivery_count),
        "n_packets": float(len(report.outcomes)),
    }


@register_scenario(
    "fig12_signal",
    figure="Fig. 12",
    description="2-client/2-AP uplink, sample-accurate",
    paper="1.5x (rate-level; signal adds impl. loss)",
    default_params={"n_clients": 2, "n_aps": 2, **_SIGNAL_DEFAULTS},
    default_trials=25,
    tags=("scatter", "uplink", "signal"),
    formatter=_format_scatter,
    canonicalize=canonical_signal_params,
)
def fig12_signal_trial(ctx: TrialContext) -> Dict[str, float]:
    """Fig. 12 through the sample-level pipeline.

    One alignment solution per trial (the first drawn client sends two
    packets); the rate-level scenario averages both orderings, which at
    signal level would double the per-trial cost for the same statistic
    in expectation.
    """
    return _signal_trial(ctx, "uplink")


@register_scenario(
    "fig13b_signal",
    figure="Fig. 13b",
    description="3-client/3-AP downlink, sample-accurate",
    paper="1.4x (rate-level; signal adds impl. loss)",
    default_params={"n_clients": 3, "n_aps": 3, **_SIGNAL_DEFAULTS},
    default_trials=25,
    tags=("scatter", "downlink", "signal"),
    formatter=_format_scatter,
    canonicalize=canonical_signal_params,
)
def fig13b_signal_trial(ctx: TrialContext) -> Dict[str, float]:
    """Fig. 13b through the sample-level pipeline (AP i serves client i)."""
    return _signal_trial(ctx, "downlink")


SIGNAL_SCENARIOS = ["fig12_signal", "fig13b_signal"]
