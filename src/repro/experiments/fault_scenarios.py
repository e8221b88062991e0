"""Fault-injection scenarios: IAC under a failing backplane and control plane.

Two registered scenarios probe the robustness layer
(:mod:`repro.faults`) end to end:

* ``fault_resilience`` — a small multi-cell city run under a full fault
  cocktail (Gilbert–Elliott backplane loss, bounded delay, CSI
  corruption and staleness, a mid-run leader crash in every cell) with
  four APs per cell, so the post-crash deployment still aligns.  Its
  metrics surface the degradation counters (fallback slots, CSI
  rejections, re-elections) next to the goodput they protect; CI runs
  it twice at the same seed and asserts byte-identical JSON.
* ``backplane_loss_sweep`` — a single cell at one backplane loss rate,
  bracketed per trial by its own no-fault ceiling and its
  ``service="p2p"`` floor.  The headline ``degradation`` metric is the
  fraction of the IAC-over-p2p headroom that the lossy wire erased:
  0 at loss 0, exactly 1 at loss 1 (the graceful-degradation contract —
  a dead backplane *is* the p2p floor, never a crash).

Every knob is a flat JSON scalar so both scenarios sweep cleanly; the
canonicalizers strip ``workers`` (never changes the numbers) and
``engine`` (has one value) from sweep identity.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping

from repro.experiments.multicell_scenarios import (
    build_multicell_config,
    canonical_city_params,
)
from repro.experiments.registry import TrialContext, check_engine, register_scenario
from repro.experiments.results import ExperimentResult
from repro.sim.multicell import MultiCellSimulation
from repro.sim.wlan import WLANConfig, WLANSimulation

#: FaultPlan knobs both scenarios expose as flat scenario parameters.
_FAULT_KNOBS = (
    "backplane_loss_rate",
    "burst_enter",
    "burst_exit",
    "burst_loss_rate",
    "backplane_delay_rate",
    "backplane_delay_max",
    "csi_corrupt_rate",
    "csi_stale_rate",
)


def _fault_params_from(p: Mapping[str, Any]) -> Dict[str, Any]:
    """The flat FaultPlan dict encoded in a scenario parameter map."""
    plan: Dict[str, Any] = {k: p[k] for k in _FAULT_KNOBS if k in p}
    crash = p.get("leader_crash_slot", -1)
    if int(crash) >= 0:
        plan["leader_crash_slot"] = int(crash)
    return plan


_RESILIENCE_DEFAULTS = {
    "n_cells": 4,
    # Four APs per cell: after the leader crash three survive, so the
    # cell re-elects and keeps aligning instead of degrading for good.
    "aps_per_cell": 4,
    "clients_per_cell": 8,
    "n_slots": 40,
    "workers": 1,
    "traffic": "poisson",
    "load": 0.7,
    "barrier_slots": 10,
    "backplane_loss_rate": 0.1,
    "burst_enter": 0.02,
    "burst_exit": 0.3,
    "burst_loss_rate": 0.9,
    "backplane_delay_rate": 0.1,
    "backplane_delay_max": 3,
    "csi_corrupt_rate": 0.05,
    "csi_stale_rate": 0.05,
    #: Absolute slot of the per-cell leader crash; -1 disables it (the
    #: scenario vocabulary is JSON scalars, so no None sentinel).
    "leader_crash_slot": 20,
    "engine": "batched",
}


def canonical_resilience_params(p: Mapping[str, Any]) -> Mapping[str, Any]:
    """Same stripping rule as the city scenario: execution knobs out."""
    return canonical_city_params(p)


def _format_resilience(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"fault_resilience: {p['n_cells']} cells x {p['aps_per_cell']} APs, "
        f"{p['n_slots']} slots, loss {p['backplane_loss_rate']}, "
        f"corrupt {p['csi_corrupt_rate']}, crash @{p['leader_crash_slot']}"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: network {m['network_rate']:.1f} b/s/Hz, "
            f"fallback {m['fallback_fraction']:.1%}, "
            f"lost {int(m['frames_lost_backplane'])} frames, "
            f"rejected {int(m['csi_rejections'])} reports, "
            f"{int(m['re_elections'])} re-election(s)"
        )
    if result.records:
        lines.append(
            f"  mean network rate {result.metric('network_rate').mean():.1f} "
            f"b/s/Hz over {len(result.records)} trial(s)"
        )
    return "\n".join(lines)


@register_scenario(
    "fault_resilience",
    figure="robustness",
    description="multi-cell city under backplane loss, CSI faults and leader crash",
    paper="IAC degrades to p2p service under faults instead of failing (§7.1)",
    default_params=_RESILIENCE_DEFAULTS,
    default_trials=1,
    tags=("wlan", "multicell", "faults"),
    formatter=_format_resilience,
    canonicalize=canonical_resilience_params,
)
def fault_resilience_trial(ctx: TrialContext) -> Dict[str, float]:
    """One faulted city run; the fault plan applies to every cell.

    The multi-cell seed comes from the trial's own stream and the fault
    streams are spawned per cell from hashed cell seeds, so the metrics
    are bit-identical for any ``workers`` value — the property the CI
    fault-smoke job asserts.
    """
    p = ctx.params
    config = dataclasses.replace(
        build_multicell_config(p, int(ctx.rng.integers(2**31 - 1))),
        fault_params=_fault_params_from(p),
    )
    stats = MultiCellSimulation(config).run(
        int(p["n_slots"]), workers=int(p.get("workers", 1))
    )
    return {
        "network_rate": stats.network_rate,
        "jain_fairness": stats.jain_fairness,
        "mean_latency_slots": stats.mean_latency_slots,
        "idle_fraction": stats.idle_fraction,
        "delivered": float(stats.delivered_packets),
        "frames_lost_backplane": float(stats.frames_lost_backplane),
        "frames_delayed_backplane": float(stats.frames_delayed_backplane),
        "csi_rejections": float(stats.csi_rejections),
        "fallback_slots": float(stats.fallback_slots),
        "fallback_fraction": (
            stats.fallback_slots / (stats.n_cells * stats.slots)
            if stats.slots
            else 0.0
        ),
        "re_elections": float(stats.re_elections),
    }


_LOSS_SWEEP_DEFAULTS = {
    "loss_rate": 0.5,
    "n_aps": 3,
    "n_clients": 8,
    "n_antennas": 2,
    "n_slots": 60,
    "rho": 0.998,
    "mean_gain_db": 15.0,
    "algorithm": "best2",
    "engine": "batched",
}


def canonical_loss_params(p: Mapping[str, Any]) -> Mapping[str, Any]:
    """``engine`` has one value: strip it (after rejecting any other)."""
    q = dict(p)
    check_engine(q)
    q.pop("engine", None)
    return q


def _format_loss(result: ExperimentResult, quiet: bool = False) -> str:
    p = result.params
    lines = [
        f"backplane_loss_sweep: loss {p['loss_rate']}, {p['n_aps']} APs, "
        f"{p['n_clients']} clients, {p['n_slots']} slots"
    ]
    for r in result.records:
        m = r.metrics
        lines.append(
            f"  trial {r.index}: goodput {m['goodput']:.1f} "
            f"(ceiling {m['ceiling_rate']:.1f}, floor {m['floor_rate']:.1f}) "
            f"b/s/Hz, degradation {m['degradation']:.1%}, "
            f"fallback {m['fallback_fraction']:.1%}"
        )
    if result.records:
        lines.append(
            f"  mean degradation {result.metric('degradation').mean():.1%} "
            f"over {len(result.records)} trial(s)"
        )
    return "\n".join(lines)


@register_scenario(
    "backplane_loss_sweep",
    figure="robustness",
    description="goodput vs backplane loss, bracketed by no-fault and p2p runs",
    paper="a lossy Ethernet degrades IAC toward plain 802.11, not to zero (§7.1(d))",
    default_params=_LOSS_SWEEP_DEFAULTS,
    default_trials=3,
    tags=("wlan", "faults"),
    formatter=_format_loss,
    canonicalize=canonical_loss_params,
)
def backplane_loss_trial(ctx: TrialContext) -> Dict[str, float]:
    """Three same-seed runs: no-fault ceiling, p2p floor, faulted system.

    All three share one ``WLANConfig`` seed, so they see identical
    fading, traffic and selector draws; the only difference is the wire.
    ``degradation`` is ``(ceiling - goodput) / (ceiling - floor)`` —
    0 when the faults cost nothing, exactly 1 at ``loss_rate=1.0``
    (where the faulted run *is* the p2p floor, bit for bit).
    """
    p = ctx.params
    check_engine(p)
    base = WLANConfig(
        n_aps=int(p["n_aps"]),
        n_clients=int(p["n_clients"]),
        n_antennas=int(p["n_antennas"]),
        rho=float(p["rho"]),
        mean_gain_db=float(p["mean_gain_db"]),
        algorithm=str(p["algorithm"]),
        seed=int(ctx.rng.integers(2**31 - 1)),
    )
    n_slots = int(p["n_slots"])
    ceiling = WLANSimulation(base).run(n_slots)
    floor = WLANSimulation(dataclasses.replace(base, service="p2p")).run(n_slots)
    faulted = WLANSimulation(
        dataclasses.replace(
            base, fault_params={"backplane_loss_rate": float(p["loss_rate"])}
        )
    ).run(n_slots)
    headroom = ceiling.total_rate - floor.total_rate
    degradation = (
        (ceiling.total_rate - faulted.total_rate) / headroom if headroom > 0 else 0.0
    )
    return {
        "goodput": faulted.total_rate,
        "ceiling_rate": ceiling.total_rate,
        "floor_rate": floor.total_rate,
        "degradation": degradation,
        "fallback_fraction": faulted.fallback_fraction,
        "frames_lost": float(faulted.frames_lost_backplane),
        "jain_fairness": faulted.jain_fairness,
    }
