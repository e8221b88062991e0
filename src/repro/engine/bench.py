"""Wall-clock benchmarks for the engine and the scenario registry.

``python -m repro bench`` runs up to four timing suites and writes one
JSON document each, so the repository's performance trajectory is
recorded alongside its correctness results:

* :func:`bench_wlan` times, on identical seeds, the reference slot loop
  with the per-group (``scalar``) and the plain batched (``batched``,
  :class:`~repro.sim.wlan.ReferenceWLANSimulation`) evaluator against
  the per-slot columnar pieces (``columnar``,
  :func:`~repro.sim.columnar.run_columnar`), reporting both speedups,
  each ``WLANStats.digest()`` and ``bit_identical`` (columnar ==
  batched, bit for bit).  The default workload
  (200 slots, 12 clients) is the acceptance workload of the engine and
  columnar PRs; ``BENCH_wlan.json``.
* :func:`bench_events` (``repro bench --events``) times the production
  event driver (:func:`~repro.sim.events.run_event`) against the
  per-slot columnar loop as a function of offered load on a
  sounding-dominated cell,
  records busy-slots-processed per second, and checks per-point digest
  equality plus the no-regression saturated bracket;
  ``BENCH_events.json``.
* :func:`bench_signal` times the sample-accurate pipeline
  (:func:`repro.core.run_session`) under the ``fast`` (block phase
  tracking, batched Viterbi, table-driven FEC) and ``reference`` (scalar)
  engines on identical seeds, reports the speedup, and records delivery
  counts plus the worst SNR discrepancy so numerical equivalence is
  visible in the artifact; ``BENCH_signal.json``.
* :func:`bench_scenarios` times registered scenarios end to end through
  :class:`~repro.experiments.ExperimentRunner`; ``BENCH_scenarios.json``.
* :func:`bench_ofdm` (``repro bench --ofdm``) times the subcarrier-
  batched downlink solver against the per-bin scalar reference loop on a
  64-bin OFDM grid and records the worst per-packet SINR discrepancy;
  ``BENCH_ofdm.json``.
* :func:`bench_city` (``repro bench --city``) times the sharded
  multi-cell simulation (:mod:`repro.sim.multicell`) at each worker
  count, records client-slots simulated per second, and asserts the
  network-wide stats digest is bit-identical across worker counts;
  ``BENCH_city.json``.
* :func:`bench_faults` (``repro bench --faults``) exercises the fault
  layer (:mod:`repro.faults`): a backplane-loss degradation curve
  bracketed by no-fault and p2p runs, plus a fully-faulted multi-cell
  city whose digest must be bit-identical across worker counts and
  same-seed reruns; ``BENCH_faults.json``.

JSON schemas are documented in ``EXPERIMENTS.md``.  Timings use the best
of ``repeats`` runs (fresh simulation each run, so caches never carry
over between measurements).
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, Sequence

import numpy as np

BENCH_SCHEMA_VERSION = 1

#: Scenarios timed by default: the scatter experiments are the cheap,
#: representative core of the registry.
DEFAULT_SCENARIOS = ("fig12", "fig13a", "fig13b", "fig14")


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def bench_wlan(
    n_slots: int = 200,
    n_clients: int = 12,
    repeats: int = 3,
    seed: int = 7,
    rho: float = 0.99,
    algorithm: str = "best2",
    n_antennas: int = 2,
) -> dict:
    """Time ``n_slots`` slots under the scalar, batched and columnar drivers.

    Returns the ``BENCH_wlan.json`` document (see ``EXPERIMENTS.md``).
    The drivers run the same seed; per-driver total rates and
    ``WLANStats.digest()`` values are included so a regression in
    numerical equivalence is visible in the artifact, and
    ``bit_identical`` asserts the columnar digest equals the batched
    reference loop's (the columnar pieces' correctness contract).
    ``speedup`` remains the batched-vs-scalar ratio of the engine PR;
    ``speedup_columnar`` is the columnar-vs-scalar ratio (the columnar
    PR's >= 10x acceptance number).
    """
    # Deferred: keep import light.
    from repro.sim.columnar import run_columnar
    from repro.sim.wlan import ReferenceWLANSimulation, WLANConfig, WLANSimulation

    def driver(engine: str):
        """A fresh simulation's ``n_slots -> WLANStats`` callable."""
        config = WLANConfig(
            n_clients=n_clients, n_antennas=n_antennas, rho=rho, seed=seed,
            algorithm=algorithm, engine="scalar" if engine == "scalar" else "batched",
        )
        if engine == "columnar":
            sim = WLANSimulation(config)
            return lambda n: run_columnar(sim, n)
        cls = ReferenceWLANSimulation if engine == "batched" else WLANSimulation
        return cls(config).run

    engines: Dict[str, Dict[str, object]] = {}
    for engine in ("scalar", "batched", "columnar"):
        best = float("inf")
        total_rate = 0.0
        digest = ""
        for _ in range(max(1, repeats)):
            run = driver(engine)
            start = time.perf_counter()
            stats = run(n_slots)
            best = min(best, time.perf_counter() - start)
            total_rate = stats.total_rate
            digest = stats.digest()
        engines[engine] = {
            "seconds": best,
            "total_rate": total_rate,
            "digest": digest,
        }
    return {
        "benchmark": "wlan",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_slots": n_slots,
            "n_clients": n_clients,
            "n_aps": 3,
            "n_antennas": n_antennas,
            "rho": rho,
            "seed": seed,
            "algorithm": algorithm,
            "repeats": repeats,
        },
        "engines": engines,
        "speedup": engines["scalar"]["seconds"] / engines["batched"]["seconds"],
        "speedup_columnar": (
            engines["scalar"]["seconds"] / engines["columnar"]["seconds"]
        ),
        "bit_identical": (
            engines["columnar"]["digest"] == engines["batched"]["digest"]
        ),
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_events(
    n_slots: int = 3000,
    n_clients: int = 48,
    repeats: int = 3,
    seed: int = 7,
    rho: float = 0.9995,
    n_aps: int = 3,
    loads: Sequence[float] = (
        0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6,
    ),
) -> dict:
    """Time the event driver against the columnar slot loop vs offered load.

    Returns the ``BENCH_events.json`` document (see ``EXPERIMENTS.md``).
    The workload is the regime the event driver exists for: a dense,
    sounding-dominated cell (``ack_period=1``, high coherence ``rho``)
    where the slot loop pays per-slot CSI tracking on every idle slot
    while the event driver jumps straight between transmission
    opportunities.  *Offered load* is the Poisson arrival rate
    normalised by the cell's service capacity (``n_aps`` packets per
    slot), so ``load=0.1`` keeps the cell ~90% idle.  Both drivers run
    identical seeds; every point records digest equality, and
    ``bit_identical`` only holds if *all* points (including the
    saturated bracket, where the driver must not regress) match.
    """
    # Deferred: keep import light.
    from repro.sim.columnar import run_columnar
    from repro.sim.events import run_event
    from repro.sim.wlan import WLANConfig, WLANSimulation

    def time_driver(run, load, n_rep: int):
        best = float("inf")
        digest = ""
        summary = None
        for _ in range(max(1, n_rep)):
            kwargs = dict(
                n_aps=n_aps,
                n_clients=n_clients,
                n_antennas=2,
                rho=rho,
                mean_gain_db=15.0,
                algorithm="best2",
                ack_period=1,
                seed=seed,
            )
            if load is not None:
                kwargs["traffic"] = "poisson"
                kwargs["traffic_params"] = {
                    "rate_per_client": load * n_aps / n_clients
                }
            sim = WLANSimulation(WLANConfig(**kwargs))
            start = time.perf_counter()
            stats = run(sim, n_slots)
            best = min(best, time.perf_counter() - start)
            digest = stats.digest()
            summary = getattr(sim, "last_event_summary", None)
        return best, digest, summary

    def point(load, n_rep: int = repeats) -> dict:
        col_seconds, col_digest, _ = time_driver(run_columnar, load, n_rep)
        ev_seconds, ev_digest, summary = time_driver(run_event, load, n_rep)
        entry = {
            "columnar_seconds": col_seconds,
            "event_seconds": ev_seconds,
            "speedup": col_seconds / ev_seconds,
            "digest": ev_digest,
            "digest_match": col_digest == ev_digest,
        }
        if summary is not None:
            entry["processed_slots"] = summary["processed_slots"]
            entry["skipped_slots"] = summary["skipped_slots"]
            entry["events_per_second"] = summary["processed_slots"] / ev_seconds
        return entry

    points = []
    for load in loads:
        entry = point(load)
        entry["load"] = load
        points.append(entry)
    # Saturated, the event driver processes every slot, so the
    # two runs are the same code and the ratio is pure timing noise
    # around 1.0 — extra repeats keep one slow outlier from reporting a
    # phantom regression.
    saturated = point(None, n_rep=max(repeats, 4))
    low = [p["speedup"] for p in points if p["load"] <= 0.1]
    return {
        "benchmark": "events",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_slots": n_slots,
            "n_clients": n_clients,
            "n_aps": n_aps,
            "n_antennas": 2,
            "rho": rho,
            "ack_period": 1,
            "algorithm": "best2",
            "seed": seed,
            "repeats": repeats,
            "loads": list(loads),
        },
        "loads": points,
        "saturated": saturated,
        "speedup_low_load": max(low) if low else 0.0,
        "speedup_saturated": saturated["speedup"],
        "bit_identical": (
            all(p["digest_match"] for p in points)
            and saturated["digest_match"]
        ),
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_signal(
    n_sessions: int = 20,
    payload_bytes: int = 200,
    repeats: int = 3,
    seed: int = 7,
    modulation: str = "bpsk",
    fec: str = "conv",
) -> dict:
    """Time ``run_session`` under the ``fast`` and ``reference`` engines.

    One fixed 2-client/2-AP uplink scene (3 concurrent packets, §6
    impairments on: CFO, timing offsets) is decoded ``n_sessions`` times
    per engine on identical per-session seeds.  Returns the
    ``BENCH_signal.json`` document (see ``EXPERIMENTS.md``): per-engine
    seconds, delivery counts and summed measured rates, the fast/reference
    speedup, and the worst absolute per-packet SNR discrepancy between the
    engines (``max_snr_diff_db`` — the two paths must agree).
    """
    # Deferred imports: keep ``repro.engine`` light for non-bench users.
    from repro.core import ChannelSet, SignalConfig, run_session, solve_uplink_three_packets
    from repro.phy.channel.model import rayleigh_channel
    from repro.phy.packet import Packet
    from repro.utils.rng import default_rng

    scene_rng = default_rng(seed)
    channels = ChannelSet(
        {(c, a): rayleigh_channel(2, 2, scene_rng) for c in (0, 1) for a in (0, 1)}
    )
    solution = solve_uplink_three_packets(channels, rng=scene_rng)
    payloads = {
        i: Packet.random(scene_rng, payload_bytes, src=i, seq=i) for i in range(3)
    }

    # Warm the shared FEC cache so one-time table construction is not
    # charged to whichever engine happens to run first.
    SignalConfig(fec=fec).make_fec()

    engines: Dict[str, Dict[str, float]] = {}
    snrs: Dict[str, list] = {}
    for engine in ("reference", "fast"):
        config = SignalConfig(
            modulation=modulation,
            fec=fec,
            noise_power=1e-3,
            cfo_spread=5e-5,
            max_timing_offset=16,
            engine=engine,
        )
        best = float("inf")
        delivered = 0
        total_rate = 0.0
        engine_snrs: list = []
        for _ in range(max(1, repeats)):
            delivered = 0
            total_rate = 0.0
            engine_snrs = []
            start = time.perf_counter()
            for session in range(n_sessions):
                report = run_session(
                    solution, channels, payloads, config, rng=default_rng(session)
                )
                delivered += report.delivery_count
                total_rate += report.total_rate
                engine_snrs.extend(o.snr_db for o in report.outcomes)
            best = min(best, time.perf_counter() - start)
        engines[engine] = {
            "seconds": best,
            "delivered": delivered,
            "total_rate": total_rate,
        }
        snrs[engine] = engine_snrs
    max_snr_diff = max(
        (
            abs(a - b)
            for a, b in zip(snrs["fast"], snrs["reference"])
            # Identical infinities (both failed, or both perfect) carry no
            # discrepancy; a +inf/-inf mismatch must NOT be masked — that
            # is the engines disagreeing about whether a packet decoded.
            if not (np.isinf(a) and np.isinf(b) and a == b)
        ),
        default=0.0,
    )
    return {
        "benchmark": "signal",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_sessions": n_sessions,
            "payload_bytes": payload_bytes,
            "modulation": modulation,
            "fec": fec,
            "n_packets": 3,
            "seed": seed,
            "repeats": repeats,
        },
        "engines": engines,
        "speedup": engines["reference"]["seconds"] / engines["fast"]["seconds"],
        "max_snr_diff_db": max_snr_diff,
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_ofdm(
    n_groups: int = 16,
    n_bins: int = 64,
    n_antennas: int = 2,
    n_taps: int = 8,
    delay_spread: float = 2.0,
    repeats: int = 3,
    seed: int = 7,
) -> dict:
    """Time the subcarrier-batched downlink solver against the per-bin loop.

    One fixed scene — ``n_groups`` candidate 3-client downlink groups over
    multi-tap Rayleigh channels, ``n_bins`` evaluated subcarriers of a
    64-point OFDM grid — is solved two ways:

    * ``batched``: the whole ``(G, B)`` grid flattened into one stacked
      ``np.linalg`` pass (:func:`repro.engine.batched.solve_downlink_three_band`);
    * ``reference``: the per-bin scalar loop — one
      :func:`~repro.core.alignment.solve_downlink_three_packets` +
      :func:`~repro.core.decoder.decode_rate_level` per (group, bin),
      exactly what the pre-wideband code would have done bin by bin.

    Returns the ``BENCH_ofdm.json`` document: per-engine seconds, the
    speedup, and the worst absolute per-packet SINR discrepancy between
    the two paths in dB (``max_sinr_diff_db``) — the §6c acceptance
    numbers (speedup >= 3x at 64 bins, discrepancy <= 1e-6 dB).
    """
    # Deferred imports: keep ``repro.engine`` light for non-bench users.
    from repro.core.alignment import solve_downlink_three_packets
    from repro.core.decoder import decode_rate_level
    from repro.core.plans import ChannelSet
    from repro.engine.batched import solve_downlink_three_band
    from repro.phy.channel.provider import evaluation_bins
    from repro.phy.channel.selective import MultiTapChannel, exponential_pdp

    n_fft = 64
    if not 1 <= n_bins <= n_fft:
        raise ValueError(f"n_bins must be in [1, {n_fft}]")
    rng = np.random.default_rng(seed)
    pdp = exponential_pdp(n_taps, delay_spread)
    # The provider's evaluation grid, or — for the full-FFT acceptance
    # run (n_bins == 64) — every subcarrier including DC, so all bins
    # are distinct and "64 bins" means 64 solved subcarriers.
    bins = (
        np.arange(n_fft) if n_bins == n_fft else evaluation_bins(n_fft, n_bins)
    )
    aps = (0, 1, 2)
    # Independent scenes per group: h[g, :, i, j] is the band of the
    # channel from AP i to client j of candidate group g.
    m = n_antennas
    h = np.empty((n_groups, n_bins, 3, 3, m, m), dtype=complex)
    for g in range(n_groups):
        for i in range(3):
            for j in range(3):
                ch = MultiTapChannel.random(m, m, pdp, rng)
                h[g, :, i, j] = ch.frequency_response(n_fft)[bins]

    def run_batched():
        _, _, sinrs = solve_downlink_three_band(h, noise_power=1.0)
        return sinrs  # (G, B, 3)

    def run_reference():
        sinrs = np.empty((n_groups, n_bins, 3))
        for g in range(n_groups):
            for b in range(n_bins):
                chans = ChannelSet(
                    {(aps[i], 100 + j): h[g, b, i, j] for i in range(3) for j in range(3)}
                )
                solution = solve_downlink_three_packets(
                    chans, aps=aps, clients=(100, 101, 102), noise_power=1.0
                )
                report = decode_rate_level(solution, chans, noise_power=1.0)
                sinrs[g, b] = [r.sinr for r in report.results]
        return sinrs

    engines: Dict[str, Dict[str, float]] = {}
    results = {}
    for engine, fn in (("reference", run_reference), ("batched", run_batched)):
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            results[engine] = fn()
            best = min(best, time.perf_counter() - start)
        engines[engine] = {
            "seconds": best,
            "mean_rate": float(
                np.log2(1.0 + results[engine]).sum(axis=-1).mean()
            ),
        }
    max_sinr_diff = float(
        np.max(np.abs(10 * np.log10(results["batched"]) - 10 * np.log10(results["reference"])))
    )
    return {
        "benchmark": "ofdm",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_groups": n_groups,
            "n_bins": n_bins,
            "n_fft": n_fft,
            "n_antennas": n_antennas,
            "n_taps": n_taps,
            "delay_spread": delay_spread,
            "seed": seed,
            "repeats": repeats,
        },
        "engines": engines,
        "speedup": engines["reference"]["seconds"] / engines["batched"]["seconds"],
        "max_sinr_diff_db": max_sinr_diff,
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_city(
    n_cells: int = 64,
    aps_per_cell: int = 3,
    clients_per_cell: int = 16,
    n_slots: int = 60,
    barrier_slots: int = 20,
    worker_counts: Sequence[int] = (1, 2, 4),
    repeats: int = 1,
    seed: int = 7,
) -> dict:
    """Time the multi-cell city at each worker count; check bit-identity.

    Returns the ``BENCH_city.json`` document (see ``EXPERIMENTS.md``):
    per-worker-count seconds and throughput in *client-slots per second*
    (``clients_per_second = n_clients * n_slots / seconds``), the
    ``MultiCellStats`` digest of every run, ``bit_identical`` (all
    digests equal — the subsystem's correctness contract), the speedup
    of the largest worker count over one worker, and ``cpu_count`` so a
    reader can judge the speedup against the cores actually available
    (process sharding cannot beat 1x on a single-core host).
    """
    from repro.sim.multicell import MultiCellConfig, MultiCellSimulation  # deferred

    config = MultiCellConfig(
        n_cells=n_cells,
        aps_per_cell=aps_per_cell,
        clients_per_cell=clients_per_cell,
        barrier_slots=barrier_slots,
        seed=seed,
    )
    workers_doc: Dict[str, Dict[str, float]] = {}
    digests: Dict[int, str] = {}
    network_rate = 0.0
    jain = 0.0
    for workers in worker_counts:
        best = float("inf")
        for _ in range(max(1, repeats)):
            sim = MultiCellSimulation(config)
            start = time.perf_counter()
            stats = sim.run(n_slots, workers=workers)
            best = min(best, time.perf_counter() - start)
        digests[workers] = stats.digest()
        network_rate = stats.network_rate
        jain = stats.jain_fairness
        workers_doc[str(workers)] = {
            "seconds": best,
            "clients_per_second": config.n_clients * n_slots / best,
            "digest": digests[workers],
        }
    baseline = min(worker_counts)
    peak = max(worker_counts)
    return {
        "benchmark": "city",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_cells": n_cells,
            "aps_per_cell": aps_per_cell,
            "clients_per_cell": clients_per_cell,
            "n_clients": config.n_clients,
            "n_slots": n_slots,
            "barrier_slots": barrier_slots,
            "worker_counts": list(worker_counts),
            "seed": seed,
            "repeats": repeats,
        },
        "workers": workers_doc,
        "speedup": (
            workers_doc[str(baseline)]["seconds"] / workers_doc[str(peak)]["seconds"]
        ),
        "bit_identical": len(set(digests.values())) == 1,
        "network_rate": network_rate,
        "jain_fairness": jain,
        "cpu_count": os.cpu_count(),
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_faults(
    n_cells: int = 4,
    aps_per_cell: int = 4,
    clients_per_cell: int = 8,
    n_slots: int = 40,
    barrier_slots: int = 10,
    loss_rates: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    worker_counts: Sequence[int] = (1, 2, 4),
    n_wlan_slots: int = 60,
    seed: int = 7,
) -> dict:
    """Exercise the fault layer: degradation curve plus determinism checks.

    Returns the ``BENCH_faults.json`` document (see ``EXPERIMENTS.md``)
    with three sections:

    * ``loss_curve`` — single-cell goodput at each backplane loss rate,
      bracketed by the same-seed no-fault ceiling and ``service="p2p"``
      floor; ``degradation`` is the fraction of the IAC headroom lost
      (0 at loss 0, exactly 1 at loss 1 — graceful degradation, not a
      crash).
    * ``workers`` — a faulted multi-cell city (loss + burst + corruption
      + staleness + a mid-run leader crash in every cell) timed at each
      worker count; ``bit_identical`` asserts every digest is equal —
      fault injection must not break the worker-invariance contract.
    * ``deterministic`` — the one-worker city re-run at the same seed
      digests identically (same (seed, fault plan) → same bits).
    """
    from repro.sim.multicell import MultiCellConfig, MultiCellSimulation  # deferred
    from repro.sim.wlan import WLANConfig, WLANSimulation  # deferred

    import dataclasses

    base = WLANConfig(n_clients=clients_per_cell, seed=seed)
    loss_curve = []
    for loss_rate in loss_rates:
        ceiling = WLANSimulation(base).run(n_wlan_slots)
        floor = WLANSimulation(
            dataclasses.replace(base, service="p2p")
        ).run(n_wlan_slots)
        faulted = WLANSimulation(
            dataclasses.replace(
                base, fault_params={"backplane_loss_rate": float(loss_rate)}
            )
        ).run(n_wlan_slots)
        headroom = ceiling.total_rate - floor.total_rate
        loss_curve.append(
            {
                "loss_rate": float(loss_rate),
                "goodput": faulted.total_rate,
                "ceiling_rate": ceiling.total_rate,
                "floor_rate": floor.total_rate,
                "degradation": (
                    (ceiling.total_rate - faulted.total_rate) / headroom
                    if headroom > 0
                    else 0.0
                ),
                "fallback_fraction": faulted.fallback_fraction,
                "frames_lost": faulted.frames_lost_backplane,
            }
        )

    fault_params = {
        "backplane_loss_rate": 0.1,
        "burst_enter": 0.02,
        "burst_exit": 0.3,
        "backplane_delay_rate": 0.1,
        "backplane_delay_max": 3,
        "csi_corrupt_rate": 0.05,
        "csi_stale_rate": 0.05,
        "leader_crash_slot": n_slots // 2,
    }
    config = MultiCellConfig(
        n_cells=n_cells,
        aps_per_cell=aps_per_cell,
        clients_per_cell=clients_per_cell,
        barrier_slots=barrier_slots,
        fault_params=fault_params,
        seed=seed,
    )
    workers_doc: Dict[str, Dict[str, float]] = {}
    digests: Dict[int, str] = {}
    for workers in worker_counts:
        sim = MultiCellSimulation(config)
        start = time.perf_counter()
        stats = sim.run(n_slots, workers=workers)
        seconds = time.perf_counter() - start
        digests[workers] = stats.digest()
        workers_doc[str(workers)] = {
            "seconds": seconds,
            "clients_per_second": config.n_clients * n_slots / seconds,
            "digest": digests[workers],
        }
    rerun_digest = MultiCellSimulation(config).run(n_slots, workers=1).digest()
    return {
        "benchmark": "faults",
        "schema_version": BENCH_SCHEMA_VERSION,
        "config": {
            "n_cells": n_cells,
            "aps_per_cell": aps_per_cell,
            "clients_per_cell": clients_per_cell,
            "n_clients": config.n_clients,
            "n_slots": n_slots,
            "barrier_slots": barrier_slots,
            "n_wlan_slots": n_wlan_slots,
            "loss_rates": [float(r) for r in loss_rates],
            "worker_counts": list(worker_counts),
            "fault_params": dict(fault_params),
            "seed": seed,
        },
        "loss_curve": loss_curve,
        "workers": workers_doc,
        "bit_identical": len(set(digests.values())) == 1,
        "deterministic": rerun_digest == digests[min(worker_counts)],
        "re_elections": stats.re_elections,
        "fallback_slots": stats.fallback_slots,
        "csi_rejections": stats.csi_rejections,
        "frames_lost_backplane": stats.frames_lost_backplane,
        "cpu_count": os.cpu_count(),
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def bench_scenarios(
    names: Sequence[str] = DEFAULT_SCENARIOS,
    n_trials: int = 8,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Time registered scenarios through the experiment runner.

    Returns the ``BENCH_scenarios.json`` document.  Per-scenario seconds
    come from :attr:`~repro.experiments.ExperimentResult.seconds` (the
    runner's own timing), so CLI and bench agree on what is measured.
    """
    from repro.experiments import ExperimentRunner  # deferred: keep import light

    runner = ExperimentRunner(workers=workers)
    scenarios: Dict[str, Dict[str, float]] = {}
    for name in names:
        result = runner.run(name, n_trials=n_trials, seed=seed)
        entry = {"seconds": result.seconds, "n_trials": result.n_trials}
        try:
            entry["mean_gain"] = result.mean_gain
        except KeyError:
            pass
        scenarios[name] = entry
    return {
        "benchmark": "scenarios",
        "schema_version": BENCH_SCHEMA_VERSION,
        "seed": seed,
        "workers": workers,
        "scenarios": scenarios,
        "environment": _environment(),
        "timestamp": _timestamp(),
    }


def write_bench(doc: dict, path: str) -> None:
    """Write one benchmark document as deterministic, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def format_wlan_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_wlan.json`` document."""
    cfg = doc["config"]
    lines = [
        f"WLAN hot path: run({cfg['n_slots']}) @ {cfg['n_clients']} clients, "
        f"{cfg['algorithm']}, rho={cfg['rho']}, best of {cfg['repeats']}",
    ]
    for engine, stats in sorted(doc["engines"].items()):
        lines.append(
            f"  {engine:>8s}: {stats['seconds']*1e3:8.1f} ms   "
            f"total rate {stats['total_rate']:.3f} b/s/Hz"
        )
    lines.append(f"  speedup : {doc['speedup']:.2f}x (batched vs scalar)")
    if "speedup_columnar" in doc:
        identical = "yes" if doc.get("bit_identical") else "NO - BROKEN"
        lines.append(
            f"  speedup : {doc['speedup_columnar']:.2f}x (columnar vs scalar), "
            f"columnar digest == batched digest: {identical}"
        )
    return "\n".join(lines)


def format_events_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_events.json`` document."""
    cfg = doc["config"]
    lines = [
        f"Event kernel: {cfg['n_slots']} slots @ {cfg['n_clients']} clients, "
        f"{cfg['n_aps']} APs, ack_period={cfg['ack_period']}, "
        f"rho={cfg['rho']}, best of {cfg['repeats']}",
    ]
    for p in doc["loads"]:
        match = "ok" if p["digest_match"] else "DIGEST MISMATCH"
        events = (
            f"   {p['events_per_second']:8.0f} busy slots/s"
            if "events_per_second" in p
            else ""
        )
        lines.append(
            f"  load {p['load']:7.4f}: columnar {p['columnar_seconds']*1e3:7.1f} ms, "
            f"event {p['event_seconds']*1e3:7.1f} ms -> "
            f"{p['speedup']:5.2f}x  [{match}]{events}"
        )
    sat = doc["saturated"]
    match = "ok" if sat["digest_match"] else "DIGEST MISMATCH"
    lines.append(
        f"  saturated  : columnar {sat['columnar_seconds']*1e3:7.1f} ms, "
        f"event {sat['event_seconds']*1e3:7.1f} ms -> "
        f"{sat['speedup']:5.2f}x  [{match}]"
    )
    identical = "yes" if doc["bit_identical"] else "NO - BROKEN"
    lines.append(
        f"  speedup : {doc['speedup_low_load']:.2f}x at <=10% offered load, "
        f"{doc['speedup_saturated']:.2f}x saturated, "
        f"bit-identical: {identical}"
    )
    return "\n".join(lines)


def format_signal_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_signal.json`` document."""
    cfg = doc["config"]
    lines = [
        f"Signal pipeline: {cfg['n_sessions']} sessions x {cfg['n_packets']} "
        f"packets @ {cfg['payload_bytes']}B, {cfg['modulation']}/{cfg['fec']}, "
        f"best of {cfg['repeats']}",
    ]
    for engine, stats in sorted(doc["engines"].items()):
        lines.append(
            f"  {engine:>9s}: {stats['seconds']*1e3:8.1f} ms   "
            f"{stats['delivered']} delivered   "
            f"measured rate {stats['total_rate']:.1f} b/s/Hz"
        )
    lines.append(
        f"  speedup : {doc['speedup']:.2f}x (fast vs reference), "
        f"max SNR diff {doc['max_snr_diff_db']:.2e} dB"
    )
    return "\n".join(lines)


def format_ofdm_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_ofdm.json`` document."""
    cfg = doc["config"]
    lines = [
        f"OFDM band solver: {cfg['n_groups']} groups x {cfg['n_bins']} bins, "
        f"M={cfg['n_antennas']}, delay spread {cfg['delay_spread']}, "
        f"best of {cfg['repeats']}",
    ]
    for engine, stats in sorted(doc["engines"].items()):
        lines.append(
            f"  {engine:>9s}: {stats['seconds']*1e3:8.1f} ms   "
            f"mean bin rate {stats['mean_rate']:.3f} b/s/Hz"
        )
    lines.append(
        f"  speedup : {doc['speedup']:.2f}x (band-batched vs per-bin loop), "
        f"max SINR diff {doc['max_sinr_diff_db']:.2e} dB"
    )
    return "\n".join(lines)


def format_city_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_city.json`` document."""
    cfg = doc["config"]
    lines = [
        f"Multi-cell city: {cfg['n_cells']} cells x "
        f"({cfg['aps_per_cell']} APs + {cfg['clients_per_cell']} clients) "
        f"= {cfg['n_clients']} clients, {cfg['n_slots']} slots, "
        f"barrier every {cfg['barrier_slots']}, best of {cfg['repeats']} "
        f"({doc['cpu_count']} CPU(s))",
    ]
    for workers, stats in sorted(doc["workers"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"  {workers:>2s} worker(s): {stats['seconds']:8.2f} s   "
            f"{stats['clients_per_second']:10.0f} client-slots/s"
        )
    identical = "yes" if doc["bit_identical"] else "NO - BROKEN"
    lines.append(
        f"  speedup : {doc['speedup']:.2f}x "
        f"(max vs min workers), bit-identical across workers: {identical}"
    )
    lines.append(
        f"  network rate {doc['network_rate']:.1f} b/s/Hz, "
        f"Jain {doc['jain_fairness']:.3f}"
    )
    return "\n".join(lines)


def format_faults_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_faults.json`` document."""
    cfg = doc["config"]
    lines = [
        f"Fault layer: {cfg['n_cells']} cells x {cfg['aps_per_cell']} APs "
        f"(crash @{cfg['fault_params']['leader_crash_slot']}), "
        f"{cfg['n_slots']} slots ({doc['cpu_count']} CPU(s))",
        "  loss curve (single cell, ceiling/floor-bracketed):",
    ]
    for point in doc["loss_curve"]:
        lines.append(
            f"    loss {point['loss_rate']:.2f}: goodput "
            f"{point['goodput']:6.1f} b/s/Hz, degradation "
            f"{point['degradation']:6.1%}, fallback "
            f"{point['fallback_fraction']:6.1%}"
        )
    for workers, stats in sorted(doc["workers"].items(), key=lambda kv: int(kv[0])):
        lines.append(
            f"  {workers:>2s} worker(s): {stats['seconds']:8.2f} s   "
            f"{stats['clients_per_second']:10.0f} client-slots/s"
        )
    identical = "yes" if doc["bit_identical"] else "NO - BROKEN"
    deterministic = "yes" if doc["deterministic"] else "NO - BROKEN"
    lines.append(
        f"  bit-identical across workers: {identical}, "
        f"same-seed rerun identical: {deterministic}"
    )
    lines.append(
        f"  city counters: {doc['re_elections']} re-election(s), "
        f"{doc['fallback_slots']} fallback slots, "
        f"{doc['csi_rejections']} CSI rejections, "
        f"{doc['frames_lost_backplane']} frames lost"
    )
    return "\n".join(lines)


def format_scenario_bench(doc: dict) -> str:
    """Human-readable summary of a ``BENCH_scenarios.json`` document."""
    lines = [f"Scenario trials (seed {doc['seed']}, workers {doc['workers']}):"]
    for name, stats in doc["scenarios"].items():
        gain = stats.get("mean_gain")
        gain_text = f"   mean gain {gain:.2f}x" if gain is not None else ""
        lines.append(
            f"  {name:>8s}: {stats['seconds']*1e3:8.1f} ms for "
            f"{stats['n_trials']} trials{gain_text}"
        )
    return "\n".join(lines)
