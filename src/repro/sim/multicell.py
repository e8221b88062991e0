"""Multi-cell scale-out: a sharded city of interference neighbourhoods.

The paper's §11 clustering conjecture (Fig. 17) argues IAC's gains
survive in *dense* deployments where many interference neighbourhoods
coexist.  :class:`~repro.sim.wlan.WLANSimulation` is one neighbourhood —
one leader, three APs, a dozen clients.  This module scales that out to
hundreds of APs and thousands of clients:

* **Spatial partitioning** — :func:`build_partition` lays ``n_cells``
  cell centres on a grid (:func:`repro.sim.geometry.grid_centers`, the
  K-cluster generalisation of the Fig.-17 two-cluster seed) and
  scatters each cell's APs and clients in a disk around its centre.
  Scatter radius is held below half the grid pitch, so every node's
  nearest centre is its own cell — each client and AP lands in exactly
  one interference neighbourhood (pinned by property tests against the
  :func:`~repro.sim.geometry.nearest_center` oracle).
* **Per-cell leader election** — each cell runs its *own*
  ``WLANSimulation`` whose leader is elected among that cell's APs
  (:func:`repro.mac.association.elect_leader`), instead of one global
  leader; :func:`elect_cell_leaders` exposes the winners as global AP
  ids.
* **Deterministic fan-out** — each cell's simulation seed is an
  identity hash of ``(config seed, cell index)`` (:func:`cell_sim_seed`,
  the sweep engine's per-cell hash discipline), so a cell computes the
  same trajectory whichever worker runs it.
* **Slot-barrier boundary exchange** — cells run ``barrier_slots``
  slots, then exchange :class:`CellSummary` records.  A cell's per-round
  busy fraction radiates interference to its neighbours through a
  log-distance coupling matrix; the resulting per-cell floor is
  injected into that cell's *edge* clients (the outermost
  ``edge_fraction`` of the cell disk's area) via
  :meth:`~repro.sim.wlan.WLANSimulation.set_interference_floor` before
  the next round (a Jacobi-style exchange: round ``r`` sees round
  ``r-1``'s activity).  Floors are computed centrally from the gathered
  summaries, in fixed cell order, so they are bit-identical for any
  worker count.
* **Sharded execution** — ``run(n_slots, workers=W)`` shards cells
  round-robin across ``W`` persistent worker *processes* (cells stay
  alive in their shard between barriers; only floors and summaries
  cross the pipe).  ``workers=1`` is the in-process reference loop, and
  the two are bit-identical: a cell's trajectory depends only on its
  seed and its floor sequence, never on which shard stepped it.
* **Aggregation** — :class:`MultiCellStats` merges per-cell
  :class:`~repro.sim.wlan.WLANStats` into network-wide goodput,
  delivered/offered/dropped accounting, queueing latency and Jain
  fairness over *all* clients, plus a canonical :meth:`digest
  <MultiCellStats.digest>` used by CI to assert worker-count
  bit-identity.

Surfaced as the ``city_scale`` scenario
(:mod:`repro.experiments.multicell_scenarios`) and ``repro bench
--city`` (``BENCH_city.json``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.mac.association import elect_leader
from repro.sim.geometry import disk_positions, grid_centers, path_gain_db
from repro.sim.wlan import WLANConfig, WLANSimulation, WLANStats, validate_engine
from repro.utils.db import db_to_linear

__all__ = [
    "CellPartition",
    "CellSummary",
    "MultiCellConfig",
    "MultiCellSimulation",
    "MultiCellStats",
    "build_partition",
    "cell_sim_seed",
    "elect_cell_leaders",
]

#: Downlink groups carry up to three packets per slot (Lemma 5.2, M=2).
_SERVICE_CAPACITY = 3


@dataclass(frozen=True)
class MultiCellConfig:
    """A city of ``n_cells`` interference neighbourhoods on a grid."""

    n_cells: int = 64
    #: APs per cell; the IAC downlink construction needs three.
    aps_per_cell: int = 3
    clients_per_cell: int = 16
    n_antennas: int = 2
    rho: float = 0.998
    #: Mean in-cell pair SNR in dB (noise power is 1).
    mean_gain_db: float = 15.0
    algorithm: str = "best2"
    #: Per-cell :attr:`~repro.sim.wlan.WLANConfig.engine`.
    engine: str = "batched"
    #: Per-cell arrival process: ``"saturated"`` or ``"poisson"`` at a
    #: fraction ``load`` of the cell's 3-packet/slot service capacity.
    #: (Finite load makes the boundary exchange informative: a lightly
    #: loaded cell radiates less interference than a busy one.)
    traffic: str = "poisson"
    load: float = 0.7
    #: Grid pitch between cell centres and node-scatter radius (must be
    #: below half the pitch so the partition is unambiguous).
    cell_spacing: float = 1.0
    cell_radius: float = 0.35
    #: Interference (dB relative to noise) a *fully busy* cell lands on
    #: a neighbour one ``cell_spacing`` away; decays with the
    #: log-distance exponent beyond that, and cells farther than
    #: ``interference_radius`` spacings contribute nothing.
    coupling_gain_db: float = -10.0
    path_loss_exp: float = 3.5
    interference_radius: float = 2.5
    #: Outermost area fraction of each cell whose clients take the
    #: boundary floor (interior clients are shielded by their cell).
    edge_fraction: float = 0.5
    #: Slots between boundary-interference exchanges.
    barrier_slots: int = 20
    seed: int = 0
    #: Fault-injection plan applied to *every* cell
    #: (:class:`repro.faults.FaultPlan` fields as a flat dict); each
    #: cell's injector draws from its own hashed-seed streams, so the
    #: city stays bit-identical for any worker count.  ``None`` disables
    #: the fault path (the pre-fault trajectory, bit for bit).
    fault_params: Optional[Dict[str, Any]] = None
    #: Seconds a shard worker may stay silent (alive but not answering)
    #: after a barrier message before the run fails loudly, naming the
    #: shard and its cells.  A *dead* worker is detected within one poll
    #: interval regardless.
    shard_timeout: float = 60.0
    #: Times a crashed shard worker is restarted (and replayed from its
    #: completed barriers) before the run gives up.
    max_shard_restarts: int = 2

    def __post_init__(self) -> None:
        validate_engine(self.engine)

    @property
    def n_aps(self) -> int:
        return self.n_cells * self.aps_per_cell

    @property
    def n_clients(self) -> int:
        return self.n_cells * self.clients_per_cell


def cell_sim_seed(config_seed: int, cell: int) -> int:
    """The cell's ``WLANConfig`` seed: an identity hash, not an offset.

    Mirrors the sweep engine's per-cell discipline
    (:func:`repro.experiments.sweep.cell_key`): the seed is derived by
    hashing the cell's full identity, so cell ``k`` computes the same
    trajectory whichever worker runs it, whatever cells surround it —
    and neighbouring config seeds never produce overlapping streams.
    """
    identity = json.dumps(
        {"multicell_seed": int(config_seed), "cell": int(cell)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(identity.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1)


@dataclass(frozen=True)
class CellPartition:
    """The city's node placement and its cell assignment.

    Global ids are indices: AP ``g`` lives in cell ``g // aps_per_cell``
    and maps to local AP id ``g % aps_per_cell`` inside that cell's
    ``WLANSimulation``; client ``g`` maps to local id
    ``100 + g % clients_per_cell`` (the WLAN sim's client-id convention).
    """

    centers: np.ndarray  #: (K, 2) cell centres.
    ap_positions: np.ndarray  #: (K * A, 2)
    client_positions: np.ndarray  #: (K * C, 2)
    ap_cell: np.ndarray  #: (K * A,) owning cell of each AP.
    client_cell: np.ndarray  #: (K * C,) owning cell of each client.
    #: Clients in the outermost ``edge_fraction`` of their cell's area.
    edge_client: np.ndarray  #: (K * C,) bool

    @property
    def n_cells(self) -> int:
        return len(self.centers)

    def aps_of(self, cell: int) -> np.ndarray:
        """Global AP ids of one cell, in id order."""
        return np.flatnonzero(self.ap_cell == cell)

    def clients_of(self, cell: int) -> np.ndarray:
        """Global client ids of one cell, in id order."""
        return np.flatnonzero(self.client_cell == cell)

    def edge_clients_of(self, cell: int) -> np.ndarray:
        """Global ids of the cell's boundary clients."""
        return np.flatnonzero((self.client_cell == cell) & self.edge_client)


def build_partition(config: MultiCellConfig) -> CellPartition:
    """Place every AP and client and assign each to exactly one cell.

    Placement draws from per-cell RNG streams spawned from the config
    seed (`SeedSequence(seed).spawn`), so cell ``k``'s geometry is
    independent of how many cells exist — growing the city never moves
    existing nodes.  The scatter radius is validated against half the
    grid pitch, which makes the construction's block assignment agree
    with the :func:`~repro.sim.geometry.nearest_center` oracle.
    """
    if config.n_cells < 1:
        raise ValueError("need at least one cell")
    if config.aps_per_cell < 3:
        raise ValueError("IAC downlink groups need three APs per cell")
    if config.clients_per_cell < config.aps_per_cell:
        raise ValueError("need at least as many clients as APs per cell")
    if not 0.0 < config.cell_radius < 0.5 * config.cell_spacing:
        raise ValueError(
            "cell_radius must be positive and below cell_spacing / 2 "
            "(otherwise a node could land nearer a neighbouring centre)"
        )
    if not 0.0 <= config.edge_fraction <= 1.0:
        raise ValueError("edge_fraction must be in [0, 1]")
    if config.shard_timeout <= 0.0:
        raise ValueError("shard_timeout must be > 0 seconds")
    if config.max_shard_restarts < 0:
        raise ValueError("max_shard_restarts must be >= 0")
    centers = grid_centers(config.n_cells, config.cell_spacing)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_cells)
    ap_positions = np.empty((config.n_aps, 2))
    client_positions = np.empty((config.n_clients, 2))
    a, c = config.aps_per_cell, config.clients_per_cell
    for k in range(config.n_cells):
        rng = np.random.default_rng(streams[k])
        ap_positions[k * a : (k + 1) * a] = disk_positions(
            centers[k], a, config.cell_radius, rng
        )
        client_positions[k * c : (k + 1) * c] = disk_positions(
            centers[k], c, config.cell_radius, rng
        )
    ap_cell = np.repeat(np.arange(config.n_cells), a)
    client_cell = np.repeat(np.arange(config.n_cells), c)
    # Edge rule: uniform-in-disk density makes "outermost edge_fraction
    # of the area" the annulus beyond radius * sqrt(1 - edge_fraction).
    own_center = centers[client_cell]
    dist = np.linalg.norm(client_positions - own_center, axis=1)
    threshold = config.cell_radius * np.sqrt(1.0 - config.edge_fraction)
    edge_client = dist > threshold
    return CellPartition(
        centers=centers,
        ap_positions=ap_positions,
        client_positions=client_positions,
        ap_cell=ap_cell,
        client_cell=client_cell,
        edge_client=edge_client,
    )


def elect_cell_leaders(partition: CellPartition) -> np.ndarray:
    """One elected leader per cell, as global AP ids.

    Runs the WLAN's real election rule
    (:func:`repro.mac.association.elect_leader`) over each cell's AP
    set — per-neighbourhood leadership instead of the single global
    leader of the one-cell simulation.
    """
    return np.array(
        [elect_leader(list(partition.aps_of(k))) for k in range(partition.n_cells)]
    )


@dataclass(frozen=True)
class CellSummary:
    """What a cell tells its neighbours at a slot barrier."""

    cell: int
    #: Fraction of the round's slots the cell transmitted (non-idle).
    busy_fraction: float
    #: Rate delivered during the round (diagnostic only — floors depend
    #: solely on ``busy_fraction``).
    round_rate: float


@dataclass
class MultiCellStats:
    """Network-wide outcome, merged from per-cell ``WLANStats``."""

    n_cells: int = 0
    slots: int = 0
    #: Per-cell total goodput (b/s/Hz), in cell order.
    cell_rates: List[float] = field(default_factory=list)
    #: Per-client average rate, keyed by *global* client id.
    per_client_rate: Dict[int, float] = field(default_factory=dict)
    delivered_packets: int = 0
    offered_packets: int = 0
    dropped_packets: int = 0
    idle_slots: int = 0
    drift_reports: int = 0
    latency_slots_total: float = 0.0
    #: Mean/max injected boundary floor over (round, cell) pairs, in
    #: noise units — how loud the city is at its edges.
    mean_interference_floor: float = 0.0
    max_interference_floor: float = 0.0
    # ---- fault/degradation counters (0 without fault injection) ------ #
    frames_lost_backplane: int = 0
    frames_delayed_backplane: int = 0
    csi_rejections: int = 0
    fallback_slots: int = 0
    re_elections: int = 0
    #: Shard-worker restarts this run survived.  *Excluded* from
    #: :meth:`to_dict` / :meth:`digest` by design: a run whose worker was
    #: killed and replayed must digest identically to one that wasn't —
    #: that equality is exactly what the self-healing contract promises.
    shard_restarts: int = 0

    @property
    def n_clients(self) -> int:
        return len(self.per_client_rate)

    @property
    def network_rate(self) -> float:
        """Network-wide goodput: the sum of per-cell total rates."""
        return float(sum(self.cell_rates))

    @property
    def mean_cell_rate(self) -> float:
        return self.network_rate / self.n_cells if self.n_cells else 0.0

    @property
    def mean_latency_slots(self) -> float:
        if not self.delivered_packets:
            return 0.0
        return self.latency_slots_total / self.delivered_packets

    @property
    def idle_fraction(self) -> float:
        total = self.n_cells * self.slots
        return self.idle_slots / total if total else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain's index over every client in the city (1.0 = fair)."""
        # Sorted client order: the merge inserts clients in shard order,
        # and float sums are order-sensitive at the ulp level — a
        # canonical order keeps the summary permutation-invariant.
        rates = [self.per_client_rate[c] for c in sorted(self.per_client_rate)]
        if not rates:
            return 1.0
        square_sum = sum(r * r for r in rates)
        if square_sum == 0.0:
            return 1.0
        total = sum(rates)
        return (total * total) / (len(rates) * square_sum)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_cells": self.n_cells,
            "slots": self.slots,
            "cell_rates": [float(r) for r in self.cell_rates],
            "per_client_rate": {
                str(c): float(r) for c, r in sorted(self.per_client_rate.items())
            },
            "delivered_packets": self.delivered_packets,
            "offered_packets": self.offered_packets,
            "dropped_packets": self.dropped_packets,
            "idle_slots": self.idle_slots,
            "drift_reports": self.drift_reports,
            "latency_slots_total": float(self.latency_slots_total),
            "mean_interference_floor": float(self.mean_interference_floor),
            "max_interference_floor": float(self.max_interference_floor),
            "frames_lost_backplane": self.frames_lost_backplane,
            "frames_delayed_backplane": self.frames_delayed_backplane,
            "csi_rejections": self.csi_rejections,
            "fallback_slots": self.fallback_slots,
            "re_elections": self.re_elections,
            "network_rate": self.network_rate,
            "jain_fairness": self.jain_fairness,
        }

    def digest(self) -> str:
        """Canonical hash of the full outcome (worker-invariance check).

        Two runs that differ in any per-client rate, counter or floor
        statistic produce different digests; CI asserts digests are
        equal across worker counts.
        """
        doc = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Shard execution
# --------------------------------------------------------------------- #


def _cell_wlan_config(config: MultiCellConfig, cell: int) -> WLANConfig:
    """The ``WLANConfig`` of one cell (its own hashed seed)."""
    if config.traffic == "saturated":
        traffic, traffic_params = "saturated", None
    elif config.traffic == "poisson":
        traffic = "poisson"
        traffic_params = {
            "rate_per_client": float(config.load)
            * _SERVICE_CAPACITY
            / config.clients_per_cell
        }
    else:
        raise ValueError(
            f"unknown multicell traffic model {config.traffic!r} "
            "(expected 'saturated' or 'poisson')"
        )
    return WLANConfig(
        n_aps=config.aps_per_cell,
        n_clients=config.clients_per_cell,
        n_antennas=config.n_antennas,
        rho=config.rho,
        mean_gain_db=config.mean_gain_db,
        algorithm=config.algorithm,
        engine=config.engine,
        traffic=traffic,
        traffic_params=traffic_params,
        fault_params=(
            dict(config.fault_params) if config.fault_params is not None else None
        ),
        seed=cell_sim_seed(config.seed, cell),
    )


class _Shard:
    """A set of cells stepped together between barriers (one worker).

    Runs identically in-process (``workers=1``) and inside a worker
    process: the shard only ever sees its own cells' configs, the local
    ids of their edge clients, and the scalar floor each cell was
    assigned for the round.  A round advances all of its cells with one
    :func:`~repro.sim.events.run_stacked` call (shared solves; each
    cell's trajectory is still exactly its solo run).
    """

    def __init__(
        self,
        cells: Sequence[int],
        configs: Dict[int, WLANConfig],
        edge_local_ids: Dict[int, List[int]],
    ):
        self.sims = {k: WLANSimulation(configs[k]) for k in cells}
        self.edge_local_ids = edge_local_ids
        self._prev_idle = {k: 0 for k in cells}
        self._prev_rate = {k: 0.0 for k in cells}

    def run_round(
        self, n_slots: int, floors: Mapping[int, float]
    ) -> Dict[int, CellSummary]:
        # Deferred: the event driver stays off the registry's import path.
        from repro.sim.events import run_stacked

        cells = sorted(self.sims)
        for k in cells:
            floor = float(floors.get(k, 0.0))
            self.sims[k].set_interference_floor(
                {cid: floor for cid in self.edge_local_ids[k]} if floor else {}
            )
        all_stats = run_stacked([self.sims[k] for k in cells], n_slots)
        summaries: Dict[int, CellSummary] = {}
        for k, stats in zip(cells, all_stats):
            busy = 1.0 - (stats.idle_slots - self._prev_idle[k]) / n_slots
            round_rate = stats.total_rate * stats.slots - self._prev_rate[k]
            self._prev_idle[k] = stats.idle_slots
            self._prev_rate[k] = stats.total_rate * stats.slots
            summaries[k] = CellSummary(
                cell=k, busy_fraction=busy, round_rate=round_rate
            )
        return summaries

    def stats(self) -> Dict[int, WLANStats]:
        return {k: sim.stats for k, sim in sorted(self.sims.items())}


#: Pipe poll granularity (seconds): how quickly a dead peer is noticed.
_POLL_INTERVAL = 0.2


class _ShardDied(RuntimeError):
    """Internal: the worker process behind a shard handle is gone.

    Never escapes :meth:`MultiCellSimulation.run` — the caller either
    revives the shard (restart-and-replay) or converts the condition
    into a plain :class:`RuntimeError` once restarts are exhausted.
    """


def _shard_worker(conn, cells, configs, edge_local_ids) -> None:
    """Worker-process main loop: build the shard, serve barrier rounds.

    Receives are poll-guarded: a vanished parent (closed pipe) ends the
    loop instead of blocking forever on a dead file descriptor.
    """
    shard = _Shard(cells, configs, edge_local_ids)
    try:
        while True:
            if not conn.poll(_POLL_INTERVAL):
                continue
            try:
                # Guarded: poll() just confirmed data (or EOF) is ready.
                message = conn.recv()  # repro-lint: ignore[no-naked-recv]
            except EOFError:
                break
            if message[0] == "run":
                _, n_slots, floors = message
                conn.send(shard.run_round(n_slots, floors))
            elif message[0] == "stats":
                conn.send(shard.stats())
            else:  # "stop"
                break
    finally:
        conn.close()


class _ShardHandle:
    """One worker process plus everything needed to resurrect it.

    A cell's trajectory is a deterministic function of its config and
    the floor sequence it was handed (the module's fan-out discipline),
    so a crashed worker is healed by starting a fresh process and
    replaying the ``completed`` barrier log — the replacement arrives at
    bit-identical state, and the run's digest never betrays the crash.
    """

    def __init__(
        self,
        ctx,
        index: int,
        cells: Sequence[int],
        configs: Dict[int, WLANConfig],
        edge_local_ids: Dict[int, List[int]],
        timeout: float,
        max_restarts: int,
    ):
        self.index = index
        self.cells = list(cells)
        self.restarts = 0
        #: Barrier log: ``(n_slots, floors)`` of every answered round.
        self.completed: List[Any] = []
        self._ctx = ctx
        self._configs = configs
        self._edge_local_ids = edge_local_ids
        self._timeout = timeout
        self._max_restarts = max_restarts
        self._pipe = None
        self._process = None
        self._start()

    def _start(self) -> None:
        parent, child = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=_shard_worker,
            args=(child, self.cells, self._configs, self._edge_local_ids),
        )
        self._process.start()
        child.close()
        self._pipe = parent

    def _died(self, what: str) -> _ShardDied:
        return _ShardDied(
            f"shard {self.index} (cells {self.cells}) worker died {what}"
        )

    def send(self, message) -> None:
        try:
            self._pipe.send(message)
        except (BrokenPipeError, OSError):
            raise _ShardDied(
                f"shard {self.index} (cells {self.cells}) worker died "
                "before accepting a message"
            ) from None

    def recv(self):
        """One reply, or a diagnosis: dead worker (:class:`_ShardDied`,
        revivable) versus alive-but-silent past the configured timeout
        (:class:`RuntimeError`, fatal — a hung worker holds state a
        restart cannot reconstruct mid-round)."""
        waited = 0.0
        while True:
            if self._pipe.poll(_POLL_INTERVAL):
                try:
                    # Guarded: poll() confirmed data (or EOF) is ready.
                    return self._pipe.recv()  # repro-lint: ignore[no-naked-recv]
                except (EOFError, OSError):
                    # EOFError on an orderly close, ConnectionResetError
                    # when the worker was killed outright.
                    raise self._died("mid-round (pipe closed)") from None
            if not self._process.is_alive():
                raise self._died(
                    f"mid-round (exit code {self._process.exitcode})"
                )
            waited += _POLL_INTERVAL
            if waited >= self._timeout:
                raise RuntimeError(
                    f"shard {self.index} (cells {self.cells}) sent no "
                    f"result within {self._timeout:.1f}s; worker is alive "
                    "but silent (raise MultiCellConfig.shard_timeout for "
                    "slow hosts)"
                )

    def revive(self) -> None:
        """Restart the worker and replay its barrier log."""
        if self.restarts >= self._max_restarts:
            raise RuntimeError(
                f"shard {self.index} (cells {self.cells}) died "
                f"{self.restarts + 1} times; giving up after "
                f"{self._max_restarts} restart(s)"
            )
        self.restarts += 1
        self.close()
        self._start()
        for n_slots, floors in self.completed:
            self.send(("run", n_slots, floors))
            # _ShardHandle.recv polls with a timeout internally.
            self.recv()  # repro-lint: ignore[no-naked-recv]

    def close(self) -> None:
        if self._pipe is not None:
            try:
                self._pipe.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._process is not None:
            self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - hung worker
                self._process.terminate()
                self._process.join()


class MultiCellSimulation:
    """A city of per-cell WLANs coupled by boundary interference.

    ``run(n_slots, workers=W)`` simulates every cell for ``n_slots``
    slots in rounds of ``config.barrier_slots``, exchanging boundary
    interference at each barrier.  Each call builds fresh cells (the
    multi-cell simulation is a deterministic function of its config, so
    repeated runs reproduce, not extend, the deployment — worker
    processes are torn down at the end of the call).
    """

    def __init__(self, config: Optional[MultiCellConfig] = None):
        self.config = MultiCellConfig() if config is None else config
        self.partition = build_partition(self.config)
        self.cell_leaders = elect_cell_leaders(self.partition)
        self.coupling = self._coupling_matrix()
        self._configs = {
            k: _cell_wlan_config(self.config, k) for k in range(self.config.n_cells)
        }
        # Local WLAN client ids (100 + local index) of each cell's edge
        # clients — what the floor injection hands to set_interference_floor.
        c = self.config.clients_per_cell
        self._edge_local_ids = {
            k: [100 + int(g % c) for g in self.partition.edge_clients_of(k)]
            for k in range(self.config.n_cells)
        }

    def _coupling_matrix(self) -> np.ndarray:
        """``coupling[i, j]``: linear interference power cell ``i`` lands
        on cell ``j``'s edge when fully busy (zero on the diagonal and
        beyond ``interference_radius`` spacings)."""
        centers = self.partition.centers
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=-1)) / self.config.cell_spacing
        gain_db = path_gain_db(
            np.maximum(dist, 1e-12),
            self.config.coupling_gain_db,
            ref_distance=1.0,
            exponent=self.config.path_loss_exp,
        )
        coupling = db_to_linear(np.asarray(gain_db, dtype=float))
        coupling[dist > self.config.interference_radius] = 0.0
        np.fill_diagonal(coupling, 0.0)
        return coupling

    def _floors_from(self, summaries: Dict[int, CellSummary]) -> np.ndarray:
        """Next round's per-cell edge floor, in fixed cell order."""
        busy = np.array(
            [summaries[k].busy_fraction for k in range(self.config.n_cells)]
        )
        return busy @ self.coupling

    def _aggregate(
        self,
        cell_stats: Dict[int, WLANStats],
        n_slots: int,
        floor_history: List[np.ndarray],
    ) -> MultiCellStats:
        config = self.config
        stats = MultiCellStats(n_cells=config.n_cells, slots=n_slots)
        c = config.clients_per_cell
        for k in range(config.n_cells):
            cs = cell_stats[k]
            stats.cell_rates.append(cs.total_rate)
            for local, rate in sorted(cs.per_client_rate.items()):
                stats.per_client_rate[k * c + (int(local) - 100)] = rate
            stats.delivered_packets += cs.delivered_packets
            stats.offered_packets += cs.offered_packets
            stats.dropped_packets += cs.dropped_packets
            stats.idle_slots += cs.idle_slots
            stats.drift_reports += cs.drift_reports
            stats.latency_slots_total += cs.latency_slots_total
            stats.frames_lost_backplane += cs.frames_lost_backplane
            stats.frames_delayed_backplane += cs.frames_delayed_backplane
            stats.csi_rejections += cs.csi_rejections
            stats.fallback_slots += cs.fallback_slots
            stats.re_elections += cs.re_elections
        if floor_history:
            floors = np.stack(floor_history)
            stats.mean_interference_floor = float(floors.mean())
            stats.max_interference_floor = float(floors.max())
        return stats

    def run(self, n_slots: int, workers: int = 1) -> MultiCellStats:
        """Simulate ``n_slots`` slots across every cell; merge the stats.

        ``workers`` shards cells round-robin over that many persistent
        worker processes; the result is bit-identical for any count
        (``tests/sim/test_multicell.py`` and ``repro bench --city``
        assert it).
        """
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        config = self.config
        rounds: List[int] = []
        remaining = n_slots
        while remaining > 0:
            step = min(config.barrier_slots, remaining)
            rounds.append(step)
            remaining -= step

        floors = np.zeros(config.n_cells)
        floor_history: List[np.ndarray] = []
        workers = min(workers, config.n_cells)
        if workers == 1:
            shard = _Shard(
                range(config.n_cells), self._configs, self._edge_local_ids
            )
            for step in rounds:
                floor_history.append(floors)
                summaries = shard.run_round(step, dict(enumerate(floors)))
                floors = self._floors_from(summaries)
            return self._aggregate(shard.stats(), n_slots, floor_history)

        # Persistent shard processes: cells live in their worker between
        # barriers; only scalar floors and summaries cross the pipes.
        # Every receive is timeout-guarded and every crashed worker is
        # restarted and replayed from its barrier log, so a SIGKILLed
        # shard heals to a bit-identical digest and a hung shard fails
        # loudly naming itself instead of hanging the caller forever.
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = mp.get_context("spawn")
        shards = [list(range(w, config.n_cells, workers)) for w in range(workers)]
        handles: List[_ShardHandle] = []
        try:
            for index, cells in enumerate(shards):
                handles.append(
                    _ShardHandle(
                        ctx,
                        index,
                        cells,
                        {k: self._configs[k] for k in cells},
                        {k: self._edge_local_ids[k] for k in cells},
                        timeout=config.shard_timeout,
                        max_restarts=config.max_shard_restarts,
                    )
                )
            for step in rounds:
                floor_history.append(floors)
                floor_map = dict(enumerate(floors))
                messages = [
                    ("run", step, {k: floor_map[k] for k in handle.cells})
                    for handle in handles
                ]
                # Optimistic broadcast keeps the shards concurrent; a
                # death here surfaces at (and is healed by) the collect
                # phase's roundtrip below.
                for handle, message in zip(handles, messages):
                    try:
                        handle.send(message)
                    except _ShardDied:
                        pass
                summaries: Dict[int, CellSummary] = {}
                for handle, message in zip(handles, messages):
                    summaries.update(self._roundtrip(handle, message))
                    handle.completed.append((message[1], message[2]))
                floors = self._floors_from(summaries)
            cell_stats: Dict[int, WLANStats] = {}
            for handle in handles:
                try:
                    handle.send(("stats",))
                except _ShardDied:
                    pass
            for handle in handles:
                cell_stats.update(self._roundtrip(handle, ("stats",)))
            for handle in handles:
                try:
                    handle.send(("stop",))
                except _ShardDied:  # pragma: no cover - died after stats
                    pass
        finally:
            for handle in handles:
                handle.close()
        stats = self._aggregate(cell_stats, n_slots, floor_history)
        stats.shard_restarts = sum(h.restarts for h in handles)
        return stats

    @staticmethod
    def _roundtrip(handle: _ShardHandle, message):
        """The shard's reply to ``message``, healing crashes en route.

        A dead worker is revived (fresh process, barrier log replayed)
        and the in-flight message resent; repeated deaths keep healing
        until :meth:`_ShardHandle.revive` exhausts its restart budget
        and raises.  An alive-but-silent worker raises from
        :meth:`_ShardHandle.recv` directly — hangs are not healable.
        """
        while True:
            try:
                # _ShardHandle.recv polls with a timeout internally.
                return handle.recv()  # repro-lint: ignore[no-naked-recv]
            except _ShardDied:
                handle.revive()
                try:
                    handle.send(message)
                except _ShardDied:  # pragma: no cover - died instantly
                    continue
