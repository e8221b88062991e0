"""The columnar slot pieces: ``WLANSimulation.run`` without the Python loop.

This module is the fast half of the repo's engine-pair recipe (the slow
half is :meth:`repro.sim.wlan.WLANSimulation._run_scalar`, the bit-exact
reference, run on :class:`~repro.sim.wlan.ReferenceWLANSimulation`):
per-client state lives in ndarrays, the per-slot work that
used to be many small Python/numpy calls is batched into a handful of
vectorised ones, and *nothing* about the simulated trajectory changes —
same RNG stream consumption, same event log, same
:meth:`~repro.sim.wlan.WLANStats.digest` for every (seed, config, fault
plan).  Concretely:

* **Fading** (:class:`ColumnarFadingNetwork`): all Gauss-Markov links
  stacked into one ``(L, M, M)`` ndarray; a slot step is a single
  ``standard_normal((L, 2, M, M))`` draw (the C-order fill reproduces
  the per-link real-block-then-imaginary-block order exactly) plus one
  broadcast AR(1) update, instead of ``L`` tiny per-link draws.
* **Drift tracking** (:func:`_track_fast`): every (client, AP) smoothing
  + relative-Frobenius drift decision of an ack slot computed in one
  batched pass via :func:`repro.phy.channel.estimation.frobenius_norms`
  (whose pinned sequential accumulation makes the stacked norms equal
  the scalar ones to the last ulp); only drifted pairs walk the scalar
  report path (``LeaderAP.handle_update``), so bookkeeping stays exact.
* **Evaluation** (:class:`repro.engine.ColumnarGroupEvaluator`): believed
  channels mirrored columnar-side and refreshed *incrementally* — a row
  is re-gathered only when that client's channel-map version moved.
* **Transmission** (:func:`_transmit_fast`): the true channels of the
  transmitting group gathered straight from the fading stack (one fancy
  index) instead of a :class:`~repro.core.plans.ChannelSet` round-trip.
* **Accounting** (:class:`_ColumnarState`): per-client cumulative rates,
  latency sums/counts and queue backlogs as ndarrays; the arrays are
  folded back into the simulation's dicts when the run finalises.
* **Shared solves** (:func:`_shared_solve`): many independent
  simulations' not-yet-cached candidate groups concatenated into **one**
  ``np.linalg`` solve per slot (batch-slice invariance of
  :func:`~repro.engine.batched.solve_downlink_three_batch` keeps each
  simulation bit-identical to running alone) — the seam the production
  driver :func:`repro.sim.events.run_stacked` stacks cells and trials on.

What stays scalar, deliberately: the FIFO queue (its packet order *is*
the trajectory), the selectors (their RNG draws are the trajectory),
stats counters that the scalar loop accumulates sequentially (pairwise
``np.sum`` would change rounding), and every fault-injection path
(faulted runs fall back to the reference helpers per slot — correctness
over speed on the rare path).

The production driver (:mod:`repro.sim.events`) runs every woken slot
through :func:`_begin_slot` / :func:`_finish_slot`; :func:`run_columnar`
is the same pieces without idle skipping, kept as the per-slot baseline
the benchmark gates time against.

Equivalence contract: ``run_columnar(sim, n)`` must equal
``run_columnar_reference(ReferenceWLANSimulation(config), n)`` field
for field — pinned by ``tests/sim/test_columnar_equivalence.py`` and
the ``engine-pair`` lint rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batched import solve_downlink_three_batch
from repro.engine.evaluator import ColumnarGroupEvaluator
from repro.mac.association import ChannelUpdate
from repro.mac.queueing import QueuedPacket
from repro.phy.channel.estimation import ChannelEstimate, frobenius_norms
from repro.phy.channel.timevarying import FadingNetwork

__all__ = [
    "ColumnarFadingNetwork",
    "run_columnar",
    "run_columnar_reference",
]


class ColumnarFadingNetwork(FadingNetwork):
    """Every Gauss-Markov link of a deployment in one stacked ndarray.

    Construction defers entirely to :class:`FadingNetwork` — the same
    per-link draws from the same shared generator in the same order —
    then restacks the link matrices into one contiguous ``(L, M, M)``
    array and rebinds each link's ``_h`` to its slice view, so every
    scalar accessor (``channel()``, trackers and leader records holding
    matrix references) keeps working unchanged.

    :meth:`step` replaces ``L`` per-link ``standard_normal((M, M))``
    pairs with **one** ``standard_normal((L, 2, M, M))`` call.  The
    generator fills the output buffer in C order — link 0's real block,
    link 0's imaginary block, link 1's real block, … — which is exactly
    the order :func:`~repro.phy.channel.model.rayleigh_channel` consumes
    per link, so the stream (and hence every subsequent draw anywhere in
    the simulation) is bit-identical to the scalar network's.  The AR(1)
    update allocates a **new** stack each step rather than updating in
    place: the scalar link rebinds ``_h`` to a fresh array per step,
    leaving earlier matrices frozen for whoever holds them (trackers,
    the leader's table) — an in-place update would corrupt those views.
    """

    def __init__(self, pairs, n_antennas: int, rho: float = 0.995,
                 gains=None, rng=None):
        super().__init__(pairs, n_antennas=n_antennas, rho=rho,
                         gains=gains, rng=rng)
        self._keys = list(self._links.keys())
        #: Link key ``(min(a, b), max(a, b))`` -> row in :attr:`stack`.
        self.rows: Dict[Tuple[int, int], int] = {
            key: i for i, key in enumerate(self._keys)
        }
        links = [self._links[key] for key in self._keys]
        self._m = int(n_antennas)
        # All links were built from one shared generator; keep it for the
        # single stacked draw per step.
        self._shared_rng = links[0].rng if links else None
        self._gain_scale = np.array(
            [np.sqrt(link.gain / 2.0) for link in links]
        )[:, None, None]
        self._refresh_rho()
        if links:
            self.stack = np.stack([link._h for link in links])
        else:  # degenerate but keeps step() total
            self.stack = np.empty((0, self._m, self._m), dtype=complex)
        self._rebind()

    def _refresh_rho(self) -> None:
        """Rebuild the per-link rho/innovation-scale vectors.

        Each entry is computed from that link's Python-float ``rho`` with
        the same expression ``GaussMarkovFading.step`` uses
        (``np.sqrt(1.0 - rho**2)``), so mobility overrides keep the
        stacked update bit-identical to the per-link one.
        """
        links = [self._links[key] for key in self._keys]
        self._rho_vec = np.array([link.rho for link in links])[:, None, None]
        self._scale_vec = np.array(
            [np.sqrt(1.0 - link.rho**2) for link in links]
        )[:, None, None]

    def _rebind(self) -> None:
        for i, key in enumerate(self._keys):
            self._links[key]._h = self.stack[i]
        self._stale = False

    def channel(self, tx: int, rx: int) -> np.ndarray:
        # Rebinding the L per-link views is deferred until someone
        # actually reads a link (the columnar fast paths gather from
        # :attr:`stack` directly and never do).  Every scalar read goes
        # through here or :meth:`channel_bins`, so a stale ``_h`` is
        # never observable.
        if self._stale:
            self._rebind()
        return super().channel(tx, rx)

    def channel_bins(self, tx: int, rx: int) -> np.ndarray:
        if self._stale:
            self._rebind()
        return super().channel_bins(tx, rx)

    def set_node_rho(self, node: int, rho: float) -> None:
        super().set_node_rho(node, rho)
        self._refresh_rho()

    def step(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot step backwards")
        if n != 1:
            # The scalar network interleaves differently for n > 1 (link
            # 0 draws all n innovations before link 1 draws any), so the
            # multi-step path defers to the per-link loop and restacks.
            for i, key in enumerate(self._keys):
                link = self._links[key]
                link._h = self.stack[i].copy()
                link.step(n)
            if self._keys:
                self.stack = np.stack(
                    [self._links[key]._h for key in self._keys]
                )
            self._rebind()
            return
        if not self._keys:
            return
        m = self._m
        draw = self._shared_rng.standard_normal((len(self._keys), 2, m, m))
        w = self._gain_scale * (draw[:, 0] + 1j * draw[:, 1])
        self.stack = self._rho_vec * self.stack + self._scale_vec * w
        self._stale = True

    def step_block(
        self,
        n: int,
        keep: Sequence[int] = (),
        keep_rows: Optional[np.ndarray] = None,
        snap_out: Optional[np.ndarray] = None,
    ) -> None:
        """Advance ``n`` slots with blocked draws, snapshotting rows.

        Bit-identical to ``n`` successive :meth:`step` calls: the
        ``(n, L, 2, M, M)`` draw fills in C order (slot-major), so it
        consumes the shared stream exactly as ``n`` per-slot draws
        would, and the scaled innovations are precomputed with the same
        elementwise expressions ``step`` uses — only the inherently
        sequential AR(1) fold (two ndarray ops per slot; floating-point
        non-associativity forbids compressing it) stays in the loop,
        through two ping-pong scratch buffers (``np.multiply``/
        ``np.add`` with ``out=`` — the same ufuncs, the same rounding).
        ``keep`` is a sorted list of offsets in ``[0, n)`` (the event
        kernel passes its ack-slot offsets): after each, the stack rows
        ``keep_rows`` — the (client, AP) rows the caller tracks — are
        gathered into ``snap_out[i]`` of a preallocated
        ``(len(keep), len(keep_rows), M, M)`` buffer (``np.take`` with
        ``out=``).  Callers must hold ``rho`` fixed across the block —
        the kernel ends spans at mobility events.
        """
        if n < 0:
            raise ValueError("cannot step backwards")
        if not self._keys:  # no links: nothing to draw or snapshot
            return
        m = self._m
        L = len(self._keys)
        rho = self._rho_vec
        stack = self.stack
        mul, add = np.multiply, np.add
        bufs = (np.empty_like(stack), np.empty_like(stack))
        keep_iter = iter(keep)
        want = next(keep_iter, None)
        kept = 0
        # Draw and scale in bounded chunks so the innovation block stays
        # cache-resident through the fold.  Sequential chunked draws
        # consume the shared stream exactly as one blocked draw does
        # (the same C-order fill lemma), so this is invisible to the
        # bitstream.
        chunk = 256
        for c0 in range(0, n, chunk):
            cn = min(chunk, n - c0)
            draws = self._shared_rng.standard_normal((cn, L, 2, m, m))
            w = self._gain_scale * (draws[:, :, 0] + 1j * draws[:, :, 1])
            sw = self._scale_vec * w
            for i in range(cn):
                nxt = bufs[(c0 + i) & 1]
                mul(rho, stack, out=nxt)
                add(nxt, sw[i], out=nxt)
                stack = nxt
                if want == c0 + i:
                    np.take(stack, keep_rows, axis=0, out=snap_out[kept])
                    kept += 1
                    want = next(keep_iter, None)
        if n:
            # Detach the live stack from the scratch buffers.
            self.stack = stack.copy()
            self._stale = True


# --------------------------------------------------------------------- #
# Per-run columnar state
# --------------------------------------------------------------------- #


class _ColumnarState:
    """ndarray mirrors of the simulation's per-client dicts for one run.

    Built fresh at every :func:`run_columnar` entry from the
    simulation's authoritative dicts (so interleaving scalar and
    columnar ``run()`` calls on one deployment stays correct) and folded
    back by :func:`_finalize`.
    """

    __slots__ = (
        "client_ids", "row", "cum_rate", "lat_sum", "lat_n", "backlog",
        "fast_track", "alpha", "drift_threshold",
        "nbytes_flat", "row_ca", "row_ev", "T", "T_valid",
    )

    def __init__(self, sim):
        self.client_ids = list(sim.client_ids)
        self.row = {c: i for i, c in enumerate(self.client_ids)}
        n = len(self.client_ids)
        self.cum_rate = np.zeros(n)
        self.lat_sum = np.zeros(n)
        self.lat_n = np.zeros(n, dtype=np.int64)
        for c, v in sim._cumulative_rate.items():
            self.cum_rate[self.row[c]] = v
        for c, v in sim._latency_sum.items():
            self.lat_sum[self.row[c]] = v
        for c, v in sim._latency_n.items():
            self.lat_n[self.row[c]] = v
        self.backlog = np.zeros(n, dtype=np.int64)
        for packet in sim.queue._queue:
            self.backlog[self.row[packet.client_id]] += 1

        columnar_fading = isinstance(sim.fading, ColumnarFadingNetwork)
        fault_free = sim.injector is None
        flat = not sim._banded
        #: Vectorised ack-slot tracking: needs the stacked fading (the
        #: sounding source), a flat channel and no fault injection (ack
        #: loss, corruption, quarantine refresh and the lossy hub all
        #: stay on the scalar reference path).  The same preconditions
        #: gate fancy-indexed true channels at transmit (a leader crash
        #: under faults would re-seat the transmit APs).
        self.fast_track = columnar_fading and fault_free and flat
        if self.fast_track:
            tracker = sim.subordinates[sim.ap_ids[0]]._tracker
            self.alpha = tracker.alpha
            self.drift_threshold = tracker.drift_threshold
            m = sim.config.n_antennas
            self.nbytes_flat = 4 + 8 * m * m
            rows = sim.fading.rows
            self.row_ca = np.array(
                [[rows[(a, c)] for a in sim.ap_ids] for c in self.client_ids]
            )
            self.row_ev = np.array(
                [[rows[(a, c)] for a in sim.evaluator.aps]
                 for c in self.client_ids]
            )
            a = len(sim.ap_ids)
            self.T = np.zeros((n, a, m, m), dtype=complex)
            self.T_valid = np.zeros((n, a), dtype=bool)
        else:
            self.alpha = self.drift_threshold = 0.0
            self.nbytes_flat = 0
            self.row_ca = self.row_ev = None
            self.T = self.T_valid = None


class _Pending:
    """A slot paused between selector ``propose`` and ``resolve``."""

    __slots__ = ("slot", "proposal")

    def __init__(self, slot, proposal):
        self.slot = slot
        self.proposal = proposal


# --------------------------------------------------------------------- #
# Vectorised slot pieces
# --------------------------------------------------------------------- #


def _track_fast(sim, state: _ColumnarState, slot: int) -> None:
    """One ack slot of drift tracking, batched over every (client, AP).

    Bit-equivalent to :meth:`WLANSimulation._track_channels` on the
    fault-free flat path: gather current estimates and fresh soundings,
    one broadcast exponential smoothing, one batched relative-Frobenius
    drift decision (:func:`frobenius_norms` pins the accumulation
    order), then a short Python pass that stores the smoothed estimates
    back into the trackers and walks only the *drifted* pairs through
    the exact scalar report path (``LeaderAP.handle_update`` — version
    bump, update-byte and quarantine bookkeeping included).
    """
    if slot % sim.config.ack_period:
        return
    active = sorted(sim._active)
    if not active:
        sim.stats.update_bytes = (
            sim._update_bytes_base + sim.leader.update_bytes
        )
        return
    rows = [state.row[c] for c in active]
    ap_ids = sim.ap_ids
    # Resync mirror rows invalidated by churn (fresh association state).
    for c, r in zip(active, rows):
        if not state.T_valid[r].all():
            for j, a in enumerate(ap_ids):
                state.T[r, j] = sim.subordinates[a].channel_to(c)
            state.T_valid[r] = True
    m = state.T.shape[-1]
    cur = state.T[rows].reshape(-1, m, m)
    h_new = sim.fading.stack[state.row_ca[rows].ravel()]
    smoothed = state.alpha * h_new + (1.0 - state.alpha) * cur
    num = frobenius_norms(smoothed - cur, batch_ndim=1)
    den = frobenius_norms(cur, batch_ndim=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den == 0, np.inf, num / den)
    drifted = (ratio > state.drift_threshold).tolist()
    state.T[rows] = smoothed.reshape(len(rows), len(ap_ids), m, m)
    estimate_maps = [sim.subordinates[a]._tracker._estimates for a in ap_ids]
    handle_update = sim.leader.handle_update
    n_reports = 0
    p = 0
    for c in active:
        for j, a in enumerate(ap_ids):
            h = smoothed[p]
            estimate_maps[j][c] = ChannelEstimate(h=h)
            if drifted[p]:
                # The leader keeps a report's matrix until the next one
                # for that (client, AP): a copy, so it does not pin this
                # slot's whole smoothed stack in memory.
                handle_update(ChannelUpdate(ap_id=a, client_id=c, h=h.copy()))
                n_reports += 1
            p += 1
    sim.stats.drift_reports += n_reports
    sim.stats.update_bytes = sim._update_bytes_base + sim.leader.update_bytes


def _apply_arrivals_fast(sim, state: _ColumnarState, slot: int) -> None:
    """Enqueue this slot's arrivals from the vectorised count array.

    Consumes the traffic RNG identically to
    :meth:`WLANSimulation._apply_arrivals` (the models' ``arrival_counts``
    contract) and enqueues in the same sorted-client order, so the queue
    — and therefore the whole trajectory — matches packet for packet.
    """
    active = sorted(sim._active)
    counts = sim.traffic.arrival_counts(slot, active, sim._traffic_rng)
    total = int(counts.sum())
    if not total:
        return
    push = sim.queue.push
    for c, k in zip(active, counts):
        if not k:
            continue
        row = state.row[c]
        for _ in range(int(k)):
            sim._seq += 1
            push(QueuedPacket(client_id=int(c), seq=sim._seq,
                              enqueued_slot=slot))
        state.backlog[row] += int(k)
    sim.stats.offered_packets += total


def _resync_after_churn(sim, state: _ColumnarState, events) -> None:
    """Refresh the mirrors after scalar churn handling touched the queue."""
    state.backlog[:] = 0
    for packet in sim.queue._queue:
        state.backlog[state.row[packet.client_id]] += 1
    if state.T_valid is not None:
        for event in events:
            state.T_valid[state.row[event.client]] = False


def _transmit_fast(sim, state: _ColumnarState, group) -> Dict[int, float]:
    """Aligned-group transmission with fancy-indexed true channels.

    Replicates :meth:`WLANSimulation._transmit_group` exactly — the
    interference-floor scaling, the staleness accounting and the rate
    dict are the same expressions — but gathers the group's true
    channels straight from the fading stack and decodes through
    :meth:`~repro.engine.ColumnarGroupEvaluator.transmit_sinrs_fast`,
    skipping the ChannelSet/dict construction of the scalar path.
    """
    group = tuple(group)
    if len(group) < 3:
        return {c: 0.0 for c in group}
    evaluator = sim.evaluator
    if not (
        state.fast_track
        and isinstance(evaluator, ColumnarGroupEvaluator)
        and evaluator.flat_capable(group[0])
    ):
        return sim._transmit_group(group)
    cols = [state.row[c] for c in group]
    h_true = sim.fading.stack[state.row_ev[cols].T]
    actual, ideal = evaluator.transmit_sinrs_fast(group, h_true)
    if sim._interference:
        scale = np.array(
            [1.0 + sim._interference.get(int(c), 0.0) for c in group]
        )
        actual = actual / scale
        ideal = ideal / scale
    sim.stats.staleness_loss_db += max(
        0.0, 10 * np.log10((1 + ideal.min()) / (1 + actual.min()))
    )
    # One vectorised log2 over the group (elementwise-identical to the
    # scalar path's per-client ``np.log2``).
    lg = np.log2(1.0 + actual).tolist()
    return dict(zip(group, lg))


# --------------------------------------------------------------------- #
# The slot, split at the selector's propose/resolve seam
# --------------------------------------------------------------------- #


def _begin_slot(sim, state: _ColumnarState, track: bool,
                saturated: bool) -> Optional[_Pending]:
    """Everything up to (and including) the selector's ``propose``.

    Returns a :class:`_Pending` when the slot needs group scoring — the
    seam where :func:`repro.sim.events.run_stacked` batches many
    simulations' solves —
    and ``None`` when the slot completed here (idle, point-to-point or
    backplane-degraded service).
    """
    slot = sim._slot
    sim._slot += 1
    if sim.hub is not None:
        sim.hub.tick()
    if (
        sim.injector is not None
        and sim.injector.crash_due(slot)
        and len(sim.ap_ids) > 1
    ):
        sim._crash_leader(slot)
    sim.fading.step()
    if sim.churn is not None:
        n_events = len(sim.stats.events)
        sim._apply_churn(slot)
        if len(sim.stats.events) > n_events:
            _resync_after_churn(sim, state, sim.stats.events[n_events:])
    if sim.mobility is not None:
        sim._apply_mobility(slot)
    if track:
        if state.fast_track:
            _track_fast(sim, state, slot)
        else:
            sim._track_channels(slot)
    if not saturated:
        _apply_arrivals_fast(sim, state, slot)
    depth = len(sim.queue)
    sim.stats.queue_depth_total += depth
    if depth > sim.stats.max_queue_depth:
        sim.stats.max_queue_depth = depth
    if not depth:
        sim.stats.idle_slots += 1
        return None
    p2p_only = sim.config.service == "p2p" or sim._degraded
    if not p2p_only and int(np.count_nonzero(state.backlog)) >= 3:
        if sim.injector is not None and not sim._backplane_data_ready():
            sim.stats.fallback_slots += 1
            served = (sim.queue.head().client_id,)
            rates = sim._serve_head_alone(served[0])
            _serve(sim, state, served, rates, slot, saturated)
            return None
        return _Pending(slot, sim.selector.propose(sim.queue))
    if sim._degraded and sim.config.service == "iac":
        sim.stats.fallback_slots += 1
    served = (sim.queue.head().client_id,)
    rates = sim._serve_head_alone(served[0])
    _serve(sim, state, served, rates, slot, saturated)
    return None


def _finish_slot(sim, state: _ColumnarState, pending: _Pending,
                 saturated: bool) -> None:
    """Resolve the proposed groups, transmit and account the slot."""
    served = tuple(sim.selector.resolve(pending.proposal, sim.evaluator))
    if any(sim.leader.is_quarantined(c) for c in served):
        sim.stats.fallback_slots += 1
        served = (sim.queue.head().client_id,)
        rates = sim._serve_head_alone(served[0])
    else:
        rates = _transmit_fast(sim, state, served)
    _serve(sim, state, served, rates, pending.slot, saturated)


def _serve(sim, state: _ColumnarState, served, rates, slot: int,
           saturated: bool) -> None:
    """Pop, account and (under saturation) replenish each served client."""
    for c in served:
        packet = sim.queue.pop_client(c)
        i = state.row[c]
        state.cum_rate[i] += rates.get(c, 0.0)
        sim.stats.delivered_packets += 1
        if packet is not None:
            state.backlog[i] -= 1
            waited = float(slot - packet.enqueued_slot)
            sim.stats.latency_slots_total += waited
            state.lat_sum[i] += waited
            state.lat_n[i] += 1
        if saturated:
            sim._seq += 1
            sim.queue.push(
                QueuedPacket(client_id=int(c), seq=sim._seq,
                             enqueued_slot=slot + 1)
            )
            state.backlog[i] += 1


def _finalize(sim, state: _ColumnarState, n_slots: int):
    """Fold the ndarray mirrors back into the simulation's dicts."""
    sim.stats.slots += n_slots
    if sim.hub is not None:
        sim.stats.frames_lost_backplane = sim.hub.frames_lost
        sim.stats.frames_delayed_backplane = sim.hub.frames_delayed
    row = state.row
    sim._cumulative_rate = {
        c: float(state.cum_rate[row[c]]) for c in state.client_ids
    }
    sim._latency_sum = {
        c: float(state.lat_sum[row[c]])
        for c in state.client_ids
        if state.lat_n[row[c]] > 0
    }
    sim._latency_n = {
        c: int(state.lat_n[row[c]])
        for c in state.client_ids
        if state.lat_n[row[c]] > 0
    }
    # max(..., 1): a zero-slot first run has nothing to average (and
    # every cumulative rate is still 0.0).
    slots = max(sim.stats.slots, 1)
    sim.stats.per_client_rate = {
        c: total / slots for c, total in sim._cumulative_rate.items()
    }
    sim.stats.per_client_latency = {
        c: sim._latency_sum[c] / sim._latency_n[c]
        for c in sorted(sim._latency_n)
    }
    return sim.stats


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #


def run_columnar(sim, n_slots: int, track: bool = True):
    """Columnar execution of ``sim.run(n_slots, track)``, slot by slot.

    Same trajectory, same RNG stream consumption, bit-identical
    :class:`~repro.sim.wlan.WLANStats`; the production driver is this
    loop plus idle-span skipping (:func:`repro.sim.events.run_event`).
    """
    state = _ColumnarState(sim)
    saturated = sim.traffic.saturated
    for _ in range(n_slots):  # repro-lint: ignore[no-python-slot-loop]
        pending = _begin_slot(sim, state, track, saturated)
        if pending is not None:
            _finish_slot(sim, state, pending, saturated)
    return _finalize(sim, state, n_slots)


def run_columnar_reference(sim, n_slots: int, track: bool = True):
    """The scalar reference loop (the engine-pair bit-identity oracle;
    the full oracle when ``sim`` is a ``ReferenceWLANSimulation``)."""
    return sim._run_scalar(n_slots, track)


def _shared_solve(sims, pendings) -> None:
    """One stacked alignment solve across many simulations' proposals.

    Gathers every participating simulation's not-yet-cached candidate
    groups, concatenates their believed-channel stacks and runs a single
    :func:`solve_downlink_three_batch`, scattering the entries back into
    each evaluator's cache.  Batch-slice invariance of the solver makes
    each simulation's entries bit-identical to solving alone, so the
    subsequent per-simulation ``resolve`` is pure cache hits.  Only
    flat-capable :class:`ColumnarGroupEvaluator` instances with a common
    noise power participate; everyone else simply solves at resolve
    time, exactly as when running unstacked.
    """
    chunks: List[Tuple[ColumnarGroupEvaluator, list, list]] = []
    blocks: List[np.ndarray] = []
    for sim, pending in zip(sims, pendings):
        if pending is None or not pending.proposal.groups:
            continue
        evaluator = sim.evaluator
        if not isinstance(evaluator, ColumnarGroupEvaluator):
            continue
        groups = evaluator.uncached(pending.proposal.groups)
        if not groups or not evaluator.flat_capable(groups[0][0]):
            continue
        h, versions = evaluator.stack_believed(groups)
        chunks.append((evaluator, groups, versions))
        blocks.append(h)
    if not blocks:
        return
    noise_powers = {chunk[0].noise_power for chunk in chunks}
    if len(noise_powers) != 1:
        return
    h_all = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
    encodings, rates, sinrs, w_bel = solve_downlink_three_batch(
        h_all, noise_powers.pop(), return_filters=True
    )
    offset = 0
    for (evaluator, groups, versions), h in zip(chunks, blocks):
        g = h.shape[0]
        evaluator.insert_solved(
            groups, versions,
            encodings[offset:offset + g],
            rates[offset:offset + g],
            sinrs[offset:offset + g],
            w_bel[offset:offset + g],
        )
        offset += g
