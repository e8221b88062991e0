"""The production slot driver: skip the slots where nothing happens.

:func:`run_stacked` executes ``WLANSimulation.run`` by advancing
simulated time in jumps, for one simulation or for many at once,
pooling the solves of those that wake on the same slot.  A
slot-synchronous loop pays for every slot even when the queue is empty
and no process fires — exactly the regime dynamic, non-saturated
workloads live in.  This driver instead maintains a priority queue of
*wake-up points* — packet
arrivals, churn joins/leaves, mobility epoch changes, sounding
deadlines, fault events (leader crashes, delayed backplane frames
maturing) and run-end barriers — and skips the idle span between them in
one vectorised batch.  Every woken slot runs the full columnar per-slot
path (:func:`repro.sim.columnar._begin_slot` /
:func:`~repro.sim.columnar._finish_slot`), which stays the single source
of intra-slot ordering truth.

**The contract is bit-identity**, the repo's strictest:
``WLANStats.digest()`` — every counter, rate and event-log entry — must
equal the slot-loop reference
(:class:`~repro.sim.wlan.ReferenceWLANSimulation`) for every (seed,
config, fault plan).  Skipping is therefore an exercise in RNG-stream bookkeeping,
built on one lemma: numpy ``Generator`` output buffers fill
element-by-element in C order, so *one blocked draw of n slots' worth
consumes the bitstream identically to n sequential per-slot draws*.
Concretely, per idle span:

* **Scan** — each stochastic stream (traffic, churn, mobility) is
  checkpointed (``rng.bit_generator.state``), block-drawn
  ``(B, width)`` slots ahead, and scanned for its first eventful slot
  (the models' ``scan_quiet`` hooks encode the exact per-model
  predicates — e.g. a zero-budget churn slot cannot produce leaves no
  matter what it draws).  Block sizes double geometrically
  (:data:`_BLOCK_MIN` → :data:`_BLOCK_MAX`), bounded by the earliest
  static deadline.
* **Rollback** — when a stream's scan overdraws past the earliest
  event, its checkpoint is restored and exactly ``j`` quiet slots'
  worth is re-consumed with a single blocked ``replay`` call (same
  lemma, run in reverse), leaving the stream positioned exactly where
  the per-slot loop would have left it.
* **Fading** — drawn *after* the jump width is known: the shared
  fading/selector stream is only touched by fading during idle slots
  (the selector never runs), so
  :meth:`~repro.sim.columnar.ColumnarFadingNetwork.step_block` draws
  the whole span in one call and folds the AR(1) recurrence at two
  ndarray ops per slot, no rollback needed.
* **Sounding** — on the fault-free flat path, ack slots inside a span
  are tracked *in-span*: the per-ack exponential smoothing recurrence
  runs on stack snapshots, the relative-Frobenius drift decisions are
  batched across all of the span's ack slots in one
  :func:`frobenius_norms` call (its pinned per-matrix accumulation
  makes the stacked norms equal the per-ack ones to the ulp), drifted
  pairs walk ``LeaderAP.handle_update`` in exact (ack, client, AP)
  order, and the tracker-dict writes — which the scalar loop repeats
  every ack slot, each overwriting the last — are deferred to a single
  flush at run end (churned clients are evicted from the pending set,
  since their entries were forgotten or re-sounded fresh).  Under
  fault injection, ack slots are barriers instead (the scalar ack path
  draws fault RNG).
* **Clocks** — the Ethernet hub's clock jumps via
  :meth:`~repro.net.ethernet.EthernetHub.advance`; any pending delayed
  frame turns its maturity slot into a barrier, so deliveries land at
  exactly the scalar tick.

Determinism of the queue itself: heap keys are ``(time, seq, kind)``
tuples of ints — ``seq`` is a monotone push counter, so pops are totally
ordered even when events tie on time (and no float ever enters a key;
the ``event-key-total-order`` lint rule bans that for all of
``repro.sim``).  Because every woken slot replays the *full* per-slot
path, the queue only decides *when* to wake, never what order intra-slot
work runs in — which is what makes ``seq`` ranking ahead of ``kind``
safe.

Saturated traffic never idles, so every slot is processed — the
per-slot columnar path of :func:`~repro.sim.columnar.run_columnar`, the
``>= 1x`` at saturation guarantee by construction.  Wideband (banded)
channels and non-scannable traffic states (a bursty chain with an ON
client) fall back to the per-slot columnar path — slower, never wrong.

Equivalence contract: ``run_stacked`` must equal
``run_stacked_reference`` on the reference twins (fresh sims either
way) field for field — pinned by the
``tests/sim/test_*_equivalence.py`` suites, the golden-digest corpus
and the ``engine-pair`` lint rule.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.association import ChannelUpdate
from repro.phy.channel.estimation import ChannelEstimate, frobenius_norms
from repro.sim.columnar import (
    ColumnarFadingNetwork,
    _begin_slot,
    _ColumnarState,
    _finalize,
    _finish_slot,
    _shared_solve,
)

__all__ = [
    "EVENT_KINDS",
    "EventQueue",
    "run_stacked",
    "run_stacked_reference",
]

# ---------------------------------------------------------------------- #
# Event taxonomy
# ---------------------------------------------------------------------- #

#: Event kinds, smallest-first in the heap's final tiebreak position.
#: Integers (never floats) so heap keys are totally ordered by
#: construction; the names are the taxonomy ARCHITECTURE §1.7 documents.
ARRIVAL = 0      #: first slot a traffic scan found arrivals in
CHURN = 1        #: first slot a churn scan found a join/leave in
MOBILITY = 2     #: first slot a mobility scan found a transition in
SOUNDING = 3     #: next ack-period deadline (barrier when not fast-track)
FAULT = 4        #: leader-crash slot or delayed-frame maturity barrier
BARRIER = 5      #: run end (and any caller-imposed stop)

EVENT_KINDS = {
    ARRIVAL: "arrival",
    CHURN: "churn",
    MOBILITY: "mobility",
    SOUNDING: "sounding",
    FAULT: "fault",
    BARRIER: "barrier",
}

#: Geometric scan-block bounds: start small (an event in the first few
#: slots must not pay for a huge overdraw), double while quiet.
_BLOCK_MIN = 8
_BLOCK_MAX = 4096


class EventQueue:
    """Min-heap of ``(time, seq, kind)`` — deterministic under ties.

    All three key fields are ints.  ``time`` is the absolute slot,
    ``seq`` a monotone push counter, ``kind`` one of
    :data:`EVENT_KINDS`.  Ranking ``seq`` before ``kind`` is safe
    because events are pure wake-up points: the woken slot always runs
    the complete per-slot path, which owns intra-slot ordering.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap: List[Tuple[int, int, int]] = []
        self._seq = 0

    def push(self, time: int, kind: int) -> None:
        heapq.heappush(self._heap, (int(time), self._seq, int(kind)))
        self._seq += 1

    def pop(self) -> Tuple[int, int, int]:
        return heapq.heappop(self._heap)

    def peek(self) -> Tuple[int, int, int]:
        return self._heap[0]

    def clear(self) -> None:
        # seq keeps counting across spans: uniqueness is the invariant.
        del self._heap[:]


# ---------------------------------------------------------------------- #
# The kernel
# ---------------------------------------------------------------------- #


class _EventKernel:
    """One simulation's run: its :class:`_ColumnarState` plus the
    skipping machinery, advancing slots ``[start, end)``."""

    __slots__ = (
        "sim", "state", "track", "start", "end", "watch_churn", "queue",
        "can_skip", "processed_slots", "skipped_slots", "_dirty",
        "_dirty_clients",
    )

    def __init__(self, sim, n_slots: int, track: bool):
        self.sim = sim
        self.state = _ColumnarState(sim)
        self.track = track
        self.start = sim._slot
        self.end = sim._slot + n_slots
        # Deferred tracker flush vs churn: a client that leaves (the
        # scalar loop forgot its estimate) or re-joins (re-sounded fresh)
        # has a stale pending in-span estimate, so :meth:`complete_slot`
        # evicts it at the churn slot; a later ack re-adds it.
        self.watch_churn = (
            track and self.state.fast_track and sim.churn is not None
        )
        self.queue = EventQueue()
        # Span skipping needs the stacked flat fading (step_block) —
        # wideband runs take the per-slot path for every slot.
        self.can_skip = (
            isinstance(sim.fading, ColumnarFadingNetwork)
            and not sim._banded
        )
        self.processed_slots = 0
        self.skipped_slots = 0
        #: Tracker-dict writes deferred by in-span sounding; flushed
        #: once at run end.  Safe because on the fast-track path (no
        #: injector, so no crash and no lossy hub) nothing reads a
        #: subordinate tracker's estimate mid-run except the T-invalid
        #: resync, which only touches freshly (re-)joined clients —
        #: and those are evicted from the pending set at their churn
        #: slot.
        self._dirty = False
        self._dirty_clients: set = set()

    # ------------------------------ spans ----------------------------- #

    def skip_idle(self) -> None:
        """Jump ``sim._slot`` to the next wake-up point, if any gap exists.

        A no-op unless the current slot is skippable: empty queue,
        scannable traffic state, stacked flat fading.  On return the
        simulation's RNG streams, fading stack, hub clock, tracker state
        and stats are exactly as if the scalar loop had executed every
        skipped slot (each of which it would have found idle).
        """
        sim = self.sim
        if not self.can_skip or len(sim.queue):
            return
        active = sorted(sim._active)
        if not sim.traffic.can_scan(active):
            return
        t = sim._slot
        q = self.queue
        q.clear()
        q.push(self.end, BARRIER)
        if sim.injector is not None:
            crash = sim.injector.plan.leader_crash_slot
            if crash is not None and t <= crash and len(sim.ap_ids) > 1:
                q.push(crash, FAULT)
            if sim.hub is not None:
                due = sim.hub.next_due()
                if due is not None:
                    # The tick at slot due-1 delivers the frame: barrier.
                    q.push(due - 1, FAULT)
        fast_track = self.state.fast_track
        if self.track and not fast_track:
            # Faulted ack slots draw fault RNG on the scalar path; make
            # each one a wake-up point instead of tracking in-span.
            period = sim.config.ack_period
            next_ack = t + (-t) % period
            q.push(next_ack, SOUNDING)
        bound = q.peek()[0]
        if bound <= t:
            return
        # Scan the stochastic streams across [t, bound) in doubling
        # blocks; the first eventful slot found becomes a wake-up point
        # and caps the jump.
        inactive = [c for c in sim.client_ids if c not in sim._active]
        cursor = t
        block = _BLOCK_MIN
        while cursor < bound:
            n = min(block, bound - cursor)
            hit = self._scan_block(n, active, inactive)
            if hit is not None:
                off, kinds = hit
                for kind in kinds:
                    q.push(cursor + off, kind)
                break
            cursor += n
            block = min(block * 2, _BLOCK_MAX)
        wake = q.pop()[0]
        if wake > t:
            self._skip(t, wake, active)

    def _scan_block(
        self, n: int, active: List[int], inactive: List[int],
    ) -> Optional[Tuple[int, List[int]]]:
        """Scan every stochastic stream ``n`` slots ahead.

        Returns ``None`` when all streams are quiet for the whole block
        (each consumed exactly ``n`` slots' worth), else
        ``(j, kinds)``: the offset of the earliest event and the kinds
        that fire there — with every stream checkpoint-restored and
        replayed to sit exactly at slot ``start + j``.

        Traffic scans first and short-circuits: an arrival at offset 0
        (the common case under load) returns before the churn/mobility
        streams are touched at all.
        """
        sim = self.sim
        scanned = []  # (rng, checkpoint, model, args, width_scanned, off)
        j = n

        def scan(rng, model_scan, model_replay, args, kind):
            nonlocal j
            width = j  # never scan past the current minimum
            if not width:
                return
            ck = rng.bit_generator.state
            off = model_scan(width, *args, rng)
            scanned.append((rng, ck, model_replay, args, width, off, kind))
            if off < j:
                j = off

        scan(sim._traffic_rng, sim.traffic.scan_quiet, sim.traffic.replay,
             (active,), ARRIVAL)
        if j and sim.churn is not None:
            scan(sim._churn_rng, sim.churn.scan_quiet, sim.churn.replay,
                 (active, inactive), CHURN)
        if j and sim.mobility is not None:
            scan(sim._mobility_rng, sim.mobility.scan_quiet,
                 sim.mobility.replay, (active,), MOBILITY)
        if j == n:
            return None
        kinds = []
        for rng, ck, replay, args, width, off, kind in scanned:
            if width != j:
                # Overdrawn: unwind, then re-consume exactly j quiet
                # slots' worth in one blocked call.
                rng.bit_generator.state = ck
                replay(j, *args, rng)
            if off == j:
                kinds.append(kind)
        return j, kinds

    def _skip(self, t: int, wake: int, active: List[int]) -> None:
        """Execute the jump: ``[t, wake)`` verified all-idle, all-quiet."""
        sim = self.sim
        state = self.state
        j = wake - t
        acks: List[int] = []
        if self.track and state.fast_track:
            period = sim.config.ack_period
            first = t + (-t) % period
            if first < wake:
                acks = list(range(first - t, j, period))
        if acks and active:
            rows = [state.row[c] for c in active]
            flat_rows = state.row_ca[rows].reshape(-1)
            m = state.T.shape[-1]
            ack_h = np.empty(
                (len(acks), len(flat_rows), m, m), dtype=state.T.dtype
            )
            sim.fading.step_block(
                j, keep=acks, keep_rows=flat_rows, snap_out=ack_h
            )
            self._track_span(ack_h, active, rows)
        else:
            sim.fading.step_block(j)
            if acks:
                # No active clients: the scalar ack path still
                # refreshes update_bytes every ack slot (same value
                # each time — nothing can change it in between).
                sim.stats.update_bytes = (
                    sim._update_bytes_base + sim.leader.update_bytes
                )
        sim.stats.idle_slots += j
        # queue_depth_total accrues zero per empty slot; max unchanged.
        if sim.hub is not None:
            sim.hub.advance(j)
        sim._slot = wake
        self.skipped_slots += j

    @property
    def offset(self) -> int:
        """Slots this run has advanced (processed or skipped) so far."""
        return self.sim._slot - self.start

    def complete_slot(self, pending, events_before: int) -> None:
        """Finish the woken slot, then jump to the next wake-up point."""
        sim = self.sim
        if pending is not None:
            _finish_slot(sim, self.state, pending, sim.traffic.saturated)
        if self.watch_churn:
            events = sim.stats.events
            for i in range(events_before, len(events)):
                if events[i].kind in ("join", "leave"):
                    self._dirty_clients.discard(events[i].client)
        self.processed_slots += 1
        self.skip_idle()

    def finish(self):
        """Flush deferred tracker writes and fold the run's stats back."""
        self._flush()
        self.sim.last_event_summary = {
            "processed_slots": self.processed_slots,
            "skipped_slots": self.skipped_slots,
        }
        return _finalize(self.sim, self.state, self.end - self.start)

    # ---------------------------- sounding ---------------------------- #

    def _track_span(self, ack_h: np.ndarray, active: List[int],
                    rows: List[int]) -> None:
        """In-span ack tracking: ``_track_fast`` batched over K ack slots.

        ``ack_h`` is a ``(K, P, M, M)`` buffer holding the tracked
        (client, AP) fading rows at each of the span's K ack slots,
        gathered by ``step_block`` (it is consumed in place here).
        The exponential-smoothing recurrence is inherently sequential
        across ack slots, but everything around it is not: the
        smoothing trajectory lands in one preallocated ``(K+1, P, M,
        M)`` buffer (slot k's priors are slot k-1's smoothed rows — as
        views, not copies), all K drift decisions go through one
        pinned-order :func:`frobenius_norms` call for the numerators
        and one for the denominators, and only drifted pairs walk the
        scalar report path, in exact (ack, client-major, AP) order.
        Tracker-dict stores are deferred (each ack's store overwrites
        the last; only the final smoothed estimate is observable) and
        written by :meth:`_flush` at run end.
        """
        sim = self.sim
        state = self.state
        ap_ids = sim.ap_ids
        if not state.T_valid[rows].all():
            for c, r in zip(active, rows):
                if not state.T_valid[r].all():
                    for jj, a in enumerate(ap_ids):
                        state.T[r, jj] = sim.subordinates[a].channel_to(c)
                    state.T_valid[r] = True
        m = state.T.shape[-1]
        alpha = state.alpha
        beta = 1.0 - alpha
        # One in-place scale covers all K ack slots (``alpha`` is a
        # scalar, so pre-scaling is elementwise-identical to scaling
        # inside the loop); only the sequential half of the smoothing
        # recurrence stays per-ack — two ``out=`` ufunc calls each,
        # same rounding.
        alpha_h = np.multiply(alpha, ack_h, out=ack_h)
        K, P = alpha_h.shape[:2]
        S = np.empty((K + 1, P, m, m), dtype=alpha_h.dtype)
        S[0] = state.T[rows].reshape(P, m, m)
        mul, add = np.multiply, np.add
        cur = S[0]
        for k in range(K):
            nxt = S[k + 1]
            mul(beta, cur, out=nxt)
            add(alpha_h[k], nxt, out=nxt)
            cur = nxt
        num = frobenius_norms(S[1:] - S[:-1], batch_ndim=2)
        den = frobenius_norms(S[:-1], batch_ndim=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den == 0, np.inf, num / den)
        drifted = ratio > state.drift_threshold
        if drifted.any():
            handle_update = sim.leader.handle_update
            n_aps = len(ap_ids)
            n_reports = 0
            for k in np.nonzero(drifted.any(axis=1))[0]:
                for p in np.nonzero(drifted[k])[0]:
                    # A copy: the leader keeps it, and a view would pin
                    # the span's whole smoothing trajectory.
                    handle_update(ChannelUpdate(
                        ap_id=ap_ids[p % n_aps],
                        client_id=active[p // n_aps],
                        h=S[k + 1, p].copy(),
                    ))
                    n_reports += 1
            sim.stats.drift_reports += n_reports
        state.T[rows] = cur.reshape(len(rows), len(ap_ids), m, m)
        self._dirty = True
        self._dirty_clients.update(active)
        # The scalar ack path refreshes update_bytes every ack slot;
        # only the value after the span's last ack is observable.
        sim.stats.update_bytes = (
            sim._update_bytes_base + sim.leader.update_bytes
        )

    def _flush(self) -> None:
        """Write deferred tracker estimates back at run end.

        The stored arrays are *copies* of the mirror rows: ``state.T``
        is scattered into in place at later ack slots, and the scalar
        contract is that earlier estimates stay frozen for whoever
        holds them.  Clients that churned since their last in-span ack
        were evicted from the pending set (their dict entries were
        removed or re-associated fresh — exactly what the scalar loop
        leaves behind).
        """
        if not self._dirty:
            return
        sim = self.sim
        state = self.state
        estimate_maps = [
            sim.subordinates[a]._tracker._estimates for a in sim.ap_ids
        ]
        for c in sorted(self._dirty_clients):
            r = state.row[c]
            for jj in range(len(sim.ap_ids)):
                estimate_maps[jj][c] = ChannelEstimate(
                    h=state.T[r, jj].copy()
                )
        self._dirty = False
        self._dirty_clients.clear()


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #


def run_stacked(sims: Sequence, n_slots: int, track: bool = True):
    """Advance many independent simulations together, sharing solves.

    Every simulation skips its own idle spans; those that wake on the
    same slot offset run their slot prologue (through the selector's
    draw-complete ``propose``), pool their uncached candidate groups
    into **one** stacked solve (:func:`~repro.sim.columnar._shared_solve`),
    then resolve and finish their slots.  Per-simulation state is fully
    independent and the solver is batch-slice invariant, so the stats
    list is bit-identical to each simulation run alone at any stacking
    width.  ``WLANSimulation.run`` is this call on a one-element list.
    The processed/skipped slot split of each simulation's run is left on
    its ``last_event_summary``.
    """
    kernels = [_EventKernel(sim, n_slots, track) for sim in sims]
    for k in kernels:
        k.skip_idle()
    live = [k for k in kernels if k.sim._slot < k.end]
    while live:
        t = min(k.offset for k in live)
        woken = [k for k in live if k.offset == t]
        marks = [len(k.sim.stats.events) for k in woken]
        pendings = [
            _begin_slot(k.sim, k.state, track, k.sim.traffic.saturated)
            for k in woken
        ]
        if len(woken) > 1:
            _shared_solve([k.sim for k in woken], pendings)
        for k, pending, mark in zip(woken, pendings, marks):
            k.complete_slot(pending, mark)
        live = [k for k in live if k.sim._slot < k.end]
    return [k.finish() for k in kernels]


def run_stacked_reference(sims: Sequence, n_slots: int, track: bool = True):
    """Per-simulation scalar runs (the stacked driver's oracle)."""
    return [sim._run_scalar(n_slots, track) for sim in sims]

