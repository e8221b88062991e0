"""Group evaluators: scalar reference path and the memoised batched engine.

A :class:`GroupEvaluator` scores candidate transmission groups against the
leader's *believed* channels — the quantity the concurrency selectors of
:mod:`repro.mac.concurrency` maximise — and produces the winning
:class:`~repro.core.plans.AlignmentSolution` for the group that actually
transmits.  Two implementations share the interface:

* :class:`ScalarGroupEvaluator` — the reference path: one
  :func:`~repro.core.alignment.solve_downlink_three_packets` +
  :func:`~repro.core.decoder.decode_rate_level` per call, exactly what
  ``WLANSimulation`` inlined before the engine existed;
* :class:`BatchedGroupEvaluator` — stacks all not-yet-cached groups of a
  probe into one ndarray batch (:mod:`repro.engine.batched`) and memoises
  per-group solutions keyed on the channel-map versions of the group's
  clients, so unchanged groups are never re-solved between drift reports.

Evaluators are also plain callables (``evaluator(group) -> rate``), so they
drop into any API expecting the legacy scorer-callable contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.alignment import solve_downlink_three_packets
from repro.core.decoder import decode_rate_level
from repro.core.plans import (
    AlignmentSolution,
    BandedChannelSet,
    ChannelSet,
    DecodeStage,
    PacketSpec,
)
from repro.engine.batched import (
    GROUP_SIZE,
    downlink_sinrs_band,
    downlink_transmit_sinrs,
    downlink_transmit_sinrs_cached,
    downlink_transmit_sinrs_band,
    solve_downlink_three_band,
    solve_downlink_three_batch,
    stack_downlink_channels,
    stack_downlink_channels_band,
)

Group = Tuple[int, ...]

#: How a wideband (banded) evaluator aligns across the subcarrier grid:
#: ``"per_subcarrier"`` solves every bin independently (the §6c
#: conjecture's operating mode); ``"flat_anchor"`` solves once at the
#: band-centre bin and reuses those encoding vectors band-wide (the
#: paper's baseline worry — alignment decays as the band decorrelates).
#: Receivers always decode each bin against that bin's own channels.
ALIGNMENT_MODES = ("per_subcarrier", "flat_anchor")


def _map_n_bins(channel_maps: Mapping[int, Mapping[int, np.ndarray]]) -> int:
    """Bin count of a believed channel map (1 when entries are flat)."""
    first = np.asarray(next(iter(next(iter(channel_maps.values())).values())))
    return first.shape[0] if first.ndim == 3 else 1


def _flatten_one_bin(
    channel_maps: Mapping[int, Mapping[int, np.ndarray]]
) -> Dict[int, Dict[int, np.ndarray]]:
    """Squeeze ``(1, M, M)`` one-bin stacks to flat matrices, so a one-bin
    banded source runs the literal flat (pre-wideband) route."""
    out: Dict[int, Dict[int, np.ndarray]] = {}
    for c, cmap in channel_maps.items():
        flat = {}
        for ap, h in cmap.items():
            h = np.asarray(h)
            flat[ap] = h[0] if h.ndim == 3 else h
        out[c] = flat
    return out


class ChannelSource(ABC):
    """Where an evaluator reads believed channels and their versions.

    ``channel_map(client)`` returns ``{ap_id: (M, M) matrix}`` — or, for
    a wideband deployment whose sounding carries per-subcarrier
    estimates, ``{ap_id: (B, M, M) stack}``; evaluators treat the flat
    matrix as the ``B = 1`` case.  ``channel_version(client)`` returns a
    counter that changes whenever that client's map changes (the
    memoisation key).  The leader AP
    (:class:`repro.mac.association.LeaderAP`) implements this natively;
    :class:`StaticChannelSource` adapts a fixed :class:`ChannelSet` or
    :class:`BandedChannelSet`.
    """

    @abstractmethod
    def channel_map(self, client_id: int) -> Mapping[int, np.ndarray]:
        """Believed downlink channels to ``client_id``, per AP."""

    @abstractmethod
    def channel_version(self, client_id: int) -> int:
        """Monotone counter bumped on every change to the client's map."""


class StaticChannelSource(ChannelSource):
    """A frozen :class:`ChannelSet` or :class:`BandedChannelSet`
    (downlink ``(ap, client)`` keys)."""

    def __init__(self, channels, aps: Sequence[int]):
        self._channels = channels
        self._aps = tuple(aps)

    def channel_map(self, client_id: int) -> Dict[int, np.ndarray]:
        if isinstance(self._channels, BandedChannelSet):
            return {ap: self._channels.h_bins(ap, client_id) for ap in self._aps}
        return {ap: self._channels.h(ap, client_id) for ap in self._aps}

    def channel_version(self, client_id: int) -> int:
        return 0


class GroupEvaluator(ABC):
    """Scores ordered client groups and solves the winning one.

    The order of a group's clients encodes the AP assignment: packet ``i``
    goes from ``aps[i]`` to ``group[i]``.  Groups with fewer than three
    clients cannot align and score 0.0 (the selector still transmits them,
    the solver just has nothing to batch).
    """

    def __init__(
        self,
        source: ChannelSource,
        aps: Sequence[int],
        noise_power: float = 1.0,
        alignment: str = "per_subcarrier",
    ):
        if len(aps) != GROUP_SIZE:
            raise ValueError(f"downlink groups use exactly {GROUP_SIZE} APs")
        if alignment not in ALIGNMENT_MODES:
            raise ValueError(
                f"unknown alignment mode {alignment!r} (expected one of {ALIGNMENT_MODES})"
            )
        self.source = source
        self.aps = tuple(aps)
        self.noise_power = float(noise_power)
        #: Wideband alignment strategy; irrelevant when the source is flat
        #: (one bin *is* its own anchor).
        self.alignment = alignment

    @abstractmethod
    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        """Estimated throughput of every candidate group, in order."""

    @abstractmethod
    def solve(self, group: Group) -> AlignmentSolution:
        """The alignment solution the leader would transmit for ``group``."""

    def evaluate(self, group: Group) -> float:
        return self.evaluate_many([tuple(group)])[0]

    def __call__(self, group: Group) -> float:
        return self.evaluate(group)

    def transmit_sinrs(self, group: Group, true_channels: ChannelSet) -> Tuple[np.ndarray, np.ndarray]:
        """Per-packet SINRs of transmitting ``group`` over true channels.

        Returns ``(actual, ideal)``: receive filters designed from the
        believed channels vs. from the true ones (the genie bound), both
        measured against ``true_channels``.  Packet ``i`` is decoded at
        client ``group[i]``.  The reference implementation runs
        :func:`~repro.core.decoder.decode_rate_level` twice.
        """
        group = tuple(group)
        believed = self._believed(group)
        solution = self.solve(group)
        actual = decode_rate_level(
            solution, true_channels, self.noise_power, estimated_channels=believed
        )
        ideal = decode_rate_level(solution, true_channels, self.noise_power)
        return (
            np.array([r.sinr for r in actual.results]),
            np.array([r.sinr for r in ideal.results]),
        )

    # ------------------------------------------------------------------ #

    def _believed(self, group: Group) -> ChannelSet:
        out = {}
        for c, cmap in _flatten_one_bin(self._group_maps(group)).items():
            for ap, h in cmap.items():
                out[(ap, c)] = h
        return ChannelSet(out)

    def _believed_band(self, group: Group) -> BandedChannelSet:
        out = {}
        for c in group:
            for ap, h in self.source.channel_map(c).items():
                out[(ap, c)] = h
        return BandedChannelSet(out)

    def _group_maps(self, group: Group) -> Dict[int, Mapping[int, np.ndarray]]:
        return {c: self.source.channel_map(c) for c in group}

    def _solution_from_encodings(self, group: Group, encodings: np.ndarray) -> AlignmentSolution:
        packets = [PacketSpec(i, self.aps[i], group[i]) for i in range(GROUP_SIZE)]
        return AlignmentSolution(
            packets=packets,
            encoding={i: encodings[i] for i in range(GROUP_SIZE)},
            schedule=[DecodeStage(rx=group[i], packet_ids=(i,)) for i in range(GROUP_SIZE)],
            cooperative=False,
        )


class ScalarGroupEvaluator(GroupEvaluator):
    """The pre-engine reference path: re-solve every probe from scratch.

    On a banded (wideband) channel source this is the **per-bin scalar
    loop**: every evaluated subcarrier is treated as its own flat
    problem — one :func:`solve_downlink_three_packets` +
    :func:`decode_rate_level` per bin — against which the
    subcarrier-batched engine is equivalence-tested and benchmarked.
    """

    def _is_banded(self, group: Group) -> bool:
        return _map_n_bins(self._group_maps(group)) > 1

    def _band_solutions(
        self, group: Group, believed: BandedChannelSet
    ) -> List[AlignmentSolution]:
        """One alignment solution per bin (the anchor's, repeated, in
        flat-anchor mode)."""
        if self.alignment == "flat_anchor":
            anchor = solve_downlink_three_packets(
                believed.at_bin(believed.n_bins // 2),
                aps=self.aps, clients=group, noise_power=self.noise_power,
            )
            return [anchor] * believed.n_bins
        return [
            solve_downlink_three_packets(
                believed.at_bin(b),
                aps=self.aps, clients=group, noise_power=self.noise_power,
            )
            for b in range(believed.n_bins)
        ]

    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        rates = []
        for group in groups:
            group = tuple(group)
            if len(group) < GROUP_SIZE:
                rates.append(0.0)
                continue
            if self._is_banded(group):
                believed = self._believed_band(group)
                solutions = self._band_solutions(group, believed)
                rates.append(
                    float(np.mean([
                        decode_rate_level(
                            sol, believed.at_bin(b), noise_power=self.noise_power
                        ).total_rate
                        for b, sol in enumerate(solutions)
                    ]))
                )
                continue
            believed = self._believed(group)
            solution = solve_downlink_three_packets(
                believed, aps=self.aps, clients=group, noise_power=self.noise_power
            )
            rates.append(
                decode_rate_level(solution, believed, noise_power=self.noise_power).total_rate
            )
        return rates

    def solve(self, group: Group) -> AlignmentSolution:
        """The flat solution (banded sources: the anchor bin's)."""
        group = tuple(group)
        if self._is_banded(group):
            believed = self._believed_band(group)
            return solve_downlink_three_packets(
                believed.at_bin(believed.n_bins // 2),
                aps=self.aps, clients=group, noise_power=self.noise_power,
            )
        return solve_downlink_three_packets(
            self._believed(group), aps=self.aps, clients=group,
            noise_power=self.noise_power,
        )

    def transmit_sinrs(self, group: Group, true_channels) -> Tuple[np.ndarray, np.ndarray]:
        """Reference transmission decode; banded sources loop the bins.

        With a banded source ``true_channels`` must be a
        :class:`BandedChannelSet`; the return arrays are ``(B, 3)``.
        """
        group = tuple(group)
        if not self._is_banded(group):
            return super().transmit_sinrs(group, true_channels)
        believed = self._believed_band(group)
        solutions = self._band_solutions(group, believed)
        actual = np.empty((believed.n_bins, GROUP_SIZE))
        ideal = np.empty((believed.n_bins, GROUP_SIZE))
        for b, sol in enumerate(solutions):
            true_b = true_channels.at_bin(b)
            report = decode_rate_level(
                sol, true_b, self.noise_power,
                estimated_channels=believed.at_bin(b),
            )
            genie = decode_rate_level(sol, true_b, self.noise_power)
            actual[b] = [r.sinr for r in report.results]
            ideal[b] = [r.sinr for r in genie.results]
        return actual, ideal


@dataclass
class _CacheEntry:
    versions: Tuple[int, ...]
    rate: float
    #: Unit-norm encoding vectors: ``(3, M)`` on flat sources (also the
    #: flat-anchor band solution, broadcast at transmit time); ``(B, 3, M)``
    #: per-bin on banded sources in per-subcarrier mode.
    encodings: np.ndarray
    sinrs: np.ndarray  # (3,) flat, (B, 3) banded
    #: Believed-design max-SINR receive filters of the winning candidate
    #: (``(3, M)``, flat solves only) — reused by the transmit decode via
    #: :func:`~repro.engine.batched.downlink_transmit_sinrs_cached` so it
    #: skips redesigning them.  ``None`` on banded entries.
    w_bel: "np.ndarray | None" = None
    #: Source ``version_epoch`` at which ``versions`` was last confirmed
    #: current (``-1`` when the source has no epoch counter).  Epoch
    #: unchanged implies *no* client's version changed, so revalidation
    #: can skip polling every member — same hit/miss decisions, cheaper.
    validated_epoch: int = -1


class BatchedGroupEvaluator(GroupEvaluator):
    """Batched + memoised evaluation of candidate downlink groups.

    All groups of one :meth:`evaluate_many` probe that are not already
    cached are solved in a single stacked ``np.linalg`` pass.  Cache key:
    the ordered client tuple; cache validity: the tuple of the clients'
    channel-map versions at solve time.  A drift report bumps one client's
    version and thereby invalidates exactly the cached groups containing
    that client — everything else stays warm across slots.
    """

    def __init__(
        self,
        source: ChannelSource,
        aps: Sequence[int],
        noise_power: float = 1.0,
        alignment: str = "per_subcarrier",
    ):
        super().__init__(source, aps, noise_power, alignment)
        self._cache: Dict[Group, _CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def cache_info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._cache)}

    def _entry(self, group: Group) -> _CacheEntry:
        """Cached entry for ``group``, refusing stale versions.

        Fast path: when the source exposes a global ``version_epoch`` and
        it hasn't moved since this entry was last validated, no client's
        version can have changed, so the per-member version poll is
        skipped — the hit/miss decision is identical either way.
        """
        entry = self._cache.get(group)
        if entry is None:
            raise KeyError(group)
        epoch = getattr(self.source, "version_epoch", None)
        if epoch is not None and entry.validated_epoch == epoch:
            return entry
        versions = tuple(self.source.channel_version(c) for c in group)
        if entry.versions == versions:
            if epoch is not None:
                entry.validated_epoch = epoch
            return entry
        raise KeyError(group)

    def evaluate_many(self, groups: Sequence[Group]) -> List[float]:
        groups = [tuple(g) for g in groups]
        rates: List[float] = [0.0] * len(groups)
        missing: List[Group] = []
        missing_idx: List[List[int]] = []
        position: Dict[Group, int] = {}
        # Inline of :meth:`_entry` without the KeyError control flow
        # (misses dominate under drift; exception dispatch is pure
        # overhead on this per-slot path).  Decisions are identical.
        cache_get = self._cache.get
        epoch = getattr(self.source, "version_epoch", None)
        channel_version = self.source.channel_version
        for i, group in enumerate(groups):
            if len(group) < GROUP_SIZE:
                continue
            if len(group) > GROUP_SIZE:
                raise ValueError(f"group {group} exceeds {GROUP_SIZE} clients")
            entry = cache_get(group)
            if entry is not None:
                if epoch is not None and entry.validated_epoch == epoch:
                    rates[i] = entry.rate
                    self.hits += 1
                    continue
                if entry.versions == tuple(channel_version(c) for c in group):
                    if epoch is not None:
                        entry.validated_epoch = epoch
                    rates[i] = entry.rate
                    self.hits += 1
                    continue
            self.misses += 1
            if group in position:  # duplicate within this probe
                missing_idx[position[group]].append(i)
            else:
                position[group] = len(missing)
                missing.append(group)
                missing_idx.append([i])
        if missing:
            self._solve_batch(missing)
            for group, idxs in zip(missing, missing_idx):
                rate = self._cache[group].rate
                for i in idxs:
                    rates[i] = rate
        return rates

    def _solve_batch(self, groups: Sequence[Group]) -> None:
        clients = {c for g in groups for c in g}
        channel_maps = {c: self.source.channel_map(c) for c in clients}
        versions = {c: self.source.channel_version(c) for c in clients}
        if _map_n_bins(channel_maps) == 1:
            # Flat route (also the wideband n_bins == 1 limit): exactly the
            # pre-wideband computation, preserved bit-identically.
            h = stack_downlink_channels(
                groups, _flatten_one_bin(channel_maps), self.aps
            )
            encodings, rates, sinrs, w_bel = solve_downlink_three_batch(
                h, self.noise_power, return_filters=True
            )
        else:
            w_bel = None
            h = stack_downlink_channels_band(groups, channel_maps, self.aps)
            if self.alignment == "flat_anchor":
                # Solve once at the band-centre anchor, score the stale
                # encodings against every bin's believed channel.
                anchor = h.shape[1] // 2
                encodings, _, _ = solve_downlink_three_batch(
                    h[:, anchor], self.noise_power
                )
                sinrs = downlink_sinrs_band(h, encodings[:, None], self.noise_power)
            else:
                encodings, _, sinrs = solve_downlink_three_band(h, self.noise_power)
            # Band throughput: per-subcarrier sum rate averaged over the
            # evaluated bins (b/s/Hz, comparable across bin counts).
            rates = np.log2(1.0 + sinrs).sum(axis=-1).mean(axis=-1)
        epoch = getattr(self.source, "version_epoch", -1)
        for g, group in enumerate(groups):
            self._cache[group] = _CacheEntry(
                versions=tuple(versions[c] for c in group),
                rate=float(rates[g]),
                encodings=encodings[g],
                sinrs=sinrs[g],
                w_bel=None if w_bel is None else w_bel[g],
                validated_epoch=epoch,
            )

    def _cached_entry(self, group: Group) -> _CacheEntry:
        try:
            entry = self._entry(group)
        except KeyError:
            self.misses += 1
            self._solve_batch([group])
            entry = self._cache[group]
        else:
            self.hits += 1
        return entry

    def solve(self, group: Group) -> AlignmentSolution:
        """The flat solution (banded per-subcarrier: the anchor bin's)."""
        group = tuple(group)
        encodings = self._cached_entry(group).encodings
        if encodings.ndim == 3:
            encodings = encodings[encodings.shape[0] // 2]
        return self._solution_from_encodings(group, encodings)

    def transmit_sinrs(self, group: Group, true_channels) -> Tuple[np.ndarray, np.ndarray]:
        """Batched transmission decode: no per-packet Python machinery.

        Uses the memoised encodings (the selector just scored this group)
        and one vectorised pass over receivers x {believed, true} filter
        designs — see :func:`repro.engine.batched.downlink_transmit_sinrs`.
        On a banded source ``true_channels`` is a
        :class:`BandedChannelSet` and the bins ride along as one more
        batch axis (``(B, 3)`` outputs, see
        :func:`repro.engine.batched.downlink_transmit_sinrs_band`).
        """
        group = tuple(group)
        entry = self._cached_entry(group)
        maps = self._group_maps(group)
        if _map_n_bins(maps) == 1:
            m = entry.encodings.shape[-1]
            h_true = np.empty((GROUP_SIZE, GROUP_SIZE, m, m), dtype=complex)
            for i, ap in enumerate(self.aps):
                for j, client in enumerate(group):
                    h_true[i, j] = true_channels.h(ap, client)
            if entry.w_bel is not None:
                return downlink_transmit_sinrs_cached(
                    h_true, entry.encodings, entry.w_bel, self.noise_power
                )
            h_bel = stack_downlink_channels([group], _flatten_one_bin(maps), self.aps)[0]
            return downlink_transmit_sinrs(
                h_true, h_bel, entry.encodings, self.noise_power
            )
        h_bel = stack_downlink_channels_band([group], maps, self.aps)[0]
        h_true = np.empty_like(h_bel)
        for i, ap in enumerate(self.aps):
            for j, client in enumerate(group):
                h_true[:, i, j] = true_channels.h_bins(ap, client)
        v = entry.encodings
        if v.ndim == 2:  # flat-anchor: one solution band-wide
            v = v[None]
        return downlink_transmit_sinrs_band(h_true, h_bel, v, self.noise_power)


class ColumnarGroupEvaluator(BatchedGroupEvaluator):
    """The batched evaluator plus a columnar believed-channel mirror.

    Believed channels live in one ``(capacity, 3, M, M)`` ndarray indexed
    by a per-client row; a row is refreshed **only** when the client's
    channel-map version changed since the last sync (the "incremental
    drift update" — a drift report touches exactly one row, everything
    else stays in place).  Stacking a probe's candidate groups is then a
    single fancy-index gather instead of the per-group dict walk of
    :func:`~repro.engine.batched.stack_downlink_channels`, and the
    gathered values are byte-for-byte the leader's believed matrices, so
    :func:`~repro.engine.batched.solve_downlink_three_batch` produces
    bit-identical solutions (pinned by the columnar equivalence suite).

    The mirror only covers flat (one-bin) sources; a genuinely banded
    source falls back to the parent's wideband route wholesale.  Two
    extra hooks — :meth:`uncached` + :meth:`insert_solved` — let the
    stacked multi-simulation driver (:func:`repro.sim.columnar.run_stacked`)
    pull many simulations' missing groups into **one** shared
    ``np.linalg`` solve and scatter the entries back; batch-slice
    invariance of the solver makes the shared solve bit-identical to the
    per-simulation ones.
    """

    def __init__(
        self,
        source: ChannelSource,
        aps: Sequence[int],
        noise_power: float = 1.0,
        alignment: str = "per_subcarrier",
    ):
        super().__init__(source, aps, noise_power, alignment)
        self._rows: Dict[int, int] = {}
        self._bel: np.ndarray | None = None  # (capacity, 3, M, M) mirror
        self._bel_versions: np.ndarray | None = None  # (capacity,) int64
        #: Source ``version_epoch`` at which each row was last confirmed
        #: fresh (-1 = never): lets :meth:`_sync` skip even the per-client
        #: version poll while the leader's table is globally unchanged.
        self._row_epochs: np.ndarray | None = None  # (capacity,) int64
        #: Tri-state: None = not yet probed, True = flat mirror active,
        #: False = banded source (delegate everything to the parent).
        self._flat: bool | None = None

    # -------------------------- mirror plumbing ----------------------- #

    def flat_capable(self, client: int) -> bool:
        """Whether the mirror route applies (lazily probed once)."""
        if self._flat is None:
            h = np.asarray(next(iter(self.source.channel_map(client).values())))
            self._flat = h.ndim != 3 or h.shape[0] == 1
        return self._flat

    def _grow(self, row: int, cmap: Mapping[int, np.ndarray]) -> None:
        if self._bel is None:
            h0 = np.asarray(next(iter(cmap.values())))
            m = h0.shape[-1]
            cap = max(8, row + 1)
            self._bel = np.zeros((cap, len(self.aps), m, m), dtype=complex)
            self._bel_versions = np.full(cap, -1, dtype=np.int64)
            self._row_epochs = np.full(cap, -1, dtype=np.int64)
        elif row >= self._bel.shape[0]:
            cap = max(2 * self._bel.shape[0], row + 1)
            bel = np.zeros((cap,) + self._bel.shape[1:], dtype=complex)
            bel[: self._bel.shape[0]] = self._bel
            versions = np.full(cap, -1, dtype=np.int64)
            versions[: self._bel_versions.shape[0]] = self._bel_versions
            epochs = np.full(cap, -1, dtype=np.int64)
            epochs[: self._row_epochs.shape[0]] = self._row_epochs
            self._bel, self._bel_versions = bel, versions
            self._row_epochs = epochs

    def _sync(self, client: int) -> int:
        """Row of ``client`` in the mirror, refreshed iff its version moved."""
        row = self._rows.get(client)
        epoch = getattr(self.source, "version_epoch", None)
        if row is not None and epoch is not None and self._row_epochs[row] == epoch:
            # Global epoch unchanged since this row was confirmed fresh:
            # the client's version cannot have moved either.
            return row
        version = self.source.channel_version(client)
        if row is not None and self._bel_versions[row] == version:
            if epoch is not None:
                self._row_epochs[row] = epoch
            return row
        cmap = self.source.channel_map(client)
        if row is None:
            row = len(self._rows)
            self._rows[client] = row
        self._grow(row, cmap)
        for i, ap in enumerate(self.aps):
            h = np.asarray(cmap[ap])
            if h.ndim == 3:  # one-bin banded source: the flat squeeze
                h = h[0]
            self._bel[row, i] = h
        self._bel_versions[row] = version
        if epoch is not None:
            self._row_epochs[row] = epoch
        return row

    def stack_believed(
        self, groups: Sequence[Group]
    ) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
        """Gather ``(G, 3, 3, M, M)`` believed channels plus version keys."""
        # Sync each distinct client once per probe: _sync is idempotent
        # between source mutations, so memoising it is observationally
        # identical to calling it per (group, member).
        sync = self._sync
        memo: Dict[int, int] = {}
        rows_list = []
        for g in groups:
            row_g = []
            for c in g:
                r = memo.get(c)
                if r is None:
                    r = sync(c)
                    memo[c] = r
                row_g.append(r)
            rows_list.append(row_g)
        rows = np.array(rows_list)
        # mirror rows are client-major; the solver wants h[g, ap, client]
        # (a strided view is fine: the solver's gufuncs buffer per slice).
        h = np.swapaxes(self._bel[rows], 1, 2)
        versions = [tuple(v) for v in self._bel_versions[rows].tolist()]
        return h, versions

    def uncached(self, candidates: Sequence[Group]) -> List[Group]:
        """Distinct full-size candidate groups with no valid cache entry."""
        out: List[Group] = []
        seen = set()
        for group in candidates:
            group = tuple(group)
            if len(group) != GROUP_SIZE or group in seen:
                continue
            try:
                self._entry(group)
            except KeyError:
                seen.add(group)
                out.append(group)
        return out

    def insert_solved(
        self,
        groups: Sequence[Group],
        versions: Sequence[Tuple[int, ...]],
        encodings: np.ndarray,
        rates: np.ndarray,
        sinrs: np.ndarray,
        w_bel: "np.ndarray | None" = None,
    ) -> None:
        """Adopt externally solved entries (the stacked driver's scatter)."""
        epoch = getattr(self.source, "version_epoch", -1)
        for g, group in enumerate(groups):
            self._cache[group] = _CacheEntry(
                versions=tuple(versions[g]),
                rate=float(rates[g]),
                encodings=encodings[g],
                sinrs=sinrs[g],
                w_bel=None if w_bel is None else w_bel[g],
                validated_epoch=epoch,
            )

    # -------------------------- engine overrides ---------------------- #

    def _solve_batch(self, groups: Sequence[Group]) -> None:
        if groups and not self.flat_capable(groups[0][0]):
            super()._solve_batch(groups)
            return
        groups = [tuple(g) for g in groups]
        h, versions = self.stack_believed(groups)
        encodings, rates, sinrs, w_bel = solve_downlink_three_batch(
            h, self.noise_power, return_filters=True
        )
        self.insert_solved(groups, versions, encodings, rates, sinrs, w_bel)

    def transmit_sinrs_fast(
        self, group: Group, h_true: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat transmission decode from a pre-gathered true-channel stack.

        ``h_true`` is the ``(3, 3, M, M)`` stack ``h[i, j]`` = true channel
        from ``aps[i]`` to ``group[j]`` — the columnar slot loop gathers
        it straight from the fading stack, skipping the
        :class:`~repro.core.plans.ChannelSet` round-trip of the scalar
        path.  Only valid on flat sources (callers check
        :meth:`flat_capable`).
        """
        group = tuple(group)
        entry = self._cached_entry(group)
        if entry.w_bel is not None:
            return downlink_transmit_sinrs_cached(
                h_true, entry.encodings, entry.w_bel, self.noise_power
            )
        rows = [self._sync(c) for c in group]
        h_bel = np.swapaxes(self._bel[rows], 0, 1)
        return downlink_transmit_sinrs(
            h_true, h_bel, entry.encodings, self.noise_power
        )


def make_evaluator(
    name: str,
    source: ChannelSource,
    aps: Sequence[int],
    noise_power: float = 1.0,
    alignment: str = "per_subcarrier",
) -> GroupEvaluator:
    """Factory for the two engines: ``"batched"`` or ``"scalar"``.

    ``"batched"`` is the production evaluator: the memoised batched
    engine plus the believed-channel mirror the columnar slot pieces and
    the stacked driver consume (:class:`ColumnarGroupEvaluator`).  Its
    oracle, the plain :class:`BatchedGroupEvaluator`, is built directly
    by :class:`~repro.sim.wlan.ReferenceWLANSimulation`.  ``"scalar"`` is
    the per-group reference path (:class:`ScalarGroupEvaluator`).

    ``alignment`` selects the wideband strategy (``"per_subcarrier"`` or
    ``"flat_anchor"``); it only matters when the channel source carries
    banded (``(B, M, M)``) believed channels.
    """
    key = name.lower()
    if key == "batched":
        return ColumnarGroupEvaluator(source, aps, noise_power, alignment)
    if key == "scalar":
        return ScalarGroupEvaluator(source, aps, noise_power, alignment)
    raise ValueError(
        f"unknown engine {name!r}: engine must be one of 'scalar', 'batched'"
    )
