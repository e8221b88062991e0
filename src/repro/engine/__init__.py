"""Batched group-evaluation engine for the WLAN hot path.

The per-slot cost of the IAC WLAN simulation is dominated by the
concurrency selector probing candidate transmission groups: the scalar
path re-runs :func:`~repro.core.alignment.solve_downlink_three_packets`
and :func:`~repro.core.decoder.decode_rate_level` from scratch for every
probe — O(clients^3) tiny ``np.linalg`` calls per slot.  This package
replaces that with two orthogonal optimisations behind one interface:

* **Batching** (:mod:`repro.engine.batched`): the believed
  :class:`~repro.core.plans.ChannelSet` of every not-yet-cached candidate
  group is stacked into an ``(G, 3, 3, M, M)`` ndarray and the alignment
  solutions plus rate-level SINRs are computed with stacked ``np.linalg``
  calls (``inv``/``eig``/``solve`` broadcast over the leading group axis),
  amortising the Python and LAPACK dispatch overhead over the whole probe.

* **Memoisation** (:class:`~repro.engine.evaluator.BatchedGroupEvaluator`):
  solved groups are cached under their ordered client tuple.  **The
  memoisation key is the tuple of the group's clients' channel-map
  versions** as reported by the evaluator's
  :class:`~repro.engine.evaluator.ChannelSource` (the leader AP bumps a
  client's version on association and on every applied drift report).  A
  cached solution is reused while every member client's version is
  unchanged — i.e. between drift reports the same group is never
  re-solved — and a single drift report invalidates exactly the cached
  groups containing the drifted client.

The scalar reference path is kept as a test oracle,
:class:`~repro.engine.evaluator.ScalarGroupEvaluator`; it agrees with
the batched path to a few ulps, not bit for bit, as
``tests/engine/test_evaluator.py`` pins (all selectors, 2-4 antennas).
:mod:`repro.engine.bench` times both (``python -m repro bench``)
and records the speedup trajectory in ``BENCH_*.json`` files.
"""

from repro.engine.batched import (
    downlink_sinrs_band,
    downlink_sinrs_batch,
    downlink_transmit_sinrs_band,
    downlink_transmit_sinrs_cached,
    solve_downlink_three_band,
    solve_downlink_three_batch,
    stack_downlink_channels,
    stack_downlink_channels_band,
)
from repro.engine.evaluator import (
    ALIGNMENT_MODES,
    BatchedGroupEvaluator,
    ChannelSource,
    ColumnarGroupEvaluator,
    GroupEvaluator,
    ScalarGroupEvaluator,
    StaticChannelSource,
)

__all__ = [
    "ALIGNMENT_MODES",
    "BatchedGroupEvaluator",
    "ChannelSource",
    "ColumnarGroupEvaluator",
    "GroupEvaluator",
    "ScalarGroupEvaluator",
    "StaticChannelSource",
    "downlink_sinrs_band",
    "downlink_sinrs_batch",
    "downlink_transmit_sinrs_band",
    "downlink_transmit_sinrs_cached",
    "solve_downlink_three_band",
    "solve_downlink_three_batch",
    "stack_downlink_channels",
    "stack_downlink_channels_band",
]
