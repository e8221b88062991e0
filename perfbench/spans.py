"""Spans around the public entry points of each ``repro`` layer.

The tracer lives entirely outside the program: :class:`Tracer` replaces
each entry point listed in :data:`LAYERS` with a wrapper that records a
span (layer, entry point, start, end, parent) and restores the
originals when the ``with`` block ends.  A function that another module
imported by name is replaced in that module too, because the caller
looks it up there.  Spans stay in memory until :meth:`Tracer.write`.

A span's self time is its duration minus the part of its interval its
child spans cover; a layer's self time is the sum over its spans, so
the layers' self times plus the root span's own self time add up to the
root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One span: (layer, entry point, start, end, parent index or -1).
Span = Tuple[str, str, float, float, int]

#: Layer -> entry points.  ``"module:func"`` names a module function
#: (``func*`` matches every public function with that prefix);
#: ``"module:Class.method"`` names a method, which is also wrapped on
#: every subclass that overrides it; an inherited method is wrapped on
#: the class that defines it.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "phy.channel": (
        "repro.phy.channel.provider:PairedFadingNetwork.step",
        "repro.sim.columnar:ColumnarFadingNetwork.step",
        "repro.sim.columnar:ColumnarFadingNetwork.step_block",
    ),
    "mac.association": (
        "repro.mac.association:SubordinateAP.observe",
        "repro.mac.association:LeaderAP.handle_update",
    ),
    "mac.concurrency": tuple(
        f"repro.mac.concurrency:{cls}.{method}"
        for cls in ("FifoGrouping", "BruteForce", "BestOfTwo")
        for method in ("select", "propose", "resolve")
    ),
    "engine": (
        "repro.engine.evaluator:GroupEvaluator.evaluate_many",
        "repro.engine.evaluator:GroupEvaluator.transmit_sinrs",
        "repro.engine.batched:solve_downlink_three_batch",
    ),
    "baselines": (
        "repro.baselines.dot11_mimo:best_ap_link",
        "repro.baselines.dot11_mimo:per_client_rates",
        "repro.baselines.dot11_mimo:round_robin_rate",
    ),
    "sim.traffic": (
        "repro.sim.traffic:TrafficModel.arrivals",
        "repro.sim.traffic:TrafficModel.arrival_counts",
        "repro.sim.traffic:ClientChurn.step",
        "repro.sim.traffic:MobilityModel.step",
    ),
    "sim.wlan": ("repro.sim.wlan:WLANSimulation.run",),
    "sim.multicell": (
        "repro.sim.multicell:MultiCellSimulation.run",
        # One call per slot barrier (in-process shards only).
        "repro.sim.multicell:_Shard.run_round",
    ),
    "core": (
        "repro.core.alignment:solve_*",
        "repro.core.decoder:decode_rate_level",
    ),
    "core.session": ("repro.core.session:run_session",),
    "phy.fec": (
        "repro.phy.fec.convolutional:ConvolutionalCode.decode_many",
        "repro.phy.fec.convolutional:ConvolutionalCode.encode_many",
    ),
    "sim.experiment": (
        "repro.sim.experiment:large_network_experiment",
        "repro.sim.experiment:GroupRateCache.evaluate",
        "repro.sim.experiment:run_scatter",
        "repro.sim.experiment:uplink_2x2_trial",
        "repro.sim.experiment:uplink_3x3_trial",
        "repro.sim.experiment:downlink_3x3_trial",
        "repro.sim.experiment:diversity_trial",
        "repro.sim.experiment:reciprocity_pair_trial",
    ),
    "sim.clustered": ("repro.sim.clustered:ClusteredNetwork.flow_throughput",),
    "experiments.runner": ("repro.experiments.runner:ExperimentRunner.run",),
    "experiments.store": (
        "repro.experiments.store:ResultStore.__init__",
        "repro.experiments.store:ResultStore.get",
        "repro.experiments.store:ResultStore.put",
        "repro.experiments.store:ResultStore.flush",
    ),
}

#: Layer of the span that wraps a whole job; its self time is the part
#: of the job no entry point covers.
ROOT_LAYER = "job"


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def _resolve(target: str) -> List[Tuple[Any, str, Any, Optional[type]]]:
    """``(owner, attribute, original, class or None)`` for one entry point."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in qualname:
        if qualname.endswith("*"):
            prefix = qualname[:-1]
            names = [
                name for name, value in vars(module).items()
                if name.startswith(prefix) and inspect.isfunction(value)
                and value.__module__ == module_name
            ]
        else:
            names = [qualname]
        return [(module, name, getattr(module, name), None) for name in names]
    class_name, method = qualname.split(".")
    cls = getattr(module, class_name)
    # The class the method is inherited from, then every override below.
    owners = [next(k for k in cls.__mro__ if method in vars(k))]
    stack = cls.__subclasses__()
    while stack:
        klass = stack.pop()
        if method in vars(klass):
            owners.append(klass)
        stack.extend(klass.__subclasses__())
    return [(klass, method, vars(klass)[method], klass) for klass in owners]


#: Called before an entry point runs with ``(tracer, args, kwargs)``;
#: may return a callable that receives the result afterwards.
Probe = Callable[["Tracer", tuple, dict], Optional[Callable[[Any], None]]]


class Tracer:
    """Records spans and counters while its ``with`` block is open."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans

    def _open(self) -> Tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, layer: str, name: str, start: float, parent: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (layer, name, start, end, parent)

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record one span around the ``with`` body (used for the job root)."""
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, layer, name, start, parent)

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[f"{layer}.calls"] += 1
            finish = probe(self, args, kwargs) if probe is not None else None
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, layer, name, start, parent)
            if finish is not None:
                finish(result)
            return result

        return wrapper

    # --------------------------------------------------------- patching

    def __enter__(self) -> "Tracer":
        seen = set()
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    for owner, attr, original, klass in _resolve(target):
                        if (id(owner), attr) in seen:
                            continue  # a subclass already reached via its base
                        seen.add((id(owner), attr))
                        name = f"{klass.__name__}.{attr}" if klass else attr
                        wrapper = self._wrap(layer, name, original)
                        owners = [owner] if klass else self._importers(original)
                        for where in owners:
                            self._patched.append((where, attr, original))
                            setattr(where, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    @staticmethod
    def _importers(fn: Callable) -> List[Any]:
        """Every loaded ``repro`` module holding ``fn`` under its own name."""
        return [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
            and vars(module).get(fn.__name__) is fn
        ]

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- output

    def closed_spans(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)  # type: ignore[arg-type]

    def write(self, path: str) -> None:
        """Write every span as one JSON line: layer, name, start, end, parent."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.closed_spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# ------------------------------------------------------------------ probes
#
# Work counters read where the work happens: from the stats objects the
# entry points return or update, and from the evaluators' cache_info().


def _wlan_state(sim) -> Dict[str, int]:
    stats = sim.stats
    info = getattr(sim.evaluator, "cache_info", lambda: {"hits": 0, "misses": 0})()
    return {
        "sim.wlan.slots": stats.slots,
        "sim.wlan.idle_slots": stats.idle_slots,
        "sim.wlan.fallback_slots": stats.fallback_slots,
        "mac.drift_reports": stats.drift_reports,
        "engine.memo_hits": info["hits"],
        "engine.memo_misses": info["misses"],
    }


def _wlan_probe(tracer: "Tracer", args: tuple, kwargs: dict):
    sim = args[0]
    before = _wlan_state(sim)
    summary = getattr(sim, "last_event_summary", None)

    def finish(_result) -> None:
        for key, value in _wlan_state(sim).items():
            tracer.counters[key] += value - before[key]
        latest = getattr(sim, "last_event_summary", None)
        if latest is not None and latest is not summary:
            tracer.counters["sim.events.skipped_slots"] += latest["skipped_slots"]

    return finish


def _count(key: str, amount: Callable[[tuple], int] = lambda args: 1) -> Probe:
    def probe(tracer: "Tracer", args: tuple, kwargs: dict):
        tracer.counters[key] += amount(args)
        return None

    return probe


def _solve_probe(tracer: "Tracer", args: tuple, kwargs: dict):
    tracer.counters["engine.solve_calls"] += 1
    tracer.counters["engine.groups_solved"] += len(args[0])  # (G, ...) channel stack
    return None


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _store_flush_probe(tracer: "Tracer", args: tuple, kwargs: dict):
    path = args[0].path
    before = _file_size(path)

    def finish(_result) -> None:
        tracer.counters["experiments.store.bytes"] += _file_size(path) - before

    return finish


def _trials_probe(tracer: "Tracer", args: tuple, kwargs: dict):
    def finish(result) -> None:
        tracer.counters["experiments.trials"] += result.n_trials

    return finish


PROBES: Dict[str, Probe] = {
    "WLANSimulation.run": _wlan_probe,
    "solve_downlink_three_batch": _solve_probe,
    "_Shard.run_round": _count("sim.multicell.barriers"),
    "GroupRateCache.evaluate": _count("sim.experiment.cache_calls"),
    "ExperimentRunner.run": _trials_probe,
    # Bytes read when a store loads its file, bytes appended by a flush.
    "ResultStore.__init__": _count(
        "experiments.store.bytes", lambda args: _file_size(os.fspath(args[1]))
    ),
    "ResultStore.flush": _store_flush_probe,
}

#: Layers whose entry-point call count is reported.
CALL_COUNTED = (
    "phy.channel", "mac.association", "mac.concurrency", "baselines",
    "sim.traffic", "core", "phy.fec", "experiments.store",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, untraced_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced job, as ``name -> (value, unit)``."""
    spans = tracer.closed_spans()
    own = layer_self_times(spans)
    c = tracer.counters
    traced_wall = sum(end - start for layer, _, start, end, _ in spans if layer == ROOT_LAYER)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    for layer in CALL_COUNTED:
        out[f"{layer}.calls"] = (c[f"{layer}.calls"], "count")
    for key in (
        "mac.drift_reports", "engine.solve_calls", "engine.groups_solved",
        "sim.wlan.slots", "sim.wlan.fallback_slots", "sim.multicell.barriers",
        "sim.experiment.cache_calls", "experiments.trials",
    ):
        out[key] = (c[key], "count")
    out["experiments.store.bytes"] = (c["experiments.store.bytes"], "bytes")
    out["engine.groups_per_solve"] = (
        _ratio(c["engine.groups_solved"], c["engine.solve_calls"]), "groups/solve"
    )
    out["engine.memo_hit_ratio"] = (
        _ratio(c["engine.memo_hits"], c["engine.memo_hits"] + c["engine.memo_misses"]),
        "ratio",
    )
    out["sim.wlan.idle_share"] = (_ratio(c["sim.wlan.idle_slots"], c["sim.wlan.slots"]), "ratio")
    out["sim.events.skipped_share"] = (
        _ratio(c["sim.events.skipped_slots"], c["sim.wlan.slots"]), "ratio"
    )
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.remainder_s"] = (own.get(ROOT_LAYER, 0.0), "s")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_share"] = (
        _ratio(traced_wall - untraced_wall_s, untraced_wall_s), "ratio"
    )
    return out


def work_counters(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, float]:
    """The metrics of :func:`per_layer_metrics` that must repeat exactly.

    Everything but the times and the overhead share derived from them:
    call counts, work counters and the shares computed from counters.
    """
    return {
        name: value for name, (value, unit) in metrics.items()
        if unit != "s" and name != "trace.overhead_share"
    }
