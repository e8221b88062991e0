"""Parameter-grid sweeps over registered scenarios, resumable and exact.

``run_sweep`` fans the cartesian product of a parameter grid (e.g.
``load x n_clients x algorithm``) across a worker pool, one registered
scenario run per **cell**:

* **Per-cell RNG streams** — each cell's experiment seed is derived by
  hashing the cell's full identity (scenario, sweep seed, trial count,
  merged parameters), so a cell computes the same numbers whether it is
  the first of a fresh sweep, the last straggler of a resumed one, or
  running on any of N workers — and regardless of what *other* cells
  are in the grid.
* **Memoised cells** — every completed cell is appended to a JSON cache
  file (atomic rewrite, so an interrupt can lose at most the in-flight
  cells).  Re-running the same sweep skips cached cells; the resumed
  table is bit-identical to an uninterrupted run.  Cells are keyed by
  the same identity hash, so enlarging the grid reuses the overlap.
* **Structured output** — the sweep returns a :class:`SweepResult`
  table (one row per cell, in grid order) that serialises to JSON and
  renders as an aligned text table.

The CLI surface is ``python -m repro sweep SCENARIO --grid k=v1,v2,...``;
see ``EXPERIMENTS.md`` for the cache schema and examples.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.registry import Scenario, get_scenario
from repro.experiments.results import ExperimentResult, jsonify
from repro.experiments.runner import (
    DEFAULT_TESTBED_NODES,
    DEFAULT_TESTBED_SEED,
    ExperimentRunner,
)
from repro.experiments.store import CorruptStore, ResultStore, StoreSchemaTooNew

SWEEP_SCHEMA_VERSION = 1

#: Grid spec: parameter name -> list of values to sweep.
Grid = Mapping[str, Sequence[Any]]


def grid_cells(grid: Grid) -> List[Dict[str, Any]]:
    """The cartesian product of a grid, in deterministic row order.

    Parameters vary slowest-first in the order given (dict insertion
    order), each parameter's values in their given order — the order
    rows appear in the sweep table.
    """
    if not grid:
        return [{}]
    names = list(grid)
    for name in names:
        if isinstance(grid[name], (str, bytes)):
            raise ValueError(
                f"grid parameter {name!r} must be a list of values, got a "
                f"string — did you forget to split {grid[name]!r}?"
            )
        if not list(grid[name]):
            raise ValueError(f"grid parameter {name!r} has no values")
    return [
        dict(zip(names, values))
        for values in itertools.product(*(list(grid[n]) for n in names))
    ]


def cell_key(
    scenario: str,
    seed: int,
    n_trials: Optional[int],
    params: Mapping[str, Any],
    testbed_seed: int = DEFAULT_TESTBED_SEED,
    testbed_nodes: int = DEFAULT_TESTBED_NODES,
) -> str:
    """Stable identity hash of one sweep cell.

    Everything that determines the cell's numbers goes in: the scenario
    name, the sweep seed, the trial count, the *merged* parameters and
    the runner's effective testbed identity — channel seed and node
    count, read from the attached testbed when one was given — so two
    sweeps over different testbeds may share a cache file without
    serving each other's numbers.  The key doubles as the cache key and
    the source of the cell's RNG seed, so results are independent of
    grid shape and execution order.
    """
    identity = json.dumps(
        {
            "scenario": scenario,
            "seed": int(seed),
            "n_trials": n_trials,
            "params": jsonify(dict(params)),
            "testbed_seed": int(testbed_seed),
            "testbed_nodes": int(testbed_nodes),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]


def cell_seed(key: str) -> int:
    """The cell's experiment seed, derived from its identity hash."""
    return int.from_bytes(bytes.fromhex(key)[:8], "big") % (2**63)


@dataclass(frozen=True)
class SweepCell:
    """One completed cell: its swept parameters and summary statistics."""

    #: The swept (grid) parameters only — the table's row label.
    params: Dict[str, Any]
    key: str
    seed: int
    n_trials: int
    #: Per-metric ``{mean, min, max, std}`` across the cell's trials.
    summary: Dict[str, Dict[str, float]]
    #: The scenario's headline gain, when it defines one.
    mean_gain: Optional[float] = None

    def metric_mean(self, name: str) -> float:
        return self.summary[name]["mean"]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "params": jsonify(self.params),
            "key": self.key,
            "seed": self.seed,
            "n_trials": self.n_trials,
            "summary": self.summary,
        }
        if self.mean_gain is not None:
            data["mean_gain"] = self.mean_gain
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepCell":
        return cls(
            params=dict(data["params"]),
            key=str(data["key"]),
            seed=int(data["seed"]),
            n_trials=int(data["n_trials"]),
            summary={
                str(m): {str(s): float(v) for s, v in sorted(stats.items())}
                for m, stats in sorted(data["summary"].items())
            },
            mean_gain=(
                float(data["mean_gain"]) if data.get("mean_gain") is not None else None
            ),
        )


@dataclass(frozen=True)
class QuarantinedCell:
    """A grid cell every attempt failed to compute.

    Carries the cell's full identity (so a later run can retry it) plus
    the final error as text.  Quarantined cells are kept out of the
    table *and* the cache: a failure is never memoised, so re-running
    the sweep re-attempts exactly these cells.
    """

    #: The swept (grid) parameters only — which row failed.
    params: Dict[str, Any]
    key: str
    seed: int
    #: ``"ExceptionType: message"`` of the last attempt's failure.
    error: str
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": jsonify(self.params),
            "key": self.key,
            "seed": self.seed,
            "error": self.error,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuarantinedCell":
        return cls(
            params=dict(data["params"]),
            key=str(data["key"]),
            seed=int(data["seed"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
        )


@dataclass
class SweepResult:
    """A finished sweep: one :class:`SweepCell` per grid cell, in grid order."""

    scenario: str
    seed: int
    grid: Dict[str, List[Any]]
    cells: List[SweepCell] = field(default_factory=list)
    #: Cells not executed this run — cache hits plus rows sharing an
    #: earlier row's canonical identity; excluded from equality so
    #: resumed and fresh sweeps compare equal.
    cached_cells: int = field(default=0, compare=False)
    #: Cells whose every attempt failed (``quarantine=True`` only — the
    #: default re-raises the first exhausted failure), in grid order.
    quarantined: List[QuarantinedCell] = field(default_factory=list)

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for cell in self.cells:
            for name in cell.summary:
                if name not in names:
                    names.append(name)
        return names

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "sweep": self.scenario,
            "seed": self.seed,
            "grid": jsonify(self.grid),
            "cells": [cell.to_dict() for cell in self.cells],
            "quarantined": [cell.to_dict() for cell in self.quarantined],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        version = data.get("schema_version", SWEEP_SCHEMA_VERSION)
        if version > SWEEP_SCHEMA_VERSION:
            raise ValueError(f"unsupported sweep schema version {version}")
        return cls(
            scenario=str(data["sweep"]),
            seed=int(data["seed"]),
            # Document order *is* the author's axis order (it decides the
            # table's row nesting) — reordering here would be the bug.
            grid={str(k): list(v) for k, v in data["grid"].items()},  # repro-lint: ignore[no-unordered-iteration]
            cells=[SweepCell.from_dict(c) for c in data["cells"]],
            quarantined=[
                QuarantinedCell.from_dict(c) for c in data.get("quarantined", [])
            ],
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "SweepResult":
        return cls.from_dict(json.loads(text))

    # ----------------------------------------------------------------- #

    #: Headline metrics preferred for the default table columns.
    _PREFERRED = (
        "mean_gain",
        "total_rate",
        "mean_latency_slots",
        "jain_fairness",
        "idle_fraction",
        "gain",
        "error",
    )

    def table(self, metrics: Optional[Sequence[str]] = None) -> str:
        """Render the sweep as an aligned text table (one row per cell)."""
        if not self.cells:
            return "(empty sweep)"
        if metrics is None:
            available = self.metric_names()
            metrics = [m for m in self._PREFERRED if m in available][:4]
            if not metrics:
                metrics = available[:4]
        grid_names = list(self.grid)
        header = grid_names + list(metrics)
        rows: List[List[str]] = [header]
        for cell in self.cells:
            row = [str(cell.params.get(n, "")) for n in grid_names]
            for m in metrics:
                if m in cell.summary:
                    row.append(f"{cell.metric_mean(m):.4g}")
                else:
                    row.append("-")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# The cell cache (backed by the JSON-lines result store)
# --------------------------------------------------------------------- #

#: ``kind`` pinned in the store header for sweep-cell caches.
SWEEP_STORE_KIND = "sweep-cells"


class SweepCache:
    """Memoised sweep cells on a :class:`~repro.experiments.store.ResultStore`.

    Each completed cell is one *appended* line in a JSON-lines store —
    O(1) bytes per completed cell instead of the full-file rewrite the
    old JSON-blob cache paid — so an interrupted sweep resumes from its
    last finished cell.  Keys hash the full cell identity, which makes
    the cache safe to share between overlapping grids of the same
    scenario — a key can only ever map to one set of numbers.

    Pre-store caches (the legacy ``{"schema_version", "cells"}`` blob)
    are read transparently and migrated to JSON-lines on the first
    write, so sweeps interrupted before the migration resume
    bit-identically.

    A *corrupt* cache file (mid-file garbage, mangled cells, wrong
    shape) is never fatal: it is renamed aside to ``<path>.corrupt``, a
    single :class:`RuntimeWarning` is emitted, and the sweep rebuilds
    the cache from scratch — losing memoised cells costs recomputation,
    while crashing on them costs the sweep.  (A torn *final* line is
    not even that: the store trims it and keeps every complete cell.)
    A cache written by a *newer* schema still raises: that file is
    healthy, this reader is just too old to be trusted with it.
    """

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = os.fspath(path)
        try:
            store = ResultStore(self.path, kind=SWEEP_STORE_KIND)
            cells = {
                str(record["key"]): SweepCell.from_dict(record)
                for record in store.records()
            }
        except StoreSchemaTooNew:
            raise
        except CorruptStore as err:
            self._quarantine_corrupt(err)
            store = ResultStore(self.path, kind=SWEEP_STORE_KIND)
            cells = {}
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            # The store was readable but its records are not sweep cells.
            self._quarantine_corrupt(err)
            store = ResultStore(self.path, kind=SWEEP_STORE_KIND)
            cells = {}
        self._store = store
        self._cells: Dict[str, SweepCell] = cells

    def _quarantine_corrupt(self, err: Exception) -> None:
        """Move the unreadable file aside and start an empty cache."""
        aside = self.path + ".corrupt"
        os.replace(self.path, aside)
        warnings.warn(
            f"sweep cache {self.path} is corrupt "
            f"({type(err).__name__}: {err}); moved it to {aside} and "
            "rebuilding from scratch",
            RuntimeWarning,
            stacklevel=3,
        )

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, key: str) -> Optional[SweepCell]:
        return self._cells.get(key)

    def put(self, cell: SweepCell, flush: bool = True) -> None:
        self._cells[cell.key] = cell
        self._store.put(cell.to_dict(), flush=flush)

    def flush(self) -> None:
        self._store.flush()


# --------------------------------------------------------------------- #
# The sweep runner
# --------------------------------------------------------------------- #


def _relabel(cell: SweepCell, grid_params: Mapping[str, Any]) -> SweepCell:
    """The same numbers under this row's grid label (cache/shared reuse)."""
    return SweepCell(
        params=dict(grid_params),
        key=cell.key,
        seed=cell.seed,
        n_trials=cell.n_trials,
        summary=cell.summary,
        mean_gain=cell.mean_gain,
    )


#: Longest deterministic backoff sleep (seconds) between cell retries.
_BACKOFF_CAP = 2.0


def _run_cell(
    runner: ExperimentRunner,
    scenario: Scenario,
    grid_params: Mapping[str, Any],
    merged_params: Mapping[str, Any],
    key: str,
    n_trials: Optional[int],
) -> SweepCell:
    seed = cell_seed(key)
    # Each cell runs its trials on one worker; sweep parallelism is
    # across cells.
    result: ExperimentResult = runner.run(
        scenario, n_trials=n_trials, seed=seed, params=merged_params, workers=1
    )
    try:
        mean_gain: Optional[float] = result.mean_gain
    except KeyError:
        mean_gain = None
    return SweepCell(
        params=dict(grid_params),
        key=key,
        seed=seed,
        n_trials=result.n_trials,
        summary=result.summary(),
        mean_gain=mean_gain,
    )


def _run_cell_resilient(
    runner: ExperimentRunner,
    scenario: Scenario,
    grid_params: Mapping[str, Any],
    merged_params: Mapping[str, Any],
    key: str,
    n_trials: Optional[int],
    retries: int,
    backoff: float,
    quarantine: bool,
) -> Union[SweepCell, QuarantinedCell]:
    """One cell with capped-exponential-backoff retries.

    The retry schedule is a pure function of the knobs (attempt ``a``
    sleeps ``min(_BACKOFF_CAP, backoff * 2**(a-1))``) and a retried cell
    reruns the *same* hashed seed — retrying changes when work happens,
    never what it computes.  With ``quarantine`` the exhausted failure
    becomes a :class:`QuarantinedCell`; otherwise it propagates.
    """
    last_error: Optional[Exception] = None
    for attempt in range(retries + 1):
        if attempt and backoff > 0.0:
            time.sleep(min(_BACKOFF_CAP, backoff * 2.0 ** (attempt - 1)))
        try:
            return _run_cell(runner, scenario, grid_params, merged_params, key, n_trials)
        except Exception as err:  # noqa: BLE001 - the boundary that heals
            last_error = err
    if quarantine:
        return QuarantinedCell(
            params=dict(grid_params),
            key=key,
            seed=cell_seed(key),
            error=f"{type(last_error).__name__}: {last_error}",
            attempts=retries + 1,
        )
    raise last_error


def run_sweep(
    scenario: Union[str, Scenario],
    grid: Grid,
    *,
    params: Optional[Mapping[str, Any]] = None,
    n_trials: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
    cache: Optional[Union[str, os.PathLike, SweepCache]] = None,
    runner: Optional[ExperimentRunner] = None,
    progress: Optional[Callable[[SweepCell, bool], None]] = None,
    retries: int = 0,
    backoff: float = 0.0,
    quarantine: bool = False,
) -> SweepResult:
    """Run ``scenario`` over every cell of ``grid``; return the table.

    ``params`` are fixed overrides applied to every cell (a grid value
    wins on collision).  ``workers`` parallelises across *cells* (each
    cell's trials run sequentially on the cell's own RNG stream, so the
    table is identical for any worker count).  ``cache`` — a path or a
    :class:`SweepCache` — memoises completed cells; a re-run over the
    same (or an overlapping) grid recomputes only the missing cells and
    produces a bit-identical table.  ``progress`` is called once per
    finished cell with ``(cell, from_cache)``.

    A failing cell is re-attempted ``retries`` times, sleeping a capped
    deterministic exponential backoff (``backoff`` seconds doubling up
    to ``_BACKOFF_CAP``) between attempts; a retried cell reuses its
    hashed seed, so retrying never changes the numbers.  Once attempts
    are exhausted the failure propagates — unless ``quarantine`` is set,
    in which case the cell (and any rows sharing its identity) lands in
    ``SweepResult.quarantined`` with the error text while every healthy
    cell still completes, and nothing about the failure enters the cache.
    """
    if not isinstance(scenario, Scenario):
        scenario = get_scenario(scenario)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if backoff < 0.0:
        raise ValueError("backoff must be >= 0")
    # Resolve the trial count before keying: "no --trials" and
    # "--trials <the scenario default>" are the same cell, not two
    # conflicting cache entries with different seeds.
    n_trials = scenario.default_trials if n_trials is None else int(n_trials)
    if runner is None:
        runner = ExperimentRunner()
    store = (
        cache
        if isinstance(cache, (SweepCache, type(None)))
        else SweepCache(cache)
    )

    fixed = dict(params or {})
    # A misspelled axis would otherwise be silently ignored by the trial
    # while still entering the cell identity — every row would differ by
    # pure seed noise dressed up as an effect of the typo'd knob.
    known = set(scenario.default_params)
    unknown = sorted((set(grid) | set(fixed)) - known)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for scenario {scenario.name!r}: "
            f"{', '.join(unknown)}; known knobs: {', '.join(sorted(known)) or '<none>'}"
        )
    cells = grid_cells(grid)
    jobs: List[Tuple[int, Dict[str, Any], Dict[str, Any], str]] = []
    results: List[Optional[Union[SweepCell, QuarantinedCell]]] = [None] * len(cells)
    #: Rows whose key is already owned by an earlier (primary) row of
    #: this run — e.g. a swept axis the canonicalizer marked inert — get
    #: the primary's numbers instead of a redundant execution.
    shared_rows: Dict[str, List[int]] = {}
    primary_of: Dict[str, int] = {}
    reused = 0
    for i, grid_params in enumerate(cells):
        # The full effective parameter map — scenario defaults included —
        # is the cell's identity: changing a default invalidates cached
        # cells instead of silently resurrecting stale numbers.
        merged = dict(scenario.default_params)
        merged.update(fixed)
        merged.update(grid_params)
        # Identity uses the *canonical* params: knobs the scenario declares
        # inert under this configuration (e.g. a Poisson load while
        # traffic is saturated) don't perturb the seed, so sweeping an
        # inert axis yields identical rows instead of seed noise dressed
        # up as an effect.
        key = cell_key(
            scenario.name, seed, n_trials, scenario.canonical_params(merged),
            runner.testbed_seed, runner.testbed_nodes,
        )
        hit = store.get(key) if store is not None else None
        if hit is not None:
            # Cache rows carry the *merged* identity in their key; the
            # table row label is the current sweep's grid params.
            results[i] = _relabel(hit, grid_params)
            reused += 1
            if progress is not None:
                progress(results[i], True)
        elif key in primary_of:
            shared_rows.setdefault(key, []).append(i)
            reused += 1
        else:
            primary_of[key] = i
            jobs.append((i, grid_params, merged, key))

    def finish(i: int, cell: Union[SweepCell, QuarantinedCell]) -> None:
        results[i] = cell
        if isinstance(cell, QuarantinedCell):
            # A failure is never cached and never reported as progress;
            # rows sharing the identity inherit the quarantine under
            # their own grid label.
            for j in shared_rows.get(cell.key, []):
                results[j] = QuarantinedCell(
                    params=dict(cells[j]),
                    key=cell.key,
                    seed=cell.seed,
                    error=cell.error,
                    attempts=cell.attempts,
                )
            return
        if store is not None:
            store.put(cell)
        if progress is not None:
            progress(cell, False)
        for j in shared_rows.get(cell.key, []):
            results[j] = _relabel(cell, cells[j])
            if progress is not None:
                progress(results[j], True)

    if jobs:
        if workers == 1 or len(jobs) == 1:
            for i, grid_params, merged, key in jobs:
                finish(
                    i,
                    _run_cell_resilient(
                        runner, scenario, grid_params, merged, key, n_trials,
                        retries, backoff, quarantine,
                    ),
                )
        else:
            # Force the runner's lazy testbed once, on this thread —
            # otherwise every pool worker races the None-check and each
            # builds (and mostly discards) a full testbed.
            runner.testbed
            with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
                pending = {
                    pool.submit(
                        _run_cell_resilient,
                        runner, scenario, grid_params, merged, key, n_trials,
                        retries, backoff, quarantine,
                    ): i
                    for i, grid_params, merged, key in jobs
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        # finish() runs on the main thread only: one cache
                        # rewrite per completed cell, so an interrupt loses
                        # at most the still-running cells.
                        finish(pending.pop(future), future.result())

    return SweepResult(
        scenario=scenario.name,
        seed=seed,
        # Axis order is caller-chosen and load-bearing (row order of the
        # table); sorting it would silently reshape every sweep.
        grid={name: list(values) for name, values in grid.items()},  # repro-lint: ignore[no-unordered-iteration]
        cells=[cell for cell in results if isinstance(cell, SweepCell)],
        cached_cells=reused,
        quarantined=[cell for cell in results if isinstance(cell, QuarantinedCell)],
    )
