"""The benchmark's three jobs, their inputs and their output checks.

Every job goes through the public experiment API only
(``ExperimentRunner.run``, ``run_sweep``, ``get_scenario`` and, through
the sweep cache, ``ResultStore``) at the registered scenario defaults;
no job overrides ``engine`` or ``workers``, so a changed default shows
up in the numbers.

An *op* is one unit that can fail on its own: one scenario run, the city
run, or one sweep cell in one phase (cold or resumed).  An op fails when
it raises, when its digest differs from the one pinned for the seed,
when a figure headline leaves the band the test suite asserts, or when
a city/sweep result breaks an invariant.  A failure is recorded on the
op's :class:`Outcome`; it never aborts the job.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments import ExperimentRunner, get_scenario, run_sweep

WORKLOADS = ("paper", "city", "load_sweep")

#: The paper's evaluation figures, rate level and signal level.
PAPER_SCENARIOS = (
    "fig12", "fig13a", "fig13b", "fig14", "fig15", "fig16", "fig17",
    "fig12_signal", "fig13b_signal",
)

#: Figures whose ``Scenario.paper`` states one headline gain.
SHORTFALL_SCENARIOS = ("fig12", "fig13a", "fig13b", "fig14", "fig15")

#: Sparse (idle-heavy) to saturating load, at a small and a large cell.
LOAD_GRID: Dict[str, List[Any]] = {
    "load": [0.02, 0.5, 0.95],
    "n_clients": [8, 24],
}

#: Headline bands, as the test suite and the figure benchmarks assert
#: them.  fig16's headline is its largest fractional pair error.
BANDS: Dict[str, Tuple[float, float]] = {
    "fig12": (1.2, 1.8),
    "fig13a": (1.4, 2.2),
    "fig13b": (1.1, 1.7),
    "fig14": (1.0, 1.5),
    "fig15": (1.1, math.inf),
    "fig16": (0.0, 0.3),
    "fig17": (1.2, 2.2),
    "fig12_signal": (1.0, math.inf),
    "fig13b_signal": (1.0, math.inf),
}


@dataclass
class Outcome:
    """One op's result as the checks see it."""

    op: str
    digest: Optional[str] = None
    headline: Optional[float] = None
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class JobResult:
    wall_s: float
    #: The resumed sweep (``load_sweep`` only).
    resume_s: Optional[float]
    outcomes: List[Outcome]

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)


# ----------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The job's inputs; ``seed`` is passed on as every op's ``seed=``."""
    if workload == "paper":
        return {"runs": [{"scenario": s, "seed": seed} for s in PAPER_SCENARIOS]}
    if workload == "city":
        return {"runs": [{"scenario": "city_scale", "seed": seed}]}
    if workload == "load_sweep":
        grid = {k: list(v) for k, v in LOAD_GRID.items()}
        return {"sweep": {"scenario": "load_latency", "grid": grid, "seed": seed}}
    raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")


def resolve_scenarios(inputs: Mapping[str, Any]) -> None:
    """Look every scenario up in the registry (part of set-up)."""
    for run in inputs.get("runs", ()):
        get_scenario(run["scenario"])
    if "sweep" in inputs:
        get_scenario(inputs["sweep"]["scenario"])


# ---------------------------------------------------------------- running


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _paper_number(scenario: str) -> float:
    match = re.search(r"(\d+(?:\.\d+)?)x", get_scenario(scenario).paper)
    if match is None:
        raise ValueError(f"{scenario}: no headline gain in its paper field")
    return float(match.group(1))


def run_job(
    inputs: Mapping[str, Any], scratch: str, root=None,
) -> JobResult:
    """Run the job once; time only the API calls, then check the outputs.

    ``scratch`` is a directory the sweep's result store may be created
    in; ``root`` (a context manager factory) wraps the timed calls,
    which is where the tracer hooks in its root span.
    """
    if "sweep" in inputs:
        return _run_sweep_job(inputs["sweep"], scratch, root)
    runner = ExperimentRunner()
    results: List[Tuple[str, Any]] = []
    wall = 0.0
    for run in inputs["runs"]:
        start = time.perf_counter()
        try:
            with (root or contextlib.nullcontext)():
                result: Any = runner.run(run["scenario"], seed=run["seed"])
        except Exception as err:  # noqa: BLE001 - a failed op is counted
            result = err
        wall += time.perf_counter() - start
        results.append((run["scenario"], result))
    return JobResult(wall, None, [_check_run(name, r) for name, r in results])


def _check_run(scenario: str, result: Any) -> Outcome:
    out = Outcome(op=scenario)
    if isinstance(result, Exception):
        out.problems.append(f"raised {type(result).__name__}: {result}")
        return out
    out.digest = _digest({
        "params": result.params,
        "records": [r.to_dict() for r in result.records],
    })
    if scenario == "city_scale":
        for record in result.records:
            out.problems += _invariants(record.metrics, scenario)
        return out
    if scenario == "fig16":
        headline = float(max(result.metric("error")))
    else:
        headline = result.mean_gain
    out.headline = headline
    low, high = BANDS[scenario]
    if not low < headline < high:
        out.problems.append(f"headline {headline:.4f} outside ({low}, {high})")
    return out


def _invariants(metrics: Mapping[str, float], where: str) -> List[str]:
    problems = [
        f"{where}: {name} is not finite"
        for name, value in metrics.items() if not math.isfinite(value)
    ]
    if metrics["delivered"] > metrics["offered"]:
        problems.append(f"{where}: delivered > offered")
    if not 0.0 < metrics["jain_fairness"] <= 1.0:
        problems.append(f"{where}: Jain index {metrics['jain_fairness']} outside (0, 1]")
    return problems


def _cell_label(params: Mapping[str, Any], axes) -> str:
    return ",".join(f"{k}={params[k]}" for k in axes)


def _run_sweep_job(sweep: Mapping[str, Any], scratch: str, root) -> JobResult:
    grid = sweep["grid"]
    labels = [
        _cell_label(dict(zip(grid, values)), grid)
        for values in itertools.product(*grid.values())
    ]
    os.makedirs(scratch, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="sweep-", dir=scratch)
    path = os.path.join(store_dir, "cells.jsonl")
    phases: Dict[str, Any] = {}
    times: Dict[str, float] = {}
    try:
        for phase in ("cold", "resume"):
            start = time.perf_counter()
            try:
                with (root or contextlib.nullcontext)():
                    phases[phase] = run_sweep(
                        sweep["scenario"], sweep["grid"], seed=sweep["seed"], cache=path,
                    )
            except Exception as err:  # noqa: BLE001 - a failed op is counted
                phases[phase] = err
            times[phase] = time.perf_counter() - start
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    outcomes = []
    cold_cells: Dict[str, Any] = {}
    for phase in ("cold", "resume"):
        result = phases[phase]
        cells = {} if isinstance(result, Exception) else {
            _cell_label(c.params, grid): c for c in result.cells
        }
        for label in labels:
            out = Outcome(op=f"{phase}:{label}")
            outcomes.append(out)
            if isinstance(result, Exception):
                out.problems.append(f"raised {type(result).__name__}: {result}")
                continue
            cell = cells.get(label)
            if cell is None:
                out.problems.append("cell missing from the sweep table")
                continue
            out.digest = _digest(cell.to_dict())
            metrics = {name: stats["mean"] for name, stats in cell.summary.items()}
            metrics["jain_fairness"] = cell.summary["jain_fairness"]["min"]
            out.problems += _invariants(metrics, label)
            if cell.summary["jain_fairness"]["max"] > 1.0:
                out.problems.append(f"{label}: Jain index above 1")
            if phase == "cold":
                cold_cells[label] = out.digest
            elif cold_cells.get(label) != out.digest:
                out.problems.append("resumed cell differs from the cold cell")
        if phase == "resume" and not isinstance(result, Exception):
            if result.cached_cells != len(labels):
                outcomes[-1].problems.append(
                    f"resume served {result.cached_cells}/{len(labels)} cells from the store"
                )
    return JobResult(times["cold"], times["resume"], outcomes)


# ---------------------------------------------------------------- checks


def pin_key(op: str) -> str:
    """Cold and resumed cells share one pinned digest."""
    return op.split(":", 1)[1] if ":" in op else op


def check_pins(
    outcomes: List[Outcome], pins: Mapping[str, Any], workload: str, seed: int,
) -> None:
    """Compare digests against those pinned for ``seed``, if any."""
    if seed != pins.get("seed"):
        return
    pinned = pins.get("digests", {}).get(workload, {})
    for out in outcomes:
        expected = pinned.get(pin_key(out.op))
        if out.digest is not None and expected is not None and out.digest != expected:
            out.problems.append("digest differs from the pinned digest")


def check_repeat(outcomes: List[Outcome], first: List[Outcome]) -> None:
    """Each op's digest must equal the one the first repetition gave."""
    reference = {o.op: o.digest for o in first}
    for out in outcomes:
        if out.digest is not None and reference.get(out.op) not in (None, out.digest):
            out.problems.append("digest differs from the first repetition")


def gain_shortfall(outcomes: List[Outcome]) -> Optional[float]:
    """Mean |measured - paper| / paper over :data:`SHORTFALL_SCENARIOS`."""
    headlines = {o.op: o.headline for o in outcomes}
    gaps = []
    for scenario in SHORTFALL_SCENARIOS:
        if headlines.get(scenario) is None:
            return None
        paper = _paper_number(scenario)
        gaps.append(abs(headlines[scenario] - paper) / paper)
    return sum(gaps) / len(gaps)
