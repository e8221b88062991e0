"""Declarative scenario registry.

A :class:`Scenario` is everything the harness needs to reproduce one of
the paper's experiments: a name, the figure it corresponds to, the
paper's reference result, a trial callable with the *normalised*
signature ``trial(ctx: TrialContext) -> Mapping[str, float]``, and the
default parameters / trial count.  Scenarios register themselves with
:func:`register_scenario`; the CLI, the runner, the benchmarks and any
future sweep harness all discover them through :func:`get_scenario` /
:func:`list_scenarios` instead of hand-wired dispatch tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.testbed import Testbed

#: A trial returns a flat mapping of metric name -> value.
Metrics = Mapping[str, float]


@dataclass(frozen=True)
class TrialContext:
    """Everything a single trial may depend on.

    ``rng`` is a per-trial stream spawned from the experiment seed, so a
    trial's draws are independent of execution order and worker count.
    ``params`` is the scenario's default parameters merged with caller
    overrides (read-only).  ``seed`` is the *experiment-level* seed —
    trials that must coordinate across the whole run (e.g. sampling
    without replacement by index) can derive a shared stream from it.
    """

    testbed: Testbed
    rng: np.random.Generator
    index: int
    params: Mapping[str, Any]
    seed: int = 0


#: Renders an ExperimentResult for humans; ``quiet`` suppresses plots.
Formatter = Callable[..., str]

#: Maps a merged parameter map to its *effective* form: knobs that are
#: inert under the current configuration (e.g. a Poisson rate while the
#: traffic model is saturated) are dropped, so two configurations that
#: compute identical numbers share one identity.  Consumed by the sweep
#: engine when deriving cell keys/seeds.
Canonicalizer = Callable[[Mapping[str, Any]], Mapping[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """A registered, reproducible experiment."""

    name: str
    figure: str
    description: str
    #: The paper's reference result, e.g. ``"1.5x"`` or ``"~0.05-0.2"``.
    paper: str
    trial: Callable[[TrialContext], Metrics]
    default_params: Mapping[str, Any] = field(default_factory=dict)
    default_trials: int = 25
    tags: Tuple[str, ...] = ()
    #: Optional human-readable renderer: ``formatter(result, quiet=False)``.
    formatter: Optional[Formatter] = None
    #: Optional parameter canonicalizer (see :data:`Canonicalizer`).
    canonicalize: Optional[Canonicalizer] = None

    def canonical_params(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        """``params`` with configuration-inert knobs stripped (identity
        when the scenario declares no canonicalizer)."""
        return params if self.canonicalize is None else self.canonicalize(params)


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(
    name: str,
    *,
    figure: str,
    description: str,
    paper: str,
    default_params: Optional[Mapping[str, Any]] = None,
    default_trials: int = 25,
    tags: Tuple[str, ...] = (),
    formatter: Optional[Formatter] = None,
    canonicalize: Optional[Canonicalizer] = None,
) -> Callable[[Callable[[TrialContext], Metrics]], Callable[[TrialContext], Metrics]]:
    """Decorator: register the decorated trial callable as ``name``.

    The callable is returned unchanged so it stays directly importable
    and testable.  Registering a duplicate name raises ``ValueError``.
    """

    def decorator(trial: Callable[[TrialContext], Metrics]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = Scenario(
            name=name,
            figure=figure,
            description=description,
            paper=paper,
            trial=trial,
            default_params=MappingProxyType(dict(default_params or {})),
            default_trials=default_trials,
            tags=tuple(tags),
            formatter=formatter,
            canonicalize=canonicalize,
        )
        return trial

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a scenario (used by tests registering throwaway entries)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name; ``KeyError`` lists what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def scenarios_by_tag(tag: str) -> List[Scenario]:
    """Scenarios carrying ``tag`` (e.g. ``"scatter"``, ``"uplink"``)."""
    return [s for s in list_scenarios() if tag in s.tags]
