"""Parallel, deterministic experiment execution.

``ExperimentRunner`` turns a registered :class:`~repro.experiments.registry.Scenario`
into an :class:`~repro.experiments.results.ExperimentResult`:

* every trial gets its own RNG stream spawned from the experiment seed
  (``spawn_rngs``), so trial ``i`` computes the same numbers whether it
  runs first, last, or on any of N workers;
* trials execute on a ``concurrent.futures`` thread pool (``workers=1``
  stays a plain loop); numpy's linear algebra releases the GIL, so the
  thousand-trial sweeps scale with cores without any pickling
  constraints on trial callables;
* results come back as structured records in trial order — ``--workers 1``
  and ``--workers 8`` are bit-for-bit identical.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from types import MappingProxyType
from typing import Any, Mapping, Optional, Union

from repro.experiments.registry import Scenario, TrialContext, get_scenario
from repro.experiments.results import ExperimentResult, TrialRecord, jsonify
from repro.sim.testbed import Testbed, TestbedConfig
from repro.utils.rng import spawn_rngs

#: Node count / channel seed of the paper's Fig.-11 testbed.
DEFAULT_TESTBED_NODES = 20
DEFAULT_TESTBED_SEED = 2009


class ExperimentRunner:
    """Runs scenarios against one (lazily built) testbed."""

    def __init__(
        self,
        testbed: Optional[Testbed] = None,
        *,
        testbed_seed: int = DEFAULT_TESTBED_SEED,
        n_nodes: int = DEFAULT_TESTBED_NODES,
        workers: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._testbed = testbed
        self._testbed_seed = testbed_seed
        self._n_nodes = n_nodes
        self.workers = workers

    @property
    def testbed_seed(self) -> int:
        """The *effective* channel seed: the attached testbed's if one was
        given, else the seed a lazily-built testbed will use.  Part of a
        sweep cell's identity (:mod:`repro.experiments.sweep`)."""
        if self._testbed is not None:
            return self._testbed.config.seed
        return self._testbed_seed

    @property
    def testbed_nodes(self) -> int:
        """The effective node count, by the same rule as :attr:`testbed_seed`."""
        if self._testbed is not None:
            return self._testbed.config.n_nodes
        return self._n_nodes

    @property
    def testbed(self) -> Testbed:
        if self._testbed is None:
            self._testbed = Testbed(
                TestbedConfig(n_nodes=self._n_nodes, seed=self._testbed_seed)
            )
        return self._testbed

    def run(
        self,
        scenario: Union[str, Scenario],
        *,
        n_trials: Optional[int] = None,
        seed: int = 0,
        params: Optional[Mapping[str, Any]] = None,
        workers: Optional[int] = None,
    ) -> ExperimentResult:
        """Execute a scenario and return its structured result."""
        if not isinstance(scenario, Scenario):
            scenario = get_scenario(scenario)
        scenario.check_known(params or {})
        merged: dict = dict(scenario.default_params)
        merged.update(params or {})
        frozen = MappingProxyType(merged)
        n = scenario.default_trials if n_trials is None else int(n_trials)
        if n < 0:
            raise ValueError("n_trials must be non-negative")

        testbed = self.testbed
        contexts = [
            TrialContext(testbed=testbed, rng=rng, index=i, params=frozen, seed=seed)
            for i, rng in enumerate(spawn_rngs(seed, n))
        ]

        n_workers = self.workers if workers is None else int(workers)
        if n_workers < 1:
            raise ValueError("workers must be >= 1")
        # ExperimentResult.seconds is diagnostic timing the bench suite
        # reads; it never feeds back into any simulated quantity.
        start = time.perf_counter()  # repro-lint: ignore[no-wallclock]
        if n_workers == 1 or n <= 1:
            outcomes = [scenario.trial(ctx) for ctx in contexts]
        else:
            with ThreadPoolExecutor(max_workers=min(n_workers, n)) as pool:
                outcomes = list(pool.map(scenario.trial, contexts))
        elapsed = time.perf_counter() - start  # repro-lint: ignore[no-wallclock]

        records = [
            TrialRecord(index=i, metrics={str(k): float(v) for k, v in m.items()})
            for i, m in enumerate(outcomes)
        ]
        return ExperimentResult(
            scenario=scenario.name,
            figure=scenario.figure,
            seed=seed,
            n_trials=n,
            params=jsonify(merged),
            records=records,
            seconds=elapsed,
        )


def run_experiment(
    scenario: Union[str, Scenario],
    *,
    n_trials: Optional[int] = None,
    seed: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    workers: int = 1,
    testbed: Optional[Testbed] = None,
    testbed_seed: int = DEFAULT_TESTBED_SEED,
) -> ExperimentResult:
    """One-shot convenience wrapper: ``run_experiment("fig13a")``.

    Builds a default paper-sized testbed (or uses the one given) and runs
    the named scenario.  See ``EXPERIMENTS.md`` for the scenario list.
    """
    runner = ExperimentRunner(testbed, testbed_seed=testbed_seed, workers=workers)
    return runner.run(scenario, n_trials=n_trials, seed=seed, params=params)
