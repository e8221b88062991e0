"""Columnar slot pieces and the stacked driver: bit-identity suite.

Over the shared grid of ``test_fast_path_equivalence.py``:
:func:`~repro.sim.columnar.run_columnar` (the pieces slot by slot, no
skipping) equals the reference loop on the
:class:`~repro.sim.wlan.ReferenceWLANSimulation` twin in every
``WLANStats`` field, event log included, and the production ``run()``
digest; :func:`~repro.sim.events.run_stacked` equals
:func:`~repro.sim.events.run_stacked_reference` at any stacking width.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.columnar import run_columnar, run_columnar_reference
from repro.sim.events import run_stacked, run_stacked_reference
from repro.sim.wlan import ReferenceWLANSimulation, WLANSimulation
from test_fast_path_equivalence import ALL_CASES, N_SLOTS, config


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_columnar_equals_scalar_reference(name):
    """Full-WLANStats equality: every counter, rate, and event."""
    cfg = config(**ALL_CASES[name])
    columnar = run_columnar(WLANSimulation(cfg), N_SLOTS)
    reference = run_columnar_reference(ReferenceWLANSimulation(cfg), N_SLOTS)
    # Field-by-field (the dict compares floats bit-exactly via ==), then
    # the event log explicitly — ordering included.
    assert columnar.to_dict() == reference.to_dict()
    assert columnar.events == reference.events
    assert columnar.digest() == reference.digest()


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_columnar_digest_equals_batched(name):
    """The per-slot pieces and the production run agree bit for bit."""
    cfg = config(**ALL_CASES[name])
    columnar = run_columnar(WLANSimulation(cfg), N_SLOTS)
    production = WLANSimulation(cfg).run(N_SLOTS)
    assert columnar.digest() == production.digest()


def _mixed_configs():
    """Heterogeneous stack: different seeds, workloads and populations."""
    return [
        config(seed=3),
        config(seed=4, n_clients=12, rho=0.99),
        config(seed=5, traffic="poisson", traffic_params={"rate_per_client": 0.6}),
        config(seed=6, churn_params={"p_leave": 0.05, "p_join": 0.1}),
        config(seed=7, traffic="poisson", traffic_params={"rate_per_client": 0.02}),
    ]


def test_run_stacked_equals_reference():
    """Stacking never couples trials: bit-identical stats."""
    stacked = run_stacked([WLANSimulation(c) for c in _mixed_configs()], N_SLOTS)
    reference = run_stacked_reference(
        [ReferenceWLANSimulation(c) for c in _mixed_configs()], N_SLOTS
    )
    assert [s.digest() for s in stacked] == [r.digest() for r in reference]


def test_run_stacked_width_invariance():
    """Each member's stats equal its solo production run, at any width."""
    stacked = run_stacked([WLANSimulation(c) for c in _mixed_configs()], N_SLOTS)
    solo = [WLANSimulation(c).run(N_SLOTS) for c in _mixed_configs()]
    assert [s.to_dict() for s in stacked] == [r.to_dict() for r in solo]


def test_run_stacked_degrades_for_non_columnar_members():
    """Members off the fast path run their own loop — same bits, no error."""
    members = [(WLANSimulation, ReferenceWLANSimulation, config(seed=3)),
               (ReferenceWLANSimulation, ReferenceWLANSimulation, config(seed=4)),
               (WLANSimulation, WLANSimulation, config(seed=5, engine="scalar"))]
    stacked = run_stacked([cls(c) for cls, _, c in members], N_SLOTS)
    reference = run_stacked_reference([ref(c) for _, ref, c in members], N_SLOTS)
    assert [s.digest() for s in stacked] == [r.digest() for r in reference]


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_clients=st.integers(min_value=4, max_value=10),
    rho=st.sampled_from([0.9, 0.99, 0.998, 1.0]),
    algorithm=st.sampled_from(["best2", "fifo"]),
    traffic=st.sampled_from(["saturated", "poisson"]),
)
def test_columnar_equivalence_property(seed, n_clients, rho, algorithm, traffic):
    """Any (seed, population, fading, selector, traffic): same digest."""
    overrides = dict(seed=seed, n_clients=n_clients, rho=rho, algorithm=algorithm)
    if traffic == "poisson":
        overrides["traffic"] = "poisson"
        overrides["traffic_params"] = {"rate_per_client": 0.5}
    cfg = config(**overrides)
    columnar = run_columnar(WLANSimulation(cfg), 25)
    reference = run_columnar_reference(ReferenceWLANSimulation(cfg), 25)
    assert columnar.digest() == reference.digest()
