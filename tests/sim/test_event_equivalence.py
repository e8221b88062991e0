"""Production event driver: bit-identity suite.

``WLANSimulation.run`` (the event driver,
:func:`~repro.sim.events.run_stacked`) is the columnar slot pieces with
idle slots fast-forwarded.
Over the shared grid of ``test_fast_path_equivalence.py`` plus the
sparse regimes where skipping dominates, it equals the reference loop
on the :class:`~repro.sim.wlan.ReferenceWLANSimulation` twin in every
``WLANStats`` field, matches the per-slot ``run_columnar`` digest,
resumes split runs exactly, and drives a sparse-load city whose
stacked shards match reference cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import events, multicell
from repro.sim.columnar import run_columnar
from repro.sim.wlan import ReferenceWLANSimulation, WLANSimulation
from test_fast_path_equivalence import EVENT_ALL_CASES, N_SLOTS, config

#: Long-trajectory subset: cases whose interesting dynamics (churn
#: evictions, fault windows, drift reports) need room to unfold.
LONG_CASES = (
    "sparse_churn_mobility",
    "sparse_ack_every_slot",
    "full_cocktail",
    "poisson_sparse",
)


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_event_equals_scalar_reference(name):
    """Full-WLANStats equality: every counter, rate, and event."""
    cfg = config(**EVENT_ALL_CASES[name])
    event = WLANSimulation(cfg).run(N_SLOTS)
    reference = ReferenceWLANSimulation(cfg).run(N_SLOTS)
    assert event.to_dict() == reference.to_dict()
    assert event.events == reference.events
    assert event.digest() == reference.digest()


@pytest.mark.parametrize("name", sorted(EVENT_ALL_CASES))
def test_event_digest_equals_columnar(name):
    """Skipping idle spans never moves a number."""
    cfg = config(**EVENT_ALL_CASES[name])
    event = WLANSimulation(cfg).run(N_SLOTS)
    columnar = run_columnar(WLANSimulation(cfg), N_SLOTS)
    assert event.digest() == columnar.digest()


@pytest.mark.parametrize("name", LONG_CASES)
def test_event_long_trajectory(name):
    """200-slot runs: enough room for churn/fault/drift interleavings."""
    cfg = config(**EVENT_ALL_CASES[name])
    event = WLANSimulation(cfg).run(200)
    reference = ReferenceWLANSimulation(cfg).run(200)
    assert event.to_dict() == reference.to_dict()
    assert event.events == reference.events


def test_event_split_run_equals_single_run():
    """run(70) + run(130) rebuilds driver state onto the same bits."""
    cfg = config(**EVENT_ALL_CASES["sparse_churn_mobility"])
    split = WLANSimulation(cfg)
    split.run(70)
    stats = split.run(130)
    whole = ReferenceWLANSimulation(cfg).run(200)
    assert stats.digest() == whole.digest()


def test_event_summary_accounts_for_every_slot():
    """processed + skipped == n_slots, and saturation never skips."""
    sparse = WLANSimulation(
        config(traffic="poisson", traffic_params={"rate_per_client": 0.02})
    )
    sparse.run(200)
    summary = sparse.last_event_summary
    assert summary["processed_slots"] + summary["skipped_slots"] == 200
    assert summary["skipped_slots"] > 0

    saturated = WLANSimulation(config())
    saturated.run(50)
    assert saturated.last_event_summary == {
        "processed_slots": 50,
        "skipped_slots": 0,
    }


def test_multicell_cells_can_run_event_engine(monkeypatch):
    """Sparse-load city: stacked, skipping shards match reference cells."""
    from repro.sim.multicell import MultiCellConfig, MultiCellSimulation

    cfg = MultiCellConfig(
        n_cells=4, clients_per_cell=4, traffic="poisson", load=0.1, seed=5
    )
    fast = MultiCellSimulation(cfg).run(30)
    monkeypatch.setattr(multicell, "WLANSimulation", ReferenceWLANSimulation)
    monkeypatch.setattr(events, "run_stacked", events.run_stacked_reference)
    assert fast.digest() == MultiCellSimulation(cfg).run(30).digest()


@settings(deadline=None, max_examples=12)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_clients=st.integers(min_value=4, max_value=10),
    load=st.sampled_from([0.01, 0.05, 0.2, 0.6]),
    ack_period=st.sampled_from([1, 4, 16]),
)
def test_event_equivalence_property(seed, n_clients, load, ack_period):
    """Any (seed, population, load, cadence): the reference digest."""
    cfg = config(
        seed=seed,
        n_clients=n_clients,
        ack_period=ack_period,
        traffic="poisson",
        traffic_params={"rate_per_client": load},
    )
    event = WLANSimulation(cfg).run(25)
    reference = ReferenceWLANSimulation(cfg).run(25)
    assert event.digest() == reference.digest()
