"""Fast-path bit-identity suite: the production ``run()`` vs its oracle.

``WLANSimulation.run`` has one production path (the event-driven
columnar driver, :mod:`repro.sim.events`) and one oracle,
:class:`~repro.sim.wlan.ReferenceWLANSimulation`.  This module owns the
shared case grid — every traffic model, churn, mobility, wideband,
selector, p2p service and fault cocktail — that the per-driver suites
(``test_columnar_equivalence.py``, ``test_event_equivalence.py``) run,
plus the cross-layer cases: the production ``run()`` vs the reference
over a drawn config space and split runs, and a stacked multi-cell city
vs the same city on reference cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import events, multicell
from repro.sim.multicell import MultiCellConfig, MultiCellSimulation
from repro.sim.wlan import ReferenceWLANSimulation, WLANConfig, WLANSimulation

N_SLOTS = 40


def config(**overrides):
    defaults = dict(
        n_aps=3,
        n_clients=8,
        n_antennas=2,
        rho=0.998,
        mean_gain_db=15.0,
        algorithm="best2",
        seed=11,
    )
    defaults.update(overrides)
    return WLANConfig(**defaults)


#: Every workload dimension: traffic models, population dynamics,
#: channel models, selectors, service disciplines.
WORKLOAD_CASES = {
    "saturated_best2": {},
    "saturated_fifo": {"algorithm": "fifo"},
    "saturated_brute": {"algorithm": "brute", "n_clients": 5},
    "poisson": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.6},
    },
    "bursty": {
        "traffic": "bursty",
        "traffic_params": {"rate_on": 0.8, "p_on": 0.1, "p_off": 0.2},
    },
    "heterogeneous": {
        "traffic": "heterogeneous",
        "traffic_params": {"rates": {0: 0.9, 1: 0.9}, "base_rate": 0.2},
    },
    "churn": {"churn_params": {"p_leave": 0.05, "p_join": 0.1}},
    "mobility": {
        "mobility_params": {"p_start": 0.2, "p_stop": 0.3, "rho_moving": 0.9}
    },
    "wideband": {"channel": "wideband", "n_bins": 2},
    "p2p": {"service": "p2p"},
    "big12": {"n_clients": 12, "rho": 0.99},
}

#: Every fault cocktail ``tests/faults`` exercises, plus the
#: everything-at-once plan; fault streams must consume identically under
#: both loops or the trajectories fork.
FAULT_CASES = {
    "bp_dead": {"fault_params": {"backplane_loss_rate": 1.0}},
    "bp_loss": {"fault_params": {"backplane_loss_rate": 0.5}},
    "bp_delay": {
        "fault_params": {"backplane_delay_rate": 1.0, "backplane_delay_max": 2}
    },
    "csi_corrupt": {"fault_params": {"csi_corrupt_rate": 0.3}},
    "csi_stale": {"fault_params": {"csi_stale_rate": 0.5}},
    "leader_crash_4ap": {
        "n_aps": 4,
        "fault_params": {"leader_crash_slot": 20},
    },
    "leader_crash_3ap": {
        "fault_params": {"leader_crash_slot": 10},
    },
    "full_cocktail": {
        "n_aps": 4,
        "fault_params": {
            "backplane_loss_rate": 0.1,
            "burst_enter": 0.05,
            "burst_exit": 0.3,
            "backplane_delay_rate": 0.1,
            "backplane_delay_max": 2,
            "csi_corrupt_rate": 0.1,
            "csi_stale_rate": 0.1,
            "leader_crash_slot": 20,
        },
    },
}

ALL_CASES = {**WORKLOAD_CASES, **FAULT_CASES}

#: Regimes where idle-span skipping dominates: sparse arrivals (long
#: idle gaps) and sounding cadences on both sides of the default.
EVENT_CASES = {
    "poisson_sparse": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.05},
    },
    "poisson_very_sparse": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.005},
    },
    "sparse_ack_every_slot": {
        "ack_period": 1,
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.02},
    },
    "sparse_ack_rare": {
        "ack_period": 16,
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.02},
    },
    "sparse_churn_mobility": {
        "traffic": "poisson",
        "traffic_params": {"rate_per_client": 0.05},
        "churn_params": {"p_leave": 0.05, "p_join": 0.1},
        "mobility_params": {"p_start": 0.2, "p_stop": 0.3, "rho_moving": 0.9},
    },
    "bursty_quiet": {
        "traffic": "bursty",
        "traffic_params": {"rate_on": 0.6, "p_on": 0.02, "p_off": 0.5},
    },
}

EVENT_ALL_CASES = {**ALL_CASES, **EVENT_CASES}


def fast_and_reference(cfg, n_slots, splits=()):
    """Production stats (run cut at ``splits``) and reference stats."""
    fast = WLANSimulation(cfg)
    for n in splits:
        fast.run(n)
    stats = fast.run(n_slots - sum(splits))
    return stats, ReferenceWLANSimulation(cfg).run(n_slots)


TRAFFIC = {
    "saturated": lambda load: {},
    "poisson": lambda load: {"traffic": "poisson",
                             "traffic_params": {"rate_per_client": load}},
    "bursty": lambda load: {"traffic": "bursty", "traffic_params": {
        "rate_on": 4 * load, "p_on": 0.05, "p_off": 0.2}},
}


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_clients=st.integers(min_value=4, max_value=10),
    traffic=st.sampled_from(sorted(TRAFFIC)),
    load=st.sampled_from([0.01, 0.1, 0.6]),
    ack_period=st.sampled_from([1, 4, 16]),
    extras=st.sets(st.sampled_from(["churn", "mobility", "full_cocktail"])),
    split=st.integers(min_value=0, max_value=29),
)
def test_production_run_equals_reference_property(
    seed, n_clients, traffic, load, ack_period, extras, split
):
    """Any workload, any split of the run: the oracle's exact stats."""
    overrides = dict(seed=seed, n_clients=n_clients, ack_period=ack_period,
                     **TRAFFIC[traffic](load))
    for name in sorted(extras):
        overrides.update(ALL_CASES[name])
    fast, reference = fast_and_reference(config(**overrides), 30, (split,))
    assert fast.to_dict() == reference.to_dict()


def test_wideband_split_run_equals_reference():
    """Wideband takes the per-slot fallback; splits still land exactly."""
    cfg = config(channel="wideband", n_bins=2, traffic="poisson",
                 traffic_params={"rate_per_client": 0.05})
    fast, reference = fast_and_reference(cfg, N_SLOTS, (7, 13))
    assert fast.digest() == reference.digest()


# ------------------------------------------------------------ multicell

CITY = dict(n_cells=4, clients_per_cell=6, barrier_slots=10, seed=3)
CITY_FAULTS = {
    "backplane_loss_rate": 0.1,
    "csi_corrupt_rate": 0.05,
    "leader_crash_slot": 12,
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fault_params", [None, CITY_FAULTS],
                         ids=["clean", "faulted"])
def test_stacked_city_equals_reference_cells(monkeypatch, workers, fault_params):
    """Shards step their cells stacked; every cell on the oracle agrees."""
    cfg = MultiCellConfig(
        aps_per_cell=4 if fault_params else 3, fault_params=fault_params, **CITY
    )
    stacked = MultiCellSimulation(cfg).run(30, workers=workers)
    monkeypatch.setattr(multicell, "WLANSimulation", ReferenceWLANSimulation)
    monkeypatch.setattr(events, "run_stacked", events.run_stacked_reference)
    reference = MultiCellSimulation(cfg).run(30, workers=1)
    assert stacked.to_dict() == reference.to_dict()
    assert stacked.digest() == reference.digest()
