"""Multi-cell scale-out layer (:mod:`repro.sim.multicell`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.geometry import nearest_center
from repro.sim.multicell import (
    MultiCellConfig,
    MultiCellSimulation,
    MultiCellStats,
    build_partition,
    cell_sim_seed,
    elect_cell_leaders,
)
from repro.sim.wlan import WLANSimulation


def tiny_config(**overrides):
    defaults = dict(
        n_cells=4,
        aps_per_cell=3,
        clients_per_cell=5,
        barrier_slots=5,
        seed=11,
    )
    defaults.update(overrides)
    return MultiCellConfig(**defaults)


class TestPartition:
    @given(
        n_cells=st.integers(min_value=1, max_value=12),
        clients_per_cell=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_node_in_exactly_one_cell(self, n_cells, clients_per_cell, seed):
        config = MultiCellConfig(
            n_cells=n_cells, clients_per_cell=clients_per_cell, seed=seed
        )
        part = build_partition(config)
        # No orphans, no duplicates: cell memberships tile the id range.
        ap_cover = np.concatenate([part.aps_of(k) for k in range(n_cells)])
        client_cover = np.concatenate([part.clients_of(k) for k in range(n_cells)])
        assert sorted(ap_cover.tolist()) == list(range(config.n_aps))
        assert sorted(client_cover.tolist()) == list(range(config.n_clients))

    @given(
        n_cells=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_assignment_agrees_with_nearest_center_oracle(self, n_cells, seed):
        # Scatter radius < spacing/2 guarantees the constructive block
        # assignment and the geometric oracle are the same partition.
        config = MultiCellConfig(n_cells=n_cells, seed=seed)
        part = build_partition(config)
        assert np.array_equal(
            nearest_center(part.ap_positions, part.centers), part.ap_cell
        )
        assert np.array_equal(
            nearest_center(part.client_positions, part.centers), part.client_cell
        )

    def test_scatter_independent_of_cell_count(self):
        # Per-cell spawned streams: growing the city re-lays the grid
        # (more columns) but never redraws an existing cell's scatter —
        # offsets from each cell's own centre agree to float rounding
        # (recovering the offset subtracts a different centre).
        small = build_partition(tiny_config(n_cells=4))
        large = build_partition(tiny_config(n_cells=9))
        assert np.allclose(
            small.ap_positions - small.centers[small.ap_cell],
            large.ap_positions[: 4 * 3] - large.centers[large.ap_cell[: 4 * 3]],
            atol=1e-12,
        )
        assert np.allclose(
            small.client_positions - small.centers[small.client_cell],
            large.client_positions[: 4 * 5]
            - large.centers[large.client_cell[: 4 * 5]],
            atol=1e-12,
        )

    def test_edge_rule_is_area_fraction(self):
        config = tiny_config(n_cells=16, clients_per_cell=8, edge_fraction=0.5)
        part = build_partition(config)
        # Uniform-in-area scatter: about half the clients are edge.
        assert abs(part.edge_client.mean() - 0.5) < 0.2
        # Edge clients really sit in the outer annulus.
        own = part.centers[part.client_cell]
        dist = np.linalg.norm(part.client_positions - own, axis=1)
        threshold = config.cell_radius * np.sqrt(0.5)
        assert np.array_equal(part.edge_client, dist > threshold)

    def test_edge_fraction_extremes(self):
        assert not build_partition(tiny_config(edge_fraction=0.0)).edge_client.any()
        assert build_partition(tiny_config(edge_fraction=1.0)).edge_client.all()

    def test_validation(self):
        with pytest.raises(ValueError, match="one cell"):
            build_partition(tiny_config(n_cells=0))
        with pytest.raises(ValueError, match="three APs"):
            build_partition(tiny_config(aps_per_cell=2))
        with pytest.raises(ValueError, match="as many clients"):
            build_partition(tiny_config(clients_per_cell=2))
        with pytest.raises(ValueError, match="cell_radius"):
            build_partition(tiny_config(cell_radius=0.6))
        with pytest.raises(ValueError, match="edge_fraction"):
            build_partition(tiny_config(edge_fraction=1.5))
        with pytest.raises(ValueError, match="engine must be one of"):
            tiny_config(engine="columnar")


class TestCellSeeds:
    def test_identity_hash_is_stable_and_distinct(self):
        assert cell_sim_seed(0, 3) == cell_sim_seed(0, 3)
        seeds = {cell_sim_seed(s, k) for s in range(4) for k in range(64)}
        assert len(seeds) == 4 * 64  # no collisions across seeds/cells

    def test_cell_seed_independent_of_city_size(self):
        # A cell's trajectory is a function of (config seed, cell id)
        # alone — not of how many other cells exist.
        assert cell_sim_seed(7, 2) == cell_sim_seed(7, 2)


class TestLeaders:
    def test_one_leader_per_cell_from_its_own_aps(self):
        part = build_partition(tiny_config(n_cells=6))
        leaders = elect_cell_leaders(part)
        assert len(leaders) == 6
        for k, leader in enumerate(leaders):
            assert leader in part.aps_of(k)
        assert len(set(leaders.tolist())) == 6  # distinct leaders

    def test_leaders_follow_the_election_rule(self):
        # The WLAN election rule is lowest-id-wins, per neighbourhood.
        part = build_partition(tiny_config(n_cells=3))
        leaders = elect_cell_leaders(part)
        assert leaders.tolist() == [0, 3, 6]


class TestDeterminismAndSharding:
    def test_repeat_runs_are_bit_identical(self):
        config = tiny_config()
        a = MultiCellSimulation(config).run(12)
        b = MultiCellSimulation(config).run(12)
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_count_never_changes_the_stats(self, workers):
        # The subsystem's core contract, mirroring the sweep engine's
        # invariance suite: sharding is an execution detail.
        config = tiny_config(n_cells=5, barrier_slots=4)
        serial = MultiCellSimulation(config).run(11, workers=1)
        sharded = MultiCellSimulation(config).run(11, workers=workers)
        assert serial.digest() == sharded.digest()
        assert serial.to_dict() == sharded.to_dict()

    def test_workers_clamped_to_cell_count(self):
        config = tiny_config(n_cells=2)
        a = MultiCellSimulation(config).run(6, workers=1)
        b = MultiCellSimulation(config).run(6, workers=8)
        assert a.digest() == b.digest()

    def test_uncoupled_city_equals_isolated_cells(self):
        # With the coupling zeroed (interference radius below the grid
        # pitch) every cell is exactly a standalone WLANSimulation on
        # its own hashed seed.
        config = tiny_config(interference_radius=0.5)
        sim = MultiCellSimulation(config)
        assert not sim.coupling.any()
        stats = sim.run(10)
        assert stats.max_interference_floor == 0.0
        for k in range(config.n_cells):
            alone = WLANSimulation(sim._configs[k]).run(10)
            assert stats.cell_rates[k] == alone.total_rate

    def test_barrier_slicing_does_not_change_uncoupled_cells(self):
        # Barriers only matter through the floors they inject; without
        # coupling, any barrier period yields the same trajectory.
        a = MultiCellSimulation(
            tiny_config(interference_radius=0.5, barrier_slots=3)
        ).run(12)
        b = MultiCellSimulation(
            tiny_config(interference_radius=0.5, barrier_slots=12)
        ).run(12)
        assert a.digest() == b.digest()

    def test_run_validation(self):
        sim = MultiCellSimulation(tiny_config())
        with pytest.raises(ValueError):
            sim.run(0)
        with pytest.raises(ValueError):
            sim.run(5, workers=0)


class TestBoundaryExchange:
    def test_coupling_matrix_shape_and_support(self):
        config = tiny_config(n_cells=9, interference_radius=1.5)
        sim = MultiCellSimulation(config)
        assert sim.coupling.shape == (9, 9)
        assert np.all(np.diag(sim.coupling) == 0.0)
        assert np.allclose(sim.coupling, sim.coupling.T)
        centers = sim.partition.centers
        d = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        assert np.all(sim.coupling[d > 1.5] == 0.0)
        # Adjacent cells (distance 1 spacing) couple at the reference gain.
        adjacent = np.isclose(d, 1.0)
        assert np.allclose(
            sim.coupling[adjacent], 10 ** (config.coupling_gain_db / 10.0)
        )

    def test_interference_lowers_throughput(self):
        quiet = MultiCellSimulation(tiny_config(interference_radius=0.5)).run(15)
        loud = MultiCellSimulation(
            tiny_config(coupling_gain_db=5.0)  # pathologically strong
        ).run(15)
        assert loud.max_interference_floor > 0.0
        assert loud.network_rate < quiet.network_rate

    def test_floor_statistics_recorded(self):
        stats = MultiCellSimulation(tiny_config()).run(15)
        assert 0.0 <= stats.mean_interference_floor <= stats.max_interference_floor


class TestMultiCellStats:
    def test_aggregation_counts(self):
        config = tiny_config()
        stats = MultiCellSimulation(config).run(10)
        assert stats.n_cells == config.n_cells
        assert stats.slots == 10
        assert stats.n_clients == config.n_clients
        assert len(stats.cell_rates) == config.n_cells
        assert sorted(stats.per_client_rate) == list(range(config.n_clients))
        assert stats.network_rate == pytest.approx(sum(stats.cell_rates))
        assert stats.mean_cell_rate == pytest.approx(
            stats.network_rate / config.n_cells
        )
        assert 0.0 < stats.jain_fairness <= 1.0
        assert 0.0 <= stats.idle_fraction <= 1.0
        assert stats.delivered_packets <= stats.offered_packets

    def test_digest_is_sensitive_and_canonical(self):
        a = MultiCellStats(n_cells=1, slots=5, cell_rates=[1.0])
        b = MultiCellStats(n_cells=1, slots=5, cell_rates=[1.0])
        assert a.digest() == b.digest()
        b.cell_rates[0] = 1.0 + 1e-12
        assert a.digest() != b.digest()

    def test_empty_stats_edge_cases(self):
        empty = MultiCellStats()
        assert empty.network_rate == 0.0
        assert empty.mean_cell_rate == 0.0
        assert empty.jain_fairness == 1.0
        assert empty.mean_latency_slots == 0.0
        assert empty.idle_fraction == 0.0

    def test_to_dict_round_trips_through_json(self):
        import json

        stats = MultiCellSimulation(tiny_config()).run(6)
        doc = json.loads(json.dumps(stats.to_dict()))
        assert doc["n_cells"] == stats.n_cells
        assert doc["network_rate"] == pytest.approx(stats.network_rate)
