"""Tests for the parameter-grid sweep engine and its resumable cache."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import register_scenario, unregister_scenario
from repro.experiments.sweep import (
    SweepCache,
    SweepResult,
    cell_key,
    cell_seed,
    grid_cells,
    run_sweep,
)


@pytest.fixture
def toy_scenario():
    """A cheap deterministic scenario: metrics derived from rng + params."""
    name = "_sweep_toy"

    @register_scenario(
        name,
        figure="test",
        description="toy sweep target",
        paper="n/a",
        default_params={"scale": 1.0, "offset": 0.0},
        default_trials=3,
    )
    def toy_trial(ctx):
        draw = float(ctx.rng.random())
        return {
            "value": draw * float(ctx.params["scale"]) + float(ctx.params["offset"]),
            "gain": 1.0 + draw,
        }

    yield name
    unregister_scenario(name)


class TestGrid:
    def test_product_order(self):
        cells = grid_cells({"a": [1, 2], "b": ["x", "y"]})
        assert cells == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_empty_grid_is_one_cell(self):
        assert grid_cells({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid_cells({"a": []})

    def test_cell_key_is_order_insensitive_and_stable(self):
        k1 = cell_key("s", 0, 4, {"a": 1, "b": 2})
        k2 = cell_key("s", 0, 4, {"b": 2, "a": 1})
        assert k1 == k2
        assert cell_key("s", 1, 4, {"a": 1, "b": 2}) != k1
        assert cell_key("s", 0, 5, {"a": 1, "b": 2}) != k1
        assert 0 <= cell_seed(k1) < 2**63


class TestRunSweep:
    def test_table_shape_and_order(self, toy_scenario):
        result = run_sweep(toy_scenario, {"scale": [1.0, 2.0], "offset": [0.0, 10.0]})
        assert [c.params for c in result.cells] == grid_cells(
            {"scale": [1.0, 2.0], "offset": [0.0, 10.0]}
        )
        assert all(c.n_trials == 3 for c in result.cells)
        # offset shifts the metric mean by exactly 10 for matching scale
        # cells ONLY if the rng draws matched — they must not, because the
        # cell identity (and hence the seed) differs.
        means = [c.metric_mean("value") for c in result.cells]
        assert len(set(means)) == len(means)

    def test_worker_invariance(self, toy_scenario):
        grid = {"scale": [1.0, 2.0, 3.0], "offset": [0.0, 5.0]}
        serial = run_sweep(toy_scenario, grid, workers=1)
        threaded = run_sweep(toy_scenario, grid, workers=4)
        assert serial.to_dict() == threaded.to_dict()
        assert serial.to_json() == threaded.to_json()

    def test_cells_independent_of_grid_shape(self, toy_scenario):
        """A cell's numbers depend only on its own parameters."""
        small = run_sweep(toy_scenario, {"scale": [2.0]})
        large = run_sweep(toy_scenario, {"scale": [1.0, 2.0, 3.0]})
        by_scale = {c.params["scale"]: c for c in large.cells}
        assert small.cells[0].summary == by_scale[2.0].summary

    def test_fixed_params_enter_cell_identity(self, toy_scenario):
        base = run_sweep(toy_scenario, {"scale": [1.0]})
        shifted = run_sweep(toy_scenario, {"scale": [1.0]}, params={"offset": 3.0})
        assert base.cells[0].key != shifted.cells[0].key

    def test_mean_gain_headline(self, toy_scenario):
        result = run_sweep(toy_scenario, {"scale": [1.0]})
        assert result.cells[0].mean_gain == pytest.approx(
            result.cells[0].metric_mean("gain")
        )

    def test_json_round_trip(self, toy_scenario):
        result = run_sweep(toy_scenario, {"scale": [1.0, 2.0]})
        restored = SweepResult.from_json(result.to_json())
        assert restored == result

    def test_table_renders_requested_metrics(self, toy_scenario):
        result = run_sweep(toy_scenario, {"scale": [1.0, 2.0]})
        table = result.table(["value"])
        lines = table.splitlines()
        assert lines[0].split() == ["scale", "value"]
        assert len(lines) == 2 + len(result.cells)  # header + rule + rows

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_sweep("no-such-scenario", {"a": [1]})

    def test_misspelled_axis_fails_loudly(self, toy_scenario):
        """A typo'd knob must not become a seed-noise 'effect'."""
        with pytest.raises(ValueError, match="scal_e"):
            run_sweep(toy_scenario, {"scal_e": [1.0, 2.0]})
        with pytest.raises(ValueError, match="offst"):
            run_sweep(toy_scenario, {"scale": [1.0]}, params={"offst": 2.0})


class TestSweepCache:
    def test_resume_is_bit_identical(self, toy_scenario, tmp_path):
        grid = {"scale": [1.0, 2.0, 3.0], "offset": [0.0, 5.0]}
        cache_path = tmp_path / "cells.json"

        fresh = run_sweep(toy_scenario, grid, workers=2, cache=cache_path)
        assert fresh.cached_cells == 0

        # Simulate an interrupted sweep: keep only half the cell lines.
        header, *records = cache_path.read_text().splitlines(keepends=True)
        kept = sorted(records, key=lambda line: json.loads(line)["key"])[:3]
        cache_path.write_text(header + "".join(kept))

        resumed = run_sweep(toy_scenario, grid, workers=4, cache=cache_path)
        assert resumed.cached_cells == 3
        assert resumed.to_dict() == fresh.to_dict()
        assert resumed.to_json() == fresh.to_json()

    def test_resume_from_pre_migration_cache(self, toy_scenario, tmp_path):
        """A legacy v1 JSON-blob cache resumes bit-identically, then migrates."""
        grid = {"scale": [1.0, 2.0, 3.0], "offset": [0.0, 5.0]}
        cache_path = tmp_path / "cells.json"
        fresh = run_sweep(toy_scenario, grid, cache=cache_path)

        # Rewrite the cache in the pre-store blob format, minus one cell,
        # exactly as an interrupted pre-migration sweep would have left it.
        _header, *records = cache_path.read_text().splitlines()
        cells = {rec["key"]: rec for rec in map(json.loads, records)}
        del cells[sorted(cells)[-1]]
        cache_path.write_text(
            json.dumps({"schema_version": 1, "cells": cells}, indent=2)
        )

        resumed = run_sweep(toy_scenario, grid, cache=cache_path)
        assert resumed.cached_cells == len(cells)
        assert resumed.to_dict() == fresh.to_dict()
        # The first write migrated the file to JSON-lines.
        first_line = json.loads(cache_path.read_text().splitlines()[0])
        assert first_line["format"] == "repro-result-store"

    def test_full_cache_runs_nothing(self, toy_scenario, tmp_path):
        grid = {"scale": [1.0, 2.0]}
        cache_path = tmp_path / "cells.json"
        first = run_sweep(toy_scenario, grid, cache=cache_path)
        calls = []
        second = run_sweep(
            toy_scenario, grid, cache=cache_path,
            progress=lambda cell, cached: calls.append(cached),
        )
        assert second.cached_cells == len(grid_cells(grid))
        assert all(calls)
        assert second.to_dict() == first.to_dict()

    def test_overlapping_grid_reuses_cells(self, toy_scenario, tmp_path):
        cache_path = tmp_path / "cells.json"
        run_sweep(toy_scenario, {"scale": [1.0, 2.0]}, cache=cache_path)
        widened = run_sweep(
            toy_scenario, {"scale": [1.0, 2.0, 3.0]}, cache=cache_path
        )
        assert widened.cached_cells == 2

    def test_cache_file_schema(self, toy_scenario, tmp_path):
        cache_path = tmp_path / "cells.json"
        run_sweep(toy_scenario, {"scale": [1.0]}, n_trials=2, cache=cache_path)
        lines = cache_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-result-store"
        assert header["schema_version"] == 1
        assert header["kind"] == "sweep-cells"
        (cell,) = (json.loads(line) for line in lines[1:])
        assert cell["n_trials"] == 2
        assert set(cell["summary"]["value"]) == {"mean", "min", "max", "std"}
        # Key and seed agree with the public derivations.
        key = cell_key(toy_scenario, 0, 2, {"scale": 1.0, "offset": 0.0})
        assert cell["key"] == key
        assert cell["seed"] == cell_seed(key)

    def test_default_trials_and_explicit_default_share_cells(
        self, toy_scenario, tmp_path
    ):
        """``--trials <default>`` and no ``--trials`` are the same cell."""
        cache_path = tmp_path / "cells.json"
        implicit = run_sweep(toy_scenario, {"scale": [1.0]}, cache=cache_path)
        explicit = run_sweep(
            toy_scenario, {"scale": [1.0]}, n_trials=3, cache=cache_path
        )
        assert explicit.cached_cells == 1
        assert explicit.to_dict() == implicit.to_dict()

    def test_testbed_seed_changes_key(self, toy_scenario, tmp_path):
        """A shared cache must not serve another testbed's numbers."""
        from repro.experiments import ExperimentRunner

        cache_path = tmp_path / "cells.json"
        grid = {"scale": [1.0]}
        first = run_sweep(
            toy_scenario, grid, cache=cache_path,
            runner=ExperimentRunner(testbed_seed=2009),
        )
        other = run_sweep(
            toy_scenario, grid, cache=cache_path,
            runner=ExperimentRunner(testbed_seed=42),
        )
        assert other.cached_cells == 0
        assert other.cells[0].key != first.cells[0].key
        assert cell_key("s", 0, 1, {}, testbed_seed=1) != cell_key(
            "s", 0, 1, {}, testbed_seed=2
        )

    def test_explicit_testbed_object_enters_identity(self, toy_scenario, tmp_path):
        """A runner built around a testbed *object* must not alias the
        default-seed cache keys (the runner reports the attached
        testbed's true seed and node count)."""
        from repro.experiments import ExperimentRunner
        from repro.sim.testbed import Testbed, TestbedConfig

        cache_path = tmp_path / "cells.json"
        grid = {"scale": [1.0]}
        run_sweep(toy_scenario, grid, cache=cache_path,
                  runner=ExperimentRunner())
        custom = run_sweep(
            toy_scenario, grid, cache=cache_path,
            runner=ExperimentRunner(Testbed(TestbedConfig(n_nodes=20, seed=7))),
        )
        assert custom.cached_cells == 0
        fewer_nodes = run_sweep(
            toy_scenario, grid, cache=cache_path,
            runner=ExperimentRunner(n_nodes=10),
        )
        assert fewer_nodes.cached_cells == 0

    def test_trial_count_changes_key(self, toy_scenario, tmp_path):
        cache_path = tmp_path / "cells.json"
        run_sweep(toy_scenario, {"scale": [1.0]}, n_trials=2, cache=cache_path)
        again = run_sweep(
            toy_scenario, {"scale": [1.0]}, n_trials=4, cache=cache_path
        )
        assert again.cached_cells == 0
        assert again.cells[0].n_trials == 4


class TestSweepCLI:
    def test_sweep_json_stdout(self, toy_scenario, capsys):
        assert main([
            "sweep", toy_scenario, "--grid", "scale=1.0,2.0",
            "--no-cache", "--json", "-",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sweep"] == toy_scenario
        assert [c["params"] for c in doc["cells"]] == [
            {"scale": 1.0}, {"scale": 2.0},
        ]

    def test_sweep_table_and_cache(self, toy_scenario, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        argv = [
            "sweep", toy_scenario, "--grid", "scale=1.0,2.0",
            "--cache", str(cache), "--metrics", "value,gain",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cells (0 cached, 2 ran)" in out
        assert "value" in out and "gain" in out
        assert cache.exists()
        assert main(argv) == 0
        assert "2 cells (2 cached, 0 ran)" in capsys.readouterr().out

    def test_sweep_workers_match_serial(self, toy_scenario, capsys):
        argv = ["sweep", toy_scenario, "--grid", "scale=1.0,2.0,3.0",
                "--no-cache", "--json", "-"]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_sweep_requires_grid(self, toy_scenario, capsys):
        assert main(["sweep", toy_scenario, "--no-cache"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_sweep_unknown_scenario(self, capsys):
        assert main(["sweep", "nope", "--grid", "a=1", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_bad_grid_syntax(self, toy_scenario):
        with pytest.raises(SystemExit):
            main(["sweep", toy_scenario, "--grid", "oops", "--no-cache"])
        with pytest.raises(SystemExit):
            main(["sweep", toy_scenario, "--grid", "a=1", "--grid", "a=2",
                  "--no-cache"])

    def test_python_style_booleans_parse(self, capsys):
        """`--grid churn=True,False` must toggle the flag, not pass a
        truthy 'False' string that silently enables churn."""
        assert main([
            "sweep", "churn_throughput", "--grid", "churn=True,False",
            "--trials", "1", "--param", "n_slots=30",
            "--param", "n_clients=6", "--no-cache", "--json", "-",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_churn = {c["params"]["churn"]: c for c in doc["cells"]}
        assert set(by_churn) == {True, False}
        assert by_churn[False]["summary"]["leaves"]["mean"] == 0.0
        assert by_churn[True]["summary"]["leaves"]["mean"] > 0.0

    def test_removed_engine_rejected_before_any_cell_runs(self, capsys):
        """`--grid engine=columnar` names the knob and what it accepts."""
        assert main([
            "sweep", "load_latency", "--grid", "engine=columnar,event",
            "--trials", "1", "--no-cache",
        ]) == 1
        err = capsys.readouterr().err
        assert "engine" in err and "'scalar', 'batched'" in err

    def test_store_from_before_the_engine_collapse_resumes(self, tmp_path):
        """A store written by an ``engine=columnar`` sweep, when that was
        a value, resumes with every cell served (keys never hash engine)."""
        fixture = Path(__file__).parent / "fixtures" / "load_latency_store.jsonl"
        cache_path = shutil.copy(fixture, tmp_path / "cells.jsonl")
        resumed = run_sweep(
            "load_latency", {"load": [0.3, 0.9]}, n_trials=1,
            params={"n_slots": 30, "n_clients": 6}, cache=cache_path,
        )
        assert resumed.cached_cells == 2
        assert cache_path.read_bytes() == fixture.read_bytes()

    def test_sweep_bad_param_reported(self, toy_scenario, capsys):
        assert main([
            "sweep", "fig15_dynamic", "--grid", "traffic=fractal",
            "--trials", "1", "--no-cache",
        ]) == 1
        assert "error: sweeping" in capsys.readouterr().err
