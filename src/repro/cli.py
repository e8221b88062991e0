"""Command-line interface: registry-driven experiment runner.

Scenarios come from the :mod:`repro.experiments` registry — the CLI has
no per-figure wiring of its own.  Usage::

    python -m repro list [--tag TAG]
    python -m repro run SCENARIO [--trials N] [--seed S] [--workers N]
                        [--json PATH|-] [--quiet] [--param KEY=VALUE ...]
    python -m repro sweep SCENARIO --grid KEY=V1,V2,... [--grid ...]
                        [--workers N] [--cache PATH | --no-cache]
                        [--retries N] [--backoff S] [--quarantine]
    python -m repro fig12 | fig13a | fig13b | fig14      (legacy aliases)
    python -m repro fig15 [--slots N] [--direction uplink|downlink]
    python -m repro fig16 | fig17
    python -m repro lemmas | overhead
    python -m repro bench [--quick] [--events] [--ofdm] [--city] [--faults]
                          [--skip-wlan|-signal|-scenarios] [--out-dir DIR]
    python -m repro lint [--json PATH] [--rule RULE-ID] [--no-baseline]
    python -m repro --version

``run`` executes any registered scenario; ``--json -`` writes the
structured result to stdout (and nothing else), ``--json PATH`` archives
it next to the human-readable report, ``--quiet`` suppresses the ASCII
plots, and ``--workers`` parallelises trials without changing a single
output bit.  ``sweep`` fans the cartesian product of ``--grid`` axes
across workers (one scenario run per cell, per-cell RNG streams) and
memoises completed cells in a JSON cache so an interrupted sweep resumes
bit-identically; see :mod:`repro.experiments.sweep`.  The ``figNN`` subcommands are thin aliases over the same
registry.  ``bench`` times the WLAN hot path under both group-evaluation
engines, the sample-accurate signal pipeline against its scalar oracle,
and a set of scenario trials, writing
``BENCH_wlan.json`` / ``BENCH_signal.json`` / ``BENCH_scenarios.json``
(``--quick`` for the CI smoke variant; ``--events`` adds the
event-driven kernel vs the columnar slot loop across offered loads with
per-point digest checks, ``BENCH_events.json``; ``--ofdm`` adds the
subcarrier-batched band solver vs the per-bin reference loop,
``BENCH_ofdm.json``;
``--city`` adds the sharded multi-cell city vs worker count with its
bit-identity check, ``BENCH_city.json``; ``--faults`` adds the fault
layer — a backplane-loss degradation curve plus a fully-faulted city
whose digest must match across worker counts and same-seed reruns,
``BENCH_faults.json``; ``--skip-wlan``/``--skip-signal``/
``--skip-scenarios`` drop the default suites, so any subset runs in one
invocation).  ``sweep --retries``/``--backoff`` retry failing
cells on a capped deterministic schedule and ``--quarantine`` records
exhausted failures in the result instead of aborting the sweep.
``lint`` runs the AST contract linter (:mod:`repro.analysis`) over the
source tree — determinism, RNG-stream, engine-pair and related
invariants — exiting non-zero on any finding not grandfathered in
``LINT_BASELINE.json``; see docs/ARCHITECTURE.md §"Enforced contracts".
See ``EXPERIMENTS.md`` for every scenario, its paper figure, the
expected gain ranges and the benchmark JSON schemas.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.core.dof import downlink_max_packets, uplink_max_packets
from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    Scenario,
    gain_cdf_from_record,
    get_scenario,
    list_scenarios,
    scenario_names,
    scenarios_by_tag,
)
from repro.mac.frames import DataPollMetadata, GroupEntry
from repro.sim.metrics import format_cdf_table
from repro.sim.plotting import ascii_cdf

#: Legacy scatter subcommands kept as aliases of ``run <name>``.
_SCATTER_ALIASES = ("fig12", "fig13a", "fig13b", "fig14")


def _fail(message: str, code: int = 1) -> int:
    """Report a CLI failure on stderr; return the exit code.

    Every error path funnels through here so failures read uniformly
    (``error: <what> — naming the offending knob``) and never land on
    stdout, which ``--json -`` reserves for machine-readable output.
    """
    print(f"error: {message}", file=sys.stderr)
    return code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_value(raw: str) -> Any:
    """A ``--param``/``--grid`` value: JSON, with a bare-string fallback
    (so ``algorithm=brute`` works without quoting).

    Python-style literals are honoured: a bare ``False`` is not valid
    JSON and would otherwise fall back to a *truthy* non-empty string,
    silently enabling whatever feature flag it was meant to disable.
    """
    if raw in ("True", "False", "None"):
        return None if raw == "None" else raw == "True"
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Any]:
    """Parse repeated ``--param key=value`` overrides (values are JSON)."""
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        params[key] = _parse_value(raw)
    return params


def _runner(args) -> ExperimentRunner:
    return ExperimentRunner(
        testbed_seed=args.testbed_seed, workers=getattr(args, "workers", 1)
    )


def _emit_json(doc: str, target: Optional[str]) -> Optional[int]:
    """Handle a ``--json`` target; shared by every emitting subcommand.

    ``"-"`` prints the document as the only stdout output and returns 0;
    a path archives it (returning 1 on failure); otherwise returns
    ``None`` — the caller proceeds with its human-readable report.
    """
    if target == "-":
        print(doc)
        return 0
    if target:
        try:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except OSError as exc:
            return _fail(f"cannot write --json target {target}: {exc}")
    return None


def _emit(scenario: Scenario, result: ExperimentResult, args) -> int:
    """Write the JSON and/or human-readable views of a result.

    ``--json -`` is the machine path: the JSON document is the only
    stdout output.  Otherwise the scenario's formatter renders the
    report (``--quiet`` drops the ASCII plots) and ``--json PATH``
    archives the structured result alongside it.
    """
    json_target = getattr(args, "json", None)
    code = _emit_json(result.to_json(), json_target)
    if code is not None:
        return code
    if scenario.formatter is not None:
        print(scenario.formatter(result, quiet=args.quiet))
    else:
        print(result.to_json())
    if json_target:
        print(f"  (structured result written to {json_target})")
    return 0


def _cmd_list(args) -> int:
    scenarios = scenarios_by_tag(args.tag) if args.tag else list_scenarios()
    if not scenarios:
        print(f"no scenarios tagged {args.tag!r}")
        return 1
    name_width = max(8, max(len(s.name) for s in scenarios))
    print(f"{'name':<{name_width}} {'figure':<9} {'trials':>6}  {'paper':<41} description")
    for s in scenarios:
        print(
            f"{s.name:<{name_width}} {s.figure:<9} {s.default_trials:>6}  "
            f"{s.paper:<41} {s.description}"
        )
    print(f"\n{len(scenarios)} scenarios; run one with: python -m repro run NAME")
    return 0


def _cmd_run(args) -> int:
    try:
        scenario = get_scenario(args.scenario)
    except KeyError:
        return _fail(
            f"unknown scenario {args.scenario!r}; "
            f"available: {', '.join(scenario_names())}",
            code=2,
        )
    try:
        result = _runner(args).run(
            scenario,
            n_trials=args.trials,
            seed=args.seed,
            params=_parse_params(args.param),
        )
    except (KeyError, TypeError, ValueError) as exc:
        # Free-form --param overrides reach the trial unchecked; surface
        # the trial's complaint (which names the knob) instead of a
        # traceback.
        return _fail(f"running {scenario.name!r}: {exc}")
    return _emit(scenario, result, args)


def _parse_grid(pairs: Optional[List[str]]) -> Dict[str, List[Any]]:
    """Parse repeated ``--grid key=v1,v2,...`` axes (values are JSON)."""
    grid: Dict[str, List[Any]] = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key or not raw:
            raise SystemExit(f"--grid expects KEY=V1,V2,..., got {pair!r}")
        values = [_parse_value(item) for item in raw.split(",")]
        if key in grid:
            raise SystemExit(f"--grid axis {key!r} given twice")
        grid[key] = values
    return grid


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import SweepCache, run_sweep

    try:
        scenario = get_scenario(args.scenario)
    except KeyError:
        return _fail(
            f"unknown scenario {args.scenario!r}; "
            f"available: {', '.join(scenario_names())}",
            code=2,
        )
    grid = _parse_grid(args.grid)
    if not grid:
        return _fail("sweep needs at least one --grid KEY=V1,V2,... axis", code=2)
    cache = None
    if not args.no_cache:
        path = args.cache or os.path.join(
            ".sweep-cache", f"{scenario.name}-seed{args.seed}.json"
        )
        try:
            cache = SweepCache(path)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot use sweep cache {path}: {exc}")
    def progress(cell, from_cache):
        if not args.quiet and args.json != "-":
            label = ", ".join(f"{k}={v}" for k, v in cell.params.items())
            source = "cached" if from_cache else "ran"
            print(f"  [{source}] {label}")

    try:
        result = run_sweep(
            scenario,
            grid,
            params=_parse_params(args.param),
            n_trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            cache=cache,
            runner=_runner(args),
            progress=progress,
            retries=args.retries,
            backoff=args.backoff,
            quarantine=args.quarantine,
        )
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"sweeping {scenario.name!r}: {exc}")
    code = _emit_json(result.to_json(), args.json)
    if code is not None:
        return code
    metrics = args.metrics.split(",") if args.metrics else None
    fresh = len(result.cells) - result.cached_cells
    print(
        f"sweep {scenario.name}: {len(result.cells)} cells "
        f"({result.cached_cells} cached, {fresh} ran"
        + (f", {len(result.quarantined)} quarantined" if result.quarantined else "")
        + f"), {args.workers} workers, seed {args.seed}"
    )
    print()
    print(result.table(metrics))
    if result.quarantined:
        print(f"\n  {len(result.quarantined)} cell(s) quarantined after retries:")
        for q in result.quarantined:
            label = ", ".join(f"{k}={v}" for k, v in sorted(q.params.items()))
            print(f"    {label}: {q.error} ({q.attempts} attempt(s))")
    if cache is not None:
        print(f"\n  (cell cache: {cache.path})")
    if args.json:
        print(f"  (structured result written to {args.json})")
    return 0


def _cmd_scatter(name: str, args) -> int:
    scenario = get_scenario(name)
    result = _runner(args).run(scenario, n_trials=args.trials, seed=args.seed)
    return _emit(scenario, result, args)


def _cmd_fig15(args) -> int:
    """Legacy fig15 alias: every (direction, algorithm) combination.

    Unlike the other aliases this is a *composite* of six registry runs,
    so ``--json`` emits one document with a ``runs`` list of the
    individual structured results.
    """
    runner = _runner(args)
    directions = [args.direction] if args.direction else ["uplink", "downlink"]
    paper = {
        ("uplink", "brute"): 2.32, ("uplink", "fifo"): 1.9, ("uplink", "best2"): 2.08,
        ("downlink", "brute"): 1.58, ("downlink", "fifo"): 1.23, ("downlink", "best2"): 1.52,
    }
    results = []
    lines: List[str] = []
    for direction in directions:
        lines.append(f"fig15 ({direction}): 17 clients, 3 APs, {args.slots} slots")
        cdfs = []
        for algorithm in ("brute", "fifo", "best2"):
            result = runner.run(
                "fig15",
                n_trials=1,
                seed=args.seed,
                params={
                    "algorithm": algorithm,
                    "direction": direction,
                    "n_slots": args.slots,
                },
            )
            results.append(result)
            cdf = gain_cdf_from_record(
                result.records[0], label=f"{algorithm}/{direction}"
            )
            cdfs.append(cdf)
            lines.append(
                f"  {algorithm:>6s}: mean {cdf.mean_gain:.2f}x "
                f"(paper {paper[(direction, algorithm)]}x), "
                f"worst client {cdf.min_gain:.2f}x"
            )
        lines.append("")
        lines.append(format_cdf_table(cdfs, n_rows=8))
        if not args.quiet:
            lines.append("")
            lines.append(ascii_cdf(cdfs))
        lines.append("")
    doc = json.dumps(
        {"scenario": "fig15", "seed": args.seed, "n_slots": args.slots,
         "runs": [r.to_dict() for r in results]},
        indent=2, sort_keys=True,
    )
    code = _emit_json(doc, args.json)
    if code is not None:
        return code
    print("\n".join(lines))
    if args.json:
        print(f"  (structured results written to {args.json})")
    return 0


def _cmd_fig16(args) -> int:
    scenario = get_scenario("fig16")
    result = _runner(args).run(scenario, n_trials=args.pairs, seed=args.seed)
    return _emit(scenario, result, args)


def _cmd_fig17(args) -> int:
    scenario = get_scenario("fig17")
    result = _runner(args).run(scenario, n_trials=args.trials, seed=args.seed)
    return _emit(scenario, result, args)


def _cmd_bench(args) -> int:
    """Time the WLAN + signal hot paths + scenario trials; write BENCH_*.json."""
    from repro.engine.bench import (
        bench_city,
        bench_events,
        bench_faults,
        bench_ofdm,
        bench_scenarios,
        bench_signal,
        bench_wlan,
        format_city_bench,
        format_events_bench,
        format_faults_bench,
        format_ofdm_bench,
        format_scenario_bench,
        format_signal_bench,
        format_wlan_bench,
        write_bench,
    )

    if args.quick:
        slots, repeats, trials, sessions = min(args.slots, 40), 1, 2, min(args.sessions, 4)
        ofdm_groups = min(args.ofdm_groups, 8)
        city_cells, city_slots = min(args.city_cells, 9), 20
    else:
        slots, repeats, trials, sessions = args.slots, args.repeats, args.trials, args.sessions
        ofdm_groups = args.ofdm_groups
        city_cells, city_slots = args.city_cells, args.city_slots
    docs = {}
    first = True

    def _announce():
        nonlocal first
        if not first:
            print()
        first = False

    if not args.skip_wlan:
        wlan_doc = bench_wlan(
            n_slots=slots,
            n_clients=args.clients,
            repeats=repeats,
            seed=args.seed,
        )
        _announce()
        print(format_wlan_bench(wlan_doc))
        docs["BENCH_wlan.json"] = wlan_doc
        if not wlan_doc["bit_identical"]:
            return _fail(
                "columnar WLAN digest differs from the batched reference "
                "(see BENCH_wlan.json 'engines')"
            )
    if args.events:
        if args.quick:
            events_doc = bench_events(
                n_slots=1500,
                repeats=2,
                seed=args.seed,
                loads=(0.001, 0.01, 0.1),
            )
        else:
            events_doc = bench_events(seed=args.seed)
        _announce()
        print(format_events_bench(events_doc))
        docs["BENCH_events.json"] = events_doc
        if not events_doc["bit_identical"]:
            return _fail(
                "event-kernel digest differs from the columnar slot loop "
                "(see BENCH_events.json 'loads')"
            )
    if not args.skip_signal:
        signal_doc = bench_signal(
            n_sessions=sessions, repeats=repeats, seed=args.seed
        )
        _announce()
        print(format_signal_bench(signal_doc))
        docs["BENCH_signal.json"] = signal_doc
    if args.ofdm:
        # 64 bins always: the acceptance number (>=3x at 64 bins) is only
        # meaningful at the full grid; --quick shrinks the group count.
        ofdm_doc = bench_ofdm(
            n_groups=ofdm_groups, repeats=repeats, seed=args.seed
        )
        _announce()
        print(format_ofdm_bench(ofdm_doc))
        docs["BENCH_ofdm.json"] = ofdm_doc
    if args.city:
        city_doc = bench_city(
            n_cells=city_cells,
            n_slots=city_slots,
            worker_counts=tuple(args.city_workers),
            repeats=1 if args.quick else repeats,
            seed=args.seed,
        )
        _announce()
        print(format_city_bench(city_doc))
        docs["BENCH_city.json"] = city_doc
        if not city_doc["bit_identical"]:
            return _fail(
                "multi-cell stats differ across worker counts "
                f"(--city-workers {' '.join(map(str, args.city_workers))})"
            )
    if args.faults:
        if args.quick:
            faults_doc = bench_faults(
                n_cells=2,
                n_slots=20,
                loss_rates=(0.0, 0.5, 1.0),
                n_wlan_slots=30,
                seed=args.seed,
            )
        else:
            faults_doc = bench_faults(seed=args.seed)
        _announce()
        print(format_faults_bench(faults_doc))
        docs["BENCH_faults.json"] = faults_doc
        if not faults_doc["bit_identical"]:
            return _fail(
                "faulted multi-cell stats differ across worker counts "
                "(see BENCH_faults.json 'workers')"
            )
        if not faults_doc["deterministic"]:
            return _fail(
                "faulted multi-cell rerun at the same seed produced a "
                "different digest (see BENCH_faults.json 'deterministic')"
            )
    if not args.skip_scenarios:
        scen_doc = bench_scenarios(n_trials=trials, seed=args.seed)
        _announce()
        print(format_scenario_bench(scen_doc))
        docs["BENCH_scenarios.json"] = scen_doc
    for name, doc in docs.items():
        path = os.path.join(args.out_dir, name)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            write_bench(doc, path)
        except OSError as exc:
            return _fail(f"cannot write {path} (--out-dir {args.out_dir}): {exc}")
        print(f"  (written to {path})")
    return 0


def _cmd_digest(args) -> int:
    """Check (or regenerate) the golden-digest corpus."""
    from repro.sim import golden

    path = golden.DEFAULT_BASELINE if args.baseline is None else args.baseline
    computed = golden.compute_digests()
    if args.update:
        try:
            golden.write_baseline(computed, path)
        except OSError as exc:
            return _fail(f"cannot write {path}: {exc}")
        print(f"golden-digest corpus updated: {len(computed)} cases -> {path}")
        return 0
    try:
        baseline = golden.load_baseline(path)
    except FileNotFoundError:
        return _fail(
            f"no corpus at {path}; generate it with `repro digest --update`"
        )
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read corpus {path}: {exc}")
    problems = golden.compare(computed, baseline)
    for problem in problems:
        print(f"  {problem}")
    if problems:
        return _fail(
            f"golden-digest corpus drift: {len(problems)} problem(s); if the "
            "numerical change is intentional, rerun with --update and review "
            "the diff"
        )
    print(f"golden-digest corpus intact: {len(computed)} cases match {path}")
    return 0


def _cmd_lint(args) -> int:
    """Run the contract linter (:mod:`repro.analysis`) over the source tree."""
    import repro as _repro
    from repro.analysis import Baseline, lint_path

    package_dir = os.path.dirname(os.path.abspath(_repro.__file__))
    root = args.root or os.path.dirname(package_dir)
    if not os.path.isdir(root):
        return _fail(f"lint root {root} is not a directory (--root)", code=2)
    baseline_path = args.baseline or os.path.join(
        os.path.dirname(root), "LINT_BASELINE.json"
    )
    baseline = None
    if not args.no_baseline and not args.update_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(f"cannot read baseline {baseline_path}: {exc}")
    try:
        report = lint_path(
            root,
            tests_root=args.tests,
            selected=args.rule or None,
            baseline=baseline,
        )
    except ValueError as exc:
        # An unknown --rule id; the message lists the known rules.
        return _fail(str(exc), code=2)
    if args.update_baseline:
        try:
            Baseline.write(report.findings, baseline_path)
        except OSError as exc:
            return _fail(f"cannot write baseline {baseline_path}: {exc}")
        print(
            f"baseline {baseline_path} updated with "
            f"{len(report.findings)} finding(s)"
        )
        return 0
    code = _emit_json(json.dumps(report.to_dict(), indent=2, sort_keys=True),
                      args.json)
    if code is not None:
        return code
    print(report.render())
    if args.json:
        print(f"  (structured report written to {args.json})")
    return 0 if report.ok else 1


def _cmd_lemmas(args) -> int:
    print("Lemmas 5.1/5.2: concurrent packets vs antennas")
    print("  M   uplink (2M)   downlink max(2M-2, floor(3M/2))")
    for m in range(2, 9):
        print(f"  {m}   {uplink_max_packets(m):11d}   {downlink_max_packets(m):8d}")
    return 0


def _cmd_overhead(args) -> int:
    entries = tuple(
        GroupEntry(client_id=i, ap_id=i, encoding=(0j, 0j), decoding=(0j, 0j))
        for i in range(3)
    )
    meta = DataPollMetadata(frame_id=1, n_aps=3, entries=entries)
    print("MAC metadata overhead (paper §7.1(e)):")
    print(f"  DATA+Poll metadata: {meta.nbytes()} bytes for 3 client-AP pairs")
    for payload in (100, 500, 1440, 1500):
        print(f"  @ {payload:4d}-byte payloads: {meta.metadata_overhead(payload) * 100:5.2f}%")
    print("  (paper: 1-2% at 1440 bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Interference Alignment and "
        "Cancellation' (SIGCOMM 2009).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="experiment seed")
        p.add_argument(
            "--testbed-seed", type=int, default=2009, help="testbed channel seed"
        )
        p.add_argument(
            "--quiet", action="store_true",
            help="suppress ASCII plots (machine-friendly output)",
        )

    def runnable(p):
        common(p)
        p.add_argument(
            "--workers", type=_positive_int, default=1,
            help="parallel trial workers (results are worker-count invariant)",
        )
        p.add_argument(
            "--json", metavar="PATH", default=None,
            help="write the structured result as JSON ('-' for stdout only)",
        )

    pl = sub.add_parser("list", help="list registered scenarios")
    pl.add_argument("--tag", default=None, help="filter by tag (e.g. scatter)")

    pr = sub.add_parser("run", help="run any registered scenario")
    pr.add_argument("scenario", help="scenario name (see 'list')")
    pr.add_argument(
        "--trials", type=int, default=None,
        help="trial count (default: the scenario's)",
    )
    pr.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable; value is JSON)",
    )
    runnable(pr)

    ps = sub.add_parser(
        "sweep", help="run a scenario over a parameter grid (resumable)"
    )
    ps.add_argument("scenario", help="scenario name (see 'list')")
    ps.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2,...",
        help="one grid axis (repeatable; values are JSON)",
    )
    ps.add_argument(
        "--trials", type=int, default=None,
        help="trials per cell (default: the scenario's)",
    )
    ps.add_argument(
        "--param", action="append", metavar="KEY=VALUE",
        help="fixed parameter override applied to every cell (repeatable)",
    )
    cache_group = ps.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", metavar="PATH", default=None,
        help="cell cache file (default: .sweep-cache/<scenario>-seed<S>.json)",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; do not read or write a cache",
    )
    ps.add_argument(
        "--metrics", default=None,
        help="comma-separated metric columns for the table",
    )
    ps.add_argument(
        "--retries", type=int, default=0,
        help="re-run a failing cell up to N times before giving up",
    )
    ps.add_argument(
        "--backoff", type=float, default=0.0,
        help="base retry delay in seconds (doubles per attempt, capped at 2s)",
    )
    ps.add_argument(
        "--quarantine", action="store_true",
        help="record cells that exhaust their retries in the result "
             "instead of aborting the sweep",
    )
    runnable(ps)

    for name in _SCATTER_ALIASES:
        p = sub.add_parser(
            name, help=f"{get_scenario(name).description} scatter experiment"
        )
        p.add_argument("--trials", type=int, default=40)
        runnable(p)

    p15 = sub.add_parser("fig15", help="concurrency-algorithm gain CDFs")
    p15.add_argument("--slots", type=int, default=400)
    p15.add_argument("--direction", choices=["uplink", "downlink"], default=None)
    runnable(p15)

    p16 = sub.add_parser("fig16", help="reciprocity calibration error")
    p16.add_argument("--pairs", type=int, default=17)
    runnable(p16)

    p17 = sub.add_parser("fig17", help="clustered ad-hoc networks")
    p17.add_argument("--trials", type=int, default=8)
    runnable(p17)

    pb = sub.add_parser(
        "bench", help="time the WLAN hot path and scenario trials (BENCH_*.json)"
    )
    pb.add_argument(
        "--quick", action="store_true",
        help="CI smoke variant: few slots/trials, one repeat",
    )
    pb.add_argument("--slots", type=_positive_int, default=200,
                    help="WLAN slots to simulate per engine")
    pb.add_argument("--clients", type=_positive_int, default=12,
                    help="WLAN client count")
    pb.add_argument("--repeats", type=_positive_int, default=3,
                    help="timing repetitions (best is reported)")
    pb.add_argument("--trials", type=_positive_int, default=8,
                    help="trials per timed scenario")
    pb.add_argument("--sessions", type=_positive_int, default=20,
                    help="signal-pipeline sessions to time per engine")
    pb.add_argument("--seed", type=int, default=7, help="benchmark seed")
    pb.add_argument("--out-dir", default=".", help="where BENCH_*.json land")
    pb.add_argument("--skip-wlan", action="store_true",
                    help="skip the WLAN engine timing suite")
    pb.add_argument("--skip-scenarios", action="store_true",
                    help="skip the scenario timing suite")
    pb.add_argument("--skip-signal", action="store_true",
                    help="skip the signal-pipeline timing suite")
    pb.add_argument("--events", action="store_true",
                    help="also time the event-driven kernel against the "
                         "columnar slot loop across offered loads and check "
                         "per-point digest equality (BENCH_events.json)")
    pb.add_argument("--ofdm", action="store_true",
                    help="also time the subcarrier-batched band solver "
                         "against the per-bin reference loop (BENCH_ofdm.json)")
    pb.add_argument("--ofdm-groups", type=_positive_int, default=16,
                    help="candidate groups in the OFDM band-solver suite")
    pb.add_argument("--city", action="store_true",
                    help="also time the sharded multi-cell city vs worker "
                         "count and check bit-identity (BENCH_city.json)")
    pb.add_argument("--city-cells", type=_positive_int, default=64,
                    help="cells in the multi-cell city suite")
    pb.add_argument("--city-slots", type=_positive_int, default=60,
                    help="slots to simulate in the multi-cell city suite")
    pb.add_argument("--city-workers", type=_positive_int, nargs="+",
                    default=[1, 2, 4],
                    help="worker counts to time in the multi-cell city suite")
    pb.add_argument("--faults", action="store_true",
                    help="also run the fault-injection suite: backplane-loss "
                         "degradation curve plus a fully-faulted city with "
                         "worker-count and rerun digest checks "
                         "(BENCH_faults.json)")

    plint = sub.add_parser(
        "lint",
        help="run the AST contract linter over the source tree "
             "(determinism / RNG-stream / engine-pair invariants)",
    )
    plint.add_argument(
        "--root", default=None,
        help="directory to lint (default: the installed repro package's "
             "source root, i.e. src/)",
    )
    plint.add_argument(
        "--tests", default=None,
        help="tests directory for the engine-pair test-mention check "
             "(default: the tests/ sibling of the lint root)",
    )
    plint.add_argument(
        "--rule", action="append", metavar="RULE-ID",
        help="check only this rule (repeatable; stale-waiver detection "
             "is skipped on partial runs)",
    )
    plint.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the structured lint report as JSON ('-' for stdout only)",
    )
    plint.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline of grandfathered findings "
             "(default: LINT_BASELINE.json next to the source root)",
    )
    plint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, baselined or not",
    )
    plint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings, "
             "then exit 0",
    )

    pdig = sub.add_parser(
        "digest",
        help="check the golden-digest corpus (tests/baselines/digests.json) "
             "against freshly recomputed simulation trajectories",
    )
    pdig.add_argument(
        "--update", action="store_true",
        help="regenerate the corpus file from the current code (the "
             "reviewed way to land an intentional numerical change)",
    )
    pdig.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="corpus file to check or update "
             "(default: tests/baselines/digests.json in the repository)",
    )

    pl2 = sub.add_parser("lemmas", help="print the DoF table (Lemmas 5.1/5.2)")
    common(pl2)

    po = sub.add_parser("overhead", help="MAC metadata overhead")
    common(po)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _SCATTER_ALIASES:
        return _cmd_scatter(args.command, args)
    return {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "fig15": _cmd_fig15,
        "fig16": _cmd_fig16,
        "fig17": _cmd_fig17,
        "bench": _cmd_bench,
        "digest": _cmd_digest,
        "lint": _cmd_lint,
        "lemmas": _cmd_lemmas,
        "overhead": _cmd_overhead,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
