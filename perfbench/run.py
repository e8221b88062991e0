"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

The job (see ``jobs.py``) is repeated until ``--seconds`` have passed
and the end-to-end metrics are medians over the repetitions.  Set-up
time is the median over at least :data:`SETUP_SAMPLES` fresh
interpreters, started in bursts between the repetitions, each importing
``repro``, loading the registry and building the inputs.  With
``--trace 1`` two more repetitions run with every layer's entry points
wrapped (``spans.py``) and the per-layer metrics of the first are
printed instead; their work counters must agree exactly, or the
``trace:counters`` op fails.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Fewest fresh interpreters whose set-up time is measured; the median is reported.
SETUP_SAMPLES = 20
#: Set-up samples taken before each repetition of the job.
SETUP_BURST = 3
#: Seconds one set-up sample may take before the run is abandoned.
SETUP_TIMEOUT = 60


def _setup_sample(workload: str, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _environment() -> str:
    import numpy

    blas = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} blas_threads={blas or 'library default'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {jobs.WORKLOADS}",
              file=sys.stderr)
        return 2

    inputs = jobs.make_inputs(args.workload, args.seed)
    jobs.resolve_scenarios(inputs)
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    scratch = os.path.join(OUT, "scratch")

    def checked(job, first):
        jobs.check_pins(job.outcomes, pins, args.workload, args.seed)
        if first is not None:
            jobs.check_repeat(job.outcomes, first.outcomes)
        return job

    # Set-up samples are spread between the repetitions, so that they see
    # the same slow and fast spells of the host as the jobs do.
    setup, runs = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        setup += [_setup_sample(args.workload, args.seed) for _ in range(SETUP_BURST)]
        runs.append(checked(jobs.run_job(inputs, scratch), runs[0] if runs else None))
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(r.wall_s for r in runs)

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Reported for the workloads they apply to; not gated (see spec.json).
    extra = {}
    if runs[0].resume_s is not None:
        extra["resume_s"] = (statistics.median(r.resume_s for r in runs), "s")
    shortfall = jobs.gain_shortfall(runs[0].outcomes)
    if shortfall is not None:
        extra["gain_shortfall"] = (shortfall, "ratio")

    per_layer = {}
    if args.trace:
        traced = []
        for _ in range(2):
            tracer = spans.Tracer()
            with tracer:
                job = jobs.run_job(
                    inputs, scratch, root=lambda: tracer.span(spans.ROOT_LAYER, args.workload)
                )
            runs.append(checked(job, runs[0]))
            traced.append(spans.per_layer_metrics(tracer, wall_s))
            if len(traced) == 1:
                tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        per_layer = traced[0]
        repeat = jobs.Outcome(op="trace:counters")
        first, second = (spans.work_counters(m) for m in traced)
        repeat.problems += [
            f"{name} was {first[name]} then {second[name]}"
            for name in first if first[name] != second[name]
        ]
        runs[-1].outcomes.append(repeat)

    attempted = sum(len(r.outcomes) for r in runs)
    failed = sum(r.failed for r in runs)
    extra["failed_share"] = (failed / attempted, "ratio")

    print(f"workload {args.workload} seed {args.seed}: {len(runs)} job(s), {_environment()}")
    for r_index, r in enumerate(runs):
        for outcome in r.outcomes:
            for problem in outcome.problems:
                print(f"  FAILED job {r_index} {outcome.op}: {problem}")
    for name, (value, unit) in {**end_to_end, **extra, **per_layer}.items():
        print(f"  {name:32s} {value:>16.6f} {unit}")

    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
