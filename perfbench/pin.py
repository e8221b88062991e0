"""Rewrite ``pins.json``: every op's result digest at the pinned seed.

Run from the repository root, only when a change to the program is
meant to change its results::

    python3 perfbench/pin.py

Each workload runs twice at seed 0; every op must give a digest and
the second run's must match the first before anything is written.
"""

import json
import os
import sys
import tempfile

from run import HERE, OUT, SRC, _environment

sys.path.insert(0, SRC)
import jobs  # noqa: E402 - needs the sources on the path

PINNED_SEED = 0


def main() -> int:
    digests = {}
    for workload in jobs.WORKLOADS:
        inputs = jobs.make_inputs(workload, PINNED_SEED)
        first, second = (jobs.run_job(inputs, os.path.join(OUT, "scratch")) for _ in range(2))
        # A headline outside its band is pinned all the same (and reported):
        # the pin records what the program computes, the bands judge it.
        for o in first.outcomes:
            for problem in o.problems:
                print(f"note: {workload} {o.op}: {problem}", file=sys.stderr)
        unstable = [
            a.op for a, b in zip(first.outcomes, second.outcomes)
            if a.digest is None or a.digest != b.digest
        ]
        if unstable:
            print(f"{workload}: no repeatable digest for {unstable}", file=sys.stderr)
            return 1
        digests[workload] = {jobs.pin_key(o.op): o.digest for o in first.outcomes}
    pins = {"seed": PINNED_SEED, "environment": _environment(), "digests": digests}
    fd, tmp = tempfile.mkstemp(dir=HERE, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(HERE, "pins.json"))
    print(f"pinned {sum(map(len, digests.values()))} digests at seed {PINNED_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
