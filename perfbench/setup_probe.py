"""One set-up sample: import ``repro``, load the registry, build the inputs.

Run by ``run.py`` in a fresh interpreter (``PYTHONPATH`` pointing at
``src``) as ``setup_probe.py WORKLOAD SEED``; prints the seconds taken.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import jobs  # importing repro is part of what is timed

    jobs.resolve_scenarios(jobs.make_inputs(sys.argv[1], int(sys.argv[2])))
    print(time.perf_counter() - start)
