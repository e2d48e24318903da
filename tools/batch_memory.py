"""Memory of one pendulum batch: the resident set before the solve, its peak, and the trace data.

    python3 tools/batch_memory.py --chains 64 --iters 20000

Runs ``solve_batch`` on the pendulum problem with ``SolverConfig(seed=0,
iterations=ITERS)`` (criterion 8's batch at its defaults) from the first
``CHAINS`` guesses of the acceptance suite, in this process, which should be
a fresh one: the peak is the process's ``ru_maxrss``. Imports ``langopt``
from the ``src/`` next to this file. Prints one JSON object:

- ``rss_before_mb``: the resident set just before the solve;
- ``peak_rss_mb``: the peak resident set of the process after it;
- ``rise_mb``: their difference, what the batch added at its peak;
- ``trace_mb``: the bytes of the traces' per-chain data, that is each
  chain's cost, ``||h||^2`` and energy columns and its snapshots
  (24·N·T + 8·N·S·n for N chains of T iterations and S snapshots of n
  entries); the iteration and σ columns the chains share are left out;
- ``wall_s``: the solve's wall time.

Linux only: the resident set is read from ``/proc/self/statm``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from langopt import SolverConfig, solve_batch  # noqa: E402
from langopt.problems import get_problem  # noqa: E402

MB = 1024.0 * 1024.0


def rss_bytes():
    """The resident set of this process now."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--chains", type=int, default=64)
    p.add_argument("--iters", type=int, default=20000)
    args = p.parse_args(argv)

    bundle = get_problem("pendulum")
    x0s = bundle.guesses(args.chains)
    config = SolverConfig(seed=0, iterations=args.iters)
    before = rss_bytes()
    t0 = time.perf_counter()
    sols = solve_batch(bundle.nlp, x0s, config)
    wall = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0  # kB on Linux
    trace = sum(getattr(s.trace, k).nbytes for s in sols for k in ("cost", "hsq", "energy", "snapshots"))
    print(
        json.dumps(
            {
                "chains": args.chains,
                "iters": args.iters,
                "rss_before_mb": before / MB,
                "peak_rss_mb": peak / MB,
                "rise_mb": (peak - before) / MB,
                "trace_mb": trace / MB,
                "wall_s": wall,
            }
        )
    )


if __name__ == "__main__":
    main()
