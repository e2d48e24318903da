"""In-process A/B of ``solve_batch``: a base revision's ``langopt`` against the working tree's.

    python3 tools/kernel_ab.py BASE_REF [--problem toy_kkt] [--chains 16] [--iters 1500] [--pairs 30]

Exports ``BASE_REF``'s ``src/langopt`` (``git archive``, into a temporary
directory) as the package ``langopt_base`` and imports it next to the
working tree's ``langopt``, so both run in one process on one set of inputs.
Each side builds the problem with its own ``get_problem``, so a change to a
problem's oracles is part of what is measured. The inputs are the same on
both sides: the working tree's first ``CHAINS`` guesses
(``ProblemBundle.guesses``, the acceptance suite's) and the first phase of
each side's schedule, cut to ``ITERS`` iterations (its ``hold`` cut to at
most ``ITERS``).

After one untimed call per side, each pair times one ``solve_batch`` call
per side back to back, and the side that goes first alternates from pair to
pair. The host's CPU speed switches between two levels; a pair's ratio
compares two calls made at nearly the same time, and the alternation keeps
a switch inside a pair from favouring one side, so the median of the
per-pair ratios stays put where raw times would not. Prints one JSON object:

- ``ratio``: the median over pairs of base time / working-tree time (above 1:
  the working tree is faster);
- ``wins``: the pairs the working tree was faster in, out of ``pairs``;
- ``base_ms``, ``change_ms``: each side's median time per call;
- ``digests_equal``: for ``trace``, ``snapshots`` and ``xbar``, whether the
  sha256 of every chain's bytes (trace: its ``iters``, ``cost``, ``hsq``,
  ``energy`` and ``sigma`` columns) is the same on both sides.

Run it from anywhere inside the repository.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from digest_diff import export  # the sibling tool; a script's own directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
TRACE_COLUMNS = ("iters", "cost", "hsq", "energy", "sigma")


def export_package(ref, dest):
    """Write ``ref``'s ``src/langopt`` into ``dest/langopt_base``."""
    export(ref, ROOT, dest, "src/langopt")
    (Path(dest) / "src" / "langopt").rename(Path(dest) / "langopt_base")


def side(package, problem, x0s, iters):
    """A call of ``package``'s ``solve_batch`` from ``x0s``, without arguments."""
    problems = importlib.import_module(f"{package}.problems")
    solver = importlib.import_module(f"{package}.solver")
    bundle = problems.get_problem(problem)
    first = bundle.phases[0]
    config = dataclasses.replace(first, iterations=iters, hold=min(first.hold, iters))
    return lambda: solver.solve_batch(bundle.nlp, x0s, config)


def digests(sols):
    """The sha256 of every chain's trace columns, snapshots and ``xbar``."""
    out = {k: hashlib.sha256() for k in ("trace", "snapshots", "xbar")}
    for s in sols:
        for name in TRACE_COLUMNS:
            out["trace"].update(np.ascontiguousarray(getattr(s.trace, name)).tobytes())
        out["snapshots"].update(np.ascontiguousarray(s.trace.snapshots).tobytes())
        out["xbar"].update(np.ascontiguousarray(s.xbar).tobytes())
    return {k: h.hexdigest() for k, h in out.items()}


def timed(call):
    gc.collect()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base_ref", metavar="BASE_REF", help="the revision to compare against")
    p.add_argument("--problem", default="toy_kkt")
    p.add_argument("--chains", type=int, default=16)
    p.add_argument("--iters", type=int, default=1500)
    p.add_argument("--pairs", type=int, default=30)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="kernel-ab-") as tmp:
        export_package(args.base_ref, tmp)
        sys.path[:0] = [str(ROOT / "src"), tmp]
        x0s = importlib.import_module("langopt.problems").get_problem(args.problem).guesses(args.chains)
        base = side("langopt_base", args.problem, x0s, args.iters)
        change = side("langopt", args.problem, x0s, args.iters)
        same = {k: a == b for (k, a), b in zip(digests(base()).items(), digests(change()).values())}
        calls = {"base": base, "change": change}
        times = {"base": [], "change": []}
        for pair in range(args.pairs):
            for name in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                times[name].append(timed(calls[name]))
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    report = {
        "base": args.base_ref,
        "problem": args.problem,
        "chains": args.chains,
        "iters": args.iters,
        "pairs": args.pairs,
        "ratio": statistics.median(ratios),
        "wins": sum(r > 1 for r in ratios),
        "base_ms": 1e3 * statistics.median(times["base"]),
        "change_ms": 1e3 * statistics.median(times["change"]),
        "digests_equal": same,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
