"""A/B of a base revision against the working tree: benchmark runs, or in-process ``solve_batch`` calls.

    python3 tools/ab.py bench BASE_REF [--pairs 10] [--workload W ...] [--seed 0] [--seconds 30]
                                       [--allow-change W ...]
    python3 tools/ab.py kernel BASE_REF [--problem toy_kkt] [--chains 16] [--iters 1500] [--pairs 30]

Both modes export ``BASE_REF``'s tree (``git archive``, into a temporary
directory), the ``parent`` side, and run it against the working tree, the
``change`` side, in pairs: each pair runs each side once, the parent first
in even pairs and the change first in odd ones. The host's CPU speed
switches between two levels; a pair compares two runs made at nearly the
same time, and the alternation keeps a switch inside a pair from favouring
one side, so the median of the per-pair ratios stays put where raw values
would not. Each metric is summarised as each side's median and inclusive
quartiles (``parent_median``, ``parent_q1``, ``parent_q3``, ``change_...``),
the pairs the change is better or worse in (``change_wins``,
``change_losses``; ties apart), the median over pairs of change / parent
(``median_pair_ratio``) and the change's median over the parent's
(``ratio_of_medians``). Each mode prints one JSON object. Run it from
anywhere inside the repository.

``bench`` runs ``bench/run.py --workload W --seed S --seconds T`` once per
side, pair and workload (default: every workload of ``BENCHMARK.json``), each
in its own process, workload after workload. It prints every run's result
record, and per workload the seeds whose trace digests both sides recorded
and those among them that differ, and the summary of every end-to-end metric
of ``BENCHMARK.json`` with ``worse_than_bound``: whether the change's median
is worse than the parent's by more than the metric's relative ``bound``.
Exit status: 0; 1 when a digest differs, or a workload has no common seed,
on a workload not named by ``--allow-change`` (a change that declares a
behaviour change names the workload there, so the declaration sits in its
own diff; its differing seeds are still reported); 2 when a run fails.

``kernel`` imports the export's ``src/langopt`` as ``langopt_base`` next to
the working tree's ``langopt``, so both sides run in one process on one set
of inputs: the working tree's first ``CHAINS`` guesses
(``ProblemBundle.guesses``, the acceptance suite's) and the first phase of
each side's own schedule for ``PROBLEM``, cut to ``ITERS`` iterations (its
``hold`` cut to at most ``ITERS``). After one untimed call per side, each
pair times one ``solve_batch`` call per side; ``time_ms`` is their summary,
lower being better. ``digests_equal`` says, for ``trace``, ``snapshots``
and ``xbar``, whether the sha256 of every chain's bytes (trace: its
``iters``, ``cost``, ``hsq``, ``energy`` and ``sigma`` columns) of the
untimed calls is the same on both sides.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TRACE_COLUMNS = ("iters", "cost", "hsq", "energy", "sigma")


def export(ref, dest, *paths):
    """Write the tree of ``ref`` into ``dest``: all of it, or only ``paths`` when given."""
    archive = Path(dest) / "tree.tar"
    git = ["git", "archive", "--format=tar", ref, *paths]
    archive.write_bytes(subprocess.run(git, cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout)
    with tarfile.open(archive) as f:
        f.extractall(dest, filter="data")
    archive.unlink()


def alternate(pairs, call):
    """``(pair, side, call(side))`` for each pair and side, the parent first in even pairs."""
    return [(pair, side, call(side)) for pair in range(pairs) for side in (SIDES if pair % 2 == 0 else SIDES[::-1])]


def summarise(parent, change, better, bound=None):
    """The summary of one metric's per-pair values, ``parent[i]`` and ``change[i]`` from pair ``i``."""
    sign = 1 if better == "higher" else -1
    out = {}
    for name, values in zip(SIDES, (parent, change)):
        out[f"{name}_median"] = statistics.median(values)
        # quantiles needs two points; one pair's value is its own quartiles
        quartiles = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4, method="inclusive")
        out[f"{name}_q1"], out[f"{name}_q3"] = quartiles[0], quartiles[2]
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out["change_losses"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out["pairs"] = len(parent)
    out["median_pair_ratio"] = statistics.median(c / p if p else float("nan") for p, c in zip(parent, change))
    out["ratio_of_medians"] = out["change_median"] / out["parent_median"] if out["parent_median"] else float("nan")
    if bound is not None:
        out["worse_than_bound"] = sign * (out["change_median"] - out["parent_median"]) < -bound * abs(out["parent_median"])
    return out


def summarise_runs(records, metrics):
    """Per side the runs' ``correct``, and per metric of ``metrics`` (``BENCHMARK.json`` entries) its summary."""
    runs = {s: [r for r in records if r["side"] == s] for s in SIDES}
    out = {"correct": {s: [r["correct"] for r in runs[s]] for s in SIDES}}
    for m in metrics:
        parent, change = ([r["metrics"][m["name"]]["value"] for r in runs[s]] for s in SIDES)
        out[m["name"]] = summarise(parent, change, m["better"], m.get("bound"))
    return out


def compare_digests(parent, change, allowed):
    """Per workload the seeds both sides ran and those whose digests differ; and the workloads that fail."""
    report, failing = {}, []
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, {}), change.get(name, {})
        common = sorted(p.keys() & c.keys(), key=int)
        report[name] = {"common": common, "differ": [s for s in common if p[s] != c[s]]}
        if (report[name]["differ"] or not common) and name not in allowed:
            failing.append(name)
    return report, failing


def bench_run(checkout, workload, args, digests):
    """The result record of one ``bench/run.py`` run in ``checkout``; its digests are added to ``digests``."""
    cmd = ["bench/run.py", "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    print(f"running {' '.join(cmd)} in {checkout}", file=sys.stderr, flush=True)
    out = subprocess.run([sys.executable, *cmd], cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"bench/run.py in {checkout} exited with {out.returncode}")
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    digests.setdefault(workload, {}).update(info["digests"])
    return result


def bench(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs, digests = [], {s: {} for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        export(args.base_ref, tmp)
        checkouts = dict(zip(SIDES, (tmp, ROOT)))
        for w in workloads:
            pairs = alternate(args.pairs, lambda s: bench_run(checkouts[s], w, args, digests[s]))
            runs += [{"workload": w, "pair": pair, "side": side, **r} for pair, side, r in pairs]
    report, failing = compare_digests(digests["parent"], digests["change"], set(args.allow_change))
    summary = {w: summarise_runs([r for r in runs if r["workload"] == w], spec["end_to_end"]) for w in workloads}
    print(json.dumps({"base": args.base_ref, "runs": runs, "digests": report, "summary": summary, "failing": failing}))
    return 1 if failing else 0


def solve_call(package, problem, x0s, iters):
    """A call of ``package``'s ``solve_batch`` from ``x0s``, without arguments."""
    solver = importlib.import_module(f"{package}.solver")
    bundle = importlib.import_module(f"{package}.problems").get_problem(problem)
    first = bundle.phases[0]
    config = dataclasses.replace(first, iterations=iters, hold=min(first.hold, iters))
    return lambda: solver.solve_batch(bundle.nlp, x0s, config)


def solution_digests(sols):
    """The sha256 of every chain's trace columns, snapshots and ``xbar``."""
    out = {k: hashlib.sha256() for k in ("trace", "snapshots", "xbar")}
    for s in sols:
        for name in TRACE_COLUMNS:
            out["trace"].update(np.ascontiguousarray(getattr(s.trace, name)).tobytes())
        out["snapshots"].update(np.ascontiguousarray(s.trace.snapshots).tobytes())
        out["xbar"].update(np.ascontiguousarray(s.xbar).tobytes())
    return {k: h.hexdigest() for k, h in out.items()}


def timed_ms(call):
    gc.collect()
    t0 = time.perf_counter()
    call()
    return 1e3 * (time.perf_counter() - t0)


def kernel(args):
    with tempfile.TemporaryDirectory(prefix="ab-kernel-") as tmp:
        export(args.base_ref, tmp, "src/langopt")
        (Path(tmp) / "src" / "langopt").rename(Path(tmp) / "langopt_base")
        sys.path[:0] = [str(ROOT / "src"), tmp]
        x0s = importlib.import_module("langopt.problems").get_problem(args.problem).guesses(args.chains)
        calls = dict(zip(SIDES, (solve_call(p, args.problem, x0s, args.iters) for p in ("langopt_base", "langopt"))))
        parent, change = (solution_digests(calls[s]()) for s in SIDES)
        times = alternate(args.pairs, lambda s: timed_ms(calls[s]))
    report = {"base": args.base_ref, **{k: getattr(args, k) for k in ("problem", "chains", "iters", "pairs")}}
    report["time_ms"] = summarise(*([t for _, side, t in times if side == s] for s in SIDES), "lower")
    report["digests_equal"] = {k: parent[k] == change[k] for k in parent}
    print(json.dumps(report))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    modes = p.add_subparsers(dest="mode", required=True)
    b = modes.add_parser("bench", help="alternating bench/run.py runs, digests compared")
    b.add_argument("--pairs", type=int, default=10)
    b.add_argument("--workload", action="append", default=[], metavar="W", help="repeatable; default: all")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--seconds", type=float, default=30.0)
    b.add_argument("--allow-change", action="append", default=[], metavar="W", help="a workload whose digests may move")
    k = modes.add_parser("kernel", help="alternating in-process solve_batch calls")
    k.add_argument("--problem", default="toy_kkt")
    k.add_argument("--chains", type=int, default=16)
    k.add_argument("--iters", type=int, default=1500)
    k.add_argument("--pairs", type=int, default=30)
    for mode in (b, k):
        mode.add_argument("base_ref", metavar="BASE_REF", help="the revision to compare against")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    try:
        return (bench if args.mode == "bench" else kernel)(args)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
