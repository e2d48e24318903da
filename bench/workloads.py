"""The benchmark's workloads, each a shortened acceptance pipeline.

- ``swingup``: pendulum (n=152), 64 chains in one ``solve_batch``: an anneal,
  then a sigma=0 polish with the multipliers carried over (the recipe of
  acceptance criteria 3 and 8, with fewer iterations). The large-N vectorised
  case: stage Jacobians, the VJP and the per-chain noise loop dominate it, and
  the polish runs the kernel with no noise at all.
- ``trap``: bug trap (n=303), 10 chains: a hot hold at sigma0=1.5, a taper,
  then a cold sigma0=0.3 anneal with the multipliers carried over (criterion
  4, shortened, without the GD and BFGS baselines). The dual-number obstacle
  penalty and the halved retries at the control bounds dominate it.
- ``kkt-cli``: the toy KKT problem with 16 chains, run in-process through
  ``langopt.cli.main(["run", ...])``, which writes the trace and snapshot CSVs
  and ``summary.json``. Its derivatives are closed-form, so it bypasses the
  autodiff and nlp layers and leaves the kernel's per-iteration overhead and
  the writers; it is the only workload that writes output.

A repetition runs one pipeline on fresh inputs. Chain k of a run, counted
across its repetitions, uses the seed ``seed * SEED_STRIDE + k`` both for its
guess, built as ``default_rng([s, 0xA5])`` like the acceptance tests build
theirs, and for its noise, because ``solve_batch`` gives chain i the seed
``config.seed + i``. The first repetition of seed 0 thus runs the acceptance
inputs. Every solve runs with ``threads=1``: on two cores more threads measured
slower, and the thread pool's future is open.

Left out on purpose: the GD and BFGS baselines (``langopt.baselines``) and
``threads > 1`` are not workloads. The acceptance escape rate of the bug trap
needs about 45k iterations per chain; it stays guarded by the acceptance
tests, not by this benchmark.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import langopt.solver
from langopt import SolverConfig
from langopt.problems import TOY_KKT_SOLUTION, get_problem

SEED_STRIDE = 10**6
STATE_DIR = Path(__file__).resolve().parent / ".state"


@dataclass
class Rep:
    """What one repetition did, measured and checked."""

    base: int
    wall_s: float = 0.0
    solve_s: float = 0.0
    scale: float = 1.0
    iterations: int = 0
    chain_its: int = 0
    trace_bytes: int = 0
    phases: list = field(default_factory=list)
    hsq: list = field(default_factory=list)
    cost: list = field(default_factory=list)
    on_target: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    digest: str = ""
    exit_code: int = 0
    clock: object = perf_counter

    def solve_batch(self, nlp, x0s, config, threads=1, lambda0s=None):
        """``langopt.solver.solve_batch`` with its time and work recorded."""
        t0 = self.clock()
        sols = langopt.solver.solve_batch(nlp, x0s, config, threads=threads, lambda0s=lambda0s)
        self.solve_s += self.clock() - t0
        self.iterations += max(len(s.trace) for s in sols)
        self.chain_its += sum(len(s.trace) for s in sols)
        self.trace_bytes += sum(
            v.nbytes for s in sols for v in vars(s.trace).values() if isinstance(v, np.ndarray)
        )
        self.phases.append(sols)
        return sols

    def fail(self, chain, reason):
        self.failures.setdefault(chain, reason)


@contextmanager
def patched(owner, name, value):
    """Set ``owner.name`` to ``value`` and restore it on exit.

    The attribute must already exist: a patch of a name the program no
    longer uses would silently measure nothing.
    """
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


class _BatchWorkload:
    """A pipeline of ``solve_batch`` phases on a transcribed problem."""

    problem = ""
    chains = 0

    def __init__(self):
        self.bundle = get_problem(self.problem)

    def inputs(self, base):
        return [self.bundle.guess(np.random.default_rng([base + s, 0xA5])) for s in range(self.chains)]

    def run(self, rec, x0s, tracer=None):
        bundle = self.bundle if tracer is None else tracer.load(self.problem)
        self.pipeline(rec, bundle.nlp, x0s)

    def check(self, rec, x0s):
        """Every chain succeeded with finite output; the digest covers each
        phase's traces as ``Trace.to_csv`` writes them (the bytes the batch
        contract is stated on) and the raw snapshots and final state."""
        digest = hashlib.sha256()
        for sols in rec.phases:
            for j, s in enumerate(sols):
                t = s.trace
                if not s.success:
                    rec.fail(j, s.message)
                elif not _finite(s.xbar, s.lam, s.hsq, s.cost, t.cost, t.hsq, t.energy):
                    rec.fail(j, "non-finite output")
                csv = io.StringIO()
                t.to_csv(csv)
                digest.update(csv.getvalue().encode())
                for a in (t.snapshot_iters, t.snapshots, s.xbar, s.lam):
                    digest.update(np.ascontiguousarray(a).tobytes())
        rec.digest = digest.hexdigest()
        final = rec.phases[-1]
        rec.hsq = [s.hsq for s in final]
        rec.cost = [s.cost for s in final]
        rec.on_target = [s.success for s in final]


class Swingup(_BatchWorkload):
    problem = "pendulum"
    chains = 64
    anneal_iters = 500
    polish_iters = 500

    def pipeline(self, rec, nlp, x0s):
        annealed = rec.solve_batch(nlp, x0s, SolverConfig(seed=rec.base, iterations=self.anneal_iters))
        polish = SolverConfig(
            seed=rec.base, alpha=0.03, sigma0=0.0, sigma_min=0.0, iterations=self.polish_iters
        )
        rec.solve_batch(nlp, [s.xbar for s in annealed], polish, lambda0s=[s.lam for s in annealed])


class Trap(_BatchWorkload):
    problem = "bugtrap"
    chains = 10
    hold_iters = 150
    taper_iters = 150
    cold_iters = 300

    def pipeline(self, rec, nlp, x0s):
        hot = SolverConfig(
            seed=rec.base,
            sigma0=1.5,
            hold=self.hold_iters,
            iterations=self.hold_iters + self.taper_iters,
            gamma=(0.8 / 1.5) ** (1.0 / self.taper_iters),
            sigma_min=0.8,
        )
        held = rec.solve_batch(nlp, x0s, hot)
        cold = SolverConfig(seed=rec.base + 1, sigma0=0.3, iterations=self.cold_iters)
        rec.solve_batch(nlp, [h.xbar for h in held], cold, lambda0s=[h.lam for h in held])


class KktCli:
    """``langopt run`` on the toy KKT problem, writing into a scratch directory."""

    chains = 16
    iters = 1500
    stride = 100  # the CLI's default snapshot stride
    trace_header = "iter,cost,hsq,energy,sigma"

    def __init__(self):
        import langopt.cli

        self.cli = langopt.cli
        self.outputs = itertools.count()

    def inputs(self, base):
        """A fresh output directory for the CLI to create."""
        return STATE_DIR / f"kkt-cli-{os.getpid()}-{next(self.outputs)}"

    def run(self, rec, out, tracer=None):
        argv = ["run", "--problem", "toy_kkt", "--batch", str(self.chains), "--seed", str(rec.base)]
        argv += ["--iters", str(self.iters), "--out", str(out)]
        with patched(self.cli, "solve_batch", rec.solve_batch):
            rec.exit_code = self.cli.main(argv)

    def check(self, rec, out):
        try:
            self._check(rec, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, rec, out):
        xstar, lamstar = TOY_KKT_SOLUTION
        try:
            with open(out / "summary.json") as f:
                chains = json.load(f)["chains"]
        except (OSError, ValueError, KeyError) as exc:
            for j in range(self.chains):
                rec.fail(j, f"summary.json unreadable: {exc}")
            return
        if rec.exit_code != 0 or len(chains) != self.chains:
            for j in range(self.chains):
                rec.fail(j, f"exit code {rec.exit_code}, {len(chains)} chains in summary.json")
        digest = hashlib.sha256()
        for j, c in enumerate(chains):
            x, lam = np.asarray(c["xbar"]), np.asarray(c["lambda"])
            if not c["success"]:
                rec.fail(j, c["message"])
            elif not _finite(x, lam, c["hsq"], c["cost"]):
                rec.fail(j, "non-finite output")
            rec.hsq.append(c["hsq"])
            rec.cost.append(c["cost"])
            rec.on_target.append(
                bool(np.max(np.abs(x - xstar)) <= 1e-2 and np.max(np.abs(lam - lamstar)) <= 5e-2)
            )
            try:
                trace = (out / f"trace_{j}.csv").read_bytes()
                snaps = (out / f"snapshots_{j}.csv").read_bytes()
            except OSError as exc:
                rec.fail(j, f"output missing: {exc}")
                continue
            digest.update(trace)
            digest.update(snaps)
            problem = self._csv_problem(trace, self.trace_header, self.iters)
            problem = problem or self._csv_problem(
                snaps, "iter,v0,v1", math.ceil(self.iters / self.stride)
            )
            if problem:
                rec.fail(j, problem)
        rec.digest = digest.hexdigest()

    @staticmethod
    def _csv_problem(data, header, rows):
        """Why a written CSV is malformed, or None: header, row count, finite values."""
        text = data.decode()
        lines = text.splitlines()
        if lines[:1] != [header]:
            return f"CSV header {lines[:1]!r}, expected {header!r}"
        if len(lines) - 1 != rows:
            return f"CSV has {len(lines) - 1} rows, expected {rows}"
        if "nan" in text or "inf" in text:  # how repr() writes non-finite floats
            return "CSV holds non-finite values"
        return None


WORKLOADS = {"swingup": Swingup, "trap": Trap, "kkt-cli": KktCli}
