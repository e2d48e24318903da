"""Per-layer spans and counters, recorded from outside ``langopt``.

A :class:`Tracer` wraps the public entry points of each layer for the
duration of one traced repetition and restores them afterwards; nothing in
``langopt`` changes. Spans are aggregated in memory as (calls, seconds) per
name. The wrapped calls return exactly what the originals return, so a traced
repetition must produce the same trace bytes as an untraced one; the
benchmark checks that. Times here are raw, not scaled to the reference
speed, and exclude the speed samples taken during them.

The tracer stays installed through a traced repetition's output check. The
check of ``swingup`` and ``trap``, whose pipelines write nothing, serializes
every trace with ``Trace.to_csv`` for the digest, as the swingup demo saves
its trace; so on those workloads the ``cli.*`` metrics measure the writers
outside ``wall_s``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

import langopt.autodiff
import langopt.cli
import langopt.problems
import langopt.solver
from workloads import patched


class _TimedGenerator:
    """A ``numpy.random.Generator`` whose ``standard_normal`` calls are timed."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = self._tracer.clock()
        out = self._rng.standard_normal(*args, **kwargs)
        self._tracer.add("solver.noise", self._tracer.clock() - t0)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Aggregated spans (calls, seconds) and counters of one or more repetitions."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)

    def add(self, name, seconds):
        span = self.spans[name]
        span[0] += 1
        span[1] += seconds

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, self.clock() - t0)

        return wrapper

    def wrap_nlp(self, nlp):
        """A copy of ``nlp`` whose derivative oracles and VJP closures are timed."""
        cvjp = nlp.constraints_with_vjp

        def constraints_with_vjp(x):
            t0 = self.clock()
            h, vjp = cvjp(x)
            self.add("nlp.constraints_vjp", self.clock() - t0)
            return h, self.timed("nlp.vjp", vjp)

        return dataclasses.replace(
            nlp,
            cost_and_gradient=self.timed("nlp.cost_grad", nlp.cost_and_gradient),
            constraints_with_vjp=constraints_with_vjp,
        )

    def load(self, problem):
        """``get_problem`` timed, with the bundle's NLP wrapped."""
        bundle = self.timed("problems.get_problem", langopt.problems.get_problem)(problem)
        return dataclasses.replace(bundle, nlp=self.wrap_nlp(bundle.nlp))

    @contextmanager
    def installed(self):
        """Wrap every layer entry point that the pipelines reach implicitly."""
        Dual = langopt.autodiff.Dual
        Trace = langopt.solver.Trace
        make_rng = np.random.default_rng
        dual_init = Dual.__init__
        write_trace = self.timed("cli.write", Trace.to_csv)
        write_snapshots = self.timed("cli.write", Trace.snapshots_to_csv)

        def counting_init(dual, *args, **kwargs):
            self.counts["autodiff.duals"] += 1
            dual_init(dual, *args, **kwargs)

        def to_csv(trace, path_or_file):
            self.counts["cli.rows"] += len(trace.iters)
            return write_trace(trace, path_or_file)

        def snapshots_to_csv(trace, path_or_file):
            self.counts["cli.rows"] += len(trace.snapshot_iters)
            return write_snapshots(trace, path_or_file)

        with ExitStack() as stack:
            for owner, name, value in (
                (Dual, "__init__", counting_init),
                (Trace, "to_csv", to_csv),
                (Trace, "snapshots_to_csv", snapshots_to_csv),
                (json, "dump", self.timed("cli.write", json.dump)),
                (np.random, "default_rng", lambda *a, **k: _TimedGenerator(make_rng(*a, **k), self)),
                (
                    langopt.solver,
                    "barrier_gradient",
                    self.timed("solver.barrier_grad", langopt.solver.barrier_gradient),
                ),
                (langopt.cli, "get_problem", self.load),
            ):
                stack.enter_context(patched(owner, name, value))
            yield self

    def per_layer(self, reps):
        """Per-layer metrics, normalised by the solver work the repetitions did."""
        its = sum(r.iterations for r in reps)
        chain_its = sum(r.chain_its for r in reps)
        solve_s = sum(r.solve_s for r in reps)

        def calls(name):
            return self.spans[name][0]

        def seconds(name):
            return self.spans[name][1]

        def per_call_us(name):
            return 1e6 * seconds(name) / calls(name) if calls(name) else 0.0

        inner = ("nlp.cost_grad", "nlp.constraints_vjp", "nlp.vjp", "solver.noise", "solver.barrier_grad")
        n = len(reps)
        return {
            "nlp.cost_grad_us": (per_call_us("nlp.cost_grad"), "us"),
            "nlp.constraints_vjp_us": (per_call_us("nlp.constraints_vjp"), "us"),
            "nlp.vjp_us": (per_call_us("nlp.vjp"), "us"),
            "autodiff.duals_per_it": (self.counts["autodiff.duals"] / its, "count"),
            "solver.noise_us": (1e6 * seconds("solver.noise") / its, "us"),
            "solver.noise_calls_per_it": (calls("solver.noise") / its, "count"),
            "solver.retries_per_chain_it": ((calls("solver.noise") - chain_its) / chain_its, "count"),
            "solver.barrier_grad_us": (per_call_us("solver.barrier_grad"), "us"),
            "solver.self_us": (1e6 * (solve_s - sum(seconds(s) for s in inner)) / its, "us"),
            "cli.write_s": (seconds("cli.write") / n, "s"),
            "cli.rows_written": (self.counts["cli.rows"] / n, "count"),
            "problems.get_problem_ms": (1e3 * seconds("problems.get_problem") / calls("problems.get_problem"), "ms"),
            "solver.trace_bytes": (sum(r.trace_bytes for r in reps) / n, "bytes"),
        }
