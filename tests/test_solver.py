import ast
import dataclasses
import gc
import io
import json
import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langopt
from langopt import (
    BarrierDomainError,
    SolveError,
    SolverConfig,
    Trace,
    barrier_gradient,
    drift,
    energy,
    noise_schedule,
    solve,
    solve_batch,
    trajectory_guess,
)
from langopt import autodiff as ad
from langopt.nlp import NlpProblem, OcpDefinition, transcribe
from langopt.problems import PENDULUM_GUESS_BOX, get_problem, pendulum_ocp, toy_kkt_problem
from langopt.solver import _BLOCK_ROWS, _WRITE_ROWS, _Box, _Phase, _Streams, _advance


def boxed_toy(lo=-10.0, hi=10.0):
    nlp = toy_kkt_problem()
    return NlpProblem(
        n=nlp.n,
        m=nlp.m,
        cost=nlp.cost,
        constraints=nlp.constraints,
        lower=np.full(2, lo),
        upper=np.full(2, hi),
    )


class TestConfig:
    def test_default_gamma_hits_floor_at_80pct(self):
        cfg = SolverConfig(iterations=1000)
        # sigma0 * gamma^(0.8 T) == sigma_min
        assert noise_schedule(800, cfg) == pytest.approx(cfg.sigma_min, rel=1e-9)

    def test_replaced_config_derives_its_own_rate(self):
        fresh = SolverConfig(iterations=1000, hold=100)
        replaced = dataclasses.replace(SolverConfig(), iterations=1000, hold=100)
        its = range(0, 1000, 7)
        assert [noise_schedule(i, replaced) for i in its] == [noise_schedule(i, fresh) for i in its]
        sol = solve(toy_kkt_problem(), np.ones(2), config=replaced)
        # summary.json reports the rate the run used: the floor at 80% of the 900 post-hold steps
        assert sol.summary()["config"]["gamma"] == pytest.approx((1e-4 / 0.1) ** (1 / 720), rel=1e-12)

    @pytest.mark.parametrize(
        "field, value", [("seed", np.int64(3)), ("iterations", np.int32(5)), ("mu", np.float32(2.0))]
    )
    def test_summary_writes_plain_numbers(self, field, value):
        # a numpy number in the config is written as the Python number it holds
        def record(v):
            cfg = SolverConfig(**{"iterations": 5, "snapshot_stride": 2, field: v})
            return json.loads(json.dumps(solve(toy_kkt_problem(), np.ones(2), config=cfg).summary()))["config"]

        assert record(value) == record(value.item())

    def test_explicit_gamma_kept(self):
        cfg = SolverConfig(gamma=0.5)
        assert cfg.gamma == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SolverConfig(mu=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(sigma0=1e-5, sigma_min=1e-4)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.5)
        with pytest.raises(ValueError):
            SolverConfig(iterations=0)
        for field, value in [
            ("sigma0", math.nan),
            ("sigma_min", math.nan),
            ("alpha", math.inf),
            ("mu", math.inf),
            ("barrier_weight", math.nan),
            ("barrier_weight", math.inf),
            ("barrier_weight", -1.0),
            ("snapshot_stride", 0),
            ("snapshot_stride", 2.5),
            ("snapshot_stride", True),
            ("iterations", 50.0),
            ("iterations", "50"),
            ("iterations", False),
            ("hold", 2.5),
            ("hold", True),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "3"),
            ("alpha", True),
            ("gamma", True),
            ("alpha", "0.1"),
            ("mu", None),
            ("gamma", "0.5"),
            ("alpha", 10**400),
            ("gamma", 10**400),
        ]:
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{field: value})
        assert SolverConfig(seed=np.int64(3)).seed == 3
        cfg = SolverConfig(iterations=np.int64(50), hold=np.int32(5), snapshot_stride=np.int64(7))
        assert (cfg.iterations, cfg.hold, cfg.snapshot_stride) == (50, 5, 7)
        cfg = SolverConfig(alpha=np.float32(0.5), mu=3, sigma0=np.int64(1), gamma=np.float64(0.9))
        assert (cfg.alpha, cfg.mu, cfg.sigma0, cfg.gamma) == (0.5, 3, 1, 0.9)


def row_by_row_trace_csv(trace):
    """The trace CSV written one numpy scalar at a time, as the writers once did."""
    out = "iter,cost,hsq,energy,sigma\n"
    for i in range(len(trace.iters)):
        out += (
            f"{int(trace.iters[i])},{float(trace.cost[i])!r},{float(trace.hsq[i])!r},"
            f"{float(trace.energy[i])!r},{float(trace.sigma[i])!r}\n"
        )
    return out


def row_by_row_snapshots_csv(trace):
    ncols = trace.snapshots.shape[1] if trace.snapshots.size else 0
    out = "iter," + ",".join(f"v{j}" for j in range(ncols)) + "\n"
    for i in range(len(trace.snapshot_iters)):
        row = ",".join(repr(float(v)) for v in trace.snapshots[i])
        out += f"{int(trace.snapshot_iters[i])},{row}\n"
    return out


class TestTraceWriters:
    SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1.0, -2.5e-300, 0.1])

    def traces(self):
        v = self.SPECIAL
        yield Trace(
            iters=np.arange(10), cost=v, hsq=v[::-1], energy=np.roll(v, 3), sigma=-v,
            snapshot_iters=np.array([0, 4, 8]), snapshots=np.roll(v, 1)[:9].reshape(3, 3),
        )
        yield Trace(iters=np.zeros(0, dtype=int), cost=np.zeros(0), hsq=np.zeros(0), energy=np.zeros(0), sigma=np.zeros(0))
        zero_cols = Trace(
            iters=np.arange(2), cost=v[:2], hsq=v[2:4], energy=v[4:6], sigma=v[6:8],
            snapshot_iters=np.array([0, 1]), snapshots=np.zeros((2, 0)),
        )
        yield zero_cols
        table = np.stack([v, -v, v[::-1]], axis=1)
        shared_sigma = 3 * v
        shared_sigma.flags.writeable = False
        yield Trace(  # a strided column of a 2-D array, and a read-only prefix view
            iters=np.arange(7), cost=table[:7, 1], hsq=table[:7, 2], energy=table[:7, 0], sigma=shared_sigma[:7],
        )
        T = 2 * _WRITE_ROWS + 1  # the rows are written in chunks
        long = np.resize(v, T)
        yield Trace(iters=np.arange(T), cost=long, hsq=long[::-1], energy=-long, sigma=long + 1.0)
        yield solve(toy_kkt_problem(), np.ones(2), config=SolverConfig(iterations=40, snapshot_stride=7)).trace

    def test_bytes_of_the_row_by_row_writers(self, tmp_path):
        for t in self.traces():
            for write, ref in ((t.to_csv, row_by_row_trace_csv), (t.snapshots_to_csv, row_by_row_snapshots_csv)):
                buf = io.StringIO()
                write(buf)
                assert buf.getvalue() == ref(t)
                write(tmp_path / "t.csv")  # a path is opened and closed
                assert (tmp_path / "t.csv").read_bytes() == ref(t).encode()

    def test_writer_peak_is_about_its_output(self):
        (sol,) = solve_batch(toy_kkt_problem(), [np.ones(2)], SolverConfig(iterations=45000))
        buf = io.StringIO()
        tracemalloc.start()
        try:
            sol.trace.to_csv(buf)  # formats the batch's shared columns too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buf.getvalue() == row_by_row_trace_csv(sol.trace)
        # 3.8 MB of CSV: 256 rows at a time peaked at 5.0 MB; whole columns as Python objects at 14.8 MB
        assert peak < 9 * 2**20, peak

    def test_columns_of_different_lengths_are_rejected(self, tmp_path):
        # 55 iteration rows and 54 sigma rows: no CSV cut to the shorter column, and no file
        v = np.resize(self.SPECIAL, 55)
        t = Trace(iters=np.arange(55), cost=v, hsq=v, energy=v, sigma=v[:54])
        msg = "trace columns differ in length (iters 55, cost 55, hsq 55, energy 55, sigma 54)"
        for target in (io.StringIO(), tmp_path / "t.csv"):
            with pytest.raises(ValueError, match=re.escape(msg)):
                t.to_csv(target)
        assert not (tmp_path / "t.csv").exists()
        t = Trace(
            iters=np.arange(3), cost=v[:3], hsq=v[:3], energy=v[:3], sigma=v[:3],
            snapshot_iters=np.array([0, 1, 2]), snapshots=np.zeros((2, 4)),
        )
        t.to_csv(io.StringIO())
        with pytest.raises(ValueError, match=re.escape("(snapshot_iters 3, snapshots 2)")):
            t.snapshots_to_csv(tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()


def test_snapshot_writer_peak_is_about_one_block(tmp_path):
    # 8000 snapshots of a pendulum point: an 80000-iteration run's at stride 10
    snaps = np.random.default_rng(0).standard_normal((8000, 152))
    empty = np.zeros(0)
    t = Trace(iters=empty, cost=empty, hsq=empty, energy=empty, sigma=empty,
              snapshot_iters=10 * np.arange(8000), snapshots=snaps)
    tracemalloc.start()
    try:
        t.snapshots_to_csv(tmp_path / "s.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "s.csv").read_text() == row_by_row_snapshots_csv(t)
    # 256 rows at a time peaked at 3.9 MB; the whole array as Python floats at 38.0 MB
    assert peak < 10 * 2**20, peak


class TestNoiseSchedule:
    def test_start_and_floor(self):
        cfg = SolverConfig(sigma0=0.1, gamma=0.9, sigma_min=1e-4)
        assert noise_schedule(0, cfg) == 0.1
        assert noise_schedule(10**6, cfg) == 1e-4

    def test_monotone_decay(self):
        cfg = SolverConfig(iterations=500)
        vals = [noise_schedule(i, cfg) for i in range(500)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_hold_plateau(self):
        cfg = SolverConfig(sigma0=0.5, iterations=1000, hold=300)
        assert noise_schedule(0, cfg) == 0.5
        assert noise_schedule(299, cfg) == 0.5
        assert noise_schedule(300, cfg) == 0.5  # decay starts after the plateau
        assert noise_schedule(301, cfg) < 0.5
        # floor still reached at 80% of the post-hold budget
        assert noise_schedule(300 + 560, cfg) == pytest.approx(cfg.sigma_min, rel=1e-9)

    def test_hold_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(iterations=100, hold=101)
        with pytest.raises(ValueError):
            SolverConfig(hold=-1)

    def test_negative_iter_rejected(self):
        with pytest.raises(ValueError):
            noise_schedule(-1, SolverConfig())


def test_sigma_column_has_the_schedule_bytes():
    # a hold, a decay to the floor, then a second phase with its own derived rate,
    # each phase numbered from 0 as the kernel numbers it
    phases = (
        SolverConfig(sigma0=0.5, hold=7, gamma=0.8, sigma_min=0.05, iterations=40, seed=1),
        SolverConfig(sigma0=0.3, sigma_min=0.01, iterations=30, seed=2),
    )
    expected = [noise_schedule(i, p) for p in phases for i in range(p.iterations)]
    assert expected[:8] == [0.5] * 8 and expected[39] == 0.05 and expected[38] == 0.05
    assert 0.01 < expected[40 + 23] < expected[40 + 22]
    sols = solve_batch(toy_kkt_problem(), [np.zeros(2), np.ones(2)], phases)
    for sol in sols:
        assert sol.success
        assert sol.trace.sigma.tobytes() == np.array(expected).tobytes()


class TestDriftAndEnergy:
    def test_toy_drift_at_origin(self):
        # grad c = 0, h = -1, so drift = J^T(lam + mu h) = (1,1)*(0 - 10) ... scaled
        nlp = toy_kkt_problem()
        g = drift(nlp, np.zeros(2), np.zeros(1), mu=1.0)
        assert np.allclose(g, [-1.0, -1.0])

    def test_drift_zero_at_kkt(self):
        nlp = toy_kkt_problem()
        g = drift(nlp, np.array([0.5, 0.5]), np.array([-0.5]), mu=10.0)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_drift_matches_merit_gradient(self):
        # drift == finite-difference gradient of c + lam.h + (mu/2)||h||^2
        nlp = get_problem("toy_kkt").nlp
        x = np.array([0.3, -1.1])
        lam = np.array([0.7])
        mu = 10.0

        def merit(z):
            h = nlp.constraints(z)
            return float(nlp.cost(z)) + float(lam @ h) + 0.5 * mu * float(h @ h)

        g = drift(nlp, x, lam, mu)
        d = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = d
            fd = (merit(x + e) - merit(x - e)) / (2 * d)
            assert np.isclose(g[i], fd, atol=1e-8)

    def test_energy_values(self):
        nlp = toy_kkt_problem()
        assert energy(nlp, np.zeros(2), np.zeros(1), mu=1.0) == pytest.approx(1.5)
        assert energy(nlp, np.array([0.5, 0.5]), np.array([-0.5]), mu=10.0) == pytest.approx(
            0.0, abs=1e-28
        )

    def test_energy_nonnegative(self):
        nlp = toy_kkt_problem()
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert energy(nlp, rng.standard_normal(2), rng.standard_normal(1), 10.0) >= 0.0


@pytest.mark.parametrize("problem", ["pendulum", "bugtrap"])
def test_diagnostics_are_the_kernel_math(problem):
    """``energy`` and ``drift`` give the bytes the stepping kernel uses and records at sigma = 0.

    The recorded energy is read from the traces :func:`solve_batch` returns:
    row 0 at the initial point, row k at the point where a k-iteration run ends.
    """
    bundle = get_problem(problem)
    nlp = bundle.nlp
    rng = np.random.default_rng(4)
    X = np.stack([bundle.guess(rng) for _ in range(3)])
    Lam = rng.standard_normal((3, nlp.m))
    cfg = SolverConfig(sigma0=0.0, sigma_min=0.0, iterations=1)
    mu = np.full((3, 1), cfg.mu)
    box = _Box(nlp.lower, nlp.upper)
    Xn, _, failures = advance(nlp, X, Lam, 0, _Phase(cfg, mu), None, np.ones(3, dtype=bool), box)
    assert not failures
    d = drift(nlp, X, Lam, cfg.mu, cfg.barrier_weight)
    assert (X - 0.5 * cfg.alpha * d).tobytes() == Xn.tobytes()
    k = 3
    short = solve_batch(nlp, X, dataclasses.replace(cfg, iterations=k), lambda0s=Lam)
    runs = solve_batch(nlp, X, dataclasses.replace(cfg, iterations=k + 1), lambda0s=Lam)
    for j, (s, r) in enumerate(zip(short, runs)):
        assert s.success and r.success
        assert np.float64(energy(nlp, X[j], Lam[j], cfg.mu)).tobytes() == r.trace.energy[0].tobytes()
        assert np.float64(energy(nlp, s.xbar, s.lam, cfg.mu)).tobytes() == r.trace.energy[k].tobytes()


class TestBarrier:
    def test_gradient_values(self):
        g = barrier_gradient(np.array([0.0]), np.array([-1.0]), np.array([1.0]))
        assert np.allclose(g, 0.0)
        g = barrier_gradient(np.array([0.5]), np.array([-1.0]), np.array([1.0]))
        # 1/(1-0.5) - 1/(0.5+1) = 2 - 2/3
        assert np.allclose(g, 2.0 - 2.0 / 3.0)

    def test_infinite_bounds_are_free(self):
        g = barrier_gradient(np.array([5.0, 0.3]), np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]))
        assert g[0] == 0.0 and g[1] != 0.0

    def test_domain_violation(self):
        with pytest.raises(BarrierDomainError):
            barrier_gradient(np.array([1.0]), np.array([-1.0]), np.array([1.0]))
        with pytest.raises(BarrierDomainError):
            barrier_gradient(np.array([-2.0]), np.array([-1.0]), np.array([1.0]))

    @pytest.mark.parametrize("x", [[2.0, 0.0], [0.0, -1.0], [[0.0, 0.0], [0.5, 10.0]]])
    def test_public_drift_tests_the_domain(self, x):
        # the kernel forms the barrier without this test; drift, a public function, keeps it
        nlp, x = boxed_toy(-1.0, 1.0), np.array(x)
        lam = np.zeros(x.shape[:-1] + (1,))
        with pytest.raises(BarrierDomainError):
            drift(nlp, x, lam, 10.0, 1e-3)
        assert drift(nlp, x, lam, 10.0, 0.0).shape == x.shape


def advance(nlp, X, Lam, it, phase, streams, active, box):
    """``_advance`` as ``_run_chains`` calls it, told whether every chain steps, recording into a scratch row."""
    return _advance(nlp, X, Lam, it, phase, streams, active, bool(active.all()), box, np.empty((3, 1, len(X))), 0)


def one_step(nlp, x, lam, cfg, rng):
    """One kernel iteration of a single chain: its new point and multipliers."""
    X, Lam = np.asarray(x, dtype=float)[None], np.asarray(lam, dtype=float)[None]
    mu = np.full((1, 1), cfg.mu)
    streams = _Streams([rng], nlp.n)
    box = _Box(nlp.lower, nlp.upper)
    Xn, Lamn, failures = advance(nlp, X, Lam, 0, _Phase(cfg, mu), streams, np.ones(1, dtype=bool), box)
    assert not failures
    return Xn[0], Lamn[0]


class TestStep:
    def test_deterministic_part_hand_value(self):
        # from the origin with sigma = 0: x' = -alpha/2 * drift, lam' = alpha*mu*h
        nlp = toy_kkt_problem()
        cfg = SolverConfig(alpha=0.1, mu=1.0, sigma0=0.0, sigma_min=0.0, gamma=1.0, iterations=10, barrier_weight=0.0)
        x, lam = one_step(nlp, np.zeros(2), np.zeros(1), cfg, np.random.default_rng(0))
        assert np.allclose(x, [0.05, 0.05])
        assert np.allclose(lam, [-0.1])

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_multiplier_update_law(self, seed):
        # ||lam' - lam|| == alpha * mu * ||h(x_pre)|| regardless of the noise
        nlp = toy_kkt_problem()
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(2)
        lam0 = rng.standard_normal(1)
        cfg = SolverConfig(alpha=0.01, mu=10.0, iterations=10, barrier_weight=0.0)
        _, lam = one_step(nlp, x0, lam0, cfg, rng)
        h = nlp.constraints(x0)
        assert np.linalg.norm(lam - lam0) == pytest.approx(
            cfg.alpha * cfg.mu * np.linalg.norm(h), rel=1e-12
        )

    def test_noise_enters_state_only(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(alpha=0.01, iterations=10, barrier_weight=0.0)
        x = np.array([1.0, 2.0])
        a = one_step(nlp, x, np.zeros(1), cfg, np.random.default_rng(1))
        b = one_step(nlp, x, np.zeros(1), cfg, np.random.default_rng(2))
        assert not np.allclose(a[0], b[0])
        assert np.array_equal(a[1], b[1])


def walled_box(wall):
    """Toy KKT problem in the box [-1, 1]^2 with a made-up gradient field.

    The gradient is ``x`` except that it is ``wall * x`` where x_0 > 0.9, so
    chains there are thrown out of the box by the drift, and NaN where
    x_0 == -0.5 exactly, so a chain there fails with a non-finite drift.
    """
    toy = toy_kkt_problem()

    def cost_and_gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.where(x[..., :1] > 0.9, wall * x, x)
        g = np.where(x[..., :1] == -0.5, np.nan, g)
        return 0.5 * np.sum(x * x, axis=-1), g

    return NlpProblem(
        n=2,
        m=1,
        cost=toy.cost,
        constraints=toy.constraints,
        lower=np.full(2, -1.0),
        upper=np.full(2, 1.0),
        cost_and_gradient=cost_and_gradient,
        constraints_with_vjp=toy.constraints_with_vjp,
    )


def reference_advance(nlp, X, Lam, it, config, rngs, active):
    """The kernel step with bound retries run one chain at a time.

    This is the straightforward form of ``_advance``: every chain draws its
    noise even at sigma = 0 (where the noise term is left out, as the
    kernel leaves it out), and a chain that leaves the box is retried at
    halved steps on its own, until a step is inside, before the next one is
    looked at, and the bound checks compare every coordinate. Returns the
    number of normal vectors each chain drew as a fourth value.
    """

    def interior(x):
        return np.all(np.isfinite(x), axis=-1) & ~np.any((x <= nlp.lower) | (x >= nlp.upper), axis=-1)

    N, n = X.shape
    alpha, mu, beta = config.alpha, config.mu, config.barrier_weight
    sigma = noise_schedule(it, config)
    draws = np.zeros(N, dtype=int)
    h, vjp = nlp.constraints_with_vjp(X)
    _, cg = nlp.cost_and_gradient(X)
    g = cg + vjp(Lam + mu * h)
    if beta > 0:
        g = g + beta * barrier_gradient(X, nlp.lower, nlp.upper)
    failures = {}
    bad = active & ~np.all(np.isfinite(g), axis=-1)
    for j in np.nonzero(bad)[0]:
        failures[int(j)] = f"non-finite drift at iteration {it}"
    ok = active & ~bad
    noise = np.zeros_like(X)
    for j in np.nonzero(ok)[0]:
        noise[j] = rngs[j].standard_normal(n)
        draws[j] += 1
    Xc = X - 0.5 * alpha * g
    if sigma > 0:
        Xc = Xc + (sigma * math.sqrt(alpha)) * noise
    if beta > 0:
        for j in np.nonzero(ok & ~interior(Xc))[0]:
            scale = 1.0
            while not interior(Xc[j : j + 1])[0]:
                scale *= 0.5
                draws[j] += 1
                Xc[j] = X[j] - 0.5 * alpha * scale * g[j]
                step_noise = rngs[j].standard_normal(n)
                if sigma > 0:
                    Xc[j] = Xc[j] + sigma * math.sqrt(alpha * scale) * step_noise
    Xn = np.where(ok[:, None], Xc, X)
    Lamn = np.where(ok[:, None], Lam + (alpha * mu) * h, Lam)
    return Xn, Lamn, failures, draws


def rng_states(rngs):
    return [r.bit_generator.state for r in rngs]


class CountingStreams(_Streams):
    """The kernel's noise streams, counting the rows each chain reads."""

    def __init__(self, rngs, n):
        super().__init__(rngs, n)
        self.reads = np.zeros(len(rngs), dtype=int)

    def draw(self, chains):
        self.reads[slice(None) if chains is None else chains] += 1
        return super().draw(chains)


class TestStreams:
    def test_rows_are_successive_draws_of_each_generator(self):
        # chain 0 reads every step, chain 1 every other step plus retry reads,
        # chain 2 never: each gets the bytes of its own standard_normal(n) calls
        n, seeds = 7, [11, 12, 13]
        rngs = [np.random.default_rng(s) for s in seeds]
        refs = [np.random.default_rng(s) for s in seeds]
        streams = _Streams(rngs, n)
        reads = np.zeros(3, dtype=int)
        refilled_on_retry = False
        for step in range(3 * _BLOCK_ROWS):
            levels = [[0, 1] if step % 2 else [0]] + [[1]] * (step % 3)
            for level, chains in enumerate(levels):
                chains = np.array(chains)
                refilled_on_retry |= level > 0 and reads[1] % _BLOCK_ROWS == 0
                rows = streams.draw(chains)
                assert rows.shape == (len(chains), n)
                for row, j in zip(rows, chains):
                    assert row.tobytes() == refs[j].standard_normal(n).tobytes()
                reads[chains] += 1
        assert refilled_on_retry and reads[0] != reads[1]
        assert rng_states(rngs[2:]) == rng_states(refs[2:])

    def test_aligned_reads_hand_off_to_per_chain_cursors(self):
        # every chain reads together for more than two blocks, then a permuted read of all
        # three hands off to per-chain cursors, chain 1 reads alone across its block edge,
        # and every chain reads together again
        n, seeds = 5, [21, 22, 23]
        rngs = [np.random.default_rng(s) for s in seeds]
        refs = [np.random.default_rng(s) for s in seeds]
        streams = _Streams(rngs, n)

        def read(chains, order):
            rows = streams.draw(chains)
            assert rows.shape == (len(order), n)
            for row, j in zip(rows, order):
                assert row.tobytes() == refs[j].standard_normal(n).tobytes()

        for _ in range(2 * _BLOCK_ROWS + 3):
            read(None, [0, 1, 2])
        read(np.array([2, 0, 1]), [2, 0, 1])
        for _ in range(_BLOCK_ROWS):
            read(np.array([1]), [1])
        for _ in range(_BLOCK_ROWS + 2):
            read(None, [0, 1, 2])


class TestAdvance:
    X0 = np.array(
        [
            [0.0, 0.0],
            [0.95, 0.0],  # thrown out by the wall at more than 20 halvings
            [0.8, 0.7],
            [-0.95, 0.9],
            [0.0, 0.99],
            [0.3, 0.3],  # inactive
            [-0.5, 0.2],  # non-finite drift
            [0.5, -0.98],
        ]
    )

    def test_batched_retries_match_one_chain_at_a_time(self):
        nlp = walled_box(1e12)
        cfg = SolverConfig(sigma0=3.0, gamma=1.0, iterations=10, seed=3)
        N, n = self.X0.shape
        rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        ref_rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        streams = CountingStreams(rngs, n)
        box = _Box(nlp.lower, nlp.upper)
        X = self.X0.copy()
        Lam = np.linspace(-1.0, 1.0, N)[:, None]
        active = np.ones(N, dtype=bool)
        active[5] = False
        mu = np.full((N, 1), cfg.mu)
        inactive_state = rngs[5].bit_generator.state
        drawn = np.zeros(N, dtype=int)
        deepest = np.zeros(N, dtype=int)
        all_failures = {}
        for it in range(5):
            Xr, Lamr, fr, draws = reference_advance(nlp, X, Lam, it, cfg, ref_rngs, active.copy())
            Xn, Lamn, failures = advance(nlp, X, Lam, it, _Phase(cfg, mu), streams, active.copy(), box)
            assert Xn.tobytes() == Xr.tobytes()
            assert Lamn.tobytes() == Lamr.tobytes()
            assert failures == fr
            drawn += draws
            assert np.array_equal(streams.reads, drawn)
            deepest = np.maximum(deepest, draws - 1)
            all_failures.update(failures)
            active[list(failures)] = False
            X, Lam = Xn, Lamn
        # the scenario covers what it is meant to cover
        assert (deepest > 0).sum() >= 3 and drawn.max() > _BLOCK_ROWS
        assert deepest[1] > 20 and not np.array_equal(X[1], self.X0[1])
        assert list(all_failures) == [6] and all_failures[6].startswith("non-finite drift")
        assert np.array_equal(X[5], self.X0[5])
        assert rngs[5].bit_generator.state == inactive_state
        # each stream continues where its generator's own calls would
        for j, row in enumerate(streams.draw(np.arange(N))):
            assert row.tobytes() == ref_rngs[j].standard_normal(n).tobytes()

    def test_sigma_zero_draws_nothing(self):
        nlp = walled_box(1e4)  # chain 1 is retried until a halved step fits
        cfg = SolverConfig(sigma0=0.0, sigma_min=0.0, gamma=1.0, iterations=10)
        N, n = self.X0.shape
        rngs = [np.random.default_rng(j) for j in range(N)]
        ref_rngs = [np.random.default_rng(j) for j in range(N)]
        before = rng_states(rngs)
        X, Lam = self.X0.copy(), np.zeros((N, 1))
        active = np.ones(N, dtype=bool)
        Xr, Lamr, fr, draws = reference_advance(nlp, X, Lam, 0, cfg, ref_rngs, active.copy())
        mu = np.full((N, 1), cfg.mu)
        streams = _Streams(rngs, n)
        Xn, Lamn, failures = advance(
            nlp, X, Lam, 0, _Phase(cfg, mu), streams, active.copy(), _Box(nlp.lower, nlp.upper)
        )
        assert draws[1] > 1 and 1 not in fr
        assert Xn.tobytes() == Xr.tobytes()
        assert Lamn.tobytes() == Lamr.tobytes()
        assert failures == fr
        assert rng_states(rngs) == before

    @pytest.mark.parametrize("wall", [1e300, 1.7e308])
    @pytest.mark.parametrize("sigma0", [0.0, 2.0])
    def test_halving_ends_at_any_wall(self, wall, sigma0):
        # chain 1's step fits only after about a thousand halvings, and 0.5**1075 == 0.0 ends
        # the loop at the chain's own point; every chain steps on and equals its solo run
        nlp = walled_box(wall)
        cfg = SolverConfig(sigma0=sigma0, sigma_min=0.0, gamma=1.0, iterations=5, seed=4)
        x0s = [x for j, x in enumerate(self.X0) if j != 6]  # row 6's drift is NaN
        N = len(x0s)
        rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        draws = reference_advance(nlp, np.array(x0s), np.zeros((N, 1)), 0, cfg, rngs, np.ones(N, dtype=bool))[3]
        assert draws[1] > 900
        sols = solve_batch(nlp, x0s, cfg)
        assert not np.array_equal(sols[1].xbar, x0s[1])
        for j, (x0, sol) in enumerate(zip(x0s, sols)):
            assert sol.success and len(sol.trace) == cfg.iterations
            (solo,) = solve_batch(nlp, [x0], dataclasses.replace(cfg, seed=cfg.seed + j))
            assert_same_solution(sol, solo)

    def test_trap_step_that_fits_past_20_halvings(self):
        # chain 3 of the trap benchmark's repetition at seed 2611000110 (hot phase): at iteration
        # 107 its step fits only at halving 24
        bundle = get_problem("bugtrap")
        x0 = bundle.guess(np.random.default_rng([2611000113, 0xA5]))
        gamma = (0.8 / 1.5) ** (1 / 150)
        cfg = SolverConfig(seed=2611000113, sigma0=1.5, hold=110, iterations=110, gamma=gamma, sigma_min=0.8)
        (sol,) = solve_batch(bundle.nlp, [x0], cfg)
        assert sol.success and sol.message == "ok" and len(sol.trace) == 110


def gapped_box(wall):
    """A 3-coordinate walled box bounded on coordinates 0 and 2 only: x_0 in [-1, 1], x_2 <= 1.

    The gradient is that of :func:`walled_box`, and the constraint
    x_0 + x_2 = 1 leaves x_1 out of the Jacobian, so where x_1 is -0.0 so is
    its merit gradient, and only the barrier's ``+ 0.0`` makes the drift +0.0.
    """
    walled = walled_box(wall)

    def constraints(x):
        return ad.stack([x[..., 0] + x[..., 2] - 1.0], axis=-1)

    def constraints_with_vjp(x):
        h = (x[..., 0] + x[..., 2] - 1.0)[..., None]
        return h, lambda w: np.concatenate([w, 0.0 * w, w], axis=-1)

    return NlpProblem(
        n=3,
        m=1,
        cost=lambda x: 0.5 * ad.asum(x * x, axis=-1),
        constraints=constraints,
        lower=np.array([-1.0, -np.inf, -np.inf]),
        upper=np.array([1.0, np.inf, 1.0]),
        cost_and_gradient=walled.cost_and_gradient,
        constraints_with_vjp=constraints_with_vjp,
    )


class TestGappedBounds:
    X0 = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.95, 3.0, 0.0],  # thrown out by the wall
            [0.5, 40.0, 0.99],  # near the one-sided bound
            [-0.9, -25.0, -30.0],  # far below x_2's bound, which has no lower side
            [-0.5, 0.0, 0.5],  # non-finite drift
            [0.2, 0.1, 0.8],
            [0.2, -0.0, 0.8],  # a -0.0 the barrier's +0.0 keeps at sigma = 0
        ]
    )

    @pytest.mark.parametrize("sigma0", [0.0, 2.0])
    def test_kernel_equals_reference(self, sigma0):
        nlp = gapped_box(1e4)
        box = _Box(nlp.lower, nlp.upper)
        assert box.cols == slice(0, 3)  # one span, x_1's infinite bounds inside it
        cfg = SolverConfig(sigma0=sigma0, sigma_min=0.0, gamma=1.0, iterations=10, seed=8)
        N, n = self.X0.shape
        rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        ref_rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        streams = CountingStreams(rngs, n)
        X, Lam = self.X0.copy(), np.full((N, 1), -2.0)
        active = np.ones(N, dtype=bool)
        mu = np.full((N, 1), cfg.mu)
        drawn = np.zeros(N, dtype=int)
        retried = np.zeros(N, dtype=bool)
        for it in range(6):
            Xr, Lamr, fr, draws = reference_advance(nlp, X, Lam, it, cfg, ref_rngs, active.copy())
            Xn, Lamn, failures = advance(nlp, X, Lam, it, _Phase(cfg, mu), streams, active.copy(), box)
            assert Xn.tobytes() == Xr.tobytes()
            assert Lamn.tobytes() == Lamr.tobytes()
            assert failures == fr
            drawn += draws if sigma0 > 0 else 0
            assert np.array_equal(streams.reads, drawn)
            retried |= draws > 1
            active[list(failures)] = False
            X, Lam = Xn, Lamn
        assert retried[1] and not active[4]

    def test_overflow_off_the_bounds_is_retried(self):
        # x_1 has no bound, but a step that overflows there is outside all the same
        nlp = gapped_box(1.0)
        X, Lam = np.array([[0.0, 1e300, 0.0]]), np.full((1, 1), 10.0)  # lam + mu h = 0
        cfg = SolverConfig(alpha=1e10, sigma0=0.0, sigma_min=0.0, iterations=1)
        active, mu, box = np.ones(1, dtype=bool), np.full((1, 1), cfg.mu), _Box(nlp.lower, nlp.upper)
        with np.errstate(over="ignore"):  # the cost overflows too; the kernel does not step on it
            Xr, _, fr, draws = reference_advance(nlp, X, Lam, 0, cfg, [np.random.default_rng(0)], active)
            Xn, _, failures = advance(nlp, X, Lam, 0, _Phase(cfg, mu), None, active, box)
        assert draws[0] > 1 and not fr and not failures
        assert Xn.tobytes() == Xr.tobytes() and np.all(np.isfinite(Xn))

    def test_unbounded_coordinate_gets_the_barrier_zero(self):
        # the reference adds the barrier on all n coordinates (1/inf - 1/inf = +0.0 off the
        # bounds), the kernel on the two bounded ones and + 0.0 on the rest
        nlp = gapped_box(1e4)
        X = np.array([[0.0, -0.0, 0.0], [0.2, -0.0, 0.8]])
        Lam = np.full((2, 1), -2.0)
        cfg = SolverConfig(sigma0=0.0, sigma_min=0.0, iterations=1)
        mu = np.full((2, 1), cfg.mu)
        box = _Box(nlp.lower, nlp.upper)
        Xn = advance(nlp, X, Lam, 0, _Phase(cfg, mu), None, np.ones(2, dtype=bool), box)[0]
        h, vjp = nlp.constraints_with_vjp(X)
        _, cg = nlp.cost_and_gradient(X)
        v = cg + vjp(Lam + cfg.mu * h)
        g = v + cfg.barrier_weight * barrier_gradient(X, nlp.lower, nlp.upper)
        assert (X - 0.5 * cfg.alpha * g).tobytes() == Xn.tobytes()
        assert np.all(np.signbit(Xn[:, 1]))  # -0.0 - 0.5 * alpha * (+0.0)


class TestSolve:
    def test_toy_converges(self):
        sol = solve(toy_kkt_problem(), np.array([2.0, -1.0]), config=SolverConfig(iterations=5000))
        assert sol.success
        assert np.allclose(sol.xbar, [0.5, 0.5], atol=5e-3)
        assert np.allclose(sol.lam, [-0.5], atol=5e-3)
        assert sol.hsq < 1e-4

    def test_seed_reproducible(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=200, seed=42)
        a = solve(nlp, np.ones(2), config=cfg)
        b = solve(nlp, np.ones(2), config=cfg)
        assert np.array_equal(a.xbar, b.xbar)
        assert np.array_equal(a.trace.cost, b.trace.cost)

    def test_trace_shapes_and_schedule(self):
        cfg = SolverConfig(iterations=250, snapshot_stride=100)
        sol = solve(toy_kkt_problem(), np.zeros(2), config=cfg)
        assert len(sol.trace) == 250
        assert np.array_equal(sol.trace.snapshot_iters, [0, 100, 200])
        assert sol.trace.snapshots.shape == (3, 2)
        assert sol.trace.sigma[0] == cfg.sigma0

    def test_trace_csv_schema(self):
        sol = solve(toy_kkt_problem(), np.zeros(2), config=SolverConfig(iterations=5))
        buf = io.StringIO()
        sol.trace.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "iter,cost,hsq,energy,sigma"
        assert len(lines) == 6
        assert lines[1].startswith("0,")

    def test_bad_x0_shape(self):
        with pytest.raises(ValueError):
            solve(toy_kkt_problem(), np.zeros(3))

    def test_barrier_keeps_iterates_interior(self):
        nlp = boxed_toy(-0.6, 0.6)
        cfg = SolverConfig(iterations=2000, sigma0=0.3, sigma_min=1e-3)
        sol = solve(nlp, np.zeros(2), config=cfg)
        assert np.all(np.abs(sol.trace.snapshots) < 0.6)
        assert np.all(np.abs(sol.xbar) < 0.6)

    def test_exterior_x0_rejected(self):
        with pytest.raises(BarrierDomainError):
            solve(boxed_toy(-0.1, 0.1), np.array([5.0, 0.0]))

    def test_failure_attaches_partial_solution(self):
        def bad_cost(x):
            return x[..., 0] / (x[..., 0] - x[..., 0])  # NaN everywhere

        nlp = NlpProblem(
            n=1,
            m=1,
            cost=bad_cost,
            constraints=lambda x: x,
            lower=np.array([-np.inf]),
            upper=np.array([np.inf]),
        )
        with pytest.raises(SolveError) as exc:
            solve(nlp, np.ones(1), config=SolverConfig(iterations=50, barrier_weight=0.0))
        assert exc.value.solution is not None
        assert not exc.value.solution.success


class TestSolveBatch:
    def test_batch_of_one_matches_solve(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=300, seed=7)
        single = solve(nlp, np.ones(2), config=cfg)
        (batched,) = solve_batch(nlp, [np.ones(2)], cfg)
        assert np.array_equal(single.xbar, batched.xbar)
        assert np.array_equal(single.trace.energy, batched.trace.energy)

    def test_chains_use_offset_seeds(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=300, seed=7)
        sols = solve_batch(nlp, [np.ones(2), np.ones(2)], cfg)
        assert not np.array_equal(sols[0].xbar, sols[1].xbar)
        # chain 1 is a fresh solve at seed 8
        ref = solve(nlp, np.ones(2), config=SolverConfig(iterations=300, seed=8))
        assert np.array_equal(sols[1].xbar, ref.xbar)

    def test_thread_count_invariant(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=200, seed=0)
        x0s = [np.full(2, float(i)) for i in range(6)]
        a = solve_batch(nlp, x0s, cfg, threads=1)
        b = solve_batch(nlp, x0s, cfg, threads=4)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.xbar, sb.xbar)
            assert np.array_equal(sa.trace.hsq, sb.trace.hsq)

    def test_threads_start_no_thread(self, monkeypatch):
        nlp = boxed_toy(-5.0, 5.0)
        cfg = SolverConfig(iterations=200, sigma0=1.0, seed=3)
        x0s = [np.full(2, 0.5 * i - 1.0) for i in range(5)]
        one = solve_batch(nlp, x0s, cfg, threads=1)

        def refuse(self):
            raise AssertionError("solve_batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        four = solve_batch(nlp, x0s, cfg, threads=4)
        for a, b in zip(one, four):
            assert a.xbar.tobytes() == b.xbar.tobytes() and a.lam.tobytes() == b.lam.tobytes()
            for name in ("cost", "hsq", "energy", "sigma", "snapshots"):
                assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes()
            assert (a.success, a.message) == (b.success, b.message)

    @pytest.mark.parametrize("threads", [0, -3, 1.5, 2.0, "2", True])
    def test_bad_thread_count_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            solve_batch(toy_kkt_problem(), [np.ones(2)] * 2, SolverConfig(iterations=5), threads=threads)

    def test_empty_batch_names_x0s(self):
        with pytest.raises(ValueError, match="x0s is empty"):
            solve_batch(toy_kkt_problem(), [], SolverConfig(iterations=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_named_with_the_barrier_on(self, bad):
        # the toy problem has no finite bound: the entry is not finite, not outside a bound
        with pytest.raises(BarrierDomainError, match=r"^x0s\[1\] has a non-finite entry$"):
            solve_batch(toy_kkt_problem(), [np.ones(2), np.array([0.0, bad])], SolverConfig(iterations=5))
        with pytest.raises(BarrierDomainError, match=r"^x0s\[0\] is not strictly interior to finite bounds$"):
            solve_batch(boxed_toy(-1.0, 1.0), [np.full(2, 5.0), np.array([0.0, bad])], SolverConfig(iterations=5))

    def test_non_finite_x0_with_the_barrier_off_fails_its_chain(self):
        cfg = SolverConfig(iterations=5, barrier_weight=0.0)
        sols = solve_batch(toy_kkt_problem(), [np.ones(2), np.array([np.nan, 0.0])], cfg)
        assert [(s.success, s.message, len(s.trace)) for s in sols] == [
            (True, "ok", 5),
            (False, "non-finite drift at iteration 0", 1),
        ]

    def test_a_failed_chain_warns_nothing(self):
        cfg = SolverConfig(iterations=5, barrier_weight=0.0)
        x0s = [np.array([np.inf, 0.0]), np.ones(2), np.array([-np.inf, np.nan])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = solve_batch(toy_kkt_problem(), x0s[:1], cfg)
            batch = solve_batch(toy_kkt_problem(), x0s, cfg)  # failed chains stay in the stack
        assert [(s.success, s.message, len(s.trace)) for s in alone] == [
            (False, "non-finite drift at iteration 0", 1)
        ]
        assert [(s.success, s.message, len(s.trace)) for s in batch] == [
            (False, "non-finite drift at iteration 0", 1),
            (True, "ok", 5),
            (False, "non-finite drift at iteration 0", 1),
        ]
        assert_same_solution(batch[0], alone[0])
        assert np.array_equal(batch[2].xbar, x0s[2], equal_nan=True)

    def test_a_diverging_chain_warns_nothing(self):
        # the CLI's diverging gd case (--solver gd --alpha 1e6 --iters 50 --batch 2): both chains
        # overflow to inf and NaN, and the batch returns the same Solutions with warnings as errors
        bundle = get_problem("toy_kkt")
        cfg = SolverConfig(alpha=1e6, iterations=50, sigma0=0.0, sigma_min=0.0, gamma=1.0)
        runs = {}
        for action in ("error", "ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                runs[action] = solve_batch(bundle.nlp, bundle.guesses(2), cfg)
        assert [s.success for s in runs["error"]] == [False, False]
        for a, b in zip(runs["error"], runs["ignore"]):
            assert (a.success, a.message) == (b.success, b.message)
            assert np.array_equal([a.hsq, a.cost], [b.hsq, b.cost], equal_nan=True)
            assert np.array_equal(a.xbar, b.xbar, equal_nan=True) and np.array_equal(a.lam, b.lam, equal_nan=True)
            for name in ("iters", "cost", "hsq", "energy", "sigma", "snapshot_iters", "snapshots"):
                x, y = getattr(a.trace, name), getattr(b.trace, name)
                assert x.shape == y.shape and np.array_equal(x, y, equal_nan=True), name

    def test_ragged_x0s_names_the_entry(self):
        nlp = toy_kkt_problem()
        with pytest.raises(ValueError, match=re.escape("x0s[1] has shape (3,), expected (2,)")):
            solve_batch(nlp, [np.ones(2), np.ones(3), np.ones(2)], SolverConfig(iterations=5))
        with pytest.raises(ValueError, match=re.escape("x0s[0] has shape (1, 2), expected (2,)")):
            solve_batch(nlp, [np.ones((1, 2)), np.ones(2)], SolverConfig(iterations=5))

    def test_ragged_lambda0s_names_the_entry(self):
        nlp = toy_kkt_problem()
        with pytest.raises(ValueError, match=re.escape("lambda0s[2] has shape (2,), expected (1,)")):
            solve_batch(nlp, [np.ones(2)] * 3, SolverConfig(iterations=5), lambda0s=[[0.0], [1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape("lambda0s[0] has shape (), expected (1,)")):
            solve_batch(nlp, [np.ones(2)] * 2, SolverConfig(iterations=5), lambda0s=[0.0, [1.0]])
        with pytest.raises(ValueError, match=re.escape("lambda0s has shape (0, 1), expected (2, 1)")):
            solve_batch(nlp, [np.ones(2)] * 2, SolverConfig(iterations=5), lambda0s=[])

    def test_lambda0s_continuation(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=100, seed=0)
        lam = np.array([-0.4])
        (sol,) = solve_batch(nlp, [np.ones(2)], cfg, lambda0s=[lam])
        ref = solve(nlp, np.ones(2), lam, cfg)
        assert np.array_equal(sol.xbar, ref.xbar)
        with pytest.raises(ValueError):
            solve_batch(nlp, [np.ones(2)], cfg, lambda0s=[np.zeros(2)])

    @pytest.mark.parametrize("problem, chains", [("pendulum", 64), ("bugtrap", 10), ("toy_kkt", 16)])
    def test_final_values_equal_per_chain_evaluation(self, problem, chains):
        bundle = get_problem(problem)
        rng = np.random.default_rng(4)
        x0s = [bundle.guess(rng) for _ in range(chains)]
        sols = solve_batch(bundle.nlp, x0s, SolverConfig(iterations=3, sigma0=0.5, seed=2))
        for s in sols:
            assert s.hsq == float(bundle.nlp.constraint_violation(s.xbar))
            assert s.cost == float(ad.value(bundle.nlp.cost(s.xbar)))


def test_library_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "langopt"}
    for path in Path(langopt.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


class TestTrajectoryGuess:
    def test_controls_at_midpoint_states_in_box(self):
        ocp = pendulum_ocp()
        box = np.array([[0.0, 2 * np.pi], [-6.0, 6.0]])
        x0 = trajectory_guess(ocp, box, np.random.default_rng(0))
        K = ocp.K
        assert np.all(x0[:K] == 0.0)  # midpoint of [-1, 1]
        X = x0[K:].reshape(K + 1, 2)
        assert np.all(X[:, 0] >= 0.0) and np.all(X[:, 0] <= 2 * np.pi)
        assert np.all(np.abs(X[:, 1]) <= 6.0)

    def test_bad_box_shape(self):
        with pytest.raises(ValueError):
            trajectory_guess(pendulum_ocp(), np.zeros((3, 2)), np.random.default_rng(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "lower, upper, expected",
        [
            (0.0, None, 1.0),
            (2.5, None, 3.5),
            (-2.0, None, 0.0),
            (None, 0.0, -1.0),
            (None, -3.0, -4.0),
            (None, 4.0, 0.0),
            (None, None, 0.0),
        ],
    )
    def test_control_guess_strictly_inside_its_bounds(self, lower, upper, expected):
        ocp = OcpDefinition(
            K=4,
            nx=1,
            nu=1,
            dynamics=lambda x, u: x + 0.1 * u,
            running_cost=lambda x, u: ad.asum(u**2.0, axis=-1),
            terminal_cost=lambda x: ad.asum(x**2.0, axis=-1),
            x_init=np.array([1.0]),
            u_lower=None if lower is None else np.array([lower]),
            u_upper=None if upper is None else np.array([upper]),
        )
        x0 = trajectory_guess(ocp, np.array([[-1.0, 1.0]]), np.random.default_rng(0))
        assert np.all(x0[: ocp.K] == expected)
        cfg = SolverConfig(iterations=50, sigma0=0.1, seed=1)
        (sol,) = solve_batch(transcribe(ocp), [x0], cfg)  # the guess passes the interior check
        assert sol.success

    def test_guess_is_infeasible(self):
        bundle = get_problem("pendulum")
        x0 = bundle.guess(np.random.default_rng(0))
        assert bundle.nlp.constraint_violation(x0) > 1.0

    def bounded_pendulum(self):
        """The pendulum with ``|theta_dot| <= 3``: half of the default guess box's rate range."""
        return dataclasses.replace(pendulum_ocp(), x_lower=[-np.inf, -3.0], x_upper=[np.inf, 3.0])

    def test_states_drawn_strictly_inside_finite_state_bounds(self):
        ocp = self.bounded_pendulum()
        rng = np.random.default_rng(4)
        x0s = [trajectory_guess(ocp, PENDULUM_GUESS_BOX, rng) for _ in range(50)]
        X = np.stack([x0[ocp.K :].reshape(ocp.K + 1, 2) for x0 in x0s])
        assert np.all(np.abs(X[..., 1]) < 3.0) and np.max(np.abs(X[..., 1])) > 2.5
        assert X[..., 0].min() >= 0.0 and X[..., 0].max() <= 2 * np.pi  # the unbounded angle keeps its box
        cfg = SolverConfig(iterations=20, sigma0=0.1)
        sols = solve_batch(transcribe(ocp), x0s, cfg)  # every guess passes the interior check
        assert all(s.success for s in sols)

    def test_unbounded_states_draw_what_the_box_alone_draws(self):
        ocp = pendulum_ocp()
        x0 = trajectory_guess(ocp, PENDULUM_GUESS_BOX, np.random.default_rng(6))
        X = np.random.default_rng(6).uniform(PENDULUM_GUESS_BOX[:, 0], PENDULUM_GUESS_BOX[:, 1], size=(ocp.K + 1, 2))
        assert x0[ocp.K :].tobytes() == X.tobytes()

    @pytest.mark.parametrize("row", [[4.0, 6.0], [-6.0, -3.0], [3.0, 3.0], [2.0, -2.0]])
    def test_box_outside_the_state_bounds_rejected(self, row):
        box = np.array([[0.0, 1.0], row])
        with pytest.raises(ValueError, match="state_box row 1"):
            trajectory_guess(self.bounded_pendulum(), box, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "row", [[2.0, -2.0], [np.nan, 1.0], [0.0, np.nan], [-np.inf, 1.0], [0.0, np.inf], [-1e308, 1e308]]
    )
    def test_unbounded_state_row_reversed_or_not_finite_rejected(self, row):
        # numpy's uniform would raise "high - low < 0", or an OverflowError the CLI does not catch
        box = np.array([[0.0, 1.0], row])
        msg = f"state_box row 1 {row} must satisfy low <= high with high - low finite"
        with pytest.raises(ValueError, match=re.escape(msg)):
            trajectory_guess(pendulum_ocp(), box, np.random.default_rng(0))


class TestEnergyDescent:
    def test_late_phase_energy_decreases(self):
        # once the noise has annealed away, the energy diagnostic trends down
        sol = solve(toy_kkt_problem(), np.array([3.0, -2.0]), config=SolverConfig(iterations=4000))
        e = sol.trace.energy
        late = e[2000:]
        assert np.median(late[-500:]) < np.median(late[:500])
        assert e[-1] < 1e-4


def short_schedule(name):
    """The bundle's schedule cut to a few dozen iterations, with strides that do not divide them."""
    bundle = get_problem(name)
    first, second = bundle.phases
    return bundle, [
        dataclasses.replace(first, iterations=30, hold=min(first.hold, 10), snapshot_stride=7),
        dataclasses.replace(second, iterations=25, snapshot_stride=4),
    ]


def schedule_guesses(bundle, n):
    return [bundle.guess(np.random.default_rng([s, 0xA5])) for s in range(n)]


def assert_same_solution(a, b):
    for name in ("xbar", "lam"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    for name in ("iters", "cost", "hsq", "energy", "sigma", "snapshot_iters", "snapshots"):
        x, y = getattr(a.trace, name), getattr(b.trace, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (a.success, a.message) == (b.success, b.message)
    assert a.config == b.config


class TestSchedule:
    @pytest.mark.parametrize("name", ["pendulum", "bugtrap"])
    def test_equals_hand_chained_calls(self, name):
        bundle, phases = short_schedule(name)
        x0s = schedule_guesses(bundle, 3)
        sols = solve_batch(bundle.nlp, x0s, phases)
        first = solve_batch(bundle.nlp, x0s, phases[0])
        second = solve_batch(
            bundle.nlp, [s.xbar for s in first], phases[1], lambda0s=[s.lam for s in first]
        )
        T0 = phases[0].iterations
        for j, (sol, a, b) in enumerate(zip(sols, first, second)):
            assert sol.success and sol.config == dataclasses.replace(phases[1], seed=phases[1].seed + j)
            assert sol.xbar.tobytes() == b.xbar.tobytes()
            assert sol.lam.tobytes() == b.lam.tobytes()
            assert np.array_equal(sol.trace.iters, np.arange(T0 + phases[1].iterations))
            for key in ("cost", "hsq", "energy", "sigma"):
                seg = getattr(sol.trace, key)
                assert seg[:T0].tobytes() == getattr(a.trace, key).tobytes()
                assert seg[T0:].tobytes() == getattr(b.trace, key).tobytes()
            assert np.array_equal(
                sol.trace.snapshot_iters,
                np.concatenate([a.trace.snapshot_iters, T0 + b.trace.snapshot_iters]),
            )
            assert sol.trace.snapshots.tobytes() == np.concatenate(
                [a.trace.snapshots, b.trace.snapshots]
            ).tobytes()

    def test_thread_count_invariant(self):
        bundle, phases = short_schedule("bugtrap")
        x0s = schedule_guesses(bundle, 5)
        one = solve_batch(bundle.nlp, x0s, phases, threads=1)
        four = solve_batch(bundle.nlp, x0s, phases, threads=4)
        for a, b in zip(one, four):
            assert_same_solution(a, b)

    def test_solve_is_a_batch_of_one(self):
        bundle, phases = short_schedule("pendulum")
        (x0,) = schedule_guesses(bundle, 1)
        assert_same_solution(
            solve(bundle.nlp, x0, config=phases), solve_batch(bundle.nlp, [x0], phases)[0]
        )

    @pytest.mark.parametrize("phase, it", [(0, 12), (1, 5)])
    def test_failed_chain_stops_and_spares_the_others(self, phase, it):
        bundle, phases = short_schedule("pendulum")
        x0s = schedule_guesses(bundle, 4)
        victim, fail_call = 2, phase * phases[0].iterations + it
        calls = []
        oracle = bundle.nlp.cost_and_gradient

        def poisoned(X):  # one call per iteration over the whole stack (threads=1)
            c, g = oracle(X)
            if len(calls) == fail_call:
                g = g.copy()
                g[victim] = np.nan
            calls.append(None)
            return c, g

        nlp = dataclasses.replace(bundle.nlp, cost_and_gradient=poisoned)
        sols = solve_batch(nlp, x0s, phases)
        clean = solve_batch(bundle.nlp, x0s, phases)
        for j, (sol, ref) in enumerate(zip(sols, clean)):
            if j != victim:
                assert_same_solution(sol, ref)
        sol, ref = sols[victim], clean[victim]
        assert not sol.success
        assert sol.message == f"phase {phase}: non-finite drift at iteration {it}"
        assert sol.config == dataclasses.replace(phases[phase], seed=phases[phase].seed + victim)
        assert len(sol.trace) == fail_call + 1  # ends with the failing iteration's pre-step record
        assert sol.trace.hsq.tobytes() == ref.trace.hsq[: fail_call + 1].tobytes()
        assert np.all(sol.trace.snapshot_iters <= fail_call)
        assert len(sol.trace.snapshots) == len(sol.trace.snapshot_iters)

    def test_a_chain_a_barrier_free_phase_leaves_outside_fails_alone(self):
        # phase 0 has no barrier, so it does not test x0s[1], whose first torque starts far
        # outside [-1, 1]; phase 1 has one, and chain 1 fails when it starts
        bundle, phases = short_schedule("pendulum")
        phases = [dataclasses.replace(phases[0], barrier_weight=0.0), phases[1]]
        assert phases[1].barrier_weight > 0
        x0s = schedule_guesses(bundle, 4)
        x0s[1][0] = 50.0
        sols = solve_batch(bundle.nlp, x0s, phases)
        T0 = phases[0].iterations
        for j, (sol, x0) in enumerate(zip(sols, x0s)):
            (solo,) = solve_batch(bundle.nlp, [x0], [dataclasses.replace(p, seed=p.seed + j) for p in phases])
            assert_same_solution(sol, solo)
            assert sol.config == dataclasses.replace(phases[1], seed=phases[1].seed + j)
        sol = sols[1]
        assert not sol.success and [s.success for s in sols] == [True, False, True, True]
        assert sol.message == "phase 1: not strictly interior to finite bounds at the start of the phase"
        assert len(sol.trace) == T0 and np.all(sol.trace.snapshot_iters < T0)
        assert not sol.xbar[0] < 1.0  # its last accepted row, left outside by phase 0
        with pytest.raises(SolveError, match="^phase 1: not strictly interior") as exc:
            solve(bundle.nlp, x0s[1], config=[dataclasses.replace(p, seed=p.seed + 1) for p in phases])
        assert_same_solution(exc.value.solution, sol)

    def test_rejects_bad_schedules(self):
        nlp = toy_kkt_problem()
        with pytest.raises(ValueError, match="at least one phase"):
            solve_batch(nlp, [np.ones(2)], [])
        for bad in ([SolverConfig(), {"iterations": 10}], "anneal", 3):
            with pytest.raises(TypeError, match="SolverConfig"):
                solve_batch(nlp, [np.ones(2)], bad)

    def test_shape_checks_name_the_field(self):
        bundle = get_problem("pendulum")
        (x0,) = schedule_guesses(bundle, 1)
        cfg = SolverConfig(iterations=5)
        with pytest.raises(ValueError, match="lambda0s has shape"):
            solve(bundle.nlp, x0, np.zeros(1), cfg)
        with pytest.raises(ValueError, match="x0s has shape"):
            solve_batch(bundle.nlp, [x0[:-1], x0[:-1]], cfg)
        with pytest.raises(ValueError, match=re.escape("x0 has shape (152, 1), expected (152,)")):
            solve(bundle.nlp, x0[:, None], config=cfg)


MUS = (0.01, 0.1, 1.0, 10.0)


def walled_schedule():
    return walled_box(1e4), [SolverConfig(sigma0=0.5, gamma=0.9, iterations=20, snapshot_stride=3)]


def per_chain(phases, mus, seeds):
    """One schedule per chain: ``phases`` with chain j's ``mu`` and its phase seeds."""
    return [
        [dataclasses.replace(p, mu=mu, seed=s) for p, s in zip(phases, row)]
        for mu, row in zip(mus, seeds)
    ]


class TestPerChainSchedules:
    """Chain j of any batch equals its solo run by bytes."""

    def check_equals_solos(self, nlp, phases, x0s, data):
        N = len(x0s)
        mus = data.draw(st.lists(st.sampled_from(MUS), min_size=N, max_size=N), label="mus")
        seeds = data.draw(
            st.lists(
                st.lists(st.integers(0, 2**40), min_size=len(phases), max_size=len(phases)),
                min_size=N,
                max_size=N,
            ),
            label="seeds",
        )
        threads = data.draw(st.sampled_from([1, 2]), label="threads")
        scheds = per_chain(phases, mus, seeds)
        sols = solve_batch(nlp, x0s, scheds, threads=threads)
        for x0, sched, sol in zip(x0s, scheds, sols):
            (solo,) = solve_batch(nlp, [x0], sched)
            assert_same_solution(sol, solo)
            assert any(sol.config is p for p in sched)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_walled_box_chain_equals_its_solo(self, data):
        nlp, phases = walled_schedule()
        rows = data.draw(st.lists(st.integers(0, len(TestAdvance.X0) - 1), min_size=1, max_size=5))
        self.check_equals_solos(nlp, phases, list(TestAdvance.X0[rows]), data)

    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_bugtrap_chain_equals_its_solo(self, data):
        bundle, phases = short_schedule("bugtrap")
        N = data.draw(st.integers(1, 5), label="N")
        self.check_equals_solos(bundle.nlp, phases, schedule_guesses(bundle, N), data)

    def test_walled_box_retries_and_fails(self):
        # the property's scenario does reach retried steps and failed chains
        nlp, (cfg,) = walled_schedule()
        X0, N = TestAdvance.X0, len(TestAdvance.X0)
        rngs = [np.random.default_rng(j) for j in range(N)]
        active = np.ones(N, dtype=bool)
        draws = reference_advance(nlp, X0, np.zeros((N, 1)), 0, cfg, rngs, active)[3]
        sols = solve_batch(nlp, list(X0), cfg)
        assert np.any(draws > 1)
        assert not sols[6].success and sols[0].success

    def test_shared_schedule_is_per_chain_with_offset_seeds(self):
        bundle, phases = short_schedule("pendulum")
        x0s = schedule_guesses(bundle, 3)
        shared = solve_batch(bundle.nlp, x0s, phases)
        scheds = [[dataclasses.replace(p, seed=p.seed + j) for p in phases] for j in range(3)]
        own = solve_batch(bundle.nlp, x0s, scheds)
        for a, b in zip(shared, own):
            assert_same_solution(a, b)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"iterations": 21}, "schedule 1 phase 0: iterations differs"),
            ({"alpha": 0.02}, "schedule 1 phase 0: alpha"),
            ({"sigma0": 0.4}, "schedule 1 phase 0: sigma0"),
        ],
    )
    def test_mismatched_field_rejected(self, change, match):
        nlp, (cfg,) = walled_schedule()
        scheds = [[cfg], [dataclasses.replace(cfg, **change)]]
        with pytest.raises(ValueError, match=match):
            solve_batch(nlp, [np.zeros(2)] * 2, scheds)

    def test_mismatched_phase_count_rejected(self):
        nlp, (cfg,) = walled_schedule()
        with pytest.raises(ValueError, match="schedule 1 has 2 phases but schedule 0 has 1"):
            solve_batch(nlp, [np.zeros(2)] * 2, [[cfg], [cfg, cfg]])

    def test_wrong_schedule_count_rejected(self):
        nlp, (cfg,) = walled_schedule()
        with pytest.raises(ValueError, match="2 schedules for 3 chains"):
            solve_batch(nlp, [np.zeros(2)] * 3, [[cfg], [cfg]])


class TestFailureIsolation:
    """A chain that fails never changes the bytes of any other chain."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nan_in_one_chain_spares_the_others(self, data):
        nlp, (cfg,) = walled_schedule()
        cfg = dataclasses.replace(cfg, snapshot_stride=1)  # the snapshots hold every pre-step point
        N = data.draw(st.integers(2, 6), label="N")
        rows = data.draw(
            st.lists(st.integers(0, len(TestAdvance.X0) - 1), min_size=N, max_size=N, unique=True),
            label="rows",
        )
        x0s = list(TestAdvance.X0[rows])
        if data.draw(st.booleans(), label="per-chain schedules"):
            mus = data.draw(st.lists(st.sampled_from(MUS), min_size=N, max_size=N), label="mus")
            seeds = data.draw(
                st.lists(st.integers(0, 2**40), min_size=N, max_size=N, unique=True), label="seeds"
            )
            config = per_chain([cfg], mus, [[s] for s in seeds])
        else:
            config = cfg
        threads = data.draw(st.sampled_from([1, 2]), label="threads")
        clean = solve_batch(nlp, x0s, config, threads=threads)
        victim = data.draw(st.integers(0, N - 1), label="victim")
        it = data.draw(st.integers(0, len(clean[victim].trace) - 1), label="iteration")
        # the victim's pre-step point at that iteration, found by its bytes in any thread's stack
        target = clean[victim].trace.snapshots[it].tobytes()
        oracle = nlp.cost_and_gradient

        def poisoned(X):
            c, g = oracle(X)
            hit = [r for r in range(len(X)) if X[r].tobytes() == target]
            if hit:
                g = g.copy()
                g[hit] = np.nan
            return c, g

        sols = solve_batch(dataclasses.replace(nlp, cost_and_gradient=poisoned), x0s, config, threads=threads)
        for j, (sol, ref) in enumerate(zip(sols, clean)):
            if j != victim:
                assert_same_solution(sol, ref)
        sol = sols[victim]
        assert not sol.success and sol.message == f"non-finite drift at iteration {it}"
        assert len(sol.trace) == it + 1
        assert sol.trace.hsq.tobytes() == clean[victim].trace.hsq[: it + 1].tobytes()

    def test_a_failure_mid_phase_leaves_the_fast_path_bytes(self):
        """A chain fails after iterations on the all-chain path: the batch equals each chain's solo run.

        The failed chain's drift is NaN at one iteration only, so a kernel
        that went on stepping it as if every chain were active would move
        its final point.
        """
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=40, sigma0=0.5, seed=11, snapshot_stride=1)
        x0s = [np.array([1.0, -0.5]), np.array([2.0, 0.3]), np.array([-1.5, 0.5]), np.array([0.2, 0.9])]
        victim, it = 2, 15
        oracle = nlp.cost_and_gradient

        def poisoned(row):
            """``nlp`` with a NaN gradient for stack row ``row`` at call ``it``, one call per iteration."""
            calls = []

            def cost_and_gradient(X):
                c, g = oracle(X)
                if len(calls) == it:
                    g = g.copy()
                    g[row] = np.nan
                calls.append(None)
                return c, g

            return dataclasses.replace(nlp, cost_and_gradient=cost_and_gradient)

        sols = solve_batch(poisoned(victim), x0s, cfg)
        solos = [
            solve_batch(poisoned(0) if j == victim else nlp, [x0], dataclasses.replace(cfg, seed=cfg.seed + j))[0]
            for j, x0 in enumerate(x0s)
        ]
        assert [s.success for s in sols] == [s.success for s in solos] == [True, True, False, True]
        for sol, ref in zip(sols, solos):
            assert len(sol.trace) == len(ref.trace)
            for name in ("cost", "hsq", "energy", "snapshots"):
                assert getattr(sol.trace, name).tobytes() == getattr(ref.trace, name).tobytes(), name
            assert sol.xbar.tobytes() == ref.xbar.tobytes() and sol.lam.tobytes() == ref.lam.tobytes()
        failed = sols[victim]
        assert failed.message == f"non-finite drift at iteration {it}" and len(failed.trace) == it + 1
        # its last row is the failing iteration's pre-step record: finite cost and hsq, the NaN drift's energy
        assert np.isfinite(failed.trace.hsq).all() and np.isnan(failed.trace.energy[it])
        assert np.isfinite(failed.trace.energy[:it]).all()
        # up to that row, the columns of a run that does not fail
        clean = solve_batch(nlp, [x0s[victim]], dataclasses.replace(cfg, seed=cfg.seed + victim))[0]
        for name in ("cost", "hsq", "energy"):
            assert getattr(failed.trace, name)[:it].tobytes() == getattr(clean.trace, name)[:it].tobytes()


def reachable_strings(ignore):
    """Every str that a gc-tracked object other than ``ignore`` holds, directly or through untracked containers."""
    stack, seen = [obj for obj in gc.get_objects() if obj is not ignore], set()
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if type(ref) is str:
                yield ref
            elif type(ref) in (dict, list, tuple) and not gc.is_tracked(ref) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)


class TestBatchColumns:
    """The traces of a batch share one read-only iteration column and one read-only σ column."""

    PHASES = [
        SolverConfig(iterations=30, hold=5, sigma0=0.5, seed=3, snapshot_stride=7),
        SolverConfig(iterations=25, sigma0=0.2, sigma_min=1e-3, seed=9, snapshot_stride=4),
    ]

    def batch(self, phases=PHASES):
        """Three chains of ``phases`` on the toy problem; chain 1's drift is NaN at iteration 12."""
        nlp = toy_kkt_problem()
        oracle, calls = nlp.cost_and_gradient, []

        def poisoned(X):  # one call per iteration over the whole stack: the toy problem has no bounds
            c, g = oracle(X)
            if len(calls) == 12:
                g = g.copy()
                g[1] = np.nan
            calls.append(None)
            return c, g

        x0s = [np.array([1.0, -0.5]), np.array([2.0, 0.3]), np.array([-1.5, 0.5])]
        return solve_batch(dataclasses.replace(nlp, cost_and_gradient=poisoned), x0s, phases)

    def test_bytes_of_the_row_by_row_writer(self, tmp_path):
        sols = self.batch()
        assert [s.success for s in sols] == [True, False, True]
        assert [len(s.trace) for s in sols] == [55, 13, 55]
        for j in (1, 0, 2, 1, 0):  # the short trace formats the shared columns; later writes reuse them
            t = sols[j].trace
            buf = io.StringIO()
            t.to_csv(buf)
            assert buf.getvalue() == row_by_row_trace_csv(t)
            t.to_csv(tmp_path / "t.csv")
            assert (tmp_path / "t.csv").read_bytes() == row_by_row_trace_csv(t).encode()

    def test_columns_are_read_only_prefixes_of_one_array(self):
        sols = self.batch()
        full = sols[0].trace
        assert np.array_equal(full.iters, np.arange(55))
        for s in sols:
            for name in ("iters", "sigma"):
                col, ref = getattr(s.trace, name), getattr(full, name)
                assert np.shares_memory(col, ref)
                assert col.tobytes() == ref[: len(col)].tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    col[0] = 1
                with pytest.raises(ValueError):
                    col.flags.writeable = True
        assert sols[1].trace.iters.shape == sols[1].trace.sigma.shape == (13,)

    def test_batches_share_no_column(self):
        a, b = self.batch(), self.batch()
        for name in ("iters", "sigma"):
            assert not np.shares_memory(getattr(a[0].trace, name), getattr(b[0].trace, name))

    def test_copies_and_reassigned_columns_format_their_own(self):
        colder = [dataclasses.replace(p, sigma0=p.sigma0 / 2) for p in self.PHASES]
        sols, other = self.batch(), self.batch(colder)
        t = sols[0].trace
        t.to_csv(io.StringIO())  # the shared strings now exist
        copies = [
            dataclasses.replace(t),
            dataclasses.replace(t, sigma=t.sigma * 2),
            pickle.loads(pickle.dumps(t)),
        ]
        assert copies[2]._columns is None  # pickled without the batch's strings

        def cut(n, **cols):
            """``t``'s first ``n`` rows with ``cols`` put in, still holding the batch's columns."""
            names = ("iters", "cost", "hsq", "energy", "sigma")
            c = Trace(**{k: cols.get(k, getattr(t, k)[:n]) for k in names})
            c._columns = t._columns
            return c

        copies += [
            cut(55, iters=t.iters + 100),
            cut(54, sigma=t.sigma[1:]),  # a view of the shared array that is no prefix
            cut(28, sigma=t.sigma[::2]),
            cut(55, sigma=other[0].trace.sigma),  # another batch's column
            cut(40),  # shorter prefixes of the shared arrays: still shared
        ]
        for c in copies:
            buf = io.StringIO()
            c.to_csv(buf)
            assert buf.getvalue() == row_by_row_trace_csv(c)
        # rows that would end before the shared columns do: rejected, not cut to the iteration column
        with pytest.raises(ValueError, match=re.escape("(iters 40, cost 55, hsq 55, energy 55, sigma 40)")):
            cut(40, cost=t.cost, hsq=t.hsq, energy=t.energy).to_csv(io.StringIO())

    def test_formatted_columns_die_with_the_batch(self):
        sols = self.batch()
        for sol in sols:
            sol.trace.to_csv(io.StringIO())
        t = sols[1].trace  # the short trace: it holds the whole batch's buffers
        names = ("iters", "cost", "hsq", "energy", "sigma", "snapshot_iters", "snapshots")
        bases = [getattr(t, name).base for name in names]
        assert all(isinstance(b, np.ndarray) for b in bases)
        assert len({id(b) for b in bases}) == len(names)
        assert t.cost.base.shape == (55, 3) and t.snapshots.base.shape == (12, 3, 2)  # of every chain
        refs = [weakref.ref(t._columns)] + [weakref.ref(b) for b in bases]
        del sols, sol, bases
        gc.collect()
        assert [r() is not None for r in refs] == [True] * len(refs)
        del t
        gc.collect()
        assert [r() is None for r in refs] == [True] * len(refs)

    def test_no_earlier_batch_stays_reachable(self):
        refs, strings = [], []
        for b in range(10):
            cfg = SolverConfig(iterations=20 + b, sigma0=0.1 + b, seed=b)
            sols = solve_batch(toy_kkt_problem(), [np.ones(2)] * 3, cfg)
            for sol in sols:
                sol.trace.to_csv(io.StringIO())
            refs.append(weakref.ref(sols[0].trace._columns))
            strings.append(
                (tuple(map(repr, range(20 + b))), tuple(repr(float(v)) for v in sols[0].trace.sigma))
            )
        gc.collect()
        assert [r() is None for r in refs] == [True] * 9 + [False]
        # neither as a list of strings nor as one joined string
        split = {col for cols in strings[:-1] for col in cols}
        joined = {"\n".join(col) for col in split}
        lengths = {len(col) for col in split}
        held = [obj for obj in gc.get_objects() if type(obj) is list and len(obj) in lengths]
        assert not any(tuple(obj) in split for obj in held)
        assert not any(s in joined for s in reachable_strings(ignore=joined))


class TestBatchMemory:
    """A batch stores its traces once, in its own buffers, and one noise block while a phase draws."""

    def test_peak_is_the_trace_data_once(self):
        bundle = get_problem("pendulum")
        N, T, n = 16, 1000, bundle.nlp.n
        x0s = schedule_guesses(bundle, N)
        cfg = SolverConfig(seed=0, iterations=T, snapshot_stride=10)
        solve_batch(bundle.nlp, x0s, dataclasses.replace(cfg, iterations=3))  # lazy set-up out of the window
        tracemalloc.start()
        try:
            sols = solve_batch(bundle.nlp, x0s, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(s.success for s in sols)
        data = 24 * N * T + 8 * N * (T // 10) * n  # cost, hsq and energy columns, snapshots
        block = N * _BLOCK_ROWS * n * 8
        # the kernel's working arrays take about 0.3 MB here; holding the data twice would add 2.3 MB
        assert peak < data + block + 2**20, (peak, data, block)

    def test_a_sigma_zero_phase_allocates_no_noise_block(self, monkeypatch):
        made = []

        class Kept(_Streams):
            def __init__(self, rngs, n):
                super().__init__(rngs, n)
                made.append(self)

        monkeypatch.setattr(langopt.solver, "_Streams", Kept)
        hot = SolverConfig(iterations=20, sigma0=0.5, seed=4)
        cold = SolverConfig(iterations=20, sigma0=0.0, sigma_min=0.0)
        sols = solve_batch(toy_kkt_problem(), [np.ones(2), -np.ones(2)], [cold, hot, cold])
        assert all(s.success for s in sols)
        assert [s._blocks is None for s in made] == [True, False, True]

    def test_a_phase_drops_its_noise_block_when_it_ends(self, monkeypatch):
        made, alive = [], []

        class Watched(_Streams):
            def __init__(self, rngs, n):
                alive.append([r() is not None for r in made])  # the earlier phases' streams, now
                super().__init__(rngs, n)
                made.append(weakref.ref(self))

        monkeypatch.setattr(langopt.solver, "_Streams", Watched)
        hot = SolverConfig(iterations=20, sigma0=0.5, seed=4)
        sols = solve_batch(toy_kkt_problem(), [np.ones(2), -np.ones(2)], [hot, hot, hot])
        assert all(s.success for s in sols)
        assert alive == [[], [False], [False, False]]
        assert [r() is None for r in made] == [True] * 3

    def test_a_pickled_trace_carries_its_own_rows(self):
        cfg = SolverConfig(iterations=2000, snapshot_stride=10)
        sols = solve_batch(toy_kkt_problem(), [np.ones(2) * k for k in range(8)], cfg)
        t = sols[3].trace
        assert t.cost.base.nbytes == 8 * 2000 * 8 and t.snapshots.base.nbytes == 200 * 8 * 2 * 8
        names = ("iters", "cost", "hsq", "energy", "sigma", "snapshot_iters", "snapshots")
        own = sum(getattr(t, name).nbytes for name in names)  # 2000 rows of five columns, 200 snapshots
        size = len(pickle.dumps(t))
        assert own <= size < own + 4096, (size, own)
        copy = pickle.loads(pickle.dumps(t))
        for name in names:
            a, b = getattr(copy, name), getattr(t, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
