import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langopt import (
    BarrierDomainError,
    ChainState,
    SolveError,
    SolverConfig,
    barrier_gradient,
    drift,
    energy,
    noise_schedule,
    solve,
    solve_batch,
    step,
    trajectory_guess,
)
from langopt.nlp import NlpProblem
from langopt.problems import get_problem, pendulum_ocp, toy_kkt_problem
from langopt.solver import _MAX_RETRIES, _advance, _interior


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
        assert cfg.sigma0 * cfg.gamma**800 == pytest.approx(cfg.sigma_min, rel=1e-9)

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
            ("snapshot_stride", 0),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "3"),
        ]:
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{field: value})
        assert SolverConfig(seed=np.int64(3)).seed == 3


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


class TestStep:
    def test_deterministic_part_hand_value(self):
        # from the origin with sigma = 0: x' = -alpha/2 * drift, lam' = alpha*mu*h
        nlp = toy_kkt_problem()
        cfg = SolverConfig(alpha=0.1, mu=1.0, sigma0=0.0, sigma_min=0.0, gamma=1.0, iterations=10, barrier_weight=0.0)
        st_ = ChainState(xbar=np.zeros(2), lam=np.zeros(1))
        out = step(nlp, st_, cfg, np.random.default_rng(0))
        assert np.allclose(out.xbar, [0.05, 0.05])
        assert np.allclose(out.lam, [-0.1])
        assert out.iter == 1

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_multiplier_update_law(self, seed):
        # ||lam' - lam|| == alpha * mu * ||h(x_pre)|| regardless of the noise
        nlp = toy_kkt_problem()
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2)
        lam = rng.standard_normal(1)
        cfg = SolverConfig(alpha=0.01, mu=10.0, iterations=10, barrier_weight=0.0)
        out = step(nlp, ChainState(xbar=x, lam=lam), cfg, rng)
        h = nlp.constraints(x)
        assert np.linalg.norm(out.lam - lam) == pytest.approx(
            cfg.alpha * cfg.mu * np.linalg.norm(h), rel=1e-12
        )

    def test_noise_enters_state_only(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(alpha=0.01, iterations=10, barrier_weight=0.0)
        x = np.array([1.0, 2.0])
        a = step(nlp, ChainState(xbar=x.copy(), lam=np.zeros(1)), cfg, np.random.default_rng(1))
        b = step(nlp, ChainState(xbar=x.copy(), lam=np.zeros(1)), cfg, np.random.default_rng(2))
        assert not np.allclose(a.xbar, b.xbar)
        assert np.array_equal(a.lam, b.lam)


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
    noise even at sigma = 0, and a chain that leaves the box is retried at
    halved steps on its own before the next one is looked at. Returns the
    number of normal vectors each chain drew as a fifth value.
    """
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
    Xc = X - 0.5 * alpha * g + (sigma * math.sqrt(alpha)) * noise
    if beta > 0:
        for j in np.nonzero(ok & ~_interior(Xc, nlp.lower, nlp.upper))[0]:
            for r in range(1, _MAX_RETRIES + 1):
                scale = 0.5**r
                draws[j] += 1
                cand = (
                    X[j]
                    - 0.5 * alpha * scale * g[j]
                    + sigma * math.sqrt(alpha * scale) * rngs[j].standard_normal(n)
                )
                if _interior(cand[None], nlp.lower, nlp.upper)[0]:
                    Xc[j] = cand
                    break
            else:
                failures[int(j)] = (
                    f"barrier-domain violation persisted through {_MAX_RETRIES} "
                    f"halved retries at iteration {it}"
                )
                ok[j] = False
    Xn = np.where(ok[:, None], Xc, X)
    Lamn = np.where(ok[:, None], Lam + (alpha * mu) * h, Lam)
    return Xn, Lamn, failures, draws


def rng_states(rngs):
    return [r.bit_generator.state for r in rngs]


class TestAdvance:
    X0 = np.array(
        [
            [0.0, 0.0],
            [0.95, 0.0],  # thrown out by the wall at every halving
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
        N = len(self.X0)
        rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        ref_rngs = [np.random.default_rng(cfg.seed + j) for j in range(N)]
        X = self.X0.copy()
        Lam = np.linspace(-1.0, 1.0, N)[:, None]
        active = np.ones(N, dtype=bool)
        active[5] = False
        inactive_state = rngs[5].bit_generator.state
        retried = np.zeros(N, dtype=bool)
        all_failures = {}
        for it in range(5):
            Xr, Lamr, fr, draws = reference_advance(nlp, X, Lam, it, cfg, ref_rngs, active.copy())
            Xn, Lamn, _, failures = _advance(nlp, X, Lam, it, cfg, rngs, active.copy())
            assert Xn.tobytes() == Xr.tobytes()
            assert Lamn.tobytes() == Lamr.tobytes()
            assert failures == fr
            assert rng_states(rngs) == rng_states(ref_rngs)
            retried |= draws > 1
            all_failures.update(failures)
            active[list(failures)] = False
            X, Lam = Xn, Lamn
        # the scenario covers what it is meant to cover
        assert retried.sum() >= 3
        assert all_failures[1].startswith(f"barrier-domain violation persisted through {_MAX_RETRIES}")
        assert all_failures[6].startswith("non-finite drift")
        assert np.array_equal(X[5], self.X0[5])
        assert rngs[5].bit_generator.state == inactive_state

    def test_sigma_zero_draws_nothing(self):
        nlp = walled_box(1e4)  # chain 1 is retried until a halved step fits
        cfg = SolverConfig(sigma0=0.0, sigma_min=0.0, gamma=1.0, iterations=10)
        N = len(self.X0)
        rngs = [np.random.default_rng(j) for j in range(N)]
        ref_rngs = [np.random.default_rng(j) for j in range(N)]
        before = rng_states(rngs)
        X, Lam = self.X0.copy(), np.zeros((N, 1))
        active = np.ones(N, dtype=bool)
        Xr, Lamr, fr, draws = reference_advance(nlp, X, Lam, 0, cfg, ref_rngs, active.copy())
        Xn, Lamn, _, failures = _advance(nlp, X, Lam, 0, cfg, rngs, active.copy())
        assert draws[1] > 1 and 1 not in fr
        assert Xn.tobytes() == Xr.tobytes()
        assert Lamn.tobytes() == Lamr.tobytes()
        assert failures == fr
        assert rng_states(rngs) == before

    @pytest.mark.parametrize("x", [[0.95, 0.0], [0.1, 0.2]])
    def test_step_leaves_generator_alone_at_sigma_zero(self, x):
        cfg = SolverConfig(sigma0=0.0, sigma_min=0.0, gamma=1.0, iterations=10)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        state = ChainState(xbar=np.array(x), lam=np.zeros(1))
        out = step(walled_box(1e4), state, cfg, rng)
        assert np.all(np.abs(out.xbar) < 1.0)
        assert rng.bit_generator.state == before


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

    def test_lambda0s_continuation(self):
        nlp = toy_kkt_problem()
        cfg = SolverConfig(iterations=100, seed=0)
        lam = np.array([-0.4])
        (sol,) = solve_batch(nlp, [np.ones(2)], cfg, lambda0s=[lam])
        ref = solve(nlp, np.ones(2), lam, cfg)
        assert np.array_equal(sol.xbar, ref.xbar)
        with pytest.raises(ValueError):
            solve_batch(nlp, [np.ones(2)], cfg, lambda0s=[np.zeros(2)])


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

    def test_guess_is_infeasible(self):
        bundle = get_problem("pendulum")
        x0 = bundle.guess(np.random.default_rng(0))
        assert bundle.nlp.constraint_violation(x0) > 1.0


class TestEnergyDescent:
    def test_late_phase_energy_decreases(self):
        # once the noise has annealed away, the energy diagnostic trends down
        sol = solve(toy_kkt_problem(), np.array([3.0, -2.0]), config=SolverConfig(iterations=4000))
        e = sol.trace.energy
        late = e[2000:]
        assert np.median(late[-500:]) < np.median(late[:500])
        assert e[-1] < 1e-4
