import io
import re

import numpy as np
import pytest

import langopt.autodiff as ad
from langopt import (
    BarrierDomainError,
    NlpProblem,
    SolverConfig,
    bfgs_penalty,
    gradient_descent_cdo,
    solve,
)
from langopt.problems import get_problem, toy_kkt_problem


def quadratic_bowl(n=4, seed=0):
    """min 1/2 x'Ax - b'x with SPD A; unconstrained apart from a dummy constraint."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    b = rng.standard_normal(n)
    xstar = np.linalg.solve(A, b)

    def cost(x):
        Ax = ad.stack([ad.asum(x * A[i], axis=-1) for i in range(n)], axis=-1)
        return 0.5 * ad.asum(Ax * x, axis=-1) - ad.asum(x * b, axis=-1)

    nlp = NlpProblem(
        n=n,
        m=1,
        cost=cost,
        constraints=lambda x: x[..., :1] * 0.0,
        lower=np.full(n, -np.inf),
        upper=np.full(n, np.inf),
    )
    return nlp, A, b, xstar


class TestGradientDescentCdo:
    def test_toy_converges(self):
        sol = gradient_descent_cdo(
            toy_kkt_problem(), np.array([2.0, 2.0]), config=SolverConfig(iterations=5000)
        )
        assert sol.success
        assert np.allclose(sol.xbar, [0.5, 0.5], atol=1e-3)
        assert np.allclose(sol.lam, [-0.5], atol=1e-3)

    def test_bitwise_matches_zero_noise_diffusion(self):
        nlp = toy_kkt_problem()
        x0 = np.array([1.5, -0.5])
        a = gradient_descent_cdo(nlp, x0, config=SolverConfig(iterations=500))
        b = solve(nlp, x0, config=SolverConfig(sigma0=0.0, gamma=1.0, sigma_min=0.0, iterations=500))
        assert np.array_equal(a.xbar, b.xbar)
        assert np.array_equal(a.trace.cost, b.trace.cost)
        assert np.array_equal(a.trace.hsq, b.trace.hsq)

    def test_noisy_config_runs_noise_free(self):
        # the noise fields are zeroed; hold, seed and the rest are run as given
        nlp = toy_kkt_problem()
        x0 = np.array([1.5, -0.5])
        rest = dict(hold=40, seed=123, iterations=300, snapshot_stride=7)
        noisy = SolverConfig(sigma0=0.7, gamma=0.99, **rest)
        quiet = SolverConfig(sigma0=0.0, gamma=1.0, sigma_min=0.0, **rest)
        a = gradient_descent_cdo(nlp, x0, config=noisy)
        b = solve(nlp, x0, config=quiet)
        trace_a, trace_b = io.StringIO(), io.StringIO()
        a.trace.to_csv(trace_a)
        b.trace.to_csv(trace_b)
        assert trace_a.getvalue() == trace_b.getvalue()
        assert np.array_equal(a.trace.snapshots, b.trace.snapshots)
        assert a.config == quiet

    def test_deterministic(self):
        nlp = toy_kkt_problem()
        a = gradient_descent_cdo(nlp, np.ones(2), config=SolverConfig(iterations=100))
        b = gradient_descent_cdo(nlp, np.ones(2), config=SolverConfig(iterations=100))
        assert np.array_equal(a.xbar, b.xbar)

    def test_multiplier_continuation(self):
        nlp = toy_kkt_problem()
        sol = gradient_descent_cdo(
            nlp, np.array([0.5, 0.5]), np.array([-0.5]), SolverConfig(iterations=50)
        )
        # started at the KKT point with the exact multiplier: nothing moves
        assert np.allclose(sol.xbar, [0.5, 0.5], atol=1e-14)


class TestBfgsPenalty:
    def test_quadratic_fast_convergence(self):
        # on a strictly convex quadratic BFGS needs only a handful of iterations
        nlp, A, b, xstar = quadratic_bowl(n=5)
        cfg = SolverConfig(iterations=25, barrier_weight=0.0)
        sol = bfgs_penalty(nlp, np.zeros(5), cfg)
        assert sol.message.startswith("converged")
        assert len(sol.trace) <= 3 * nlp.n  # far fewer than gradient descent would need
        assert np.allclose(sol.xbar, xstar, atol=1e-8)

    def test_penalty_minimizer_oracle(self):
        # min 1/2||x||^2 + (mu/2)(x1+x2-1)^2 has closed form x = mu/(1+2mu) * (1,1)
        nlp = toy_kkt_problem()
        mu = 100.0
        cfg = SolverConfig(mu=mu, iterations=500, barrier_weight=0.0)
        sol = bfgs_penalty(nlp, np.array([3.0, -1.0]), cfg)
        expect = mu / (1 + 2 * mu)
        assert np.allclose(sol.xbar, [expect, expect], atol=1e-8)

    def test_merit_monotone(self):
        nlp, A, b, _ = quadratic_bowl(n=4, seed=3)
        cfg = SolverConfig(iterations=50, barrier_weight=0.0)
        sol = bfgs_penalty(nlp, np.ones(4), cfg)
        costs = sol.trace.cost  # merit == cost here (h == 0, no barrier)
        assert np.all(np.diff(costs) <= 1e-12)

    def test_respects_bounds(self):
        # minimizer of the unbounded problem sits outside the box; iterates stay inside
        n = 2
        nlp = NlpProblem(
            n=n,
            m=1,
            cost=lambda x: ad.asum((x - 5.0) * (x - 5.0), axis=-1),
            constraints=lambda x: x[..., :1] * 0.0,
            lower=np.full(n, -1.0),
            upper=np.full(n, 1.0),
        )
        sol = bfgs_penalty(nlp, np.zeros(n), SolverConfig(iterations=200))
        assert np.all(np.abs(sol.xbar) < 1.0)
        assert np.all(np.abs(sol.trace.snapshots) < 1.0)

    def test_exterior_start_rejected(self):
        nlp = NlpProblem(
            n=1,
            m=1,
            cost=lambda x: ad.asum(x * x, axis=-1),
            constraints=lambda x: x[..., :1] * 0.0,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
        )
        from langopt import BarrierDomainError

        with pytest.raises(BarrierDomainError):
            bfgs_penalty(nlp, np.array([2.0]), SolverConfig())

    def test_trace_schema(self):
        nlp = toy_kkt_problem()
        sol = bfgs_penalty(nlp, np.ones(2), SolverConfig(iterations=20, barrier_weight=0.0))
        assert len(sol.trace.cost) == len(sol.trace.iters)
        assert np.all(sol.trace.sigma == 0.0)


def pendulum_x0(entry=None, value=None):
    """Acceptance guess 0 of the pendulum, with ``x0[entry] = value`` when given."""
    (x0,) = get_problem("pendulum").guesses(1)
    if entry is not None:
        x0[entry] = value
    return x0


@pytest.mark.parametrize("method", [bfgs_penalty, solve, gradient_descent_cdo])
@pytest.mark.parametrize(
    "x0, error, message",
    [
        (np.zeros(10), ValueError, "x0 has shape (10,), expected (152,)"),
        (np.zeros((2, 152)), ValueError, "x0 has shape (2, 152), expected (152,)"),
        (pendulum_x0(60, np.nan), BarrierDomainError, "x0 has a non-finite entry"),
        (pendulum_x0(0, 5.0), BarrierDomainError, "x0 is not strictly interior to finite bounds"),
    ],
    ids=["short", "stacked", "nan", "outside"],
)
def test_a_bad_x0_is_named(method, x0, error, message):
    # the barrier is on (SolverConfig's default barrier_weight); entry 0 is a control in [-1, 1]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        method(get_problem("pendulum").nlp, x0, config=SolverConfig(iterations=5))
