"""Deterministic comparison methods: constrained differential optimization and BFGS.

``gradient_descent_cdo`` is literally the diffusion solver with the noise
switched off (same stepping kernel), so its iterates match a zero-noise
diffusion run bit for bit. ``bfgs_penalty`` minimizes the multiplier-free
quadratic-penalty merit with a dense inverse-Hessian approximation and Armijo
backtracking.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .nlp import NlpProblem
from .solver import (
    BarrierDomainError,
    SolverConfig,
    Solution,
    Trace,
    _check_seed,
    _interior,
    barrier_gradient,
    barrier_value,
    solve,
)


@dataclass
class BfgsOptions:
    c1: float = 1e-4  # Armijo constant
    backtrack: float = 0.5
    max_ls: int = 30
    hessian: str = "full"  # dense inverse-Hessian only; problems are small

    def __post_init__(self):
        if self.hessian != "full":
            raise ValueError("only the full (dense) BFGS approximation is supported")


@dataclass
class BaselineConfig:
    alpha: float = 0.01
    mu: float = 10.0
    barrier_weight: float = 1e-3
    iterations: int = 20000
    tolerance: float = 1e-8
    seed: int = 0
    snapshot_stride: int = 100
    bfgs: BfgsOptions = field(default_factory=BfgsOptions)

    def __post_init__(self):
        for name in ("alpha", "mu", "barrier_weight", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        _check_seed(self.seed)


def _solver_config(config: BaselineConfig) -> SolverConfig:
    return SolverConfig(
        alpha=config.alpha,
        mu=config.mu,
        sigma0=0.0,
        gamma=1.0,
        sigma_min=0.0,
        iterations=config.iterations,
        barrier_weight=config.barrier_weight,
        seed=config.seed,
        snapshot_stride=config.snapshot_stride,
    )


def gradient_descent_cdo(
    nlp: NlpProblem,
    x0: np.ndarray,
    lambda0: Optional[np.ndarray] = None,
    config: Optional[BaselineConfig] = None,
) -> Solution:
    """Constrained differential optimization: the diffusion recurrence with sigma = 0."""
    config = config if config is not None else BaselineConfig()
    return solve(nlp, x0, lambda0, _solver_config(config))


def _merit_and_gradient(nlp, x, mu, beta):
    h, vjp = nlp.constraints_with_vjp(x)
    c, cg = nlp.cost_and_gradient(x)
    hsq = float(np.sum(h * h))
    m = float(c) + 0.5 * mu * hsq
    g = cg + mu * vjp(h)
    if beta > 0:
        m += beta * float(barrier_value(x, nlp.lower, nlp.upper))
        g = g + beta * barrier_gradient(x, nlp.lower, nlp.upper)
    return m, g, hsq, float(c)


def bfgs_penalty(
    nlp: NlpProblem, x0: np.ndarray, config: Optional[BaselineConfig] = None
) -> Solution:
    """BFGS with Armijo backtracking on c(x) + (mu/2)||h(x)||^2 + beta*B(x)."""
    config = config if config is not None else BaselineConfig()
    mu = config.mu
    beta = config.barrier_weight
    opts = config.bfgs
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    if beta > 0 and not _interior(x[None], nlp.lower, nlp.upper)[0]:
        raise BarrierDomainError("x0 must be strictly interior to finite bounds")

    t0 = time.perf_counter()
    H = np.eye(n)
    m, g, hsq, c = _merit_and_gradient(nlp, x, mu, beta)
    rec = {k: [] for k in ("cost", "hsq", "energy", "sigma")}
    snaps, snap_iters = [], []
    stride = config.snapshot_stride
    success, message = True, "ok"
    first_update = True

    it = 0
    for it in range(config.iterations):
        rec["cost"].append(c)
        rec["hsq"].append(hsq)
        rec["energy"].append(0.5 * float(g @ g) + 0.5 * hsq)
        rec["sigma"].append(0.0)
        if it % stride == 0:
            snap_iters.append(it)
            snaps.append(x.copy())

        gnorm = float(np.linalg.norm(g))
        if gnorm <= config.tolerance:
            message = f"converged: merit gradient norm {gnorm:.3e}"
            break

        p = -H @ g
        if float(p @ g) >= 0:  # lost descent direction, reset
            H = np.eye(n)
            p = -g

        t = 1.0
        accepted = False
        gp = float(g @ p)
        for _ in range(opts.max_ls):
            cand = x + t * p
            if beta > 0 and not _interior(cand[None], nlp.lower, nlp.upper)[0]:
                t *= opts.backtrack
                continue
            m_new, g_new, hsq_new, c_new = _merit_and_gradient(nlp, cand, mu, beta)
            if np.isfinite(m_new) and m_new <= m + opts.c1 * t * gp:
                accepted = True
                break
            t *= opts.backtrack
        if not accepted:
            success = False
            message = f"line search failed at iteration {it}; returning best point so far"
            break

        s = cand - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if first_update:
                H *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            V = np.eye(n) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, m, g, hsq, c = cand, m_new, g_new, hsq_new, c_new

    dt_ms = (time.perf_counter() - t0) * 1e3
    trace = Trace(
        iters=np.arange(len(rec["cost"])),
        cost=np.array(rec["cost"]),
        hsq=np.array(rec["hsq"]),
        energy=np.array(rec["energy"]),
        sigma=np.array(rec["sigma"]),
        snapshot_iters=np.array(snap_iters, dtype=int),
        snapshots=np.array(snaps) if snaps else np.zeros((0, n)),
    )
    lam = np.zeros(nlp.m)
    return Solution(
        xbar=x,
        lam=lam,
        hsq=float(nlp.constraint_violation(x)),
        cost=float(ad.value(nlp.cost(x))),
        trace=trace,
        duration_ms=dt_ms,
        config=_solver_config(config),
        success=success,
        message=message,
    )
