"""Deterministic comparison methods: constrained differential optimization and BFGS.

Both take a ``SolverConfig`` and run it at sigma = 0.
``gradient_descent_cdo`` is literally the diffusion solver with the noise
switched off (same stepping kernel), so its iterates match a zero-noise
diffusion run bit for bit. ``bfgs_penalty`` minimizes the multiplier-free
quadratic-penalty merit with a dense inverse-Hessian approximation and Armijo
backtracking.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

import numpy as np

from . import autodiff as ad
from .nlp import NlpProblem
from .solver import (
    SolverConfig,
    Solution,
    Trace,
    _Box,
    _initial_points,
    _interior,
    barrier_gradient,
    barrier_value,
    solve,
)


# BFGS: the merit gradient norm it stops at; its line search's Armijo constant,
# step shrink factor and trial steps per iteration
_GRAD_TOL = 1e-8
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_LINE_SEARCH = 30


def _noise_free(config: Optional[SolverConfig]) -> SolverConfig:
    """``config`` (default ``SolverConfig()``) at sigma = 0, the limit both baselines run."""
    return replace(config or SolverConfig(), sigma0=0.0, sigma_min=0.0, gamma=1.0)


def gradient_descent_cdo(
    nlp: NlpProblem,
    x0: np.ndarray,
    lambda0: Optional[np.ndarray] = None,
    config: Optional[SolverConfig] = None,
) -> Solution:
    """Constrained differential optimization: the diffusion recurrence with sigma = 0.

    Runs ``solve`` on ``config`` with its noise zeroed (``sigma0 = sigma_min
    = 0``, ``gamma = 1``); every other field is used as given.
    """
    return solve(nlp, x0, lambda0, _noise_free(config))


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
    nlp: NlpProblem, x0: np.ndarray, config: Optional[SolverConfig] = None
) -> Solution:
    """BFGS with Armijo backtracking on c(x) + (mu/2)||h(x)||^2 + beta*B(x).

    Reads ``mu``, ``barrier_weight`` (beta), ``iterations`` and
    ``snapshot_stride`` of ``config``, and stops early once the merit
    gradient norm reaches ``_GRAD_TOL``. The Solution records ``config``
    with its noise zeroed. ``x0`` is checked as :func:`solve` checks it.
    """
    config = _noise_free(config)
    mu = config.mu
    beta = config.barrier_weight
    (x,) = _initial_points(nlp, [x0], beta, alone=True)
    n = x.size
    box = _Box(nlp.lower, nlp.upper)

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
        if gnorm <= _GRAD_TOL:
            message = f"converged: merit gradient norm {gnorm:.3e}"
            break

        p = -H @ g
        if float(p @ g) >= 0:  # lost descent direction, reset
            H = np.eye(n)
            p = -g

        t = 1.0
        accepted = False
        gp = float(g @ p)
        for _ in range(_MAX_LINE_SEARCH):
            cand = x + t * p
            if beta > 0 and not _interior(cand[None], box)[0]:
                t *= _BACKTRACK
                continue
            m_new, g_new, hsq_new, c_new = _merit_and_gradient(nlp, cand, mu, beta)
            if np.isfinite(m_new) and m_new <= m + _ARMIJO_C1 * t * gp:
                accepted = True
                break
            t *= _BACKTRACK
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
        config=config,
        success=success,
        message=message,
    )
