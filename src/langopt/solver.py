"""Annealed Langevin diffusion over decision variables and Lagrange multipliers.

The sampler simulates the coupled SDE

    dx = -1/2 [grad c(x) + J(x)^T lam + mu J(x)^T h(x)] dt + sigma(t) dW
    dlam = mu h(x) dt

with Euler-Maruyama discretization, a geometrically decaying noise level, and
a log-barrier keeping iterates strictly inside finite bounds. The drift is the
gradient of the augmented-Lagrangian merit c + lam^T h + (mu/2)||h||^2, so the
deterministic limit (sigma = 0) is plain constrained differential optimization.

Chains are vectorized internally: the engine advances a stack of independent
chains with one set of numpy operations per iteration, which is what makes
large batch solves tractable without native code.
"""

from __future__ import annotations

import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .nlp import NlpProblem, OcpDefinition, pack

_MAX_RETRIES = 20


def _check_seed(seed):
    """Reject a seed that the chains' generators would refuse, naming the field."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


class BarrierDomainError(ValueError):
    """An evaluation point sits on or outside a finite bound."""


class SolveError(RuntimeError):
    """A chain failed mid-run; the partial result is attached as ``.solution``."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


@dataclass
class SolverConfig:
    """Hyperparameters of the diffusion solver.

    ``gamma=None`` picks the geometric decay rate so that the noise level
    reaches ``sigma_min`` at 80% of the post-hold iteration budget. ``hold``
    keeps the noise at ``sigma0`` for that many iterations before the decay
    starts; problems with deep spurious minima need the plateau to give
    barrier crossings time to happen (the crossing rate at fixed sigma is
    roughly exp(-barrier/sigma^2), so a schedule that merely passes through
    the productive noise band rarely escapes).
    """

    alpha: float = 0.01
    mu: float = 10.0
    sigma0: float = 0.1
    gamma: Optional[float] = None
    sigma_min: float = 1e-4
    iterations: int = 20000
    hold: int = 0
    barrier_weight: float = 1e-3
    seed: int = 0
    snapshot_stride: int = 100

    def __post_init__(self):
        for name in ("alpha", "mu", "sigma0", "sigma_min", "barrier_weight"):
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
        if not 0 <= self.hold <= self.iterations:
            raise ValueError("hold must lie in [0, iterations]")
        if self.sigma_min < 0 or self.sigma0 < self.sigma_min:
            raise ValueError("need sigma0 >= sigma_min >= 0")
        if self.barrier_weight < 0:
            raise ValueError("barrier_weight must be non-negative")
        if self.gamma is None:
            if self.sigma_min > 0 and self.sigma0 > self.sigma_min:
                horizon = max(1.0, 0.8 * (self.iterations - self.hold))
                self.gamma = float((self.sigma_min / self.sigma0) ** (1.0 / horizon))
            else:
                self.gamma = 1.0
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass
class ChainState:
    """State of one diffusion chain."""

    xbar: np.ndarray
    lam: np.ndarray
    iter: int = 0
    sigma: float = 0.0


@dataclass
class Trace:
    """Per-iteration diagnostics recorded at the pre-step point."""

    iters: np.ndarray
    cost: np.ndarray
    hsq: np.ndarray
    energy: np.ndarray
    sigma: np.ndarray
    snapshot_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    snapshots: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path_or_file) -> None:
        """Write the trace with header ``iter,cost,hsq,energy,sigma``."""
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        f = open(path_or_file, "w") if own else path_or_file
        try:
            f.write("iter,cost,hsq,energy,sigma\n")
            for i in range(len(self.iters)):
                f.write(
                    f"{int(self.iters[i])},{float(self.cost[i])!r},{float(self.hsq[i])!r},"
                    f"{float(self.energy[i])!r},{float(self.sigma[i])!r}\n"
                )
        finally:
            if own:
                f.close()

    def snapshots_to_csv(self, path_or_file) -> None:
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        f = open(path_or_file, "w") if own else path_or_file
        try:
            ncols = self.snapshots.shape[1] if self.snapshots.size else 0
            f.write("iter," + ",".join(f"v{j}" for j in range(ncols)) + "\n")
            for i in range(len(self.snapshot_iters)):
                row = ",".join(repr(float(v)) for v in self.snapshots[i])
                f.write(f"{int(self.snapshot_iters[i])},{row}\n")
        finally:
            if own:
                f.close()


@dataclass
class Solution:
    """Final chain state plus diagnostics; violation and cost are recomputed at output time."""

    xbar: np.ndarray
    lam: np.ndarray
    hsq: float
    cost: float
    trace: Trace
    duration_ms: float
    config: SolverConfig
    success: bool = True
    message: str = "ok"

    def summary(self) -> dict:
        cfg = {k: v for k, v in self.config.__dict__.items()}
        return {
            "xbar": [float(v) for v in self.xbar],
            "lambda": [float(v) for v in self.lam],
            "hsq": float(self.hsq),
            "cost": float(self.cost),
            "duration_ms": float(self.duration_ms),
            "success": bool(self.success),
            "message": self.message,
            "config": cfg,
        }

    def to_json(self, path_or_file) -> None:
        own = isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__")
        f = open(path_or_file, "w") if own else path_or_file
        try:
            json.dump(self.summary(), f, indent=2)
        finally:
            if own:
                f.close()


# ---------------------------------------------------------------------------
# pieces of the drift
# ---------------------------------------------------------------------------


def noise_schedule(it: int, config: SolverConfig) -> float:
    """Plateau at sigma0 for ``hold`` iterations, then geometric decay to a floor."""
    if it < 0:
        raise ValueError("iteration index must be non-negative")
    it = max(0, it - config.hold)
    return max(config.sigma0 * config.gamma**it, config.sigma_min)


def barrier_gradient(x, lower, upper):
    """Gradient of -sum[log(upper - x) + log(x - lower)] over finite bounds.

    Infinite bounds contribute exactly zero (1/inf == 0 in IEEE arithmetic).
    """
    x = ad.value(x)
    du = upper - x
    dl = x - lower
    if np.any(du <= 0) or np.any(dl <= 0):
        raise BarrierDomainError("point is on or outside a finite bound")
    return 1.0 / du - 1.0 / dl


def barrier_value(x, lower, upper):
    """The log-barrier itself, restricted to finite bounds; dual-capable."""
    terms = 0.0
    fin_u = np.isfinite(upper)
    fin_l = np.isfinite(lower)
    if np.any(fin_u):
        terms = terms - ad.asum(ad.log(x[..., fin_u] * (-1.0) + upper[fin_u]), axis=-1)
    if np.any(fin_l):
        terms = terms - ad.asum(ad.log(x[..., fin_l] - lower[fin_l]), axis=-1)
    return terms


def drift(nlp: NlpProblem, xbar, lam, mu: float, barrier_weight: float = 0.0):
    """Drift of the decision variables: gradient of the augmented-Lagrangian merit."""
    h, vjp = nlp.constraints_with_vjp(xbar)
    g = nlp.cost_gradient(xbar) + vjp(lam + mu * h)
    if barrier_weight > 0:
        g = g + barrier_weight * barrier_gradient(xbar, nlp.lower, nlp.upper)
    return g


def energy(nlp: NlpProblem, xbar, lam, mu: float) -> float:
    """Diagnostic energy 1/2 ||v||^2 + 1/2 ||h||^2; zero exactly at KKT points."""
    h, vjp = nlp.constraints_with_vjp(xbar)
    v = nlp.cost_gradient(xbar) + vjp(lam + mu * h)
    return float(np.sum(v * v, axis=-1) / 2.0 + np.sum(h * h, axis=-1) / 2.0)


# ---------------------------------------------------------------------------
# stepping kernel
# ---------------------------------------------------------------------------


def _interior(X, lower, upper):
    """Per-chain strict interiority w.r.t. finite bounds (and finiteness)."""
    ok = np.all(np.isfinite(X), axis=-1)
    return ok & ~np.any((X <= lower) | (X >= upper), axis=-1)


def _advance(nlp, X, Lam, it, config, rngs, active):
    """One Euler-Maruyama step for a stack of chains.

    Returns (X', Lam', diag, failures) where diag holds pre-step diagnostics
    and failures maps chain index -> error message for chains that died this
    iteration. Inactive chains are left untouched and draw no noise.

    A step that leaves the finite bounds is retried at half the time step,
    up to ``_MAX_RETRIES`` halvings. The retries run one halving level at a
    time for all chains still outside together; each level takes one draw per
    chain from that chain's own generator, so every chain consumes its stream
    exactly as if it were stepped alone. At sigma = 0 no noise is drawn at
    all, neither for the step nor for its retries, and the update is the
    plain gradient step.
    """
    N, n = X.shape
    alpha = config.alpha
    mu = config.mu
    beta = config.barrier_weight
    sigma = noise_schedule(it, config)

    h, vjp = nlp.constraints_with_vjp(X)
    c, cg = nlp.cost_and_gradient(X)
    v = cg + vjp(Lam + mu * h)
    g = v
    if beta > 0:
        g = g + beta * barrier_gradient(X, nlp.lower, nlp.upper)
    hsq = np.sum(h * h, axis=-1)
    diag = {
        "cost": c,
        "hsq": hsq,
        "energy": 0.5 * np.sum(v * v, axis=-1) + 0.5 * hsq,
        "sigma": sigma,
    }

    failures = {}
    bad = active & ~np.all(np.isfinite(g), axis=-1)
    for j in np.nonzero(bad)[0]:
        failures[int(j)] = f"non-finite drift at iteration {it}"
    ok = active & ~bad

    Xc = X - 0.5 * alpha * g
    if sigma > 0:
        noise = np.zeros_like(X)
        for j in np.nonzero(ok)[0]:
            noise[j] = rngs[j].standard_normal(n)
        Xc = Xc + (sigma * math.sqrt(alpha)) * noise

    if beta > 0:
        outside = np.nonzero(ok & ~_interior(Xc, nlp.lower, nlp.upper))[0]
        for r in range(1, _MAX_RETRIES + 1):
            if not outside.size:
                break
            scale = 0.5**r
            cand = X[outside] - 0.5 * alpha * scale * g[outside]
            if sigma > 0:
                noise = np.stack([rngs[j].standard_normal(n) for j in outside])
                cand = cand + sigma * math.sqrt(alpha * scale) * noise
            inside = _interior(cand, nlp.lower, nlp.upper)
            Xc[outside[inside]] = cand[inside]
            outside = outside[~inside]
        for j in outside:
            failures[int(j)] = (
                f"barrier-domain violation persisted through {_MAX_RETRIES} "
                f"halved retries at iteration {it}"
            )
            ok[j] = False

    Xn = np.where(ok[:, None], Xc, X)
    Lamn = np.where(ok[:, None], Lam + (alpha * mu) * h, Lam)
    return Xn, Lamn, diag, failures


def step(nlp: NlpProblem, state: ChainState, config: SolverConfig, rng) -> ChainState:
    """Advance a single chain by one iteration.

    ``rng`` supplies the chain's noise; at sigma = 0 it is not drawn from,
    so the caller's generator is left exactly as it was.
    """
    X = np.asarray(state.xbar, dtype=float)[None]
    Lam = np.asarray(state.lam, dtype=float)[None]
    active = np.ones(1, dtype=bool)
    Xn, Lamn, _, failures = _advance(nlp, X, Lam, state.iter, config, [rng], active)
    if failures:
        raise SolveError(failures[0])
    it = state.iter + 1
    return ChainState(xbar=Xn[0], lam=Lamn[0], iter=it, sigma=noise_schedule(it, config))


def _run_chains(nlp, X0, Lam0, config, rngs):
    """Iterate the kernel for a stack of chains, recording traces."""
    N, n = X0.shape
    T = config.iterations
    stride = config.snapshot_stride
    X = np.array(X0, dtype=float)
    Lam = np.array(Lam0, dtype=float)
    active = np.ones(N, dtype=bool)
    errors: List[Optional[str]] = [None] * N
    fail_at = np.full(N, T, dtype=int)

    tr = {k: np.zeros((T, N)) for k in ("cost", "hsq", "energy", "sigma")}
    snap_iters = np.arange(0, T, stride)
    snaps = np.zeros((len(snap_iters), N, n))

    for i in range(T):
        if i % stride == 0:
            snaps[i // stride] = X
        Xn, Lamn, diag, failures = _advance(nlp, X, Lam, i, config, rngs, active)
        for k in ("cost", "hsq", "energy"):
            tr[k][i] = diag[k]
        tr["sigma"][i] = diag["sigma"]
        for j, msg in failures.items():
            errors[j] = msg
            fail_at[j] = i + 1  # keep the (valid) pre-step record of the failing iteration
            active[j] = False
        X, Lam = Xn, Lamn
        if not active.any():
            break

    results = []
    for j in range(N):
        T_j = fail_at[j]
        s_mask = snap_iters < max(T_j, 1)
        trace = Trace(
            iters=np.arange(T_j if errors[j] else T),
            cost=tr["cost"][: T_j if errors[j] else T, j].copy(),
            hsq=tr["hsq"][: T_j if errors[j] else T, j].copy(),
            energy=tr["energy"][: T_j if errors[j] else T, j].copy(),
            sigma=tr["sigma"][: T_j if errors[j] else T, j].copy(),
            snapshot_iters=snap_iters[s_mask] if errors[j] else snap_iters.copy(),
            snapshots=snaps[s_mask, j] if errors[j] else snaps[:, j].copy(),
        )
        results.append((X[j], Lam[j], trace, errors[j]))
    return results


def _finalize(nlp, xbar, lam, trace, err, duration_ms, config):
    hsq = float(nlp.constraint_violation(xbar))
    cost = float(ad.value(nlp.cost(xbar)))
    return Solution(
        xbar=xbar,
        lam=lam,
        hsq=hsq,
        cost=cost,
        trace=trace,
        duration_ms=duration_ms,
        config=config,
        success=err is None,
        message="ok" if err is None else err,
    )


def solve(
    nlp: NlpProblem,
    x0: np.ndarray,
    lambda0: Optional[np.ndarray] = None,
    config: Optional[SolverConfig] = None,
) -> Solution:
    """Run one diffusion chain to completion. Deterministic given the config seed."""
    config = config if config is not None else SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (nlp.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({nlp.n},)")
    if config.barrier_weight > 0 and not _interior(x0[None], nlp.lower, nlp.upper)[0]:
        raise BarrierDomainError("x0 must be strictly interior to finite bounds")
    lam0 = np.zeros(nlp.m) if lambda0 is None else np.asarray(lambda0, dtype=float)
    rng = np.random.default_rng(config.seed)
    t0 = time.perf_counter()
    ((xbar, lam, trace, err),) = _run_chains(nlp, x0[None], lam0[None], config, [rng])
    dt_ms = (time.perf_counter() - t0) * 1e3
    sol = _finalize(nlp, xbar, lam, trace, err, dt_ms, config)
    if err is not None:
        raise SolveError(err, solution=sol)
    return sol


def solve_batch(
    nlp: NlpProblem,
    x0s: Sequence[np.ndarray],
    config: Optional[SolverConfig] = None,
    threads: int = 1,
    lambda0s: Optional[Sequence[np.ndarray]] = None,
) -> List[Solution]:
    """Run independent chains from each initial point; chain i uses seed ``seed + i``.

    Per-chain failures are reported on the corresponding Solution
    (``success=False``) without aborting the rest of the batch. Results do not
    depend on ``threads``. ``lambda0s`` lets a batch continue from previously
    obtained multipliers (default: zeros).
    """
    config = config if config is not None else SolverConfig()
    X0 = np.stack([np.asarray(x, dtype=float) for x in x0s])
    N = X0.shape[0]
    if config.barrier_weight > 0:
        inside = _interior(X0, nlp.lower, nlp.upper)
        if not inside.all():
            j = int(np.nonzero(~inside)[0][0])
            raise BarrierDomainError(f"x0s[{j}] is not strictly interior to finite bounds")
    if lambda0s is None:
        Lam0 = np.zeros((N, nlp.m))
    else:
        Lam0 = np.stack([np.asarray(l, dtype=float) for l in lambda0s])
        if Lam0.shape != (N, nlp.m):
            raise ValueError(f"lambda0s has shape {Lam0.shape}, expected ({N}, {nlp.m})")

    def run_chunk(indices):
        rngs = [np.random.default_rng(config.seed + int(j)) for j in indices]
        t0 = time.perf_counter()
        out = _run_chains(nlp, X0[indices], Lam0[indices], config, rngs)
        dt_ms = (time.perf_counter() - t0) * 1e3
        return [
            _finalize(nlp, xb, lm, trace, err, dt_ms, config) for xb, lm, trace, err in out
        ]

    threads = max(1, int(threads))
    if threads == 1 or N == 1:
        return run_chunk(np.arange(N))
    chunks = np.array_split(np.arange(N), min(threads, N))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(run_chunk, chunks))
    return [sol for part in parts for sol in part]


# ---------------------------------------------------------------------------
# initial guesses for trajectory problems
# ---------------------------------------------------------------------------


def trajectory_guess(ocp: OcpDefinition, state_box: np.ndarray, rng) -> np.ndarray:
    """Infeasible starting point: controls at bound midpoints, states uniform in a box.

    ``state_box`` has shape (nx, 2) with [low, high] rows; states for all K+1
    knots are drawn i.i.d. from it, so the guess is scattered and dynamically
    infeasible by construction.
    """
    box = np.asarray(state_box, dtype=float)
    if box.shape != (ocp.nx, 2):
        raise ValueError(f"state_box has shape {box.shape}, expected ({ocp.nx}, 2)")
    both = np.isfinite(ocp.u_lower) & np.isfinite(ocp.u_upper)
    u0 = np.where(both, 0.5 * (ocp.u_lower + ocp.u_upper), 0.0)
    U = np.tile(u0, (ocp.K, 1))
    X = rng.uniform(box[:, 0], box[:, 1], size=(ocp.K + 1, ocp.nx))
    return pack(U, X).data
