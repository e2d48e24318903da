"""Equality-constrained NLPs and transcription of discrete-time optimal control.

A trajectory optimization with horizon K is flattened into the decision vector
``[u_0, ..., u_{K-1}, x_0, ..., x_K]`` with K dynamics-defect constraint blocks
``x_{k+1} - f(x_k, u_k)`` followed by the initial-condition block
``x_0 - x_init``. Both states and controls are free variables, so dynamic
feasibility is only required at convergence, not at every iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad


def _as_bound(v, size: int, default: float) -> np.ndarray:
    if v is None:
        return np.full(size, default)
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.shape != (size,):
        raise ValueError(f"bound vector has shape {out.shape}, expected ({size},)")
    return out


@dataclass(frozen=True)
class OcpDefinition:
    """Discrete-time optimal control problem.

    ``dynamics``, ``running_cost`` and ``terminal_cost`` must broadcast over
    leading batch/stage axes and be generic over the scalar type (plain
    ndarrays and :class:`~langopt.autodiff.Dual`), using the ``autodiff`` math
    shims for any transcendental functions.
    """

    K: int
    nx: int
    nu: int
    dynamics: Callable
    running_cost: Callable
    terminal_cost: Callable
    x_init: np.ndarray
    u_lower: Optional[np.ndarray] = None
    u_upper: Optional[np.ndarray] = None
    x_lower: Optional[np.ndarray] = None
    x_upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("horizon K must be at least 1")
        x_init = np.asarray(self.x_init, dtype=float)
        if x_init.shape != (self.nx,):
            raise ValueError(f"x_init has shape {x_init.shape}, expected ({self.nx},)")
        object.__setattr__(self, "x_init", x_init)
        object.__setattr__(self, "u_lower", _as_bound(self.u_lower, self.nu, -np.inf))
        object.__setattr__(self, "u_upper", _as_bound(self.u_upper, self.nu, np.inf))
        object.__setattr__(self, "x_lower", _as_bound(self.x_lower, self.nx, -np.inf))
        object.__setattr__(self, "x_upper", _as_bound(self.x_upper, self.nx, np.inf))
        if np.any(self.u_lower > self.u_upper) or np.any(self.x_lower > self.x_upper):
            raise ValueError("lower bounds must not exceed upper bounds")


@dataclass(frozen=True)
class Layout:
    """Flat layout metadata for a transcribed decision vector."""

    K: int
    nx: int
    nu: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"horizon K must be at least 1, got {self.K}")

    @property
    def n(self) -> int:
        return self.K * self.nu + (self.K + 1) * self.nx

    @property
    def m(self) -> int:
        return (self.K + 1) * self.nx


def split(z, layout: Layout):
    """Batched split of flat vectors ``(..., n)`` into U ``(..., K, nu)`` and X ``(..., K+1, nx)``."""
    nU = layout.K * layout.nu
    U = z[..., :nU].reshape(z.shape[:-1] + (layout.K, layout.nu))
    X = z[..., nU:].reshape(z.shape[:-1] + (layout.K + 1, layout.nx))
    return U, X


def join(U, X, layout: Layout):
    """Inverse of :func:`split`: arrays U ``(..., K, nu)`` and X ``(..., K+1, nx)`` into flat ``(..., n)``."""
    K, nx, nu = layout.K, layout.nx, layout.nu
    if U.shape[-2:] != (K, nu) or X.shape[-2:] != (K + 1, nx):
        raise ValueError(
            f"join expects U of shape (..., {K}, {nu}) and X of shape (..., {K + 1}, {nx}), "
            f"got {U.shape} and {X.shape}"
        )
    lead = U.shape[:-2]
    return np.concatenate(
        [U.reshape(lead + (K * nu,)), X.reshape(lead + ((K + 1) * nx,))],
        axis=-1,
    )


@dataclass
class NlpProblem:
    """Equality-constrained NLP: min cost(x) s.t. constraints(x) = 0, lower <= x <= upper.

    ``cost`` maps ``(..., n) -> (...,)`` and ``constraints`` maps
    ``(..., n) -> (..., m)``; both must broadcast over leading axes and accept
    Dual inputs. The solvers read derivatives only through two oracles:
    ``cost_and_gradient(x) -> (c, grad c)`` and
    ``constraints_with_vjp(x) -> (h, vjp)`` with ``vjp(w) = J(x)^T w``. Either
    may be omitted; a missing one is filled in with one dual-number
    forward-mode pass over the plain callable. A dense Jacobian is
    ``vjp(np.eye(m))`` or :func:`langopt.autodiff.jacobian` of ``constraints``.
    """

    n: int
    m: int
    cost: Callable
    constraints: Callable
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    cost_and_gradient: Callable = None
    constraints_with_vjp: Callable = None

    def __post_init__(self):
        self.lower = _as_bound(self.lower, self.n, -np.inf)
        self.upper = _as_bound(self.upper, self.n, np.inf)
        both = np.isfinite(self.lower) & np.isfinite(self.upper)
        if np.any(self.lower[both] >= self.upper[both]):
            raise ValueError("finite bounds must satisfy lower < upper strictly")
        if self.m < 0:
            raise ValueError("constraint dimension must be non-negative")
        if self.cost_and_gradient is None:
            self.cost_and_gradient = self._generic_cost_and_gradient
        if self.constraints_with_vjp is None:
            self.constraints_with_vjp = self._generic_constraints_with_vjp

    # -- generic dual-number fallbacks ---------------------------------

    def _generic_cost_and_gradient(self, x):
        x = np.asarray(x, dtype=float)
        c, g = ad._forward(self.cost, x)
        return c, np.zeros_like(x) if g is None else g

    def _generic_constraints_with_vjp(self, x):
        x = np.asarray(x, dtype=float)
        h, J = ad._forward(self.constraints, x)
        if J is None:
            J = np.zeros(h.shape + x.shape[-1:])

        def vjp(w):
            return np.einsum("...ij,...i->...j", J, w)

        return h, vjp

    def constraint_violation(self, x):
        """Squared 2-norm of the constraint residual."""
        h = ad.value(self.constraints(x))
        return np.sum(h * h, axis=-1)


def _stage_vtj(W, F):
    """Per-stage ``W^T F``: ``(..., K, nx)`` with ``(..., K, nx, d)`` -> ``(..., K, d)``.

    Accumulates the ``nx`` rows in order onto zeros, which is bit-equal to
    ``einsum("...kij,...ki->...kj", F, W)`` and several times faster on the
    strided stage-Jacobian views.
    """
    out = np.zeros(np.broadcast_shapes(W.shape[:-1], F.shape[:-2]) + F.shape[-1:])
    for i in range(F.shape[-2]):
        out += W[..., i, None] * F[..., i, :]
    return out


def rollout(ocp: OcpDefinition, controls, x0=None) -> np.ndarray:
    """Forward-simulate the dynamics under a control sequence; returns K+1 states."""
    U = np.atleast_2d(np.asarray(controls, dtype=float))
    if U.shape != (ocp.K, ocp.nu):
        raise ValueError(f"controls have shape {U.shape}, expected ({ocp.K}, {ocp.nu})")
    x = ocp.x_init if x0 is None else np.asarray(x0, dtype=float)
    states = [x]
    for k in range(ocp.K):
        x = np.asarray(ocp.dynamics(x, U[k]), dtype=float)
        if x.shape != (ocp.nx,):
            raise ValueError(f"dynamics returned shape {x.shape}, expected ({ocp.nx},)")
        states.append(x)
    return np.stack(states)


def transcribe(ocp: OcpDefinition) -> NlpProblem:
    """Turn an OCP into an equality-constrained NLP over the flat layout.

    Constraint ordering: K dynamics defects ``x_{k+1} - f(x_k, u_k)`` for
    k = 0..K-1, then the initial-condition block ``x_0 - x_init``.
    """
    layout = Layout(K=ocp.K, nx=ocp.nx, nu=ocp.nu)
    K, nx, nu = layout.K, layout.nx, layout.nu
    d = nx + nu  # per-stage tangent dimension for structured derivatives

    def stage_seeds(xs, U):
        """Duals of stage states and controls, with contiguous ``(d,) + shape`` seed tangents.

        Tangent j < nx of stage k is d/d(x_k)_j and tangent nx + j is d/d(u_k)_j.
        """
        sx = np.zeros((d,) + xs.shape)
        su = np.zeros((d,) + U.shape)
        for j in range(nx):
            sx[j, ..., j] = 1.0
        for j in range(nu):
            su[nx + j, ..., j] = 1.0
        return ad.Dual._of(xs, sx), ad.Dual._of(U, su)

    def stage_costs(lc, lead):
        """The running cost as ``lead + (K,)`` stage values; a constant is broadcast."""
        shape, got = lead + (K,), np.shape(ad.value(lc))
        if got == shape:
            return lc
        if len(got) > len(shape) or any(g not in (1, s) for g, s in zip(got[::-1], shape[::-1])):
            raise ValueError(f"running_cost returned shape {got}, not broadcastable to {shape}")
        return lc + np.zeros(shape)

    def cost(z):
        U, X = split(z, layout)
        lc = stage_costs(ocp.running_cost(X[..., :K, :], U), X.shape[:-2])
        tc = ocp.terminal_cost(X[..., K, :])
        return ad.asum(lc, axis=-1) + tc

    def constraints(z):
        U, X = split(z, layout)
        F = ocp.dynamics(X[..., :K, :], U)
        defects = X[..., 1:, :] - F
        init = X[..., 0, :] - ocp.x_init
        flat = defects.reshape(defects.shape[:-2] + (K * nx,))
        return ad.concat([flat, init], axis=-1)

    def cost_and_gradient(z):
        z = np.asarray(z, dtype=float)
        U, X = split(z, layout)
        lc = stage_costs(ocp.running_cost(*stage_seeds(X[..., :K, :], U)), X.shape[:-2])
        if isinstance(lc, ad.Dual):
            lc_val, lc_eps = lc.val, np.moveaxis(lc.eps, 0, -1)  # (..., K, d), tangent-last view
        else:  # a constant running cost
            lc_val, lc_eps = lc, np.zeros(lc.shape + (d,))
        term, term_grad = ad._forward(ocp.terminal_cost, X[..., K, :])  # None if constant
        val = lc_val.sum(axis=-1) + term
        gx = np.zeros(X.shape)
        gx[..., :K, :] = lc_eps[..., :nx]
        if term_grad is not None:
            gx[..., K, :] += term_grad
        gu = lc_eps[..., nx:]
        return val, join(gu, gx, layout)

    def constraints_with_vjp(z):
        z = np.asarray(z, dtype=float)
        U, X = split(z, layout)
        f = ocp.dynamics(*stage_seeds(X[..., :K, :], U))
        F = np.moveaxis(f.eps, 0, -1)  # (..., K, nx, d), tangent-last view
        Fx = F[..., :nx]  # (..., K, nx, nx): d f_i / d x_j
        Fu = F[..., nx:]  # (..., K, nx, nu)
        defects = X[..., 1:, :] - f.val
        init = X[..., 0, :] - ocp.x_init
        h = np.concatenate([defects.reshape(defects.shape[:-2] + (K * nx,)), init], axis=-1)

        def vjp(w):
            W = w[..., : K * nx].reshape(w.shape[:-1] + (K, nx))
            w0 = w[..., K * nx :]
            gu = -_stage_vtj(W, Fu)
            gx = np.zeros(w.shape[:-1] + (K + 1, nx))
            gx[..., 1:, :] += W
            gx[..., :K, :] -= _stage_vtj(W, Fx)
            gx[..., 0, :] += w0
            return join(gu, gx, layout)

        return h, vjp

    lower = np.concatenate([np.tile(ocp.u_lower, K), np.tile(ocp.x_lower, K + 1)])
    upper = np.concatenate([np.tile(ocp.u_upper, K), np.tile(ocp.x_upper, K + 1)])

    return NlpProblem(
        n=layout.n,
        m=layout.m,
        cost=cost,
        constraints=constraints,
        lower=lower,
        upper=upper,
        cost_and_gradient=cost_and_gradient,
        constraints_with_vjp=constraints_with_vjp,
    )
