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

    :func:`transcribe` reads their derivatives only through three stage
    oracles on plain arrays, with ``d = nx + nu`` stage coordinates (states
    first). Derivatives are tangent-major, with ``...`` the stage lead shape
    ``x.shape[:-1]``, so ``F[i, j]`` is the block of d f_i / d (x, u)_j over
    all stages:

    - ``dynamics_and_jacobian(x, u) -> (f (..., nx), F (nx, d, ...))``
    - ``running_cost_and_gradient(x, u) -> (l (...,), g (d, ...))``
    - ``terminal_cost_and_gradient(x) -> (phi (...,), g (nx, ...))``

    Each must match its callable; ``transcribe`` rejects an output of another
    shape. One left ``None`` is filled in by ``transcribe`` with one
    dual-number pass over the callable.
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
    dynamics_and_jacobian: Optional[Callable] = None
    running_cost_and_gradient: Optional[Callable] = None
    terminal_cost_and_gradient: Optional[Callable] = None

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


def _check_shapes(oracle, names, arrays, shapes):
    """Raise a ValueError naming ``oracle`` unless each array has its contract shape."""
    for name, a, shape in zip(names, arrays, shapes):
        if np.shape(a) != shape:
            raise ValueError(f"{oracle} returned {name} of shape {np.shape(a)}, expected {shape}")
    return arrays


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
    k = 0..K-1, then the initial-condition block ``x_0 - x_init``. The
    derivative oracles run the OCP's stage oracles once per call over all
    stages and reject an output whose shape breaks the tangent-major contract
    of :class:`OcpDefinition`: over stages ``(..., K)``, ``F (nx, d, ..., K)``
    and ``g (d, ..., K)``, and ``g (nx, ...)`` at the last knot. A stage
    oracle the OCP leaves ``None`` is a dual-number pass over its callable,
    with ``d = nx + nu`` seed tangents per stage, whose ``eps`` is already
    tangent-major. The VJP adds the rows ``W[..., i] * F[i]`` in order.
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

    def dual_dynamics(xs, U):
        f = ocp.dynamics(*stage_seeds(xs, U))
        if isinstance(f, ad.Dual):
            return f.val, np.moveaxis(f.eps, -1, 0)  # (d, ..., K, nx) viewed as (nx, d, ..., K)
        stages = xs.shape[:-1]
        return np.broadcast_to(f, stages + (nx,)), np.zeros((nx, d) + stages)  # a constant

    def dual_running_cost(xs, U):
        lc = stage_costs(ocp.running_cost(*stage_seeds(xs, U)), xs.shape[:-2])
        if isinstance(lc, ad.Dual):
            return lc.val, lc.eps
        return lc, np.zeros((d,) + lc.shape)  # a constant running cost

    def dual_terminal_cost(x):
        phi = ocp.terminal_cost(ad.seed(x))
        if isinstance(phi, ad.Dual):
            return phi.val, phi.eps
        return np.broadcast_to(ad.value(phi), x.shape[:-1]), np.zeros((nx,) + x.shape[:-1])  # a constant

    dynamics_and_jacobian = ocp.dynamics_and_jacobian or dual_dynamics
    running_cost_and_gradient = ocp.running_cost_and_gradient or dual_running_cost
    terminal_cost_and_gradient = ocp.terminal_cost_and_gradient or dual_terminal_cost

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
        lead = X.shape[:-2]
        lc, lg = _check_shapes(
            "running_cost_and_gradient", ("l", "g"),
            running_cost_and_gradient(X[..., :K, :], U), (lead + (K,), (d,) + lead + (K,)),
        )
        term, tg = _check_shapes(
            "terminal_cost_and_gradient", ("phi", "g"),
            terminal_cost_and_gradient(X[..., K, :]), (lead, (nx,) + lead),
        )
        val = lc.sum(axis=-1) + term
        g = np.zeros(z.shape)
        gu, gx = split(g, layout)  # views into g
        for j in range(nu):  # each contiguous gradient block into its strided column
            gu[..., j] = lg[nx + j]
        for j in range(nx):
            gx[..., :K, j] = lg[j]
            gx[..., K, j] += tg[j]
        return val, g

    def constraints_with_vjp(z):
        z = np.asarray(z, dtype=float)
        U, X = split(z, layout)
        stages = X.shape[:-2] + (K,)
        f, F = _check_shapes(
            "dynamics_and_jacobian", ("f", "F"),
            dynamics_and_jacobian(X[..., :K, :], U), (stages + (nx,), (nx, d) + stages),
        )
        defects = X[..., 1:, :] - f
        init = X[..., 0, :] - ocp.x_init
        h = np.concatenate([defects.reshape(defects.shape[:-2] + (K * nx,)), init], axis=-1)

        def vjp(w):
            lead = w.shape[:-1]
            W = w[..., : K * nx].reshape(lead + (K, nx))
            # w may carry more lead axes than z (vjp(np.eye(m))): F's rows broadcast after d
            rows = F.reshape((nx, d) + (1,) * (len(lead) + 3 - F.ndim) + F.shape[2:])
            t = np.zeros((d,) + lead + (K,))  # per-stage W^T F, rows added in order
            for i in range(nx):
                t += W[..., i] * rows[i]
            g = np.zeros(lead + (layout.n,))
            gu, gx = split(g, layout)  # views into g
            for j in range(nu):
                gu[..., j] = -t[nx + j]
            gx[..., 1:, :] += W
            for j in range(nx):
                gx[..., :K, j] -= t[j]
            gx[..., 0, :] += w[..., K * nx :]
            return g

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
