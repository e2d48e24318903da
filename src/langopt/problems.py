"""Benchmark problems: pendulum swingup, unicycle bug trap, and a toy analytic NLP.

All dynamics and cost callables broadcast over leading axes and are generic
over the scalar type, so they compose with both plain numpy arrays and the
dual-number arrays used for differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import autodiff as ad
from .nlp import NlpProblem, OcpDefinition, transcribe
from .solver import SolverConfig, _check_int, trajectory_guess


# ---------------------------------------------------------------------------
# pendulum swingup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PendulumParams:
    """Pendulum with angle 0 upright and pi hanging down.

    Gravity torque m*g*l far exceeds the torque limit, so the swingup has to
    pump energy over several swings; the 5 s horizon is tight enough that the
    pumping needs near-maximal torque in both directions.
    """

    m: float = 1.0
    l: float = 1.0
    g: float = 9.81
    dt: float = 0.1
    K: int = 50
    u_min: float = -1.0
    u_max: float = 1.0

    def __post_init__(self):
        if min(self.m, self.l, self.g, self.dt) <= 0 or self.K < 1:
            raise ValueError("physical parameters must be positive and K >= 1")
        if not self.u_min < self.u_max:
            raise ValueError("torque bounds must satisfy u_min < u_max")


def pendulum_dynamics(x, u, params: PendulumParams = PendulumParams()):
    """Explicit-Euler pendulum step for state [theta, theta_dot] and torque [tau]."""
    theta = x[..., 0]
    theta_dot = x[..., 1]
    tau = u[..., 0]
    theta_ddot = (tau - params.m * params.g * params.l * ad.sin(theta - np.pi)) / (
        params.m * params.l**2
    )
    return x + params.dt * ad.stack([theta_dot, theta_ddot], axis=-1)


def pendulum_ocp(params: PendulumParams = PendulumParams()) -> OcpDefinition:
    """Swingup from hanging ([pi, 0]) to upright, with strict torque limits.

    Stage coordinates are [theta, theta_dot, tau]. Every stage oracle
    carries the bytes of the dual pass over its callable, NaN positions
    included. The cost oracles write their gradients one ``(...)`` plane
    per tangent row, and each plane runs the dual pass's per-entry
    operations in its order (see :func:`bugtrap_ocp`): the running cost's
    ``(0.0 + 2 tau * seed) * effort`` and the terminal cost's
    ``2 theta * seed * 10.0 + 2 theta_dot * seed * 1.0``, with ``seed``
    the tangent's 1.0 or 0.0. The dynamics oracle computes ``f`` with the
    operations of :func:`pendulum_dynamics` and its Jacobian at its structure, one ``(...)`` plane per entry: the
    one varying entry, ``d f_1 / d theta``, runs the dual pass's operations
    in its order; the constant entries of row 1 are the constant plus a
    NaN-carrying zero plane, ``0.0 - cos * 0.0``, which is +0.0 where
    ``cos(theta - pi)`` is finite and NaN where the dual pass gives NaN;
    row 0 does not depend on the input and is a plain fill.
    """
    mgl = params.m * params.g * params.l
    inertia = params.m * params.l**2
    effort = params.dt * 0.01
    # the Jacobian's input-independent entries, as the dual pass forms them
    row0 = np.array([1.0, 0.0 + 1.0 * params.dt, 0.0])
    rate_tau = 0.0 + ((1.0 - 0.0) / inertia) * params.dt

    def dynamics(x, u):
        return pendulum_dynamics(x, u, params)

    def dynamics_and_jacobian(x, u):
        theta, theta_dot = x[..., 0], x[..., 1]
        shifted = theta - np.pi
        f = np.empty(x.shape)
        f[..., 0] = theta + params.dt * theta_dot
        f[..., 1] = theta_dot + params.dt * ((u[..., 0] - mgl * np.sin(shifted)) / inertia)
        cos = np.cos(shifted)
        nan_zero = 0.0 - cos * 0.0  # +0.0, or NaN where the dual pass's zero tangents are NaN
        F = np.empty((2, 3) + theta.shape)  # row, tangent, stage
        F[0] = row0.reshape((3,) + (1,) * theta.ndim)
        F[1, 0] = 0.0 + ((0.0 - cos * mgl) / inertia) * params.dt
        F[1, 1] = 1.0 + nan_zero
        F[1, 2] = rate_tau + nan_zero
        return f, F

    def running_cost(x, u):
        return effort * ad.asum(u**2.0, axis=-1)

    def running_cost_and_gradient(x, u):
        du = 2.0 * u[..., 0]
        g = np.empty((3,) + du.shape)  # planes (0.0 + du * seed) * effort: Dual.sum adds onto +0.0
        off = np.multiply(du, 0.0, out=g[0])
        np.add(0.0, off, out=off)
        off *= effort
        g[1] = off
        on = np.add(0.0, du, out=g[2])
        on *= effort
        return effort * u[..., 0] ** 2.0, g  # the sum over the one control is the control's square

    def terminal_cost(x):
        theta = x[..., 0]
        theta_dot = x[..., 1]
        return 10.0 * theta**2.0 + 1.0 * theta_dot**2.0

    def terminal_cost_and_gradient(x):
        d_theta, d_rate = 2.0 * x[..., 0], 2.0 * x[..., 1]
        g = np.empty((2,) + d_theta.shape)  # planes d_theta * seed * 10.0 + d_rate * seed * 1.0
        np.add(d_theta * 10.0, d_rate * 0.0, out=g[0, ...])
        np.add(d_theta * 0.0 * 10.0, d_rate, out=g[1, ...])
        return terminal_cost(x), g

    return OcpDefinition(
        K=params.K,
        nx=2,
        nu=1,
        dynamics=dynamics,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        x_init=np.array([np.pi, 0.0]),
        u_lower=np.array([params.u_min]),
        u_upper=np.array([params.u_max]),
        dynamics_and_jacobian=dynamics_and_jacobian,
        running_cost_and_gradient=running_cost_and_gradient,
        terminal_cost_and_gradient=terminal_cost_and_gradient,
    )


# states scattered over one revolution around the swing region (Fig.-2-style
# infeasible guess); wide velocity range so early iterates explore both swings
PENDULUM_GUESS_BOX = np.array([[0.0, 2.0 * np.pi], [-6.0, 6.0]])


# ---------------------------------------------------------------------------
# unicycle bug trap
# ---------------------------------------------------------------------------


def unicycle_dynamics(x, u, dt: float = 0.1):
    """Explicit-Euler unicycle step: state [px, py, theta], control [v, omega]."""
    theta = x[..., 2]
    v = u[..., 0]
    omega = u[..., 1]
    return x + dt * ad.stack([v * ad.cos(theta), v * ad.sin(theta), omega], axis=-1)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by center and half-extents."""

    center: Tuple[float, float]
    half: Tuple[float, float]


def _box_distance(px, py, center, half):
    """Signed distance of points ``(px, py)`` to boxes ``center +- half``, broadcasting over all."""
    qx = ad.absolute(px - center[0]) - half[0]
    qy = ad.absolute(py - center[1]) - half[1]
    out_mask = (ad.value(qx) > 0) | (ad.value(qy) > 0)
    qpx = ad.maximum(qx, 0.0)
    qpy = ad.maximum(qy, 0.0)
    sq = qpx * qpx + qpy * qpy
    outside = ad.where(out_mask, ad.sqrt(ad.where(out_mask, sq, 1.0)), 0.0)
    inside = ad.minimum(ad.maximum(qx, qy), 0.0)
    return outside + inside


def rect_signed_distance(p, rect: Rect):
    """Signed distance of planar points ``(..., 2)`` to a rectangle (negative inside)."""
    return _box_distance(p[..., 0], p[..., 1], rect.center, rect.half)


@dataclass(frozen=True)
class BugTrapGeometry:
    """A U-shaped obstacle open toward +x, with the goal behind the closed side.

    The walls are thick relative to v_max*dt so a trajectory cannot cheaply
    jump them with a single dynamics defect, and the goal weight is modest so
    the terminal-cost barrier along the way around stays crossable for the
    annealed sampler.
    """

    rects: Tuple[Rect, Rect, Rect] = (
        Rect(center=(-1.0, 0.0), half=(0.2, 1.2)),  # base wall
        Rect(center=(0.2, 1.0), half=(1.2, 0.2)),  # upper arm
        Rect(center=(0.2, -1.0), half=(1.2, 0.2)),  # lower arm
    )
    goal: Tuple[float, float] = (-2.5, 0.0)
    start: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    w_obs: float = 100.0
    w_goal: float = 1.0
    margin: float = 0.1
    smooth_len: float = 0.05
    K: int = 60
    dt: float = 0.1
    v_max: float = 2.0
    omega_max: float = 2.0


def obstacle_penalty(p, geom: BugTrapGeometry):
    """Smooth proximity penalty: softplus ramp of margin minus signed distance.

    All rectangles are evaluated in one broadcast pass over a leading
    rectangle axis (leading, so that every dual-number rule runs over whole
    contiguous point blocks). The per-rectangle ramps are then added in
    rectangle order, which reproduces summing :func:`rect_signed_distance`
    ramps one rectangle at a time, bit for bit.
    """
    lead = (len(geom.rects),) + (1,) * (np.ndim(p) - 1)
    center = [np.array([r.center[i] for r in geom.rects]).reshape(lead) for i in range(2)]
    half = [np.array([r.half[i] for r in geom.rects]).reshape(lead) for i in range(2)]
    sd = _box_distance(p[None, ..., 0], p[None, ..., 1], center, half)
    ramps = ad.softplus((geom.margin - sd) / geom.smooth_len) * geom.smooth_len
    total = 0.0
    for i in range(len(geom.rects)):
        total = total + ramps[i]
    return geom.w_obs * total


def _box_arrays(geom: BugTrapGeometry):
    """Rectangle centres and half-extents as ``(2, R, 1)`` arrays: axis, rectangle, point."""
    center = np.array([r.center for r in geom.rects], dtype=float).T[..., None]
    half = np.array([r.half for r in geom.rects], dtype=float).T[..., None]
    return center, half


def obstacle_value_and_gradient(p, geom: BugTrapGeometry, boxes=None):
    """:func:`obstacle_penalty` of plain points ``(..., 2)`` and its gradient, tangent-major ``(2, ...)``.

    The derivative is written in closed form as the operations the dual pass
    ``obstacle_penalty(ad.seed(p), geom)`` runs, in its order, so the value
    and every non-zero gradient entry carry its bytes (zeros may differ in
    sign). Per rectangle and axis, with ``s`` the sign of the offset and
    ``qp`` the clipped face distance: outside, ``d sd = (0.5 / r) * (t + t)``
    with ``t = s * qp``; inside, ``s`` on the axis of the larger ``q``; then
    the ramp's ``sigmoid * (-d sd / smooth_len) * smooth_len``, summed over
    rectangles in order and times ``w_obs``. The dual pass also multiplies
    the other axis's offset by a zero tangent; that term is the NaN-carrying
    zero plane :func:`_position_zero` added to both components, so an
    entry is NaN exactly where the dual pass's is, at an infinite
    coordinate or an overflowing square too. ``boxes`` is
    :func:`_box_arrays` of ``geom``, built per call when not given.
    """
    p = np.asarray(p, dtype=float)
    total, grad = _obstacle_terms(p, geom, _box_arrays(geom) if boxes is None else boxes)
    grad += _position_zero(p)  # each axis's tangent also multiplies the other axis's offset by 0
    return total, grad


def _obstacle_terms(p, geom, boxes):
    """:func:`obstacle_value_and_gradient` of float points ``p`` before its :func:`_position_zero` is added."""
    center, half = boxes
    lead = p.shape[:-1]
    # (2, R, M): axis, rectangle, point; subtracted from the (possibly strided) position
    # views straight into the buffer, with no copy of the positions first
    d = np.empty((2, len(geom.rects)) + lead)
    for i in range(2):
        np.subtract(p[..., i], center[i].reshape((-1,) + (1,) * len(lead)), out=d[i])
    d = d.reshape(2, len(geom.rects), -1)
    s = np.where(d >= 0, 1.0, -1.0)  # the sign |.| differentiates with: +1 at -0.0
    q = np.abs(d)
    q -= half  # in place: a broadcast operand makes the allocating form several times slower
    qx, qy = q
    out = (qx > 0) | (qy > 0)
    # the dual pass's selections max(q, 0) and min(m, 0), a NaN winning as in ad.maximum /
    # ad.minimum and -0.0 kept (np.maximum would turn the -0.0 it selects into +0.0)
    qp = np.where(q < 0, 0.0, q)
    sq = qp[0] * qp[0]
    sq += qp[1] * qp[1]
    r = np.sqrt(np.where(out, sq, 1.0))
    pick_x = (qx >= qy) | np.isnan(qx)
    m = np.where(pick_x, qx, qy)
    sd = np.where(out, r, 0.0) + np.where(m > 0, 0.0, m)
    v = (geom.margin - sd) / geom.smooth_len
    ramp = np.logaddexp(0.0, v) * geom.smooth_len

    # outside, (0.5 / r) * (t + t); inside (where t = s * 0 and r = 1), s on the picked axis
    t = s * qp
    dsd = t + t
    dsd *= 0.5 / r
    inside = ~out
    np.copyto(dsd[0], s[0], where=inside & pick_x)
    np.copyto(dsd[1], s[1], where=inside & ~pick_x)
    dramp = -dsd
    dramp /= geom.smooth_len
    dramp *= ad._sigmoid(v)  # ad.softplus's derivative
    dramp *= geom.smooth_len

    total, grad = 0.0 + ramp[0], 0.0 + dramp[:, 0]
    for i in range(1, len(geom.rects)):
        total += ramp[i]
        grad += dramp[:, i]
    total *= geom.w_obs
    grad *= geom.w_obs
    return total.reshape(lead), grad.reshape((2,) + lead)


def _position_zero(p):
    """The dual obstacle pass's tangent along a direction that moves no position, for points ``(..., 2)``.

    It comes out of products of the offsets with zero tangents: ``-0.0``, or
    NaN where a coordinate is infinite or NaN. Adding it to a number other
    than NaN leaves the number's bytes as they are.
    """
    return np.copysign(0.0 * p[..., 0] + 0.0 * p[..., 1], -1.0)


def bugtrap_ocp(geom: BugTrapGeometry = BugTrapGeometry()) -> OcpDefinition:
    """Drive out of the U and around to the goal; obstacles live in the running cost.

    Stage coordinates are [px, py, theta, v, omega]. Every stage oracle
    carries the bytes of the dual pass over its callable, NaN positions
    included. The cost oracles write their gradients one ``(...)`` plane
    per tangent row, and each plane runs the dual pass's per-entry
    operations in its order: a coordinate's derivative times the tangent's
    seed, 1.0 or 0.0, so that a plane off the coordinate's own tangent is a
    zero that is NaN where the dual pass's is. Products by 1.0 and the
    ``** 1.0`` of a square's derivative are left out: both give their
    operand's bytes. The running cost's plane j is the obstacle term plus
    the effort term ``((0.0 + du0 * s0) + du1 * s1) * effort``, with
    ``du = 2 u`` and ``s`` tangent j's control seeds. The obstacle term is
    the closed form of :func:`obstacle_value_and_gradient` along the two
    position tangents and :func:`_position_zero`, computed once per call,
    along the other three. The terminal cost's planes are
    ``((0.0 + 2 dp0 * s0) + 2 dp1 * s1) * w_goal`` on the value's own
    ``dp``. Each value's sum over two squares is their one addition, as in
    the dual pass. The dynamics oracle computes ``f`` with the operations of
    :func:`unicycle_dynamics` and its Jacobian at its structure, one
    ``(...)`` plane per entry: the four ``v * cos`` / ``v * sin`` tangents
    (along theta and v) run the dual pass's operations in its order; the
    other entries of rows 0 and 1 are their constant plus a NaN-carrying
    zero plane, ``0.0 - sin * 0.0 * v``, which is +0.0 where theta and v
    are finite and NaN where the dual pass gives NaN; the heading row does
    not depend on the input and is a plain fill.
    """
    boxes = _box_arrays(geom)
    dt = geom.dt
    effort = geom.dt * 0.01
    goal = np.asarray(geom.goal)
    row2 = np.array([0.0, 0.0, 1.0, 0.0, 0.0 + 1.0 * dt])  # the heading row, input-independent

    def dynamics(x, u):
        return unicycle_dynamics(x, u, dt)

    def dynamics_and_jacobian(x, u):
        theta, v = x[..., 2], u[..., 0]
        cos, sin = np.cos(theta), np.sin(theta)
        f = np.empty(x.shape)
        f[..., 0] = x[..., 0] + dt * (v * cos)
        f[..., 1] = x[..., 1] + dt * (v * sin)
        f[..., 2] = theta + dt * u[..., 1]
        nan_zero = 0.0 - sin * 0.0 * v  # +0.0, or NaN where the dual pass's zero tangents are NaN
        F = np.empty((3, 5) + theta.shape)  # row, tangent, stage
        for i, (rate_v, rate_theta) in enumerate(((cos, -sin * v), (sin, cos * v))):
            F[i, :2] = nan_zero  # the tangents of v * cos(theta), v * sin(theta)
            F[i, i] += 1.0
            F[i, 2] = 0.0 + (0.0 * rate_v + rate_theta) * dt
            F[i, 3] = 0.0 + (rate_v + nan_zero) * dt
            F[i, 4] = nan_zero
        F[2] = row2.reshape((5,) + (1,) * theta.ndim)
        return f, F

    def running_cost(x, u):
        return obstacle_penalty(x[..., :2], geom) + effort * ad.asum(u**2.0, axis=-1)

    def running_cost_and_gradient(x, u):
        p = x[..., :2]
        obs, dobs = _obstacle_terms(p, geom, boxes)
        zero = _position_zero(p)
        dobs += zero
        # the effort term along the five stage tangents, in the dual pass's order: 0.0, then
        # du0 times the tangent's u0 seed, then du1 times its u1 seed, then the weight
        du = 2.0 * u
        du0, du1 = du[..., 0], du[..., 1]
        u0_off = np.add(0.0, du0 * 0.0)  # shared by planes 0-2 and 4
        u1_off = du1 * 0.0  # shared by planes 0-3
        g = np.empty((5,) + obs.shape)
        nz = np.add(u0_off, u1_off, out=g[2])
        nz *= effort  # off the control tangents: +0.0, or NaN where the dual pass's is
        np.add(dobs, nz, out=g[:2])
        g3 = np.add(0.0, du0, out=g[3])
        g3 += u1_off
        g3 *= effort
        g4 = np.add(u0_off, du1, out=g[4])
        g4 *= effort
        np.add(zero, g[2:], out=g[2:])
        u_sq = u[..., 0] ** 2.0
        u_sq += u[..., 1] ** 2.0  # the sum over the two controls: one addition, in order
        return obs + effort * u_sq, g

    def terminal_cost(x):
        dp = x[..., :2] - goal
        return geom.w_goal * ad.asum(dp**2.0, axis=-1)

    def terminal_cost_and_gradient(x):
        dp = x[..., :2] - goal
        two_dp = 2.0 * dp
        t0, t1 = two_dp[..., 0], two_dp[..., 1]
        t0_off, t1_off = np.add(0.0, t0 * 0.0), t1 * 0.0
        g = np.empty((3,) + dp.shape[:-1])  # planes ((0.0 + t0 * seed) + t1 * seed) * w_goal
        np.add(np.add(0.0, t0), t1_off, out=g[0, ...])
        np.add(t0_off, t1, out=g[1, ...])
        np.add(t0_off, t1_off, out=g[2, ...])
        g *= geom.w_goal
        dp_sq = dp[..., 0] ** 2.0
        dp_sq += dp[..., 1] ** 2.0  # the sum over the two coordinates: one addition, in order
        return geom.w_goal * dp_sq, g

    return OcpDefinition(
        K=geom.K,
        nx=3,
        nu=2,
        dynamics=dynamics,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        x_init=np.asarray(geom.start, dtype=float),
        u_lower=np.array([0.0, -geom.omega_max]),
        u_upper=np.array([geom.v_max, geom.omega_max]),
        dynamics_and_jacobian=dynamics_and_jacobian,
        running_cost_and_gradient=running_cost_and_gradient,
        terminal_cost_and_gradient=terminal_cost_and_gradient,
    )


# guesses start scattered inside the cavity, so greedy descent settles in the trap
BUGTRAP_GUESS_BOX = np.array([[-0.54, 0.54], [-0.54, 0.54], [-np.pi, np.pi]])


def trap_bounding_box(geom: BugTrapGeometry, inflate: float = 0.5) -> np.ndarray:
    """Inflated bounding box of the U, as [[xmin, xmax], [ymin, ymax]]."""
    lo = np.min([np.asarray(r.center) - np.asarray(r.half) for r in geom.rects], axis=0)
    hi = np.max([np.asarray(r.center) + np.asarray(r.half) for r in geom.rects], axis=0)
    return np.stack([lo - inflate, hi + inflate], axis=-1)


# ---------------------------------------------------------------------------
# toy analytic NLP
# ---------------------------------------------------------------------------


def toy_kkt_problem() -> NlpProblem:
    """min 1/2 ||x||^2 s.t. x1 + x2 = 1; solution x* = (1/2, 1/2), lambda* = -1/2."""

    def cost(x):
        return 0.5 * ad.asum(x * x, axis=-1)

    def constraints(x):
        return ad.stack([x[..., 0] + x[..., 1] - 1.0], axis=-1)

    # closed-form derivatives: grad c = x, J = [1 1]
    def cost_and_gradient(x):
        return 0.5 * (x * x).sum(axis=-1), x

    def constraints_with_vjp(x):
        h = (x[..., 0] + x[..., 1] - 1.0)[..., None]

        def vjp(w):
            return w.repeat(2, axis=-1)

        return h, vjp

    return NlpProblem(
        n=2,
        m=1,
        cost=cost,
        constraints=constraints,
        cost_and_gradient=cost_and_gradient,
        constraints_with_vjp=constraints_with_vjp,
    )


TOY_KKT_SOLUTION = (np.array([0.5, 0.5]), np.array([-0.5]))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass
class ProblemBundle:
    """A named problem plus everything a front end needs to run it.

    ``phases`` is the problem's verified schedule, the noise recipe that
    ``solve_batch(bundle.nlp, x0s, bundle.phases)`` runs.
    """

    name: str
    nlp: NlpProblem
    ocp: Optional[OcpDefinition]
    guess: Callable  # rng -> x0
    phases: Tuple[SolverConfig, ...]

    def guesses(self, n, seed=0):
        """``n`` initial points, point i drawn by ``guess`` from ``default_rng([seed + i, 0xA5])``.

        The generators are apart from any chain's noise stream. ``n`` and
        ``seed`` are integers of at least 0; anything else raises a
        ValueError naming it.
        """
        _check_int("n", n, 0)
        _check_int("seed", seed, 0)
        return [self.guess(np.random.default_rng([seed + i, 0xA5])) for i in range(n)]


def _pendulum_bundle() -> ProblemBundle:
    ocp = pendulum_ocp()
    return ProblemBundle(
        name="pendulum",
        nlp=transcribe(ocp),
        ocp=ocp,
        guess=lambda rng: trajectory_guess(ocp, PENDULUM_GUESS_BOX, rng),
        # the anneal finds the swingup's basin but plateaus near ||h||^2 ~ 1e-4;
        # the zero-noise polish, multipliers carried over, drives it to ~1e-8
        phases=(
            SolverConfig(seed=0),
            SolverConfig(seed=0, alpha=0.03, sigma0=0.0, sigma_min=0.0, iterations=60000),
        ),
    )


def _bugtrap_bundle() -> ProblemBundle:
    ocp = bugtrap_ocp()
    return ProblemBundle(
        name="bugtrap",
        nlp=transcribe(ocp),
        ocp=ocp,
        guess=lambda rng: trajectory_guess(ocp, BUGTRAP_GUESS_BOX, rng),
        # hot hold with a taper down to 0.8 (escape attempts while the basin
        # statistics sharpen), then a cold anneal that skips the band where
        # escaped chains fall back into the trap
        phases=(
            SolverConfig(
                seed=0, sigma0=1.5, hold=10000, iterations=25000,
                gamma=(0.8 / 1.5) ** (1.0 / 15000.0), sigma_min=0.8,
            ),
            SolverConfig(seed=1, sigma0=0.3, iterations=20000),
        ),
    )


def _toy_bundle() -> ProblemBundle:
    return ProblemBundle(
        name="toy_kkt",
        nlp=toy_kkt_problem(),
        ocp=None,
        guess=lambda rng: rng.uniform(-2.0, 2.0, size=2),
        phases=(SolverConfig(),),
    )


PROBLEMS = {
    "pendulum": _pendulum_bundle,
    "bugtrap": _bugtrap_bundle,
    "toy_kkt": _toy_bundle,
}


def get_problem(name: str) -> ProblemBundle:
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; valid names: {sorted(PROBLEMS)}") from None
    return factory()
