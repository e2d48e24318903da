"""Benchmark problems: pendulum swingup, unicycle bug trap, and a toy analytic NLP.

All dynamics and cost callables broadcast over leading axes and are generic
over the scalar type, so they compose with both plain numpy arrays and the
dual-number arrays used for differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from . import autodiff as ad
from .nlp import NlpProblem, OcpDefinition, transcribe


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
    """Swingup from hanging ([pi, 0]) to upright, with strict torque limits."""

    def dynamics(x, u):
        return pendulum_dynamics(x, u, params)

    def running_cost(x, u):
        return params.dt * 0.01 * ad.asum(u**2.0, axis=-1)

    def terminal_cost(x):
        theta = x[..., 0]
        theta_dot = x[..., 1]
        return 10.0 * theta**2.0 + 1.0 * theta_dot**2.0

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


def bugtrap_ocp(geom: BugTrapGeometry = BugTrapGeometry()) -> OcpDefinition:
    """Drive out of the U and around to the goal; obstacles live in the running cost."""

    def dynamics(x, u):
        return unicycle_dynamics(x, u, geom.dt)

    def running_cost(x, u):
        p = x[..., :2]
        return obstacle_penalty(p, geom) + geom.dt * 0.01 * ad.asum(u**2.0, axis=-1)

    def terminal_cost(x):
        dp = x[..., :2] - np.asarray(geom.goal)
        return geom.w_goal * ad.asum(dp**2.0, axis=-1)

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
        return 0.5 * np.sum(x * x, axis=-1), x

    def constraints_with_vjp(x):
        h = (x[..., 0] + x[..., 1] - 1.0)[..., None]

        def vjp(w):
            return np.repeat(w, 2, axis=-1)

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
    """A named problem plus everything a front end needs to run it."""

    name: str
    nlp: NlpProblem
    ocp: Optional[OcpDefinition]
    guess: Callable  # rng -> x0
    config_overrides: dict = field(default_factory=dict)


def _pendulum_bundle() -> ProblemBundle:
    ocp = pendulum_ocp()
    from .solver import trajectory_guess

    return ProblemBundle(
        name="pendulum",
        nlp=transcribe(ocp),
        ocp=ocp,
        guess=lambda rng: trajectory_guess(ocp, PENDULUM_GUESS_BOX, rng),
    )


def _bugtrap_bundle() -> ProblemBundle:
    ocp = bugtrap_ocp()
    from .solver import trajectory_guess

    return ProblemBundle(
        name="bugtrap",
        nlp=transcribe(ocp),
        ocp=ocp,
        guess=lambda rng: trajectory_guess(ocp, BUGTRAP_GUESS_BOX, rng),
        # escaping the trap needs a long plateau in the productive noise band,
        # then a decay fast enough not to linger where chains fall back in
        config_overrides={
            "sigma0": 1.5,
            "hold": 20000,
            "iters": 40000,
            "gamma": (1e-4 / 1.5) ** (1.0 / 5000.0),
        },
    )


def _toy_bundle() -> ProblemBundle:
    return ProblemBundle(
        name="toy_kkt",
        nlp=toy_kkt_problem(),
        ocp=None,
        guess=lambda rng: rng.uniform(-2.0, 2.0, size=2),
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
