import numpy as np
import pytest

import langopt.autodiff as ad
from langopt.autodiff import check_gradient
from langopt.problems import (
    BugTrapGeometry,
    PendulumParams,
    Rect,
    bugtrap_ocp,
    get_problem,
    obstacle_penalty,
    pendulum_dynamics,
    pendulum_ocp,
    rect_signed_distance,
    toy_kkt_problem,
    trap_bounding_box,
    unicycle_dynamics,
)


class TestPendulum:
    def test_hanging_equilibrium(self):
        x = pendulum_dynamics(np.array([np.pi, 0.0]), np.array([0.0]))
        assert np.allclose(x, [np.pi, 0.0], atol=1e-15)

    def test_upright_equilibrium(self):
        x = pendulum_dynamics(np.array([0.0, 0.0]), np.array([0.0]))
        assert np.allclose(x, [0.0, 0.0], atol=1e-15)

    def test_horizontal_gravity(self):
        x = pendulum_dynamics(np.array([np.pi / 2, 0.0]), np.array([0.0]))
        assert np.allclose(x, [np.pi / 2, 0.981])

    def test_euler_consistency(self):
        # (next - x) / dt equals the continuous vector field at x
        p = PendulumParams()
        x = np.array([1.3, -0.7])
        u = np.array([0.4])
        rate = (pendulum_dynamics(x, u, p) - x) / p.dt
        field = [x[1], (u[0] - p.m * p.g * p.l * np.sin(x[0] - np.pi)) / (p.m * p.l**2)]
        assert np.allclose(rate, field, rtol=1e-14)

    def test_ocp_costs(self):
        ocp = pendulum_ocp()
        assert float(ocp.terminal_cost(np.array([0.0, 0.0]))) == 0.0
        assert np.isclose(float(ocp.terminal_cost(np.array([1.0, 2.0]))), 14.0)
        assert np.isclose(float(ocp.running_cost(np.zeros(2), np.array([1.0]))), 0.001)
        assert np.allclose(ocp.u_lower, [-1.0])
        assert np.allclose(ocp.u_upper, [1.0])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(m=-1.0)
        with pytest.raises(ValueError):
            PendulumParams(u_min=1.0, u_max=-1.0)


class TestUnicycle:
    def test_straight(self):
        x = unicycle_dynamics(np.zeros(3), np.array([1.0, 0.0]), dt=0.1)
        assert np.allclose(x, [0.1, 0.0, 0.0])

    def test_pure_rotation(self):
        x = unicycle_dynamics(np.array([0.3, -0.2, 0.5]), np.array([0.0, 2.0]), dt=0.1)
        assert np.allclose(x, [0.3, -0.2, 0.7])

    def test_sideways(self):
        x = unicycle_dynamics(np.array([0.0, 0.0, np.pi / 2]), np.array([1.0, 0.0]), dt=0.1)
        assert np.allclose(x, [0.0, 0.1, np.pi / 2], atol=1e-15)


class TestBugTrap:
    def test_signed_distance_signs(self):
        r = Rect(center=(0.0, 0.0), half=(1.0, 2.0))
        assert rect_signed_distance(np.array([3.0, 0.0]), r) == pytest.approx(2.0)
        assert rect_signed_distance(np.array([0.0, 0.0]), r) == pytest.approx(-1.0)
        assert rect_signed_distance(np.array([1.0, 0.0]), r) == pytest.approx(0.0)
        # outside a corner: euclidean distance to it
        assert rect_signed_distance(np.array([2.0, 3.0]), r) == pytest.approx(np.sqrt(2.0))

    def test_goal_terminal_cost_zero(self):
        geom = BugTrapGeometry()
        ocp = bugtrap_ocp(geom)
        xg = np.array([geom.goal[0], geom.goal[1], 0.7])
        assert float(ocp.terminal_cost(xg)) == 0.0

    def test_penalty_far_field(self):
        geom = BugTrapGeometry()
        p = np.array([50.0, 50.0])
        assert float(obstacle_penalty(p, geom)) <= 1e-6 * geom.w_obs

    def test_penalty_at_wall_center(self):
        geom = BugTrapGeometry()
        rect = geom.rects[0]
        p = np.array(rect.center)
        # softplus is in its linear regime deep inside: penalty >= w_obs*(margin + depth)
        depth = min(rect.half)
        assert float(obstacle_penalty(p, geom)) >= geom.w_obs * (geom.margin + depth)

    def test_penalty_smooth_at_boundary(self):
        geom = BugTrapGeometry()
        f = lambda p: obstacle_penalty(p, geom)
        rect = geom.rects[1]
        edge = np.array([rect.center[0], rect.center[1] - rect.half[1]])  # on a face
        inside = np.array(rect.center) + [0.05, 0.03]  # off-center: clear of the |.| kink
        for p in (edge, edge + [0.3, 0.0], inside):
            assert check_gradient(f, p, 1e-6) <= 1e-6

    def test_costs_nonnegative(self):
        geom = BugTrapGeometry()
        ocp = bugtrap_ocp(geom)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-5, 5, 3)
            u = rng.uniform(-2, 2, 2)
            assert float(ocp.running_cost(x, u)) >= 0.0
            assert float(ocp.terminal_cost(x)) >= 0.0

    def test_trap_bounding_box_contains_walls(self):
        geom = BugTrapGeometry()
        box = trap_bounding_box(geom, inflate=0.5)
        assert box[0, 0] < -1.2 and box[0, 1] > 1.1
        assert np.asarray(geom.goal)[0] < box[0, 0]  # goal lies outside


def per_rectangle_penalty(p, geom):
    """The penalty summed one rectangle at a time, as the vectorised pass must reproduce."""
    total = 0.0
    for rect in geom.rects:
        sd = rect_signed_distance(p, rect)
        total = total + ad.softplus((geom.margin - sd) / geom.smooth_len) * geom.smooth_len
    return geom.w_obs * total


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestObstaclePenaltyVectorised:
    geom = BugTrapGeometry()

    def points(self, lead):
        rng = np.random.default_rng(11)
        p = rng.uniform(-2.0, 2.0, lead + (2,))
        # centres (|.| kink), faces, corners and the far field
        special = [r.center for r in self.geom.rects]
        special += [(r.center[0] + r.half[0], r.center[1]) for r in self.geom.rects]
        special += [(r.center[0] - r.half[0], r.center[1] + r.half[1]) for r in self.geom.rects]
        special += [(50.0, -50.0)]
        flat = p.reshape(-1, 2)
        flat[: len(special)] = special
        return p

    def test_single_point(self):
        for p in self.points((12,)):
            assert same_bits(obstacle_penalty(p, self.geom), per_rectangle_penalty(p, self.geom))

    def test_batch(self):
        p = self.points((10, 60))
        assert same_bits(obstacle_penalty(p, self.geom), per_rectangle_penalty(p, self.geom))

    def test_stage_seeded_dual_batch(self):
        # tangents as the transcribed running cost seeds them: d = nx + nu per stage
        xs = np.concatenate([self.points((10, 60)), np.full((10, 60, 1), 0.4)], axis=-1)
        eps = np.zeros((5,) + xs.shape)
        for j in range(3):
            eps[j, ..., j] = 1.0
        p = ad.Dual(xs, eps)[..., :2]
        new = obstacle_penalty(p, self.geom)
        ref = per_rectangle_penalty(p, self.geom)
        assert same_bits(new.val, ref.val)
        assert same_bits(new.eps, ref.eps)
        assert new.eps.shape == (5, 10, 60)


class TestToyKkt:
    def test_cost_and_constraint(self):
        nlp = toy_kkt_problem()
        x = np.array([0.5, 0.5])
        assert float(nlp.cost(x)) == pytest.approx(0.25)
        assert float(nlp.constraints(x)[0]) == pytest.approx(0.0)

    def test_kkt_stationarity(self):
        nlp = toy_kkt_problem()
        x = np.array([0.5, 0.5])
        g = nlp.cost_gradient(x) + nlp.jacobian(x).T @ np.array([-0.5])
        assert np.allclose(g, 0.0, atol=1e-15)


class TestRegistry:
    def test_known_names(self):
        for name in ("pendulum", "bugtrap", "toy_kkt"):
            bundle = get_problem(name)
            assert bundle.name == name
            x0 = bundle.guess(np.random.default_rng(0))
            assert x0.shape == (bundle.nlp.n,)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_problem("nosuch")
