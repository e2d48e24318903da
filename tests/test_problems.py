import numpy as np
import pytest

import langopt.autodiff as ad
from langopt import Layout, join, split
from langopt.autodiff import check_gradient
from langopt.problems import (
    BugTrapGeometry,
    PendulumParams,
    Rect,
    bugtrap_ocp,
    get_problem,
    obstacle_penalty,
    obstacle_value_and_gradient,
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


class TestObstacleClosedForm:
    """The closed-form gradient carries the bytes of the dual pass on ``seed(p)``."""

    geom = BugTrapGeometry()
    # centres (|.| kink at +-0), faces and corners, signed zeros and the far field
    special = np.array(
        [
            (c[0] + sx * h[0], c[1] + sy * h[1])
            for c, h in ((r.center, r.half) for r in geom.rects)
            for sx in (-1, 0, 1)
            for sy in (-1, 0, 1)
        ]
        + [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (50.0, -50.0), (-50.0, 50.0), (1e3, 0.0)]
    )

    def points(self, lead, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(-2.0, 2.0, lead + (2,))
        flat = p.reshape(-1, 2)
        k = min(len(flat), len(self.special))
        flat[:k] = self.special[rng.permutation(len(self.special))[:k]]
        return p

    def check(self, p):
        value, grad = obstacle_value_and_gradient(p, self.geom)
        ref = obstacle_penalty(ad.seed(p), self.geom)
        ref_grad = ref.eps  # tangent-major, (2,) + lead
        assert same_bits(value, ref.val)
        assert grad.shape == ref_grad.shape and np.array_equal(grad, ref_grad)
        nonzero = ref_grad != 0.0
        assert same_bits(grad[nonzero], ref_grad[nonzero])
        assert same_bits(value, obstacle_penalty(p, self.geom))  # the plain value pass too

    @pytest.mark.parametrize("lead", [(), (12,), (10, 60), (64, 60)])
    def test_bytes_of_the_dual_pass(self, lead):
        for seed in range(3):
            self.check(self.points(lead, seed))

    def test_every_special_point_alone(self):
        for p in self.special:
            self.check(p)

    def test_strided_positions(self):
        # the running cost passes x[..., :2] of a stage array: a strided view
        x = np.concatenate([self.points((10, 60), 5), np.full((10, 60, 1), 0.3)], axis=-1)
        self.check(x[..., :2])

    def test_running_cost_bytes(self):
        # the shipped running-cost oracle against the cost's dual pass on the five stage tangents
        geom, ocp = self.geom, bugtrap_ocp(self.geom)
        xs = np.concatenate([self.points((10, 60), 7), np.full((10, 60, 1), -0.2)], axis=-1)
        u = np.random.default_rng(8).uniform(-1.0, 1.0, (10, 60, 2))
        u[:, ::7] = -0.0
        eps_x, eps_u = np.zeros((5, 10, 60, 3)), np.zeros((5, 10, 60, 2))
        for j in range(3):
            eps_x[j, ..., j] = 1.0
        for j in range(2):
            eps_u[3 + j, ..., j] = 1.0
        x = ad.Dual(xs, eps_x)
        ref = obstacle_penalty(x[..., :2], geom) + geom.dt * 0.01 * ad.asum(ad.Dual(u, eps_u) ** 2.0, axis=-1)
        value, grad = ocp.running_cost_and_gradient(xs, u)
        assert same_bits(value, ref.val)
        assert same_bits(grad, ref.eps)
        assert same_bits(ocp.running_cost(xs, u), ref.val)

    @pytest.mark.parametrize("lead", [(10, 60), (64, 50)])
    def test_running_gradient_is_the_obstacle_gradient_plus_the_effort_tangents(self, lead):
        # at non-finite and overflowing inputs too: the closed-form obstacle gradient along the
        # positions, a zero along the other three tangents, then the effort term's dual pass added
        # in that order. The value has every byte of the reference, NaN included; the gradient
        # has its bytes wherever the reference holds a number
        geom, ocp = self.geom, bugtrap_ocp(self.geom)
        rng = np.random.default_rng(13)
        values = np.array([0.0, -0.0, 1.2, -1.0, np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308])
        xs, u = (
            np.where(rng.random(lead + (k,)) < 0.4, rng.choice(values, lead + (k,)), rng.uniform(-2, 2, lead + (k,)))
            for k in (3, 2)
        )
        eps_u = np.zeros((5,) + u.shape)
        for j in range(2):
            eps_u[3 + j, ..., j] = 1.0
        with np.errstate(invalid="ignore", over="ignore"):
            value, grad = ocp.running_cost_and_gradient(xs, u)
            obs, dobs = obstacle_value_and_gradient(xs[..., :2], geom)
            effort = geom.dt * 0.01 * ad.asum(ad.Dual(u, eps_u) ** 2.0, axis=-1)
            zero = np.zeros(lead)
            ref = np.stack([dobs[0], dobs[1], zero, zero, zero]) + effort.eps
            ref_value = obs + effort.val
        number = ~np.isnan(ref)
        assert not number.all() and grad.shape == ref.shape and same_bits(grad[number], ref[number])
        assert same_bits(value, ref_value)


class TestObstacleNaN:
    """A NaN position reads NaN in every form of the penalty, as ``np.maximum`` keeps it."""

    geom = BugTrapGeometry()

    @pytest.mark.parametrize("p", [(np.nan, 0.0), (0.0, np.nan), (-1.0, np.nan), (np.nan, np.nan)])
    def test_every_reading_is_nan(self, p):
        p = np.array(p)
        with np.errstate(invalid="ignore"):
            plain = obstacle_penalty(p, self.geom)
            dual = obstacle_penalty(ad.seed(p), self.geom)
            value, grad = obstacle_value_and_gradient(p, self.geom)
        assert np.isnan(plain) and np.isnan(dual.val) and np.isnan(value)
        assert np.all(np.isnan(dual.eps)) and np.all(np.isnan(grad))

    @pytest.mark.parametrize("lead", [(64, 50), (10, 60)])
    def test_closed_form_at_non_finite_and_overflowing_points(self, lead):
        # the benchmark's stage shapes, with +-1e308 so that squares and doublings overflow. The
        # value is NaN exactly where the dual pass's is; every entry where the dual pass holds a
        # number has its value, and its bytes unless it is a zero, whose sign may differ
        rng = np.random.default_rng(12)
        values = np.array([0.0, -0.0, 1.2, -1.0, np.nan, np.inf, -np.inf, 1e308, -1e308])
        p = np.where(rng.random(lead + (2,)) < 0.5, rng.choice(values, lead + (2,)), rng.uniform(-2, 2, lead + (2,)))
        with np.errstate(invalid="ignore", over="ignore"):
            value, grad = obstacle_value_and_gradient(p, self.geom)
            ref = obstacle_penalty(ad.seed(p), self.geom)
        assert np.array_equal(np.isnan(value), np.isnan(ref.val))
        for got, want in ((value, ref.val), (grad, ref.eps)):
            number = ~np.isnan(want)
            assert got.shape == want.shape and np.array_equal(got[number], want[number])
            nonzero = number & (want != 0.0)
            assert same_bits(got[nonzero], want[nonzero])

    def test_bugtrap_cost_of_a_nan_position(self):
        bundle = get_problem("bugtrap")
        layout = Layout(bundle.ocp.K, bundle.ocp.nx, bundle.ocp.nu)
        z = bundle.guess(np.random.default_rng(0))
        U, X = split(z.copy(), layout)
        X[3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            assert np.isfinite(bundle.nlp.cost(z))
            assert np.isnan(bundle.nlp.cost(join(U, X, layout)))


class TestToyKkt:
    def test_cost_and_constraint(self):
        nlp = toy_kkt_problem()
        x = np.array([0.5, 0.5])
        assert float(nlp.cost(x)) == pytest.approx(0.25)
        assert float(nlp.constraints(x)[0]) == pytest.approx(0.0)

    def test_kkt_stationarity(self):
        nlp = toy_kkt_problem()
        x = np.array([0.5, 0.5])
        _, cg = nlp.cost_and_gradient(x)
        _, vjp = nlp.constraints_with_vjp(x)
        g = cg + vjp(np.array([-0.5]))
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

    @pytest.mark.parametrize("name", ["pendulum", "bugtrap", "toy_kkt"])
    def test_guesses_are_the_acceptance_recipe(self, name):
        # the recipe the acceptance tests, `langopt run --seed` and the tools all draw from
        bundle = get_problem(name)
        for seed in (0, 13):
            ref = [bundle.guess(np.random.default_rng([seed + i, 0xA5])) for i in range(4)]
            got = bundle.guesses(4, seed)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]
        assert [x.tobytes() for x in bundle.guesses(2)] == [x.tobytes() for x in bundle.guesses(2, 0)]
        assert bundle.guesses(0, 5) == []

    @pytest.mark.parametrize("n, seed, field", [(-1, 0, "n"), (2.0, 0, "n"), (2, -1, "seed"), (2, True, "seed")])
    def test_guesses_name_a_bad_argument(self, n, seed, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 0"):
            get_problem("toy_kkt").guesses(n, seed)


class TestOracleOutputs:
    @pytest.mark.parametrize("make_ocp", [pendulum_ocp, bugtrap_ocp])
    def test_oracles_return_their_own_gradients(self, make_ocp):
        # a caller that writes into a returned gradient changes no later call, and a later
        # call at other points leaves an earlier call's gradient as it was
        ocp = make_ocp()
        rng = np.random.default_rng(5)
        x, u = rng.standard_normal((4, 6, ocp.nx)), rng.standard_normal((4, 6, ocp.nu))
        x2, u2 = rng.standard_normal(x.shape), rng.standard_normal(u.shape)
        for oracle, args, other in (
            (ocp.running_cost_and_gradient, (x, u), (x2, u2)),
            (ocp.terminal_cost_and_gradient, (x[:, 0],), (x2[:, 0],)),
        ):
            _, g = oracle(*args)
            before = g.tobytes()
            _, g2 = oracle(*other)
            assert g.tobytes() == before and not np.shares_memory(g, g2)
            g[...] = 7.0
            assert oracle(*args)[1].tobytes() == before

