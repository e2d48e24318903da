import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langopt.autodiff as ad
from langopt import Layout, NlpProblem, OcpDefinition, join, rollout, solve_batch, split, transcribe
from langopt.problems import (
    BugTrapGeometry,
    bugtrap_ocp,
    get_problem,
    obstacle_penalty,
    pendulum_ocp,
    unicycle_dynamics,
)


def scalar_ocp(K=1, x_init=0.0):
    """f(x, u) = x + u with trivial costs, for hand-checkable transcription."""
    return OcpDefinition(
        K=K,
        nx=1,
        nu=1,
        dynamics=lambda x, u: x + u,
        running_cost=lambda x, u: ad.asum(u**2.0, axis=-1),
        terminal_cost=lambda x: ad.asum(x**2.0, axis=-1),
        x_init=np.array([x_init]),
    )


class TestPackUnpack:
    """The flat layout: ``join`` packs a trajectory, ``split`` unpacks it."""

    def test_layout_order(self):
        z = join(np.array([[3.0]]), np.array([[1.0], [2.0]]), Layout(1, 1, 1))
        assert np.array_equal(z, [3.0, 1.0, 2.0])

    def test_unpack_inverse(self):
        U, X = split(np.array([3.0, 1.0, 2.0]), Layout(1, 1, 1))
        assert np.array_equal(U, [[3.0]])
        assert np.array_equal(X, [[1.0], [2.0]])

    def test_zero_controls_rejected(self):
        with pytest.raises(ValueError, match="K must be at least 1"):
            Layout(0, 1, 1)

    def test_wrong_length(self):
        layout = Layout(1, 3, 2)
        X = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"\(2, 1\) and \(2, 3\)"):
            join(np.zeros((2, 1)), X, layout)  # as many entries as (1, 2), the wrong shape
        with pytest.raises(ValueError, match="X of shape"):
            join(np.zeros((1, 2)), np.zeros((3, 3)), layout)
        with pytest.raises(ValueError):
            split(np.zeros(layout.n + 1), layout)

    @given(
        K=st.integers(1, 5),
        nx=st.integers(1, 3),
        nu=st.integers(1, 3),
        batch=st.sampled_from([(), (2,), (2, 3)]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, K, nx, nu, batch, seed):
        rng = np.random.default_rng(seed)
        layout = Layout(K, nx, nu)
        U = rng.standard_normal(batch + (K, nu))
        X = rng.standard_normal(batch + (K + 1, nx))
        z = join(U, X, layout)
        assert z.shape == batch + (layout.n,)
        U2, X2 = split(z, layout)
        assert np.array_equal(U, U2)
        assert np.array_equal(X, X2)


class TestTranscribe:
    def test_dimensions_pendulum(self):
        ocp = pendulum_ocp()
        # spot-check a small horizon against n = K*nu + (K+1)*nx, m = (K+1)*nx
        small = OcpDefinition(
            K=2,
            nx=2,
            nu=1,
            dynamics=ocp.dynamics,
            running_cost=ocp.running_cost,
            terminal_cost=ocp.terminal_cost,
            x_init=ocp.x_init,
        )
        nlp = transcribe(small)
        assert (nlp.n, nlp.m) == (8, 6)

    def test_hand_computed_residual(self):
        nlp = transcribe(scalar_ocp())
        # point (u0=1, x0=0, x1=2): defect x1 - (x0+u0) = 1, then x0 - 0 = 0
        h = nlp.constraints(np.array([1.0, 0.0, 2.0]))
        assert np.allclose(h, [1.0, 0.0])

    def test_constraint_ordering(self):
        nlp = transcribe(scalar_ocp(K=2, x_init=5.0))
        # all-zero point: defects are -f(0,0) = 0, init block is 0 - 5
        h = nlp.constraints(np.zeros(nlp.n))
        assert np.allclose(h, [0.0, 0.0, -5.0])

    def test_cost_preserved(self):
        ocp = pendulum_ocp()
        nlp = transcribe(ocp)
        rng = np.random.default_rng(1)
        U = rng.uniform(-1, 1, (ocp.K, 1))
        X = rng.standard_normal((ocp.K + 1, 2))
        direct = sum(
            float(ocp.running_cost(X[k], U[k])) for k in range(ocp.K)
        ) + float(ocp.terminal_cost(X[-1]))
        assert np.isclose(float(nlp.cost(join(U, X, Layout(ocp.K, 2, 1)))), direct, rtol=1e-14)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_constant_terminal_cost(self, batch):
        ocp = dataclasses.replace(scalar_ocp(K=2), terminal_cost=lambda x: 0.0)  # no x in it
        nlp = transcribe(ocp)
        z = np.random.default_rng(0).standard_normal(batch + (nlp.n,))
        c, g = nlp.cost_and_gradient(z)
        assert np.array_equal(c, ad.value(nlp.cost(z)))
        assert np.allclose(g, ad.gradient(nlp.cost, z), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_constant_running_cost_counts_every_stage(self, batch):
        ocp = dataclasses.replace(scalar_ocp(K=2), running_cost=lambda x, u: 1.0)
        nlp = transcribe(ocp)
        z = np.random.default_rng(1).standard_normal(batch + (nlp.n,))
        terminal = ad.value(ocp.terminal_cost(z[..., -1:]))
        assert np.array_equal(ad.value(nlp.cost(z)), 2.0 + terminal)
        c, g = nlp.cost_and_gradient(z)
        assert np.array_equal(c, ad.value(nlp.cost(z)))
        assert np.allclose(g, ad.gradient(nlp.cost, z), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_constant_dynamics(self, batch):
        ocp = dataclasses.replace(scalar_ocp(K=2), dynamics=lambda x, u: np.zeros(np.shape(ad.value(x))))
        nlp = transcribe(ocp)  # no dynamics oracle: the dual pass meets a plain array
        rng = np.random.default_rng(2)
        z, w = rng.standard_normal(batch + (nlp.n,)), rng.standard_normal(batch + (nlp.m,))
        h, vjp = nlp.constraints_with_vjp(z)
        assert np.array_equal(h, ad.value(nlp.constraints(z)))
        J = ad.jacobian(nlp.constraints, z)
        assert np.array_equal(vjp(w), np.einsum("...ij,...i->...j", J, w))

    def test_running_cost_of_wrong_shape_rejected(self):
        ocp = dataclasses.replace(scalar_ocp(K=2), running_cost=lambda x, u: x * u)  # (K, 1)
        nlp = transcribe(ocp)
        z = np.zeros(nlp.n)
        for oracle in (nlp.cost, nlp.cost_and_gradient):
            with pytest.raises(ValueError, match="running_cost"):
                oracle(z)

    def test_bounds_replicated(self):
        ocp = pendulum_ocp()
        nlp = transcribe(ocp)
        assert np.all(nlp.lower[: ocp.K] == -1.0)
        assert np.all(nlp.upper[: ocp.K] == 1.0)
        assert np.all(np.isinf(nlp.lower[ocp.K :]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OcpDefinition(
                K=1,
                nx=2,
                nu=1,
                dynamics=lambda x, u: x,
                running_cost=lambda x, u: 0.0,
                terminal_cost=lambda x: 0.0,
                x_init=np.zeros(3),
            )

    def test_bound_of_the_wrong_shape_names_the_field(self):
        with pytest.raises(ValueError, match=re.escape("u_lower has shape (3,), expected (1,)")):
            dataclasses.replace(pendulum_ocp(), u_lower=np.zeros(3))
        with pytest.raises(ValueError, match=re.escape("upper has shape (2,), expected (3,)")):
            NlpProblem(n=3, m=0, cost=lambda x: 0.0, constraints=lambda x: x[..., :0], upper=np.ones(2))

    def test_nan_bound_names_the_field_and_the_index(self):
        # accepted before, and every chain of a batch then failed with a non-finite drift
        with pytest.raises(ValueError, match=re.escape("u_upper[0] is NaN")):
            dataclasses.replace(pendulum_ocp(), u_upper=np.array([np.nan]))
        with pytest.raises(ValueError, match=re.escape("x_lower[1] is NaN")):
            dataclasses.replace(pendulum_ocp(), x_lower=np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match=re.escape("lower[2] is NaN")):
            NlpProblem(n=3, m=0, cost=lambda x: 0.0, constraints=lambda x: x[..., :0], lower=[0.0, 0.0, np.nan])

    @pytest.mark.parametrize(
        "field, lower, upper, index",
        [
            ("u", [1.0], [1.0], 0),
            ("u", [2.0], [1.0], 0),
            ("x", [0.0, 3.0], [1.0, 3.0], 1),
            ("x", [0.0, np.inf], [1.0, -np.inf], 1),
        ],
    )
    def test_unordered_bounds_name_the_fields_and_the_index(self, field, lower, upper, index):
        # equal finite bounds passed OcpDefinition before, and transcribe then failed unnamed
        msg = (
            f"bounds must satisfy lower < upper: {field}_lower[{index}] = {lower[index]!r} is not below "
            f"{field}_upper[{index}] = {upper[index]!r}"
        )
        with pytest.raises(ValueError, match=re.escape(msg)):
            dataclasses.replace(pendulum_ocp(), **{f"{field}_lower": np.array(lower), f"{field}_upper": np.array(upper)})

    @pytest.mark.parametrize("field", ["u", "x"])
    @pytest.mark.parametrize("side, value", [("lower", np.inf), ("upper", -np.inf)])
    def test_a_pair_of_the_same_infinity_names_the_field(self, field, side, value):
        # accepted before: the coordinate then ran unbounded, as if both bounds were absent
        which = "a lower" if side == "lower" else "an upper"
        index = len(getattr(pendulum_ocp(), f"{field}_lower")) - 1
        pair = np.zeros(index + 1), np.ones(index + 1)
        pair[0][index] = pair[1][index] = value
        msg = f"{field}_{side}[{index}] is {value}; {which} bound is finite or {-value}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            dataclasses.replace(pendulum_ocp(), **{f"{field}_lower": pair[0], f"{field}_upper": pair[1]})

    @pytest.mark.parametrize("side, value", [("lower", np.inf), ("upper", -np.inf)])
    def test_an_nlp_pair_of_the_same_infinity_names_the_field(self, side, value):
        which = "a lower" if side == "lower" else "an upper"
        bounds = {"lower": [0.0, -1.0, value], "upper": [1.0, 1.0, value]}
        with pytest.raises(ValueError, match=re.escape(f"{side}[2] is {value}; {which} bound is finite or {-value}")):
            NlpProblem(n=3, m=0, cost=lambda x: 0.0, constraints=lambda x: x[..., :0], **bounds)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_exact_rollout_zero_defects(self, seed):
        ocp = pendulum_ocp()
        nlp = transcribe(ocp)
        rng = np.random.default_rng(seed)
        U = rng.uniform(-1, 1, (ocp.K, 1))
        z = join(U, rollout(ocp, U), Layout(ocp.K, ocp.nx, ocp.nu))
        assert np.max(np.abs(nlp.constraints(z))) <= 1e-12


@pytest.mark.parametrize("problem", ["pendulum", "bugtrap"])
class TestTranscribedVjp:
    def points(self, problem):
        bundle = get_problem(problem)
        rng = np.random.default_rng(11)
        Z = np.stack([bundle.guess(rng) for _ in range(3)])
        W = rng.standard_normal((3, bundle.nlp.m))
        return bundle.nlp, Z, W

    def test_batch_equals_per_point(self, problem):
        nlp, Z, W = self.points(problem)
        h, vjp = nlp.constraints_with_vjp(Z)
        g = vjp(W)
        for z, w, hi, gi in zip(Z, W, h, g):
            h1, vjp1 = nlp.constraints_with_vjp(z)
            assert h1.tobytes() == hi.tobytes()
            assert vjp1(w).tobytes() == gi.tobytes()

    def test_matches_dense_forward_jacobian(self, problem):
        nlp, Z, W = self.points(problem)
        _, vjp = nlp.constraints_with_vjp(Z)
        g = vjp(W)
        for z, w, gi in zip(Z, W, g):
            ref = ad.jacobian(nlp.constraints, z, ad.Exact()).T @ w
            assert np.max(np.abs(gi - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("batched", [False, True])
    def test_generic_oracles_match(self, problem, batched):
        """Oracles derived from ``cost``/``constraints`` alone, in one dual pass each."""
        nlp, Z, W = self.points(problem)
        z, w = (Z, W) if batched else (Z[0], W[0])
        calls = []

        def constraints(x):
            calls.append(type(x))
            return nlp.constraints(x)

        generic = NlpProblem(nlp.n, nlp.m, nlp.cost, constraints, nlp.lower, nlp.upper)
        h, vjp = generic.constraints_with_vjp(z)
        assert calls == [ad.Dual]
        h_ref, vjp_ref = nlp.constraints_with_vjp(z)
        assert h.shape == h_ref.shape and h.tobytes() == h_ref.tobytes()
        ref = vjp_ref(w)
        assert np.max(np.abs(vjp(w) - ref)) <= 1e-12 * np.max(np.abs(ref))
        c, g = generic.cost_and_gradient(z)
        c_ref, g_ref = nlp.cost_and_gradient(z)
        assert np.allclose(c, c_ref, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


class TestBugTrapOracleBits:
    """The obstacle pass, differentiated along the two positions only, keeps every byte."""

    geom = BugTrapGeometry()

    def five_tangent_nlp(self):
        """The bug trap with its obstacle penalty run on all d = nx + nu stage tangents."""

        def running_cost(x, u):
            return obstacle_penalty(x[..., :2], self.geom) + self.geom.dt * 0.01 * ad.asum(u**2.0, axis=-1)

        # the shipped closed-form oracle is dropped, so the dual pass runs over running_cost
        ocp = dataclasses.replace(bugtrap_ocp(self.geom), running_cost=running_cost, running_cost_and_gradient=None)
        return transcribe(ocp)

    def batch(self, rng, bundle, n):
        """Guesses with positions moved onto the penalty's kinks and far away, and +-0 controls."""
        layout = Layout(bundle.ocp.K, bundle.ocp.nx, bundle.ocp.nu)
        U, X = split(np.stack([bundle.guess(rng) for _ in range(n)]), layout)
        special = [
            (c[0] + sx * h[0], c[1] + sy * h[1])  # centres, faces and corners
            for c, h in ((r.center, r.half) for r in self.geom.rects)
            for sx in (-1, 0, 1)
            for sy in (-1, 0, 1)
        ] + [(50.0, -50.0), (-50.0, 50.0), self.geom.goal]
        special = np.array(special)
        moved = rng.random(X.shape[:-1]) < 0.5
        X[..., :2] = np.where(moved[..., None], special[rng.integers(0, len(special), X.shape[:-1])], X[..., :2])
        U = np.where(rng.random(U.shape) < 0.3, rng.choice([0.0, -0.0], U.shape), U)
        return join(U, X, layout)

    def test_cost_and_gradient_bytes(self):
        bundle, rng = get_problem("bugtrap"), np.random.default_rng(7)
        full = self.five_tangent_nlp()
        for n in (1, 10, 10, 10):
            Z = self.batch(rng, bundle, n)
            for z in (Z, Z[0]):
                c, g = bundle.nlp.cost_and_gradient(z)
                c_ref, g_ref = full.cost_and_gradient(z)
                assert c.tobytes() == c_ref.tobytes()
                assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()


def dual_fallback(ocp):
    """``ocp`` with its three stage oracles left to ``transcribe``'s dual pass."""
    return dataclasses.replace(
        ocp, dynamics_and_jacobian=None, running_cost_and_gradient=None, terminal_cost_and_gradient=None
    )


def special_batch(bundle, rng, lead):
    """Guesses of shape ``lead + (n,)`` with coordinates moved onto the derivatives' special points.

    Controls at +-0; the pendulum's angle at multiples of pi/2 and its rate at
    +-0; the bug trap's positions at rectangle centres, faces and corners, the
    goal and the far field, and its heading at multiples of pi/2.
    """
    ocp = bundle.ocp
    layout = Layout(ocp.K, ocp.nx, ocp.nu)
    U, X = split(np.stack([bundle.guess(rng) for _ in range(int(np.prod(lead)))]).reshape(lead + (-1,)), layout)
    stages = X.shape[:-1]
    U = np.where(rng.random(U.shape) < 0.3, rng.choice([0.0, -0.0], U.shape), U)
    quarter_turns = rng.integers(-4, 5, stages) * (np.pi / 2)
    if ocp.nx == 2:
        X[..., 0] = np.where(rng.random(stages) < 0.4, quarter_turns, X[..., 0])
        X[..., 1] = np.where(rng.random(stages) < 0.2, rng.choice([0.0, -0.0], stages), X[..., 1])
    else:
        geom = BugTrapGeometry()
        special = np.array(
            [
                (c[0] + sx * h[0], c[1] + sy * h[1])
                for c, h in ((r.center, r.half) for r in geom.rects)
                for sx in (-1, 0, 1)
                for sy in (-1, 0, 1)
            ]
            + [(50.0, -50.0), (-50.0, 50.0), (0.0, -0.0), geom.goal]
        )
        moved = rng.random(stages) < 0.5
        X[..., :2] = np.where(moved[..., None], special[rng.integers(0, len(special), stages)], X[..., :2])
        X[..., 2] = np.where(rng.random(stages) < 0.3, quarter_turns, X[..., 2])
    return join(U, X, layout)


def same_or_both_nan(a, b):
    """Equal shapes, NaN at the same places, and the same bytes everywhere else."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def bytes_where_the_dual_pass_holds_a_number(got, ref):
    """Equal shapes, and ``ref``'s bytes wherever ``ref`` is not NaN; ``got`` may hold a number where it is."""
    got, ref = np.asarray(got), np.asarray(ref)
    number = ~np.isnan(ref)
    return got.shape == ref.shape and got[number].tobytes() == ref[number].tobytes()


def assert_same_oracle_bytes(nlp, ref, bundle, rng, lead):
    """``nlp`` and ``ref`` give the same cost, gradient, residual and VJP bytes on special points."""
    for _ in range(3):
        z = special_batch(bundle, rng, lead or (1,)).reshape(lead + (nlp.n,))
        w = rng.standard_normal(lead + (nlp.m,))
        c, g = nlp.cost_and_gradient(z)
        c_ref, g_ref = ref.cost_and_gradient(z)
        assert c.shape == c_ref.shape and c.tobytes() == c_ref.tobytes()
        assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
        h, vjp = nlp.constraints_with_vjp(z)
        h_ref, vjp_ref = ref.constraints_with_vjp(z)
        assert h.shape == h_ref.shape and h.tobytes() == h_ref.tobytes()
        assert vjp(w).tobytes() == vjp_ref(w).tobytes()


@pytest.mark.parametrize("problem", ["pendulum", "bugtrap"])
class TestStageOracles:
    """The paper problems' closed-form stage oracles carry the bytes of ``transcribe``'s dual pass."""

    # the one stage oracle each problem leaves to the dual pass in the mixed test
    dual_one = {"pendulum": "running_cost_and_gradient", "bugtrap": "dynamics_and_jacobian"}

    @pytest.mark.parametrize("lead", [(), (1,), (10,), (64,)])
    def test_nlp_oracle_bytes(self, problem, lead):
        bundle = get_problem(problem)
        dual = transcribe(dual_fallback(bundle.ocp))
        assert_same_oracle_bytes(bundle.nlp, dual, bundle, np.random.default_rng(3), lead)

    @pytest.mark.parametrize("lead", [(), (10,)])
    def test_one_dual_oracle_mixes_with_the_closed_forms(self, problem, lead):
        bundle = get_problem(problem)
        mixed = transcribe(dataclasses.replace(bundle.ocp, **{self.dual_one[problem]: None}))
        dual = transcribe(dual_fallback(bundle.ocp))
        assert_same_oracle_bytes(mixed, dual, bundle, np.random.default_rng(4), lead)

    @pytest.mark.parametrize("lead", [(), (1,), (10,), (64,)])
    def test_dynamics_value_has_the_bytes_of_the_callable(self, problem, lead):
        ocp = get_problem(problem).ocp
        rng = np.random.default_rng(6)
        values = np.array([0.0, -0.0, np.pi / 2, np.nan, np.inf, -np.inf])

        def stage(size):
            special = rng.choice(values, lead + (size,))
            return np.where(rng.random(lead + (size,)) < 0.5, special, rng.uniform(-3, 3, lead + (size,)))

        for _ in range(5):
            x, u = stage(ocp.nx), stage(ocp.nu)
            with np.errstate(invalid="ignore", over="ignore"):
                f, _ = ocp.dynamics_and_jacobian(x, u)
                ref = ocp.dynamics(x, u)
            assert same_or_both_nan(f, ref)

    def test_stage_oracles_equal_the_dual_pass_at_non_finite_inputs(self, problem):
        # the benchmark's stage shapes too, with +-1e308 so that products overflow and +-5e-324
        # so that they underflow to a signed zero. Each value has the dual pass's bytes, NaN
        # included; each derivative entry has them wherever the dual pass's entry is not NaN
        ocp = get_problem(problem).ocp
        rng = np.random.default_rng(5)
        values = np.array([0.0, -0.0, 1.5, -2.0, np.pi / 2, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324])
        d = ocp.nx + ocp.nu
        nan_entries = 0
        for lead in [(40,), (64, 50), (10, 60)]:
            x, u = (
                np.where(rng.random(lead + (k,)) < 0.5, rng.choice(values, lead + (k,)), rng.uniform(-3, 3, lead + (k,)))
                for k in (ocp.nx, ocp.nu)
            )
            seeds = [np.zeros((d,) + a.shape) for a in (x, u)]
            for j in range(d):
                (seeds[0][j, ..., j] if j < ocp.nx else seeds[1][j, ..., j - ocp.nx]).fill(1.0)
            xd, ud = ad.Dual(x, seeds[0]), ad.Dual(u, seeds[1])
            with np.errstate(invalid="ignore", over="ignore"):
                f = ocp.dynamics(xd, ud)
                l = ocp.running_cost(xd, ud)
                phi = ocp.terminal_cost(ad.seed(x))
                pairs = [
                    (ocp.dynamics_and_jacobian(x, u), (f.val, np.moveaxis(f.eps, -1, 0))),  # (nx, d) + lead
                    (ocp.running_cost_and_gradient(x, u), (l.val, l.eps)),
                    (ocp.terminal_cost_and_gradient(x), (phi.val, phi.eps)),
                ]
            for (value, deriv), (ref_value, ref_deriv) in pairs:
                assert same_or_both_nan(value, ref_value)
                assert bytes_where_the_dual_pass_holds_a_number(deriv, ref_deriv)
                nan_entries += np.isnan(ref_deriv).sum()
        assert nan_entries > 0  # the inputs reach the entries where the contract lets the bytes differ

    def short_schedule(self, bundle, iterations=60):
        return [
            dataclasses.replace(p, iterations=iterations, hold=min(p.hold, iterations // 3), snapshot_stride=7)
            for p in bundle.phases
        ]

    def test_two_phase_batch_bytes(self, problem):
        # at the benchmark's batch sizes: 64 pendulum chains, 10 bug-trap chains
        bundle = get_problem(problem)
        dual = transcribe(dual_fallback(bundle.ocp))
        rng = np.random.default_rng(9)
        x0s = [bundle.guess(rng) for _ in range({"pendulum": 64, "bugtrap": 10}[problem])]
        phases = self.short_schedule(bundle, iterations=30)
        for a, b in zip(solve_batch(bundle.nlp, x0s, phases), solve_batch(dual, x0s, phases)):
            assert a.success and b.success
            for name in ("cost", "hsq", "energy", "sigma", "snapshot_iters", "snapshots"):
                assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes()
            assert a.xbar.tobytes() == b.xbar.tobytes() and a.lam.tobytes() == b.lam.tobytes()
            assert (a.hsq, a.cost) == (b.hsq, b.cost)

    def test_nan_state_fails_the_same_chain_at_the_same_iteration(self, problem):
        # one bad entry per failing chain: a NaN, -inf or 1e308 state, an inf or 1e308 control.
        # Where the dual pass holds NaN the closed forms may hold a number, and the chain still
        # fails at the same iteration; only the failing row's energy may read inf for nan
        bundle = get_problem(problem)
        dual = transcribe(dual_fallback(bundle.ocp))
        rng = np.random.default_rng(10)
        x0s = [bundle.guess(rng) for _ in range(8)]
        n_u = bundle.ocp.K * bundle.ocp.nu  # controls first, then the states
        bad = {1: (3, np.inf), 2: (-1, np.nan), 4: (n_u - 1, 1e308), 5: (n_u + 7, -np.inf), 6: (n_u + 20, 1e308)}
        for j, (i, value) in bad.items():
            x0s[j][i] = value
        phases = [dataclasses.replace(p, barrier_weight=0.0) for p in self.short_schedule(bundle)]
        got, ref = solve_batch(bundle.nlp, x0s, phases), solve_batch(dual, x0s, phases)
        assert [s.success for s in got] == [s.success for s in ref] == [j not in bad for j in range(8)]
        for a, b in zip(got, ref):
            assert a.message == b.message and len(a.trace) == len(b.trace)
            assert a.xbar.tobytes() == b.xbar.tobytes() and a.lam.tobytes() == b.lam.tobytes()
            assert a.trace.snapshots.tobytes() == b.trace.snapshots.tobytes()  # all taken before a step
            rows = len(a.trace) - (not a.success)  # the rows before a failed chain's failing row
            for name in ("cost", "hsq", "energy"):
                assert getattr(a.trace, name)[:rows].tobytes() == getattr(b.trace, name)[:rows].tobytes()
            if not a.success:
                assert same_or_both_nan(a.trace.cost[-1], b.trace.cost[-1])
                assert same_or_both_nan(a.trace.hsq[-1], b.trace.hsq[-1])
                assert not np.isfinite(a.trace.energy[-1]) and not np.isfinite(b.trace.energy[-1])


class TestStageOracleShapes:
    """``transcribe`` rejects a stage oracle whose output breaks the tangent-major contract."""

    def test_tangent_last_jacobian_rejected(self):
        ocp = pendulum_ocp()

        def tangent_last(x, u):
            f, F = ocp.dynamics_and_jacobian(x, u)
            return f, np.moveaxis(F, (0, 1), (-2, -1))  # (..., nx, d): the old layout

        nlp = transcribe(dataclasses.replace(ocp, dynamics_and_jacobian=tangent_last))
        z = np.zeros((4, nlp.n))
        msg = "dynamics_and_jacobian returned F of shape (4, 50, 2, 3), expected (2, 3, 4, 50)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            nlp.constraints_with_vjp(z)

    def test_running_cost_gradient_of_wrong_shape_rejected(self):
        ocp = pendulum_ocp()

        def short_gradient(x, u):
            l, g = ocp.running_cost_and_gradient(x, u)
            return l, g[1:]  # the first state's tangent left out

        nlp = transcribe(dataclasses.replace(ocp, running_cost_and_gradient=short_gradient))
        msg = "running_cost_and_gradient returned g of shape (2, 50), expected (3, 50)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            nlp.cost_and_gradient(np.zeros(nlp.n))

    def test_terminal_value_of_wrong_shape_rejected(self):
        ocp = pendulum_ocp()
        nlp = transcribe(dataclasses.replace(ocp, terminal_cost_and_gradient=lambda x: (0.0, np.zeros((2,) + x.shape[:-1]))))
        msg = "terminal_cost_and_gradient returned phi of shape (), expected (3,)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            nlp.cost_and_gradient(np.zeros((3, nlp.n)))


def test_dense_jacobian_from_an_unbatched_vjp():
    """``vjp(np.eye(m))`` at one point broadcasts the stage Jacobian over the m rows of w."""
    for name in ("pendulum", "bugtrap"):
        bundle = get_problem(name)
        nlp = bundle.nlp
        z = bundle.guess(np.random.default_rng(2))
        w = np.eye(nlp.m)
        J = nlp.constraints_with_vjp(z)[1](w)
        assert J.shape == (nlp.m, nlp.n)
        assert J.tobytes() == nlp.constraints_with_vjp(np.tile(z, (nlp.m, 1)))[1](w).tobytes()


def test_generic_oracles_without_constraints():
    nlp = NlpProblem(n=2, m=0, cost=lambda x: ad.asum(x * x, axis=-1), constraints=lambda x: x[..., :0])
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    h, vjp = nlp.constraints_with_vjp(x)
    assert h.shape == (2, 0)
    assert vjp(np.zeros((2, 0))).tobytes() == np.zeros((2, 2)).tobytes()
    c, g = nlp.cost_and_gradient(x)
    assert np.array_equal(c, [5.0, 9.25]) and np.array_equal(g, 2.0 * x)


class TestRollout:
    def test_pendulum_equilibrium(self):
        ocp = pendulum_ocp()
        X = rollout(ocp, np.zeros((ocp.K, 1)), np.array([np.pi, 0.0]))
        assert np.allclose(X, np.tile([np.pi, 0.0], (ocp.K + 1, 1)), atol=1e-12)

    def test_unicycle_straight_line(self):
        x = unicycle_dynamics(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0]), dt=0.1)
        assert np.allclose(x, [0.1, 0.0, 0.0])

    def test_wrong_control_count(self):
        ocp = pendulum_ocp()
        with pytest.raises(ValueError):
            rollout(ocp, np.zeros((ocp.K + 1, 1)))
