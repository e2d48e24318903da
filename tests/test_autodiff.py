import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import langopt.autodiff as ad
from langopt.autodiff import (
    Dual,
    Exact,
    FiniteDifference,
    NonFiniteValueError,
    Smoothed,
    check_gradient,
    gradient,
    jacobian,
)

finite_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def _grid(x):
    return x.reshape((2, 3))


# affine maps of x in R^6 that move the value axes: each is exact under forward mode
LINEAR_CASES = {
    "getitem_ellipsis_none_int": lambda x: _grid(x)[..., None, 1],
    "getitem_int_none": lambda x: _grid(x)[1, None],
    "getitem_none_ellipsis": lambda x: _grid(x)[None, ..., 2],
    "getitem_split_advanced": lambda x: x.reshape((2, 3, 1))[[1, 0], :, [0, 0]],
    "getitem_mask": lambda x: _grid(x)[np.array([[True, False, True], [False, True, True]])],
    "sum_axis0": lambda x: ad.asum(_grid(x), axis=0),
    "sum_axis1": lambda x: ad.asum(_grid(x), axis=1),
    "sum_axis_neg1": lambda x: ad.asum(_grid(x), axis=-1),
    "sum_axis_neg2": lambda x: ad.asum(_grid(x), axis=-2),
    "sum_all": lambda x: ad.asum(_grid(x)) * np.ones(1),
    "reshape": lambda x: _grid(x).reshape((3, 2))[2] - _grid(x).reshape((3, 1, 2))[0, 0],
    "stack_axis0": lambda x: ad.stack([_grid(x)[0], _grid(x)[1], np.ones(3)], axis=0),
    "stack_axis1": lambda x: ad.stack([_grid(x), 2.0 * _grid(x)], axis=1),
    "stack_axis_neg1": lambda x: ad.stack([_grid(x), np.zeros((2, 3))], axis=-1),
    "stack_axis_neg2": lambda x: ad.stack([_grid(x)[:, 0], _grid(x)[:, 2]], axis=-2),
    "concat_axis0": lambda x: ad.concat([_grid(x), np.ones((1, 3)), _grid(x)[:1]], axis=0),
    "concat_axis1": lambda x: ad.concat([_grid(x)[:, 1:], _grid(x)], axis=1),
    "concat_axis_neg2": lambda x: ad.concat([_grid(x)[1:], _grid(x)], axis=-2),
    "max_const_second": lambda x: ad.maximum(_grid(x), 0.5),
    "max_const_first": lambda x: ad.maximum(0.5, _grid(x)),
    "min_const_first": lambda x: ad.minimum(0.5, _grid(x)),
    "where_const_branch": lambda x: ad.where(np.array([True, False, True]), _grid(x), -1.0),
    "where_const_broadcast": lambda x: ad.where(np.eye(2, 3, dtype=bool)[:, None], 2.0, _grid(x)[0]),
    "where_wide_mask": lambda x: ad.where(np.eye(2, 3, dtype=bool), x[3:], 0.25),
}

NONLINEAR_CASES = {
    "indexed_products": (
        lambda x: ad.asum(_grid(x)[..., None, 1:] * x[..., 3:5], axis=-1) / ad.exp(x[..., 5]),
        np.linspace(-0.7, 0.8, 6),
    ),
    "constant_broadcasts_dual": (
        lambda x: ad.sqrt(np.ones((4, 1)) + x * x) - np.arange(4.0)[:, None] / (1.0 + x[..., 0]),
        np.array([0.2, -0.4, 0.9]),
    ),
}


class TestDualArithmetic:
    @given(a=finite_floats, b=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_product_rule(self, a, b):
        x = Dual(np.array([a, b]), np.eye(2))
        y = x[0] * x[1]
        assert np.allclose(y.eps, [b, a])

    def test_quotient_rule(self):
        x = Dual(np.array([6.0, 3.0]), np.eye(2))
        y = x[0] / x[1]
        assert np.isclose(y.val, 2.0)
        assert np.allclose(y.eps, [1 / 3.0, -6.0 / 9.0])

    def test_chain_through_transcendentals(self):
        x = Dual(np.array([0.7]), np.eye(1))
        y = ad.sin(x[0]) * ad.exp(x[0])
        expected = np.cos(0.7) * np.exp(0.7) + np.sin(0.7) * np.exp(0.7)
        assert np.isclose(y.eps[0], expected)

    def test_reflected_ops(self):
        x = Dual(np.array([2.0]), np.eye(1))[0]
        assert np.isclose((3.0 - x).eps[0], -1.0)
        assert np.isclose((3.0 / x).eps[0], -0.75)
        assert np.isclose((3.0 * x).eps[0], 3.0)

    def test_stack_and_sum(self):
        x = ad.seed(np.array([1.0, 2.0]))
        y = ad.stack([x[..., 0] * 2.0, x[..., 1] ** 2.0], axis=-1)
        s = ad.asum(y, axis=-1)
        assert np.allclose(s.eps, [2.0, 4.0])

    def test_softplus_far_tails(self):
        x = np.array([-40.0, 40.0, -0.0])
        g = gradient(lambda z: ad.asum(ad.softplus(z), axis=-1), x, Exact())
        e = np.exp(-40.0)
        assert np.array_equal(g, [e / (1.0 + e), 1.0 / (1.0 + e), 0.5])
        fd = gradient(lambda z: np.sum(np.logaddexp(0.0, z)), x, FiniteDifference())
        assert np.allclose(g, fd, atol=1e-9)

    @pytest.mark.parametrize("axis", [0, 1, -1, -2, None])
    def test_sum_tangent_bits_match_tangent_last_sum(self, axis):
        # long axes and mixed magnitudes, where summation order shows in the bits
        rng = np.random.default_rng(4)
        eps = rng.standard_normal((3, 17, 11)) * 10.0 ** rng.uniform(-8, 8, (3, 17, 11))
        y = Dual(np.ones((17, 11)), eps).sum(axis=axis)
        last = np.ascontiguousarray(np.moveaxis(eps, 0, -1))  # (17, 11, 3)
        ref = last.reshape(-1, 3).sum(axis=0) if axis is None else last.sum(axis=axis % 2)
        assert np.moveaxis(y.eps, 0, -1).tobytes() == ref.tobytes()

    def test_constructor_broadcasts_tangents(self):
        x = Dual(np.zeros((2, 3)), np.array([1.0, -1.0]))
        assert x.eps.shape == (2, 2, 3)
        assert np.array_equal(x.eps[1], -np.ones((2, 3)))
        assert x.tangents == 2

    def test_softplus_matches_fd(self):
        err = check_gradient(lambda x: ad.asum(ad.softplus(x), axis=-1) if isinstance(x, Dual) else np.sum(np.logaddexp(0, x)), np.array([-3.0, 0.0, 2.0]))
        assert err < 1e-8


class TestGradient:
    def test_square_exact(self):
        g = gradient(lambda x: x[..., 0] ** 2.0, np.array([3.0]), Exact())
        assert np.isclose(g[0], 6.0)

    def test_constant_all_methods(self):
        f = lambda x: 7.0 if not isinstance(x, Dual) else ad.constant(7.0, x.tangents)[()] * 1.0
        x = np.array([1.0, -2.0])
        const = lambda x: (x[..., 0] - x[..., 0]) + 7.0
        for method in (Exact(), FiniteDifference(), Smoothed(samples=4, seed=1)):
            g = gradient(const, x, method)
            assert np.allclose(g, 0.0)  # Smoothed: exact zero by antithetic cancellation

    def test_bilinear_fd(self):
        g = gradient(
            lambda x: x[..., 0] * x[..., 1],
            np.array([2.0, 5.0]),
            FiniteDifference(step=1e-5),
        )
        assert np.allclose(g, [5.0, 2.0], atol=1e-8)

    def test_smoothed_per_draw_projection(self):
        # for linear f each antithetic pair contributes (a.e) e exactly
        a = np.array([1.5, -2.0, 0.5])
        f = lambda x: x @ a
        rng = np.random.default_rng(7)
        e = rng.standard_normal(3)
        method = Smoothed(samples=2, stddev=0.1, seed=7)
        g = gradient(f, np.zeros(3), method)
        rng2 = np.random.default_rng(7)
        e1, e2 = rng2.standard_normal(3), rng2.standard_normal(3)
        expected = 0.5 * ((a @ e1) * e1 + (a @ e2) * e2)
        assert np.allclose(g, expected, atol=1e-12)

    def test_smoothed_unbiased_for_linear(self):
        a = np.array([1.0, -3.0])
        g = gradient(lambda x: x @ a, np.zeros(2), Smoothed(samples=8192, stddev=0.1, seed=0))
        assert np.allclose(g, a, atol=0.2)

    def test_nonfinite_reported(self):
        with pytest.raises(NonFiniteValueError):
            gradient(lambda x: np.log(x[..., 0]) if not isinstance(x, Dual) else ad.log(x[..., 0]), np.array([-1.0]), FiniteDifference())

    def test_method_validation(self):
        with pytest.raises(ValueError):
            FiniteDifference(step=0.0)
        with pytest.raises(ValueError):
            Smoothed(samples=1)
        with pytest.raises(ValueError):
            Smoothed(stddev=0.0)


class TestJacobian:
    def test_linear_map_exact(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        J = jacobian(lambda x: A @ x if not isinstance(x, Dual) else ad.stack([ad.asum(x * A[i], axis=-1) for i in range(3)], axis=-1), np.array([1.0, -1.0]), Exact())
        assert np.allclose(J, A)

    def test_identity(self):
        J = jacobian(lambda x: x, np.array([1.0, 2.0, 3.0]), Exact())
        assert np.allclose(J, np.eye(3))

    def test_fd_matches_exact(self):
        f = lambda x: ad.stack([x[..., 0] * x[..., 1], ad.sin(x[..., 0])], axis=-1)
        x = np.array([0.3, -1.2])
        assert np.allclose(jacobian(f, x, Exact()), jacobian(f, x, FiniteDifference()), atol=1e-8)

    @pytest.mark.parametrize("name", sorted(NONLINEAR_CASES))
    def test_layout_fd_matches_exact(self, name):
        f, x = NONLINEAR_CASES[name]
        J = jacobian(f, x, Exact())
        assert J.shape == np.shape(ad.value(f(x))) + x.shape
        assert np.allclose(J, jacobian(f, x, FiniteDifference()), atol=1e-8)

    @pytest.mark.parametrize("name", sorted(LINEAR_CASES))
    def test_linear_layout_exact(self, name):
        # an affine map's Jacobian is the map's change along each unit vector, exactly
        f = LINEAR_CASES[name]
        x = np.linspace(-0.9, 1.3, 6)  # clear of the 0.5 kinks
        J = jacobian(f, x, Exact())
        cols = np.stack([f(e) - f(0.0 * e) for e in np.eye(6)], axis=-1)
        if name.startswith(("max", "min", "where")):  # piecewise: pick each branch at x
            cols = np.stack([(f(x + 1e-3 * e) - f(x - 1e-3 * e)) / 2e-3 for e in np.eye(6)], axis=-1)
            cols = np.round(cols, 9)
        assert J.shape == cols.shape
        assert np.array_equal(J, cols)

    def test_batched_shapes_are_tangent_last(self):
        f = lambda z: ad.stack([z[..., 0] * z[..., 1], ad.sin(z[..., 2])], axis=-1)
        g = lambda z: ad.asum(z * z, axis=-1)
        X = np.random.default_rng(3).uniform(-1, 1, (4, 5, 3))
        J = jacobian(f, X, Exact())
        G = gradient(g, X, Exact())
        assert J.shape == (4, 5, 2, 3) and G.shape == (4, 5, 3)
        assert J.flags.c_contiguous and G.flags.c_contiguous
        for i in np.ndindex(4, 5):
            assert np.array_equal(J[i], jacobian(f, X[i], Exact()))
            assert np.array_equal(G[i], gradient(g, X[i], Exact()))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_jvp_matches_directional_difference(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 3)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        f = lambda z: ad.stack([ad.sin(z[..., 0]) * z[..., 1], z[..., 2] ** 2.0], axis=-1)
        J = jacobian(f, x, Exact())
        d = 1e-6
        fd = (ad.value(f(x + d * v)) - ad.value(f(x - d * v))) / (2 * d)
        assert np.allclose(J @ v, fd, atol=1e-5)


class TestCheckGradient:
    def test_quadratic(self):
        f = lambda x: ad.asum(x * x, axis=-1)
        assert check_gradient(f, np.array([1.0, -2.0, 0.5])) <= 1e-9

    def test_sin(self):
        f = lambda x: ad.sin(x[..., 0])
        assert check_gradient(f, np.array([0.7])) <= 1e-8

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            check_gradient(lambda x: x[..., 0], np.zeros(1), delta=0.0)
