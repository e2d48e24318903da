"""Forward-mode dual numbers plus finite-difference and smoothed gradient estimators.

Model functions (dynamics, costs, constraints) are written against the math
shims in this module (``sin``, ``sqrt``, ``stack``, ...), which dispatch on the
argument type: plain ndarrays go straight to numpy, :class:`Dual` arrays
propagate first-order tangents alongside the values.

Tangents are stored tangent-major: a Dual whose value has shape S carries
``eps`` of shape ``(d,) + S``, so every elementwise rule multiplies a
value-shaped factor into d contiguous blocks. :func:`gradient` and
:func:`jacobian` return the usual tangent-last arrays, ``(..., n)`` and
``(..., m, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


class NonFiniteValueError(ValueError):
    """A probed function value came back NaN or infinite."""


class Dual:
    """Array of first-order dual numbers.

    ``val`` has an arbitrary shape S and ``eps`` has shape ``(d,) + S``:
    ``eps[k]`` is the derivative of ``val`` along tangent direction k.
    Arithmetic follows the usual first-order rules; plain arrays and scalars
    mix in as constants and broadcast against the value axes.
    """

    __slots__ = ("val", "eps")
    __array_ufunc__ = None  # force numpy to defer to our reflected operators

    def __init__(self, val, eps):
        val = np.asarray(val, dtype=float)
        eps = np.asarray(eps, dtype=float)
        if eps.shape[1:] != val.shape:
            eps = np.broadcast_to(_pad(eps, val.ndim), eps.shape[:1] + val.shape)
        self.val = val
        self.eps = eps

    @classmethod
    def _of(cls, val, eps):
        """Unchecked constructor: ``eps`` must already have shape ``(d,) + val.shape``."""
        out = object.__new__(cls)
        out.val = val
        out.eps = eps
        return out

    # -- shape plumbing -------------------------------------------------

    @property
    def shape(self):
        return self.val.shape

    @property
    def ndim(self):
        return self.val.ndim

    @property
    def tangents(self):
        return self.eps.shape[0]

    def reshape(self, shape):
        shape = tuple(shape)
        return Dual._of(self.val.reshape(shape), self.eps.reshape(self.eps.shape[:1] + shape))

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if any(isinstance(i, (list, np.ndarray)) for i in idx):
            # numpy moves split advanced indices to the front: index the tangent-last view
            eidx = idx + (slice(None),) if any(i is Ellipsis for i in idx) else idx
            eps = np.moveaxis(np.moveaxis(self.eps, 0, -1)[eidx], -1, 0)
            return Dual._of(self.val[idx], eps)
        return Dual._of(self.val[idx], self.eps[(slice(None),) + idx])

    def sum(self, axis=None):
        """Sum over ``axis``, or over all elements; tangents accumulate in element order."""
        eps = self.eps
        if axis is None:
            val, eps, axis = self.val.sum(), eps.reshape(eps.shape[0], -1), 0
        else:
            if axis < 0:
                axis = self.val.ndim + axis
            val = self.val.sum(axis=axis)
        # numpy sums a contiguous axis pairwise; adding the slices in order keeps
        # the bits of the tangent-last layout and is faster over short axes
        pre = (slice(None),) * (axis + 1)
        out = np.zeros(eps.shape[: axis + 1] + eps.shape[axis + 2 :])
        for i in range(eps.shape[axis + 1]):
            out += eps[pre + (i,)]
        return Dual._of(val, out)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Dual):
            val = self.val + o.val
            return _result(val, _pad(self.eps, val.ndim) + _pad(o.eps, val.ndim))
        return _result(self.val + o, self.eps)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            val = self.val - o.val
            return _result(val, _pad(self.eps, val.ndim) - _pad(o.eps, val.ndim))
        return _result(self.val - o, self.eps)

    def __rsub__(self, o):
        return _result(o - self.val, -self.eps)

    def __neg__(self):
        return Dual._of(-self.val, -self.eps)

    def __mul__(self, o):
        if isinstance(o, Dual):
            val = self.val * o.val
            a, b = _pad(self.eps, val.ndim), _pad(o.eps, val.ndim)
            return _result(val, a * o.val + b * self.val)
        o = np.asarray(o, dtype=float)
        val = self.val * o
        return _result(val, _pad(self.eps, val.ndim) * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            val = self.val / o.val
            a, b = _pad(self.eps, val.ndim), _pad(o.eps, val.ndim)
            return _result(val, (a * o.val - b * self.val) / (o.val * o.val))
        o = np.asarray(o, dtype=float)
        val = self.val / o
        return _result(val, _pad(self.eps, val.ndim) / o)

    def __rtruediv__(self, o):
        o = np.asarray(o, dtype=float)
        val = o / self.val
        return _result(val, -_pad(self.eps, val.ndim) * (o / (self.val * self.val)))

    def __pow__(self, p):
        p = float(p)
        return Dual._of(self.val**p, (p * self.val ** (p - 1.0)) * self.eps)

    # comparisons look at values only
    def __lt__(self, o):
        return self.val < value(o)

    def __le__(self, o):
        return self.val <= value(o)

    def __gt__(self, o):
        return self.val > value(o)

    def __ge__(self, o):
        return self.val >= value(o)

    def __repr__(self):
        return f"Dual(val={self.val!r}, tangents={self.eps.shape[0]})"


def _pad(eps, ndim):
    """Tangent-major ``eps`` with value axes left-padded to ``ndim``, to broadcast like values."""
    pad = ndim + 1 - eps.ndim
    return eps if pad <= 0 else eps.reshape(eps.shape[:1] + (1,) * pad + eps.shape[1:])


def _result(val, eps):
    """Dual of an elementwise result; widens ``eps`` where a constant operand broadcast ``val``."""
    if eps.shape[1:] != val.shape:
        eps = np.broadcast_to(_pad(eps, val.ndim), eps.shape[:1] + val.shape)
    return Dual._of(val, eps)


ArrayLike = Union[np.ndarray, Dual]


def value(x):
    """Strip tangents: the plain value array of ``x``."""
    return x.val if isinstance(x, Dual) else np.asarray(x, dtype=float)


def seed(x: np.ndarray) -> Dual:
    """Attach identity tangents along the last axis of ``x``: ``eps[k, ..., i] = [i == k]``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    eye = np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,))
    return Dual(x, np.broadcast_to(eye, (n,) + x.shape))


def constant(x, d: int) -> Dual:
    """Lift a plain array to a Dual with ``d`` zero tangents."""
    x = np.asarray(x, dtype=float)
    return Dual(x, np.zeros((d,) + x.shape))


def _unary(x, fval, fderiv):
    if isinstance(x, Dual):
        return Dual._of(fval(x.val), fderiv(x.val) * x.eps)
    return fval(np.asarray(x, dtype=float))


def sin(x):
    return _unary(x, np.sin, np.cos)


def cos(x):
    return _unary(x, np.cos, lambda v: -np.sin(v))


def tanh(x):
    return _unary(x, np.tanh, lambda v: 1.0 - np.tanh(v) ** 2)


def exp(x):
    return _unary(x, np.exp, np.exp)


def log(x):
    return _unary(x, np.log, lambda v: 1.0 / v)


def sqrt(x):
    return _unary(x, np.sqrt, lambda v: 0.5 / np.sqrt(v))


def absolute(x):
    return _unary(x, np.abs, lambda v: np.where(v >= 0.0, 1.0, -1.0))


def _sigmoid(v):
    ev = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + ev), ev / (1.0 + ev))


def softplus(x):
    """Numerically stable log(1 + exp(x))."""
    return _unary(x, lambda v: np.logaddexp(0.0, v), _sigmoid)


def where(cond, a, b):
    """Select between ``a`` and ``b`` (dual-aware); ``cond`` is a plain mask."""
    cond = np.asarray(cond)
    if isinstance(a, Dual) or isinstance(b, Dual):
        val = np.where(cond, value(a), value(b))
        ea = _pad(a.eps, val.ndim) if isinstance(a, Dual) else 0.0
        eb = _pad(b.eps, val.ndim) if isinstance(b, Dual) else 0.0
        return _result(val, np.where(cond, ea, eb))
    return np.where(cond, a, b)


def maximum(a, b):
    """Elementwise max; on ties the first argument's tangent wins."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        return where(value(a) >= value(b), a, b)
    return np.maximum(a, b)


def minimum(a, b):
    """Elementwise min; on ties the first argument's tangent wins."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        return where(value(a) <= value(b), a, b)
    return np.minimum(a, b)


def stack(parts, axis=0):
    if any(isinstance(p, Dual) for p in parts):
        d = next(p.tangents for p in parts if isinstance(p, Dual))
        shp = np.broadcast_shapes(*(np.shape(value(p)) for p in parts))
        vals = [p.val if isinstance(p, Dual) else np.broadcast_to(value(p), shp) for p in parts]
        eps = [p.eps if isinstance(p, Dual) else np.broadcast_to(0.0, (d,) + shp) for p in parts]
        eaxis = axis + 1 if axis >= 0 else axis
        return Dual._of(np.stack(vals, axis=axis), np.stack(eps, axis=eaxis))
    return np.stack(parts, axis=axis)


def concat(parts, axis=-1):
    if any(isinstance(p, Dual) for p in parts):
        d = next(p.tangents for p in parts if isinstance(p, Dual))
        vals = [value(p) for p in parts]
        eps = [
            p.eps if isinstance(p, Dual) else np.broadcast_to(0.0, (d,) + v.shape)
            for p, v in zip(parts, vals)
        ]
        eaxis = axis + 1 if axis >= 0 else axis
        return Dual._of(np.concatenate(vals, axis=axis), np.concatenate(eps, axis=eaxis))
    return np.concatenate(parts, axis=axis)


def asum(x, axis=None):
    if isinstance(x, Dual):
        return x.sum(axis=axis)
    return np.sum(x, axis=axis)


# ---------------------------------------------------------------------------
# gradient estimation methods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exact:
    """Analytic gradients via dual-number forward mode."""


@dataclass(frozen=True)
class FiniteDifference:
    """Central differences with per-coordinate step ``step * max(1, |x_i|)``."""

    step: float = 1e-6

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("finite-difference step must be positive")


@dataclass(frozen=True)
class Smoothed:
    """Randomized-smoothing estimate from antithetic Gaussian probes."""

    samples: int = 64
    stddev: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("smoothed estimator needs at least 2 samples")
        if not self.stddev > 0:
            raise ValueError("smoothing stddev must be positive")


GradientMethod = Union[Exact, FiniteDifference, Smoothed]


def _check_finite(y, context):
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(y)))
        raise NonFiniteValueError(f"non-finite function value at {context}, index {bad[0]}")
    return y


def gradient(f: Callable, x: np.ndarray, method: GradientMethod = Exact(), rng=None):
    """Gradient of a scalar function at ``x`` under the chosen method."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if isinstance(method, Exact):
        y = f(seed(x))
        if not isinstance(y, Dual):  # constant function
            _check_finite(y, "x")
            return np.zeros_like(x)
        _check_finite(y.val, "x")
        return np.moveaxis(y.eps, 0, -1).copy()
    if isinstance(method, FiniteDifference):
        g = np.empty(n)
        for i in range(n):
            d = method.step * max(1.0, abs(x[i]))
            e = np.zeros(n)
            e[i] = d
            fp = _check_finite(f(x + e), f"x + {d}*e_{i}")
            fm = _check_finite(f(x - e), f"x - {d}*e_{i}")
            g[i] = (fp - fm) / (2.0 * d)
        return g
    if isinstance(method, Smoothed):
        rng = rng if rng is not None else np.random.default_rng(method.seed)
        s = method.stddev
        g = np.zeros(n)
        for k in range(method.samples):
            e = rng.standard_normal(n)
            fp = _check_finite(f(x + s * e), f"x + stddev*e ({k})")
            fm = _check_finite(f(x - s * e), f"x - stddev*e ({k})")
            g += (fp - fm) / (2.0 * s) * e
        return g / method.samples
    raise TypeError(f"unknown gradient method: {method!r}")


def jacobian(h: Callable, x: np.ndarray, method: GradientMethod = Exact(), rng=None):
    """Dense m-by-n Jacobian of a vector function at ``x``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if isinstance(method, Exact):
        y = h(seed(x))
        if not isinstance(y, Dual):
            y = _check_finite(y, "x")
            return np.zeros(y.shape + (n,))
        _check_finite(y.val, "x")
        return np.moveaxis(y.eps, 0, -1).copy()
    if isinstance(method, FiniteDifference):
        cols = []
        for i in range(n):
            d = method.step * max(1.0, abs(x[i]))
            e = np.zeros(n)
            e[i] = d
            hp = _check_finite(h(x + e), f"x + {d}*e_{i}")
            hm = _check_finite(h(x - e), f"x - {d}*e_{i}")
            cols.append((hp - hm) / (2.0 * d))
        return np.stack(cols, axis=-1)
    if isinstance(method, Smoothed):
        rng = rng if rng is not None else np.random.default_rng(method.seed)
        s = method.stddev
        acc = None
        for k in range(method.samples):
            e = rng.standard_normal(n)
            hp = _check_finite(h(x + s * e), f"x + stddev*e ({k})")
            hm = _check_finite(h(x - s * e), f"x - stddev*e ({k})")
            d = (hp - hm) / (2.0 * s)
            term = np.multiply.outer(d, e)
            acc = term if acc is None else acc + term
        return acc / method.samples
    raise TypeError(f"unknown gradient method: {method!r}")


def check_gradient(f: Callable, x: np.ndarray, delta: float = 1e-6) -> float:
    """Max relative disagreement between dual-number and central-difference gradients."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    g_exact = gradient(f, x, Exact())
    g_fd = gradient(f, x, FiniteDifference(step=delta))
    denom = np.maximum(1.0, np.abs(g_exact))
    return float(np.max(np.abs(g_exact - g_fd) / denom))
