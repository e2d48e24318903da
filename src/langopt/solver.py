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

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .nlp import Layout, NlpProblem, OcpDefinition, join


def _check_int(name, v, least):
    """Reject ``v`` unless it is an integer of at least ``least``, naming the field.

    Numpy integers count; a bool does not.
    """
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {v!r}")


def _check_number(name, v):
    """Reject ``v`` unless it is a finite number, naming the field; numpy numbers count, a bool not.

    An int too large for a float is not finite here.
    """
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    try:
        finite = real and math.isfinite(v)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {v!r}")


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
    reaches ``sigma_min`` at 80% of the post-hold iteration budget; the rate
    is derived when the schedule is evaluated, so a config copied with
    ``dataclasses.replace`` follows its own budget. ``hold``
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
            _check_number(name, getattr(self, name))
        if self.gamma is not None:
            _check_number("gamma", self.gamma)
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        for name, least in (("iterations", 1), ("hold", 0), ("snapshot_stride", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), least)
        if not self.hold <= self.iterations:
            raise ValueError(
                f"hold must lie in [0, iterations], got {self.hold} and {self.iterations}"
            )
        if self.sigma_min < 0 or self.sigma0 < self.sigma_min:
            raise ValueError("need sigma0 >= sigma_min >= 0")
        if self.barrier_weight < 0:
            raise ValueError("barrier_weight must be non-negative")
        if self.gamma is not None and not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


@contextmanager
def _writable(path_or_file):
    """A text file to write to: a path is opened (and closed after), a file object is used as is."""
    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w") as f:
            yield f
    else:
        yield path_or_file


# the type each Trace column is written as; the rest are floats
_COLUMN_TYPES = {"iters": int, "snapshot_iters": int}

# Trace rows formatted and joined per write: a write per row takes about twice
# as long, and formatting a whole column at once holds it as Python objects
_WRITE_ROWS = 256


def _repr_blocks(column, type_=float):
    """The reprs of ``column``'s entries as Python ``type_`` values, ``_WRITE_ROWS`` rows at a time.

    Each block is converted as one array. An entry that is a row (a 2-D
    column, such as the snapshots) is its values' reprs joined by commas.
    """
    rows = np.ndim(column) == 2
    for a in range(0, len(column), _WRITE_ROWS):
        values = np.asarray(column[a : a + _WRITE_ROWS]).astype(type_).tolist()
        yield (",".join(map(repr, row)) for row in values) if rows else map(repr, values)


class _BatchColumns:
    """The iteration and σ columns every chain of one batch shares, formatted once.

    Holds one read-only ``(T,)`` array per column; a chain's trace holds
    prefix views of them. Each column's reprs are made on its first write
    and live as long as this object, that is, as long as a trace of the
    batch does. They are kept as one newline-joined string per block of
    ``_WRITE_ROWS`` rows, which a write splits one block at a time: kept as
    T separate strings they raised the peak memory of repeated batches by
    fragmenting the small-object heap, and split whole on every write they
    set the writer's peak.
    """

    def __init__(self, iters, sigma):
        self.arrays = {"iters": iters, "sigma": sigma}
        for a in self.arrays.values():
            a.flags.writeable = False
        self._strings = {}

    def blocks(self, name, column):
        """``column``'s reprs, ``_WRITE_ROWS`` rows per list; None unless it is a prefix view of array ``name``."""
        shared = self.arrays.get(name)
        if not (
            shared is not None
            and isinstance(column, np.ndarray)
            and column.base is shared
            and column.dtype == shared.dtype
            and column.strides == shared.strides
            and column.ctypes.data == shared.ctypes.data
        ):
            return None
        if name not in self._strings:
            self._strings[name] = list(map("\n".join, _repr_blocks(shared, _COLUMN_TYPES.get(name, float))))
        n = len(column)
        return (b.split("\n")[: n - a] for a, b in zip(range(0, n, _WRITE_ROWS), self._strings[name]))


@dataclass
class Trace:
    """Per-iteration diagnostics recorded at the pre-step point.

    The traces of one batch share one read-only iteration column and one
    read-only σ column: ``iters`` and ``sigma`` are prefix views of the
    batch's arrays, and writing into them raises. Each is formatted once per
    batch, however many of its traces are written. A trace built any other
    way, or whose column was reassigned, formats its own.

    A batch stores its chains' data once. ``cost``, ``hsq`` and ``energy``
    are strided views of one column of the batch's ``(T, N)`` buffers,
    ``snapshots`` a strided view of the batch's ``(S, N, n)`` snapshot
    buffer and ``snapshot_iters`` a read-only prefix of the batch's snapshot
    iterations. So a trace keeps its whole batch's buffers alive, however
    short it is; copy the columns (``np.array(trace.cost)``) to keep one
    chain's data alone. A pickled trace carries only its own rows.
    """

    iters: np.ndarray
    cost: np.ndarray
    hsq: np.ndarray
    energy: np.ndarray
    sigma: np.ndarray
    snapshot_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    snapshots: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    _columns = None  # the batch's _BatchColumns; not a field, so a replaced copy formats its own

    def __len__(self):
        return len(self.iters)

    def __getstate__(self):
        # a pickled copy holds its own columns, not the batch's formatted strings
        return {k: v for k, v in self.__dict__.items() if k != "_columns"}

    def _check_lengths(self, names):
        """Raise a ValueError naming each of columns ``names`` and its length unless they have one length."""
        lengths = [len(getattr(self, name)) for name in names]
        if len(set(lengths)) > 1:
            listed = ", ".join(f"{name} {n}" for name, n in zip(names, lengths))
            raise ValueError(f"trace columns differ in length ({listed}): a CSV row needs an entry of each")

    def _blocks(self, name):
        """The reprs of column ``name``, ``_WRITE_ROWS`` rows at a time; the batch's when it shares them."""
        column = getattr(self, name)
        shared = None if self._columns is None else self._columns.blocks(name, column)
        return _repr_blocks(column, _COLUMN_TYPES.get(name, float)) if shared is None else shared

    def _write_rows(self, f, names, lead=None):
        """Write columns ``names`` to ``f`` as CSV rows, one write per ``_WRITE_ROWS`` rows.

        ``lead``, a string, is written as each row's first field. The caller
        checks the columns' lengths first (:meth:`_check_lengths`).
        """
        head = "" if lead is None else lead + ","
        for block in zip(*(self._blocks(k) for k in names)):
            f.write(head + ("\n" + head).join(map(",".join, zip(*block))) + "\n")

    def to_csv(self, path_or_file) -> None:
        """Write the trace with header ``iter,cost,hsq,energy,sigma``."""
        names = ("iters", "cost", "hsq", "energy", "sigma")
        self._check_lengths(names)
        with _writable(path_or_file) as f:
            f.write("iter,cost,hsq,energy,sigma\n")
            self._write_rows(f, names)

    def snapshots_to_csv(self, path_or_file) -> None:
        """Write the snapshots with header ``iter,v0,v1,...``, one row per snapshot."""
        names = ("snapshot_iters", "snapshots")
        self._check_lengths(names)
        with _writable(path_or_file) as f:
            ncols = self.snapshots.shape[1] if self.snapshots.size else 0
            f.write("iter," + ",".join(f"v{j}" for j in range(ncols)) + "\n")
            self._write_rows(f, names)


@dataclass
class Solution:
    """Final chain state plus diagnostics; violation and cost are recomputed at output time.

    ``duration_ms`` is the wall time of the :func:`solve_batch` call the chain
    ran in: a vectorised batch has no per-chain time, so every chain of a
    batch, and every mu of a sweep, reports the batch's.
    """

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
        """The Solution as JSON-ready data; ``config``'s numpy numbers become Python numbers."""
        cfg = {**self.config.__dict__, "gamma": _decay_rate(self.config)}  # the rate used
        return {
            "xbar": [float(v) for v in self.xbar],
            "lambda": [float(v) for v in self.lam],
            "hsq": float(self.hsq),
            "cost": float(self.cost),
            "duration_ms": float(self.duration_ms),
            "success": bool(self.success),
            "message": self.message,
            "config": {k: v.item() if isinstance(v, np.generic) else v for k, v in cfg.items()},
        }


# ---------------------------------------------------------------------------
# pieces of the drift
# ---------------------------------------------------------------------------


def _decay_rate(config: SolverConfig) -> float:
    """``config.gamma``, or the rate that reaches sigma_min at 80% of the post-hold budget."""
    if config.gamma is not None:
        return config.gamma
    if config.sigma_min > 0 and config.sigma0 > config.sigma_min:
        horizon = max(1.0, 0.8 * (config.iterations - config.hold))
        return float((config.sigma_min / config.sigma0) ** (1.0 / horizon))
    return 1.0


def _sigma(it, config, rate):
    """The noise level at iteration ``it >= 0`` of ``config``, whose decay rate is ``rate``."""
    return max(config.sigma0 * rate ** max(0, it - config.hold), config.sigma_min)


def noise_schedule(it: int, config: SolverConfig) -> float:
    """Plateau at sigma0 for ``hold`` iterations, then geometric decay to a floor."""
    if it < 0:
        raise ValueError("iteration index must be non-negative")
    return _sigma(it, config, _decay_rate(config))


def barrier_gradient(x, lower, upper):
    """Gradient of -sum[log(upper - x) + log(x - lower)] over finite bounds.

    Infinite bounds contribute exactly zero (1/inf == 0 in IEEE arithmetic).
    A point on or outside a finite bound raises a BarrierDomainError. The
    stepping kernel forms the same expression without this test, since its
    points are strictly interior by construction (see :func:`_drift`).
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


# ---------------------------------------------------------------------------
# stepping kernel
# ---------------------------------------------------------------------------


# Rows of noise per chain drawn at once. A phase's block takes N * 16 * n * 8
# bytes (1.2 MB for 64 pendulum chains), is allocated at the phase's first
# draw (so never in a sigma = 0 phase) and is freed when the phase ends: a
# batch holds at most one, small next to its (T, N) traces.
_BLOCK_ROWS = 16


class _Box:
    """The span of the coordinates with a finite bound, found once per run.

    ``cols`` is one slice from the first finite-bound coordinate to the last
    (the controls of every transcribed problem), or ``None`` when there are
    none; ``lower`` and ``upper`` are the bounds there. An infinite bound
    inside the span gives the barrier's exact ``+ 0.0`` and never fails
    :func:`_interior`'s check, so the span keeps the bytes of the bounded
    coordinates alone.
    """

    def __init__(self, lower, upper):
        (idx,) = np.nonzero(np.isfinite(lower) | np.isfinite(upper))
        self.cols = None
        if idx.size:
            self.cols = slice(idx[0], idx[-1] + 1)
            self.lower, self.upper = lower[self.cols], upper[self.cols]


def _interior(X, box):
    """Per-chain strict interiority w.r.t. ``box``'s finite bounds, and finiteness of every coordinate.

    Each test is one ufunc reduction: ``ndarray.all`` and ``any`` reach the
    same reductions through Python wrappers.
    """
    ok = np.logical_and.reduce(np.isfinite(X), axis=-1)
    if box.cols is None:
        return ok
    Xb = X[..., box.cols]
    return ok & ~np.logical_or.reduce((Xb <= box.lower) | (Xb >= box.upper), axis=-1)


def _drift(nlp, X, Lam, mu, beta, box):
    """Cost, constraint residual, merit gradient and drift at ``X``: ``(c, h, v, g)``.

    ``v = grad c + J^T (lam + mu h)`` is the gradient of the
    augmented-Lagrangian merit and ``g`` adds ``beta`` times the barrier
    gradient ``1/(u - x) - 1/(x - l)`` on ``box``'s span of finite-bound
    coordinates; every other coordinate gets the barrier's exact ``+ 0.0``
    (1/inf - 1/inf). At ``beta = 0``, ``g`` is ``v`` and ``box`` is not read.

    The barrier is formed without a domain test: the kernel keeps every
    active row of ``X`` strictly inside the box while ``beta > 0`` (see
    :func:`_run_chains`), so the test of :func:`barrier_gradient` could not
    fail. An inactive row may lie outside; its drift is never used.
    """
    h, vjp = nlp.constraints_with_vjp(X)
    c, cg = nlp.cost_and_gradient(X)
    v = cg + vjp(Lam + mu * h)
    g = v
    if beta > 0:
        g = v + 0.0
        if box.cols is not None:
            Xb = X[..., box.cols]
            b = 1.0 / (box.upper - Xb)
            b -= 1.0 / (Xb - box.lower)
            b *= beta
            g[..., box.cols] += b
    return c, h, v, g


def drift(nlp: NlpProblem, xbar, lam, mu: float, barrier_weight: float = 0.0):
    """Drift of the decision variables: the kernel's merit gradient plus its barrier term.

    With ``barrier_weight > 0``, a point on or outside a finite bound raises
    a BarrierDomainError, as :func:`barrier_gradient` does.
    """
    box = _Box(nlp.lower, nlp.upper)
    if barrier_weight > 0 and box.cols is not None:
        barrier_gradient(xbar[..., box.cols], box.lower, box.upper)  # for its domain test only
    return _drift(nlp, xbar, lam, mu, barrier_weight, box)[3]


def energy(nlp: NlpProblem, xbar, lam, mu: float) -> float:
    """Diagnostic energy 1/2 ||v||^2 + 1/2 ||h||^2; zero exactly at KKT points."""
    _, h, v, _ = _drift(nlp, xbar, lam, mu, 0.0, None)
    return float(0.5 * np.sum(v * v, axis=-1) + 0.5 * np.sum(h * h, axis=-1))


class _Streams:
    """Each chain's standard normals, read a row of ``n`` at a time from blocks of its own generator.

    A chain's block of ``_BLOCK_ROWS`` rows is refilled with one
    ``standard_normal(out=...)`` call when the chain has read its last row,
    and not before, so a chain that is never read never touches its
    generator. A ``(R, n)`` fill gives the values of R calls of
    ``standard_normal(n)``, so chain j's k-th row has the bytes of its
    generator's k-th ``standard_normal(n)``, whatever the other chains read.

    While every chain has read the same number of rows, one cursor serves
    them all, and an all-chain read is the basic slice ``blocks[:, p]``. The
    first read of a subset copies that cursor into per-chain cursors, which
    every read uses from then on.

    Measured traffic: ``draw`` calls on the benchmark's seed-0 inputs (the
    first repetition), as all-chain reads on the shared cursor / all-chain
    reads on per-chain cursors / subset reads (retries), were 55 / 445 / 351
    on swingup (500 anneal iterations), 6 / 594 / 2294 on trap (600
    iterations) and 1500 / 0 / 0 on kkt-cli (1500 iterations). So on a
    bounded problem the first retry of a phase moves every later read to the
    per-chain cursors, and only the unbounded toy KKT keeps the shared one
    throughout. There the shared cursor made a solve of 16 chains x 1500
    iterations 1.24x faster than per-chain cursors from the first read
    (median of 30 alternating in-process pairs, faster in 29; equal bytes).

    The ``(N, _BLOCK_ROWS, n)`` blocks are allocated at the first read, so
    streams that are never read (a σ = 0 phase) hold none, and they live as
    long as the streams do: one phase.
    """

    def __init__(self, rngs, n):
        self._rngs = list(rngs)
        self._n = n
        self._blocks = None  # allocated at the first read
        self._common = _BLOCK_ROWS  # every chain's cursor while they agree
        self._pos = None  # per-chain cursors, once a subset has read

    def _storage(self):
        """The blocks, allocated on the first call."""
        if self._blocks is None:
            self._blocks = np.empty((len(self._rngs), _BLOCK_ROWS, self._n))
        return self._blocks

    def draw(self, chains):
        """The next row of each chain in the index array ``chains``, in order, as a ``(len(chains), n)`` array.

        ``chains=None`` reads every chain, in chain order. While the cursors
        agree, that read returns a view of the blocks, valid until the next
        read.
        """
        if self._pos is None:
            if chains is None:
                p = self._common
                if p == _BLOCK_ROWS:
                    for rng, block in zip(self._rngs, self._storage()):
                        rng.standard_normal(out=block)
                    p = 0
                self._common = p + 1
                return self._blocks[:, p]
            self._pos = np.full(len(self._rngs), self._common)
        if chains is None:
            chains = np.arange(len(self._rngs))
        pos = self._pos[chains]
        spent = pos == _BLOCK_ROWS
        blocks = self._storage()
        if spent.any():
            for j in chains[spent]:
                self._rngs[j].standard_normal(out=blocks[j])
            pos[spent] = 0
        self._pos[chains] = pos + 1
        return blocks[chains, pos]


class _Phase:
    """The kernel's constants for one phase of ``config``, prepared once.

    ``sigma[i]`` is iteration i's noise level, with the bytes of
    ``noise_schedule(i, config)``; ``mu`` is the chains' penalty as an
    ``(N, 1)`` column, which gives each chain the IEEE products of its
    scalar, and ``alpha_mu`` is ``alpha * mu``.
    """

    def __init__(self, config, mu):
        rate = _decay_rate(config)
        self.sigma = [_sigma(i, config, rate) for i in range(config.iterations)]
        self.alpha = config.alpha
        self.half_alpha = 0.5 * config.alpha
        self.sqrt_alpha = math.sqrt(config.alpha)
        self.beta = config.barrier_weight
        self.mu = mu
        self.alpha_mu = config.alpha * mu


def _advance(nlp, X, Lam, it, phase, streams, active, every, box, diag, t):
    """One Euler-Maruyama step for a stack of chains, at iteration ``it`` of ``phase``.

    ``phase`` is the phase's :class:`_Phase`, whose constants (each
    iteration's sigma, ``alpha / 2``, ``alpha * mu``) were prepared once when
    the phase started; ``streams`` is the chains' :class:`_Streams` and
    ``box`` the problem's :class:`_Box`. ``active`` marks the chains that
    step, and ``every`` says that all of them do.

    ``diag`` holds the batch's ``(T, N)`` cost, ``hsq`` and ``||v||^2``
    buffers: the kernel writes the pre-step cost, ``hsq = ||h||^2`` and
    ``||v||^2`` into their row ``t``, and the caller forms the energy
    ``1/2 ||v||^2 + 1/2 hsq`` from the last two once per batch. Returns
    (X', Lam', failures), where failures maps chain index -> error message
    for chains that died this iteration. Inactive chains are left untouched
    and draw no noise.

    The common case is straight-line: one finiteness test of the whole
    drift and, with a barrier, one interiority test of the whole step decide
    it, and per-chain masks are formed only when one of them fails or a
    chain is inactive. Without finite bounds (``box.cols`` is None) a step
    is not tested, as in a barrier-free phase: a chain whose step
    overflowed fails at its next drift, with a non-finite drift. While every
    chain steps, the noise is one all-chain read, added in place.

    With a barrier and finite bounds, every active row of ``X`` is strictly
    inside the box (the caller's invariant), and every step or retry the
    kernel accepts passed :func:`_interior`, so the next iteration's barrier
    is formed without a domain test.

    A step that leaves the finite bounds is retried at half the time step,
    halving again until it is inside. At level r the candidate is
    ``X - (alpha/2 * 0.5**r) g + sigma * sqrt(alpha * 0.5**r) xi``, and
    the loop always ends: a chain in it has ``X`` finite and strictly
    inside (the invariant above) and ``g`` finite (a non-finite drift
    fails first), and ``0.5**1075 == 0.0``, so by level 1075 the candidate
    is ``X`` itself, up to the sign of a zero coordinate, which passes
    :func:`_interior`. The retries run one halving level at a time for all
    chains still outside together; each level reads one row per chain from
    that chain's own stream, so every chain consumes its stream exactly as
    if it were stepped alone, and reads the bytes that one
    ``standard_normal(n)`` call per draw would give. At sigma = 0 no noise is
    drawn at all, neither for the step nor for its retries, and the update
    is the plain gradient step. The barrier gradient and the bound checks
    cover ``box``'s span only; every other coordinate gets the barrier's
    exact ``+ 0.0``.
    """
    sigma = phase.sigma[it]
    c, h, v, g = _drift(nlp, X, Lam, phase.mu, phase.beta, box)
    diag[0][t] = c
    np.add.reduce(h * h, axis=-1, out=diag[1][t])
    np.add.reduce(v * v, axis=-1, out=diag[2][t])

    failures = {}
    ok = active
    finite = np.isfinite(g)
    if not np.logical_and.reduce(finite, axis=None):
        bad = ~np.logical_and.reduce(finite, axis=-1)
        for j in (active & bad).nonzero()[0]:
            failures[int(j)] = f"non-finite drift at iteration {it}"
        ok = active & ~bad
        every = False
        g = np.where(bad[:, None], 0.0, g)  # their step is discarded; with g, inf - inf would warn

    Xc = X - phase.half_alpha * g
    if sigma > 0:
        scale = sigma * phase.sqrt_alpha
        if every:
            Xc += scale * streams.draw(None)
        else:
            idx = ok.nonzero()[0]
            Xc[idx] += scale * streams.draw(idx)

    if phase.beta > 0 and box.cols is not None:
        inside = _interior(Xc, box)
        if not np.logical_and.reduce(inside):
            outside = (ok & ~inside).nonzero()[0]
            scale = 1.0
            while outside.size:
                scale *= 0.5
                cand = X.take(outside, axis=0) - phase.half_alpha * scale * g.take(outside, axis=0)
                if sigma > 0:
                    cand = cand + sigma * math.sqrt(phase.alpha * scale) * streams.draw(outside)
                inside = _interior(cand, box)
                Xc[outside[inside]] = cand[inside]
                outside = outside[~inside]

    Lamn = Lam + phase.alpha_mu * h
    if every:
        return Xc, Lamn, failures
    return np.where(ok[:, None], Xc, X), np.where(ok[:, None], Lamn, Lam), failures


def _schedules(config, N):
    """Each chain's schedule: the tuple of phases chain j runs, its noise seeds included.

    ``config`` is one ``SolverConfig`` (a one-phase schedule), a schedule
    shared by every chain, whose chain j runs each phase ``p`` as
    ``replace(p, seed=p.seed + j)``, or a sequence of N schedules, one per
    chain, whose phases are run as given. The input is validated once.
    """
    if config is None:
        config = SolverConfig()
    seqs = (list, tuple)
    shared = not (isinstance(config, seqs) and config and isinstance(config[0], seqs))
    scheds = [tuple(s) if isinstance(s, seqs) else (s,) for s in ([config] if shared else config)]
    if not shared and len(scheds) != N:
        raise ValueError(f"config holds {len(scheds)} schedules for {N} chains")
    for j, phases in enumerate(scheds):
        if not phases:
            raise ValueError("config must hold at least one phase")
        for p in phases:
            if not isinstance(p, SolverConfig):
                raise TypeError(f"config phases must be SolverConfig, got {type(p).__name__}")
        if len(phases) != len(scheds[0]):
            raise ValueError(
                f"schedule {j} has {len(phases)} phases but schedule 0 has {len(scheds[0])}"
            )
        for k, (p, q) in enumerate(zip(scheds[0], phases)):
            for name in (f.name for f in fields(p) if f.name not in ("mu", "seed")):
                if getattr(p, name) != getattr(q, name):
                    raise ValueError(
                        f"schedule {j} phase {k}: {name} differs from schedule 0; "
                        "chains' schedules may differ only in mu and seed"
                    )
    if shared:
        scheds = [tuple(replace(p, seed=p.seed + j) for p in scheds[0]) for j in range(N)]
    return scheds


# Rows of the energy formed per operation: the pass then needs one temporary
# of this many rows, not one the size of a (T, N) buffer
_ENERGY_ROWS = 1024


def _form_energy(vv, hsq):
    """Turn the ``||v||^2`` rows ``vv`` into the energy ``0.5 * vv + 0.5 * hsq`` in place.

    The same elementwise operations as on one row, so each entry has the
    bytes of ``0.5 * (v * v).sum(-1) + 0.5 * (h * h).sum(-1)`` at its point,
    a non-finite one included.
    """
    for a in range(0, len(vv), _ENERGY_ROWS):
        e = vv[a : a + _ENERGY_ROWS]
        e *= 0.5
        e += 0.5 * hsq[a : a + _ENERGY_ROWS]


def _run_chains(nlp, box, X0, Lam0, scheds):
    """Iterate the kernel through every phase for a stack of chains, recording traces.

    Chain j runs schedule ``scheds[j]`` and draws phase k's noise from seed
    ``scheds[j][k].seed``; ``box`` is ``nlp``'s :class:`_Box`. The kernel
    reads every parameter but ``mu`` and ``seed`` from ``scheds[0]``, which
    the others match.
    Iterations are numbered continuously across phases, and snapshots follow
    each phase's own stride from the phase's first iteration. A chain that
    fails is not run in later phases; its trace ends at the failure.

    During a phase with a barrier (``barrier_weight > 0``) on a problem
    with finite bounds, every active row of ``X`` is strictly inside the
    box: :func:`_drift` relies on it. The caller checks the initial points
    for phase 0, and the kernel accepts only steps that pass
    :func:`_interior`. A barrier-free phase does not test its steps, so each
    later barrier phase tests its active chains once when it starts; a
    chain outside fails there, its trace ending where the previous phase
    ended. Without finite bounds the barrier reads no coordinate, and no
    step is tested.

    Every chain runs ``scheds[0]``'s phases, so the iteration and σ columns
    are the same for all: each trace's ``iters`` and ``sigma`` are read-only
    prefix views of one :class:`_BatchColumns`, which formats each column
    once however many traces are written, and its ``snapshot_iters`` a
    read-only prefix of one array. Writing into them raises.

    The kernel writes each iteration's cost, ``hsq`` and ``||v||^2`` as one
    row of a ``(T, N)`` buffer and each snapshot as an ``(N, n)`` slab of one
    ``(S, N, n)`` buffer. The energy is formed once, when the loop ends,
    from the ``hsq`` and ``||v||^2`` buffers, in the ``||v||^2`` buffer
    itself (see :func:`_form_energy`). Chain j's trace holds column j of the
    buffers, cut at its length: its data is stored once, in the batch's
    buffers. The kernel is told that every chain steps until the first
    failure; from then on it forms per-chain masks. Returns the final
    ``(N, n)`` and ``(N, m)`` stacks and, per chain, its trace, its error
    message (None when it ran through) and the phase it ended in.
    """
    N, n = X0.shape
    phases = scheds[0]
    T = sum(p.iterations for p in phases)
    starts = [sum(p.iterations for p in phases[:k]) for k in range(len(phases))]
    X = np.array(X0, dtype=float)
    Lam = np.array(Lam0, dtype=float)
    active = np.ones(N, dtype=bool)
    every = True  # no chain has failed
    failed = {}  # chain -> (iterations recorded, message, phase it failed in)

    cost, hsq, vv = (np.zeros((T, N)) for _ in range(3))  # vv holds the energy once the loop ends
    diag = (cost, hsq, vv)
    sigma = np.zeros(T)
    snap_iters = np.concatenate(
        [s + np.arange(0, p.iterations, p.snapshot_stride) for s, p in zip(starts, phases)]
    )
    snaps = np.zeros((len(snap_iters), N, n))
    snapped = 0

    for k, (start, config) in enumerate(zip(starts, phases)):
        if config.barrier_weight > 0:
            # a barrier-free phase before this one may have left a chain outside the box
            outside = (active & ~_interior(X, box)).nonzero()[0]
            for j in outside:
                msg = f"phase {k}: not strictly interior to finite bounds at the start of the phase"
                failed[int(j)] = (start, msg, scheds[j][k])
            if outside.size:
                active[outside] = False
                every = False
                if not active.any():
                    break
        streams = _Streams([np.random.default_rng(sched[k].seed) for sched in scheds], n)
        phase = _Phase(config, np.array([[sched[k].mu] for sched in scheds], dtype=float))
        sigma[start : start + config.iterations] = phase.sigma
        for i in range(config.iterations):
            if i % config.snapshot_stride == 0:
                snaps[snapped] = X
                snapped += 1
            t = start + i
            X, Lam, failures = _advance(nlp, X, Lam, i, phase, streams, active, every, box, diag, t)
            if failures:
                for j, msg in failures.items():
                    # keep the (valid) pre-step record of the failing iteration
                    failed[j] = (t + 1, msg if len(phases) == 1 else f"phase {k}: {msg}", scheds[j][k])
                    active[j] = False
                every = False
                if not active.any():
                    break
        del streams  # the phase's noise block goes before the next phase's is made
        if not active.any():
            break
    _form_energy(vv, hsq)

    columns = _BatchColumns(np.arange(T), sigma)
    iters, sigma = columns.arrays["iters"], columns.arrays["sigma"]
    snap_iters.flags.writeable = False
    chains = []
    for j in range(N):
        T_j, err, ended = failed.get(j, (T, None, scheds[j][-1]))
        S_j = int(np.searchsorted(snap_iters, T_j))  # the snapshots taken below T_j
        trace = Trace(
            iters=iters[:T_j],
            cost=cost[:T_j, j],
            hsq=hsq[:T_j, j],
            energy=vv[:T_j, j],
            sigma=sigma[:T_j],
            snapshot_iters=snap_iters[:S_j],
            snapshots=snaps[:S_j, j],
        )
        trace._columns = columns
        chains.append((trace, err, ended))
    return X, Lam, chains


def _stack_entries(name, entries, shape):
    """Stack the vectors ``entries`` of argument ``name`` into an array of ``shape``, ``(count, width)``.

    Entries of different shapes raise a ValueError naming the first whose
    shape is not ``(width,)``; a stack of any other shape, one naming its
    shape.
    """
    arrays = [np.asarray(e, dtype=float) for e in entries]
    if len({a.shape for a in arrays}) > 1:
        j = next(j for j, a in enumerate(arrays) if a.shape != shape[1:])
        raise ValueError(f"{name}[{j}] has shape {arrays[j].shape}, expected {shape[1:]}")
    out = np.stack(arrays) if arrays else np.empty((0, shape[1]))
    if out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    return out


def _initial_points(nlp, x0s, barrier_weight, alone=False):
    """The initial points ``x0s`` as an ``(N, nlp.n)`` stack, checked before any step.

    A point of the wrong shape raises a ValueError. With a barrier
    (``barrier_weight > 0``), a point with a non-finite entry, or one not
    strictly inside the finite bounds, raises a BarrierDomainError. Each
    message names the first bad point: ``x0s[j]``, or ``x0`` when ``alone``
    (``x0s`` then holds the one point a caller was given).
    """
    if alone:
        X0 = np.array(x0s[0], dtype=float)[None]
        if X0.shape != (1, nlp.n):
            raise ValueError(f"x0 has shape {X0.shape[1:]}, expected ({nlp.n},)")
    else:
        X0 = _stack_entries("x0s", x0s, (len(x0s), nlp.n))
    if barrier_weight > 0:
        inside = _interior(X0, _Box(nlp.lower, nlp.upper))
        if not inside.all():
            j = int(np.nonzero(~inside)[0][0])
            name = "x0" if alone else f"x0s[{j}]"
            if not np.isfinite(X0[j]).all():
                raise BarrierDomainError(f"{name} has a non-finite entry")
            raise BarrierDomainError(f"{name} is not strictly interior to finite bounds")
    return X0


def solve(
    nlp: NlpProblem,
    x0: np.ndarray,
    lambda0: Optional[np.ndarray] = None,
    config: Union[SolverConfig, Sequence[SolverConfig], None] = None,
) -> Solution:
    """Run one diffusion chain through ``config``, a config or a schedule as in :func:`solve_batch`.

    Deterministic given the seeds. Equals ``solve_batch(nlp, [x0], config,
    lambda0s=[lambda0])[0]``, except that a failed chain raises
    :class:`SolveError` with that Solution attached, and that a bad ``x0``
    is named ``x0``.
    """
    scheds = _schedules(config, 1)
    _initial_points(nlp, [x0], scheds[0][0].barrier_weight, alone=True)
    (sol,) = solve_batch(nlp, [x0], config, lambda0s=None if lambda0 is None else [lambda0])
    if not sol.success:
        raise SolveError(sol.message, solution=sol)
    return sol


def solve_batch(
    nlp: NlpProblem,
    x0s: Sequence[np.ndarray],
    config: Union[SolverConfig, Sequence[SolverConfig], Sequence[Sequence], None] = None,
    threads: int = 1,
    lambda0s: Optional[Sequence[np.ndarray]] = None,
) -> List[Solution]:
    """Run independent chains from each initial point as one vectorised batch.

    ``config`` is one ``SolverConfig``, a schedule (a non-empty sequence of
    them, run as phases back to back, each chain carrying its point and
    multipliers into the next phase) shared by every chain, or one schedule
    per chain (``[[c0], [c1], ...]`` for one phase each). Per-chain
    schedules may differ only in ``mu`` and ``seed``; any other mismatch is
    a ValueError naming the schedule, the phase and the field.

    Chain j of a shared schedule runs phase k as ``replace(phases[k],
    seed=phases[k].seed + j)``; a chain of per-chain schedules runs its own
    phases as given. Each chain draws phase k's noise from the seed of the
    phase it runs, and its Solution's ``config`` is that phase (its last,
    or the one it failed in). So chain j equals its solo run
    ``solve_batch(nlp, [x0s[j]], schedule_j)`` as a whole Solution, bytes
    and config, and a schedule equals one call per phase that passes each
    chain's ``xbar`` and ``lam`` on (as ``x0s`` and ``lambda0s``), with the
    trace numbered continuously.

    Each Solution's trace is a view of the batch's buffers (see
    :class:`Trace`), and its ``xbar`` and ``lam`` are rows of the batch's
    final stacks, so the batch's trace data stays in memory until the last
    of its Solutions and traces is dropped. The batch holds no other copy;
    while it runs, it also holds one noise block of its current phase, if
    that phase draws noise.

    Per-chain failures are reported on the corresponding Solution
    (``success=False``, ``config`` the phase it failed in) without aborting
    the rest of the batch: a non-finite drift, and a chain that a
    barrier-free phase left outside the finite bounds when a phase with a
    barrier starts (``phase k: not strictly interior to finite bounds at
    the start of the phase``; its trace ends where phase k - 1 ended). A
    step that leaves the bounds does not fail its chain: it is halved until
    it fits (see :func:`_advance`). No failure raises a RuntimeWarning: the
    batch runs under ``np.errstate`` with overflow, invalid and divide
    ignored. Every chain runs in one vectorised stack on the calling
    thread; ``threads``, an integer of at least 1, is validated and changes
    nothing.
    ``lambda0s`` lets a batch continue from previously obtained multipliers
    (default: zeros).
    """
    _check_int("threads", threads, 1)
    x0s = list(x0s)
    if not x0s:
        raise ValueError("x0s is empty: a batch needs at least one initial point")
    N = len(x0s)
    scheds = _schedules(config, N)
    X0 = _initial_points(nlp, x0s, scheds[0][0].barrier_weight)
    box = _Box(nlp.lower, nlp.upper)
    Lam0 = np.zeros((N, nlp.m)) if lambda0s is None else _stack_entries("lambda0s", lambda0s, (N, nlp.m))

    # a diverging chain is reported on its Solution, not by numpy's RuntimeWarnings; one
    # errstate for the whole batch, since entering one per iteration costs the kernel time
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t0 = time.perf_counter()
        X, Lam, chains = _run_chains(nlp, box, X0, Lam0, scheds)
        dt_ms = (time.perf_counter() - t0) * 1e3
        # evaluated once on the final stack; a constant broadcasts
        hsq = np.broadcast_to(nlp.constraint_violation(X), (N,))
        cost = np.broadcast_to(ad.value(nlp.cost(X)), (N,))
    return [
        Solution(
            xbar=X[j],
            lam=Lam[j],
            hsq=float(hsq[j]),
            cost=float(cost[j]),
            trace=trace,
            duration_ms=dt_ms,
            config=cfg,
            success=err is None,
            message="ok" if err is None else err,
        )
        for j, (trace, err, cfg) in enumerate(chains)
    ]


# ---------------------------------------------------------------------------
# initial guesses for trajectory problems
# ---------------------------------------------------------------------------


def trajectory_guess(ocp: OcpDefinition, state_box: np.ndarray, rng) -> np.ndarray:
    """Infeasible starting point: controls strictly inside their bounds, states uniform in a box.

    A control with two finite bounds starts at their midpoint, one with none
    at 0, and one with a single finite bound at 0 if that is strictly inside,
    else one unit inside the bound. ``state_box`` has shape (nx, 2) with
    [low, high] rows; states for all K+1 knots are drawn i.i.d. from it, so
    the guess is scattered and dynamically infeasible by construction. A
    state with a finite bound is drawn from the box's row intersected with
    the open interval between its bounds; a ValueError names ``state_box``
    when that intersection is empty, and when any row to draw from is
    reversed or not finite, or so wide that ``high - low`` overflows.
    """
    box = np.asarray(state_box, dtype=float)
    if box.shape != (ocp.nx, 2):
        raise ValueError(f"state_box has shape {box.shape}, expected ({ocp.nx}, 2)")
    # a row with a finite state bound is cut to the closest floats strictly inside its bounds
    bounded = np.isfinite(ocp.x_lower) | np.isfinite(ocp.x_upper)
    low = np.where(bounded, np.maximum(box[:, 0], np.nextafter(ocp.x_lower, np.inf)), box[:, 0])
    high = np.where(bounded, np.minimum(box[:, 1], np.nextafter(ocp.x_upper, -np.inf)), box[:, 1])
    empty = np.flatnonzero(bounded & ~(low <= high))
    if empty.size:
        i = empty[0]
        raise ValueError(
            f"state_box row {i} {box[i].tolist()} has no point strictly inside the "
            f"state bounds ({ocp.x_lower[i]}, {ocp.x_upper[i]})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        drawable = (low <= high) & np.isfinite(high - low)
    if not drawable.all():
        i = np.flatnonzero(~drawable)[0]
        raise ValueError(f"state_box row {i} {box[i].tolist()} must satisfy low <= high with high - low finite")
    lo, hi = ocp.u_lower, ocp.u_upper
    fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
    u0 = np.zeros(ocp.nu)
    both = fin_lo & fin_hi
    u0[both] = 0.5 * (lo[both] + hi[both])
    lo_only = fin_lo & ~fin_hi & ~(lo < 0.0)
    u0[lo_only] = lo[lo_only] + 1.0
    hi_only = fin_hi & ~fin_lo & ~(hi > 0.0)
    u0[hi_only] = hi[hi_only] - 1.0
    U = np.tile(u0, (ocp.K, 1))
    X = rng.uniform(low, high, size=(ocp.K + 1, ocp.nx))
    return join(U, X, Layout(ocp.K, ocp.nx, ocp.nu))
