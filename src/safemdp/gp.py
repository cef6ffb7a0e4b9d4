"""Exact Gaussian-process regression over a finite index set.

This module provides the statistical machinery used to estimate the unknown
safety feature: stationary kernels evaluated on distances, an exact GP
posterior over all of its covariance's points, conditioned one observation
at a time by appending a row to its packed Cholesky factor (each observed
point's covariance row is evaluated once, when it is first observed, and
kept; its pair covariances share the variances' whitening, none for
zero-variance states, and dot slices of it without gathering columns), and
monotonically intersected confidence bands.  A covariance maps each point to
a representative and a sign, ``feature(p) = sign * feature(representative)``;
the model conditions and whitens representatives only and mirrors their
posterior to every point, so under the difference model a move and its
reverse share one column.  The exploration run owns the bands: it starts
them with :func:`initial_bands`, and its band model tightens them with
:func:`update_bands`.

scipy is imported by :func:`solve_triangular` on its first call, the first
time a model conditions or whitens, so a process that never does (``safemdp
oracle`` or ``synth``) never loads it.  The whitening solve works in place
(``overwrite_b=True``) on the cross-covariance block it takes for itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MATERN52 = "matern52"
SQUARED_EXPONENTIAL = "squared-exponential"
KERNEL_KINDS = (MATERN52, SQUARED_EXPONENTIAL)

_SQRT5 = math.sqrt(5.0)

#: Posterior variances below zero by more than this margin indicate a real
#: numerical problem rather than round-off and raise :class:`GpError`; a new
#: observation whose pivot falls below it raises :class:`SingularSystemError`.
VARIANCE_FLOOR = -1e-8

#: The least pivot a new row of the factor takes.  A pivot between
#: :data:`VARIANCE_FLOOR` and this one comes from a noiseless exact repeat.
JITTER = 1e-10

#: The budget of one block of temporaries in ``fill_rows``: kernel rows are
#: evaluated a block of rows at a time whose coordinate differences take at
#: most this many bytes.  All at once, at 2500 points, they would take
#: 95 MiB.
_BLOCK_BYTES = 2**20


def solve_triangular(a, b, **kwargs):
    """``scipy.linalg.solve_triangular``, with scipy imported on first use."""
    from scipy.linalg import solve_triangular as solve
    return solve(a, b, **kwargs)


class GpError(Exception):
    """Numerical failure inside the GP machinery."""


class SingularSystemError(GpError):
    """A new observation's pivot is NaN or negative beyond round-off: the
    covariance is not positive semi-definite."""


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function evaluated on a distance.

    Parameters
    ----------
    kind : str
        Either ``"matern52"`` or ``"squared-exponential"``, the spelling
        config files use.
    lengthscale : float
        Positive, finite distance scale of the kernel.
    prior_std : float
        Positive, finite prior standard deviation; the kernel value at
        distance zero is ``prior_std ** 2``.
    """

    kind: str
    lengthscale: float
    prior_std: float

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if not 0 < self.lengthscale < math.inf:
            raise ValueError(f"kernel lengthscale must be positive and finite, "
                             f"got {self.lengthscale!r}")
        if not 0 < self.prior_std < math.inf:
            raise ValueError(f"kernel prior_std must be positive and finite, "
                             f"got {self.prior_std!r}")


def kernel_eval(kernel: Kernel, distance, out=None):
    """Evaluate ``kernel`` at one or more distances.

    Parameters
    ----------
    kernel : Kernel
    distance : float or array_like
        Non-negative distance(s) between points.
    out : np.ndarray, optional
        Float array of ``distance``'s shape, at least one-dimensional, that
        receives the values; it may be ``distance`` itself.  The evaluation
        then makes at most two temporaries of this shape.

    Returns
    -------
    float or np.ndarray
        ``prior_std**2 * (1 + sqrt(5) r + 5 r**2 / 3) * exp(-sqrt(5) r)``
        with ``r = distance / lengthscale`` for the Matern-5/2 variant, and
        ``prior_std**2 * exp(-r**2 / 2)`` for the squared-exponential one;
        ``out`` when it is given.
    """
    if out is None:
        if np.ndim(distance) == 0:
            return float(kernel_eval(kernel, np.reshape(distance, 1), np.empty(1))[0])
        return kernel_eval(kernel, distance, np.empty(np.shape(distance)))
    r = np.divide(np.asarray(distance, dtype=float), kernel.lengthscale, out=out)
    if np.any(r < 0):
        raise ValueError("kernel distances must be non-negative")
    if kernel.kind == MATERN52:
        sr = np.multiply(r, _SQRT5, out=r)
        square = np.multiply(sr, sr)
        square /= 3.0
        decay = np.negative(sr)
        np.exp(decay, out=decay)
        sr += 1.0
        sr += square
        sr *= decay
    else:
        exponent = np.multiply(r, -0.5)
        exponent *= r
        np.exp(exponent, out=r)
    out *= kernel.prior_std**2
    return out


def point_ids(ids, num_points: int) -> np.ndarray:
    """``ids`` as an integer array, each checked to be an integer in ``[0,
    num_points)``; any other id raises :class:`ValueError` naming it."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "biu":
        # Checked before the cast, which would truncate a fraction.
        ids = np.asarray(ids, dtype=float)
        bad = ~((ids == np.round(ids)) & (ids >= 0) & (ids < num_points))
        if bad.any():
            raise ValueError(f"point id {ids[bad].flat[0]} is not an integer in [0, {num_points})")
    ids = ids.astype(np.intp, copy=False)
    # Viewed as unsigned, a negative id is at least 2**63, so one maximum
    # finds an id outside the range on either side.
    if ids.view(np.uintp).max(initial=0) >= num_points:
        bad = ids[(ids < 0) | (ids >= num_points)].flat[0]
        raise ValueError(f"point id {bad} is out of range [0, {num_points})")
    return ids


class StationaryCovariance:
    """Covariance between members of a finite index set with coordinates.

    Points are the integer ids ``0 ... num_points - 1`` into ``coords``; the
    kernel is evaluated on the Euclidean distance between coordinates.

    ``matrix(a, b)`` evaluates the rows of the distinct ids of ``a`` with
    :meth:`fill_rows` and gathers ``b`` from them; it keeps nothing, so
    each call evaluates its rows afresh.  :class:`GpModel` calls it once
    per observed representative.  A coordinate that is not finite, an id
    outside ``[0, num_points)``, or ``pairwise`` sequences of unequal
    length, raise :class:`ValueError`.
    """

    def __init__(self, kernel: Kernel, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if not np.isfinite(coords).all():
            raise ValueError("covariance coordinates must be finite")
        self.kernel = kernel
        self.coords = coords

    @property
    def num_points(self) -> int:
        return len(self.coords)

    @property
    def representatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point is its own representative, with sign +1."""
        return np.arange(self.num_points), np.ones(self.num_points)

    def matrix(self, a, b) -> np.ndarray:
        """Full covariance matrix between the id sequences ``a`` and ``b``."""
        a, b = point_ids(a, self.num_points), point_ids(b, self.num_points)
        distinct, inverse = np.unique(a, return_inverse=True)
        rows = self.fill_rows(distinct, np.empty((len(distinct), self.num_points)))
        return rows[np.ix_(inverse, b)]

    def fill_rows(self, ids, out) -> np.ndarray:
        """Write the kernel rows of ``ids`` against every point into the
        float array ``out`` and return it.  Rows are evaluated in blocks
        whose coordinate differences take at most :data:`_BLOCK_BYTES`,
        each block in place in ``out``."""
        ids = point_ids(ids, self.num_points)
        step = max(1, _BLOCK_BYTES // self.coords.nbytes)
        for lo in range(0, len(ids), step):
            block = out[lo:lo + step]
            diff = self.coords[ids[lo:lo + step], None, :] - self.coords
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff, out=block), out=block)
            kernel_eval(self.kernel, block, block)
        return out

    def pairwise(self, a, b) -> np.ndarray:
        """Element-wise covariance between equally long id sequences."""
        a, b = point_ids(a, self.num_points), point_ids(b, self.num_points)
        if len(a) != len(b):
            raise ValueError(f"a and b differ in length: {len(a)} and {len(b)}")
        dist = np.linalg.norm(self.coords[a] - self.coords[b], axis=-1)
        return kernel_eval(self.kernel, dist)


class GpModel:
    """Exact GP posterior over the points ``0 ... cov.num_points - 1``,
    conditioned in place, one observation at a time.

    The model works on representatives: ``cov.representatives`` maps each
    point ``p`` to a point ``rep[p]`` and a sign with ``feature(p) =
    sign[p] * feature(rep[p])``.  An observation of ``y`` at ``p``
    conditions ``rep[p]`` on ``sign[p] * y``, and the posterior at ``p`` is
    that of ``rep[p]`` with its mean times ``sign[p]``.

    ``add_observation`` is the only way a model is conditioned.  It appends
    one row to the lower Cholesky factor ``chol`` of ``K + noise_std**2 I``
    over the observed representatives and one entry to ``white = chol^-1
    y``, the whitened signed observations; no factorization is ever made
    from scratch.  The factor is kept packed, its lower triangle row by row
    in ``n (n + 1) / 2`` floats, and each solve unpacks it.  The prior
    variances of all points, and the prior covariances and signs of the
    ``pairs``, are evaluated once, when the model is made.  So are the
    pairs' runs: the pairs of two live columns, grouped by the shift
    ``second - first`` between them, sorted by ``first`` and cut wherever
    two consecutive ``first`` columns lie more than 2 apart.

    Only the representatives of nonzero prior variance, ``live``, are
    whitened: the others covary with no point under a PSD kernel and keep
    mean 0 and their prior variance.  The first time a representative is
    observed, its covariance with ``live`` is evaluated by one
    ``cov.matrix`` call and kept as a column of a (live x capacity) array,
    whose capacity grows by a quarter when full; so the model keeps at
    most ``d + d // 4`` columns for ``d`` distinct observed
    representatives, and nothing else calls ``cov.matrix``.  A new observation reads its
    covariances with the observed representatives from its
    representative's row of that array.  ``posterior`` and
    ``posterior_cov_pairs`` take the kept columns in observation order and
    whiten them with one triangular solve, and read the means from that
    same whitening.  A point id out of range raises :class:`ValueError` in
    ``add_observation`` before the model changes.

    Parameters
    ----------
    cov :
        Covariance object with ``num_points`` and ``representatives``
        attributes and ``matrix(a, b)`` and ``pairwise(a, b)`` methods over
        the integer point ids ``0 ... num_points - 1``.  ``representatives``
        is a pair of arrays over the points: each point's representative,
        itself a representative, and the sign (+1.0 or -1.0) of its feature
        relative to that representative's.
    noise_std : float
        Finite, non-negative observation noise standard deviation.
    pairs : (left, right)
        Equally long sequences of point ids, the pairs whose posterior
        covariance :meth:`posterior_cov_pairs` returns (none by default);
        unequal lengths or an id out of range raise :class:`ValueError`.
    """

    def __init__(self, cov, noise_std: float, pairs=((), ())):
        if not 0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and non-negative, got {noise_std!r}")
        self.cov = cov
        self.noise_std = float(noise_std)
        everywhere = np.arange(cov.num_points)
        self._prior = np.asarray(cov.pairwise(everywhere, everywhere), dtype=float)
        self._rep, self._sign = cov.representatives
        reps = np.flatnonzero(self._rep == everywhere)
        self._live = reps[self._prior[reps] > 0]
        self._live_index = np.full(cov.num_points, -1, dtype=np.intp)
        self._live_index[self._live] = np.arange(len(self._live))
        self._points = ()
        self._packed = np.zeros(0)
        self._white = np.zeros(0)
        self._rows = np.empty((len(self._live), 0))
        self._distinct = {}
        self._repeats = []
        left, right = (point_ids(side, cov.num_points) for side in pairs)
        if len(left) != len(right):
            raise ValueError(f"left and right differ in length: {len(left)} and {len(right)}")
        self._pair_sign = self._sign[left] * self._sign[right]
        left, right = self._rep[left], self._rep[right]
        self._pair_prior = np.asarray(cov.pairwise(left, right), dtype=float)
        first, second = self._live_index[left], self._live_index[right]
        whitened = np.flatnonzero((first >= 0) & (second >= 0))
        first, shift = first[whitened], second[whitened] - first[whitened]
        order = np.lexsort((first, shift))
        first, shift, whitened = first[order], shift[order], whitened[order]
        starts = np.ones(len(first), dtype=bool)
        starts[1:] = (np.diff(shift) != 0) | (np.diff(first) > 2)
        bounds = np.append(np.flatnonzero(starts), len(first))
        self._runs = [(int(shift[a]), int(first[a]), int(first[b - 1]) + 1, whitened[a:b],
                       first[a:b] - first[a]) for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def num_observations(self) -> int:
        return len(self._points)

    @property
    def points(self):
        """The observed points, as passed to ``add_observation``."""
        return self._points

    def add_observation(self, point: int, value: float) -> None:
        """Condition the model on ``(point, value)`` as well.

        With ``r = rep[point]``, ``c = chol^-1 k(observed representatives,
        r)`` and ``pivot = k(r, r) + noise_std**2 - c @ c``, the factor
        gains the row ``[c, sqrt(pivot)]`` and ``white`` the entry
        ``(sign[point] * value - c @ white) / sqrt(pivot)``.  A pivot in
        ``[VARIANCE_FLOOR, JITTER)`` comes from a noiseless exact repeat and
        is raised to :data:`JITTER` for this row.  A non-finite ``value`` or
        a ``point`` out of range raises :class:`ValueError` (the latter
        through :func:`point_ids`), and a pivot that is NaN or below
        :data:`VARIANCE_FLOOR` raises :class:`SingularSystemError`; either
        way the model is left as it was.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"observed value must be finite, got {value!r}")
        point = int(point_ids(point, len(self._prior)))
        rep, value = int(self._rep[point]), self._sign[point] * value
        n = len(self._points)
        # The kept covariances with r, repeated as in _cross; a zero-variance
        # r covaries with nothing.
        live = self._live_index[rep]
        k_vec = self._rows[live].take(self._repeats) if live >= 0 else np.zeros(n)
        c = solve_triangular(self._factor(), k_vec, lower=True, check_finite=False)
        pivot = float(self._prior[rep]) + self.noise_std**2 - c @ c
        if not pivot >= VARIANCE_FLOOR:
            raise SingularSystemError(
                f"observation {n + 1}, at point {point}, has pivot {pivot:g}: "
                "the covariance is not positive semi-definite"
            )
        root = math.sqrt(max(pivot, JITTER))
        if rep not in self._distinct:
            self._keep_row(rep)
        self._packed = np.concatenate([self._packed, c, [root]])
        self._white = np.append(self._white, (value - c @ self._white) / root)
        self._points += (point,)
        self._repeats.append(self._distinct[rep])

    def _keep_row(self, rep):
        """Evaluate the covariance of the newly observed representative
        ``rep`` with ``live`` into the next column of the kept rows.  Their
        capacity grows by a quarter when full: every finished model keeps
        its rows, so the slack is kept small, and the copies still add up
        to a few times the final size."""
        d = len(self._distinct)
        if d == self._rows.shape[1]:
            grown = np.empty((len(self._live), d + 1 + d // 4))
            grown[:, :d] = self._rows
            self._rows = grown
        self._rows[:, d] = self.cov.matrix([rep], self._live)[0]
        self._distinct[rep] = d

    def _factor(self) -> np.ndarray:
        """The square lower Cholesky factor, unpacked into a fresh array."""
        n = len(self._white)
        chol = np.zeros((n, n))
        chol[np.tri(n, dtype=bool)] = self._packed
        return chol

    def posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at every point.

        Returns
        -------
        (means, variances) : tuple of np.ndarray
            Variances are clamped at zero; a value below
            :data:`VARIANCE_FLOOR` before clamping raises :class:`GpError`.
        """
        means, variances, _ = self._posterior()
        return means, np.maximum(variances, 0.0)

    def posterior_cov_pairs(self):
        """``posterior()`` and the posterior covariance of each of the
        model's ``pairs``, from its one triangular solve.  Each run of
        pairs with shift ``s`` over the ``first`` columns ``lo ... hi - 1``
        takes the column dots of the solve output's slices ``[lo, hi)`` and
        ``[lo + s, hi + s)``, views that gather nothing, and each of its
        pairs reads its own: at most two dots per pair.  A pair that
        touches a zero-variance representative keeps its prior covariance.
        Each pair's covariance is then multiplied by the product of its
        two signs."""
        means, variances, v = self._posterior()
        cross = self._pair_prior.copy()
        if v is not None:
            for shift, lo, hi, positions, offsets in self._runs:
                dots = np.einsum("ij,ij->j", v[:, lo:hi], v[:, lo + shift:hi + shift])
                cross[positions] -= dots[offsets]
        cross *= self._pair_sign
        return means, np.maximum(variances, 0.0), cross

    def _posterior(self):
        """Means and unclamped variances at every point, and ``chol^-1
        k_cross`` at ``live``; the representatives outside ``live`` skip
        the solve and keep mean 0 and prior variance.  Once conditioned,
        each point reads its representative's, with the mean times its
        sign."""
        means, variances = np.zeros(len(self._prior)), self._prior.copy()
        if not self._points:
            return means, variances, None
        v = self._cross()
        means[self._live] = v.T @ self._white
        variances[self._live] -= np.einsum("ij,ij->j", v, v)
        low = variances.min(initial=0.0)
        if low < VARIANCE_FLOOR:
            raise GpError(f"posterior variance {low:g} fell below the numerical floor")
        means = means[self._rep]
        means *= self._sign
        return means, variances[self._rep], v

    def _cross(self):
        """``chol^-1`` times the observations' covariance with ``live``: the
        kept columns taken in observation order, which lays them out
        column-major as (observations x live), the layout the solve works
        in.  The take is this call's own copy, so the solve overwrites it
        (``overwrite_b=True``) instead of copying it again."""
        k_cross = np.take(self._rows, self._repeats, axis=1).T
        return solve_triangular(self._factor(), k_cross, lower=True, overwrite_b=True,
                                check_finite=False)


@dataclass
class ConfidenceBands:
    """Monotonically shrinking safety-feature intervals, one per state.

    ``lower`` and ``upper`` hold the running intersection of all interval
    estimates seen so far; ``collapses`` counts states whose intersection
    became empty and was reset to a degenerate midpoint interval.
    """

    lower: np.ndarray
    upper: np.ndarray
    collapses: int = 0

    @property
    def num_states(self) -> int:
        return len(self.lower)

    def width(self) -> np.ndarray:
        return self.upper - self.lower


def initial_bands(num_states: int, safe_seed, threshold: float) -> ConfidenceBands:
    """Bands before any observation: ``[threshold, inf)`` on the seed set,
    unbounded elsewhere."""
    seed = np.asarray(safe_seed, dtype=bool)
    if seed.shape != (num_states,):
        raise ValueError("safe_seed must be a boolean mask over all states")
    lower = np.full(num_states, -np.inf)
    upper = np.full(num_states, np.inf)
    lower[seed] = threshold
    return ConfidenceBands(lower, upper)


def update_bands(prev: ConfidenceBands, means, variances, beta_t: float) -> ConfidenceBands:
    """Intersect ``prev`` with the interval ``means +- sqrt(beta_t * variances)``.

    The intersection keeps every state's band non-increasing over time.  If
    the new interval misses the previous band entirely, the state's band is
    collapsed to the midpoint of the crossed-over pair and the event is
    counted in ``collapses``.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.shape != (prev.num_states,) or variances.shape != (prev.num_states,):
        raise ValueError("means and variances must match the number of states")
    if not 0 < beta_t < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta_t!r}")
    radius = np.sqrt(beta_t) * np.sqrt(np.maximum(variances, 0.0))
    lower = np.maximum(prev.lower, means - radius)
    upper = np.minimum(prev.upper, means + radius)
    crossed = lower > upper
    collapses = prev.collapses + int(np.count_nonzero(crossed))
    if crossed.any():
        mid = 0.5 * (lower[crossed] + upper[crossed])
        lower[crossed] = mid
        upper[crossed] = mid
    return ConfidenceBands(lower, upper, collapses)
