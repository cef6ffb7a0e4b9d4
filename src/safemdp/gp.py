"""Exact Gaussian-process regression over a finite index set.

This module provides the statistical machinery used to estimate the unknown
safety feature: stationary kernels evaluated on distances (each kernel row
once, memoized per observed point), an exact GP posterior with incremental
Cholesky updates, and monotonically intersected confidence bands.  The bands
belong to the exploration run, which starts them with :func:`initial_bands`
and hands them to its band model to tighten with :func:`update_bands`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

MATERN52 = "matern52"
SQUARED_EXPONENTIAL = "squared_exponential"
KERNEL_KINDS = (MATERN52, SQUARED_EXPONENTIAL)

_SQRT5 = math.sqrt(5.0)

#: Incremental factor updates are replaced by a full refactorization after
#: this many appends, which bounds accumulated floating-point drift.
REBUILD_PERIOD = 64

#: Escalating diagonal jitter tried when a covariance matrix fails to
#: factorize; after the last rung the model gives up.
JITTER_LADDER = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

#: Posterior variances below zero by more than this margin indicate a real
#: numerical problem rather than round-off and raise :class:`GpError`.
VARIANCE_FLOOR = -1e-8

#: New memo rows are evaluated in blocks whose coordinate differences take
#: at most this many bytes, rather than all at once: at 2500 points that
#: would be a 95 MiB temporary.  Smaller blocks would save little, as the
#: memo itself holds 48 MiB at 2500 points.
_EVALUATE_BLOCK_BYTES = 16 * 2**20


class GpError(Exception):
    """Numerical failure inside the GP machinery."""


class SingularSystemError(GpError):
    """Covariance matrix could not be factorized even with maximal jitter."""


@dataclass(frozen=True)
class Kernel:
    """Stationary covariance function evaluated on a distance.

    Parameters
    ----------
    kind : str
        Either ``"matern52"`` or ``"squared_exponential"``.
    lengthscale : float
        Positive distance scale of the kernel.
    prior_std : float
        Positive prior standard deviation; the kernel value at distance zero
        is ``prior_std ** 2``.
    """

    kind: str
    lengthscale: float
    prior_std: float

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if not self.lengthscale > 0:
            raise ValueError("kernel lengthscale must be positive")
        if not self.prior_std > 0:
            raise ValueError("kernel prior_std must be positive")


def kernel_eval(kernel: Kernel, distance):
    """Evaluate ``kernel`` at one or more distances.

    Parameters
    ----------
    kernel : Kernel
    distance : float or array_like
        Non-negative distance(s) between points.

    Returns
    -------
    float or np.ndarray
        ``prior_std**2 * (1 + sqrt(5) r + 5 r**2 / 3) * exp(-sqrt(5) r)``
        with ``r = distance / lengthscale`` for the Matern-5/2 variant, and
        ``prior_std**2 * exp(-r**2 / 2)`` for the squared-exponential one.
    """
    r = np.asarray(distance, dtype=float) / kernel.lengthscale
    if np.any(r < 0):
        raise ValueError("kernel distances must be non-negative")
    if kernel.kind == MATERN52:
        sr = _SQRT5 * r
        val = (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)
    else:
        val = np.exp(-0.5 * r * r)
    out = kernel.prior_std**2 * val
    if np.ndim(distance) == 0:
        return float(out)
    return out


class StationaryCovariance:
    """Covariance between members of a finite index set with coordinates.

    Points are integer ids into ``coords``; the kernel is evaluated on the
    Euclidean distance between coordinates.

    ``matrix(a, b)`` reads from a memo of kernel rows.  The first time an id
    appears in ``a``, its row against every point is evaluated and kept, so
    each row is evaluated once however often it is read.  :class:`GpModel`
    only puts its observed points in ``a``, so the memo holds one row per
    distinct observed point: at most (distinct observed points) x (number
    of points) floats in use.  Its storage doubles when full, so it
    allocates less than twice that, and never more than a square block over
    all points.
    """

    def __init__(self, kernel: Kernel, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        self.kernel = kernel
        self.coords = coords
        self._slot = np.full(len(coords), -1, dtype=np.intp)
        self._rows = np.empty((0, len(coords)))
        self._num_rows = 0

    def matrix(self, a, b) -> np.ndarray:
        """Full covariance matrix between the id sequences ``a`` and ``b``."""
        a = np.asarray(a, dtype=int)
        if (self._slot[a] < 0).any():
            new = np.zeros(len(self._slot), dtype=bool)
            new[a] = True
            ids = np.flatnonzero(new & (self._slot < 0))
            step = max(1, _EVALUATE_BLOCK_BYTES // self.coords.nbytes)
            for lo in range(0, len(ids), step):
                self._evaluate(ids[lo:lo + step])
        return self._rows[self._slot[a]][:, np.asarray(b, dtype=int)]

    def _evaluate(self, ids):
        """Evaluate and memoize the rows of the distinct, new ``ids``."""
        diff = self.coords[ids][:, None, :] - self.coords[None, :, :]
        values = kernel_eval(self.kernel, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
        start, stop = self._num_rows, self._num_rows + len(ids)
        if stop > len(self._rows):
            capacity = min(max(stop, 2 * len(self._rows)), len(self.coords))
            grown = np.empty((capacity, len(self.coords)))
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._rows[start:stop] = values
        self._slot[ids] = np.arange(start, stop)
        self._num_rows = stop

    def pairwise(self, a, b) -> np.ndarray:
        """Element-wise covariance between equally long id sequences."""
        pa = self.coords[np.asarray(a, dtype=int)]
        pb = self.coords[np.asarray(b, dtype=int)]
        dist = np.linalg.norm(pa - pb, axis=-1)
        return kernel_eval(self.kernel, dist)


def _factorize(cov, points, noise_var, start_jitter):
    """Cholesky factor of ``K + (noise_var + jitter) I`` with escalation."""
    k = cov.matrix(points, points)
    k = 0.5 * (k + k.T)
    candidates = [start_jitter] + [j for j in JITTER_LADDER if j > start_jitter]
    for jitter in candidates:
        try:
            chol = np.linalg.cholesky(k + (noise_var + jitter) * np.eye(len(points)))
            return chol, jitter
        except np.linalg.LinAlgError:
            continue
    raise SingularSystemError(
        f"covariance matrix of {len(points)} observations is singular even with jitter {JITTER_LADDER[-1]:g}"
    )


class GpModel:
    """Exact GP posterior, conditioned in place.

    ``add_observation`` updates the model itself.  The Cholesky factor of
    ``K + noise_std**2 I`` is grown by rank-1 appends and refactorized from
    scratch every :data:`REBUILD_PERIOD` updates.  The prior (co)variances
    that ``posterior`` and ``posterior_cov_pairs`` start from never change,
    so each is evaluated once per model for each id sequence asked about:
    the band models ask about the same states on every advance.

    Parameters
    ----------
    cov :
        Covariance object with ``matrix(a, b)`` and ``pairwise(a, b)``
        methods over integer point ids.
    noise_std : float
        Non-negative observation noise standard deviation.
    """

    def __init__(self, cov, noise_std: float):
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.cov = cov
        self.noise_std = float(noise_std)
        self._points = ()
        self._values = np.zeros(0)
        self._chol = None
        self._alpha = None
        self._jitter = 0.0
        self._since_rebuild = 0
        self._priors = {}

    @classmethod
    def from_data(cls, cov, noise_std: float, points: Sequence[int], values) -> "GpModel":
        """Batch-build a model from all observations at once."""
        points = tuple(int(p) for p in points)
        values = np.asarray(values, dtype=float)
        if len(points) != len(values):
            raise ValueError("points and values must have equal length")
        model = cls(cov, noise_std)
        if points:
            model._refactorize(points, values)
        return model

    @property
    def num_observations(self) -> int:
        return len(self._points)

    @property
    def points(self):
        return self._points

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def jitter(self) -> float:
        return self._jitter

    def add_observation(self, point: int, value: float) -> None:
        """Condition the model on ``(point, value)`` as well.

        If the factor cannot be rebuilt, :class:`SingularSystemError` is
        raised and the model is left as it was.
        """
        point = int(point)
        points = self._points + (point,)
        values = np.append(self._values, float(value))
        chol = None
        if self._chol is not None and self._since_rebuild + 1 < REBUILD_PERIOD:
            chol = self._try_append(point, self.noise_std**2 + self._jitter)
        if chol is None:
            self._refactorize(points, values)
            return
        self._points, self._values, self._chol = points, values, chol
        self._alpha = _solve_chol(chol, values)
        self._since_rebuild += 1

    def _refactorize(self, points, values):
        """Condition on exactly ``points`` and ``values``, factorizing from
        scratch; the jitter ladder starts at the current jitter."""
        chol, jitter = _factorize(self.cov, points, self.noise_std**2, self._jitter)
        self._points, self._values, self._chol, self._jitter = points, values, chol, jitter
        self._alpha = _solve_chol(chol, values)
        self._since_rebuild = 0

    def _try_append(self, point, diag_boost):
        """Grow the Cholesky factor by one row, or ``None`` if unstable."""
        k_vec = self.cov.matrix(self._points, [point])[:, 0]
        k_pp = float(self.cov.pairwise([point], [point])[0]) + diag_boost
        c = solve_triangular(self._chol, k_vec, lower=True)
        d_sq = k_pp - c @ c
        if not d_sq > max(k_pp, 1.0) * 1e-12:
            return None
        n = len(self._points)
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._chol
        grown[n, :n] = c
        grown[n, n] = math.sqrt(d_sq)
        return grown

    def posterior(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each id in ``points``.

        Returns
        -------
        (means, variances) : tuple of np.ndarray
            Variances are clamped at zero; a value below ``-1e-8`` before
            clamping raises :class:`GpError`.
        """
        ids = np.asarray(list(points), dtype=int)
        prior_var = self._prior(ids, ids)
        if not self._points:
            return np.zeros(len(ids)), prior_var.copy()
        k_cross = self.cov.matrix(self._points, ids)
        means = k_cross.T @ self._alpha
        v = solve_triangular(self._chol, k_cross, lower=True)
        variances = prior_var - np.einsum("ij,ij->j", v, v)
        low = variances.min(initial=0.0)
        if low < VARIANCE_FLOOR:
            raise GpError(f"posterior variance {low:g} fell below the numerical floor")
        return means, np.maximum(variances, 0.0)

    def posterior_cov_pairs(self, left, right) -> np.ndarray:
        """Posterior covariance between ``left[i]`` and ``right[i]`` for each
        ``i`` of two equally long id sequences."""
        left = np.asarray(left, dtype=int)
        right = np.asarray(right, dtype=int)
        prior = self._prior(left, right)
        if not self._points:
            return prior.copy()
        kl = self.cov.matrix(self._points, left)
        kr = self.cov.matrix(self._points, right)
        vl = solve_triangular(self._chol, kl, lower=True)
        vr = solve_triangular(self._chol, kr, lower=True)
        return prior - np.einsum("ij,ij->j", vl, vr)

    def _prior(self, a, b) -> np.ndarray:
        """``cov.pairwise(a, b)``, evaluated on the first call for these ids."""
        key = (a.tobytes(), b.tobytes())
        if key not in self._priors:
            self._priors[key] = np.asarray(self.cov.pairwise(a, b), dtype=float)
        return self._priors[key]


def _solve_chol(chol, values):
    tmp = solve_triangular(chol, values, lower=True)
    return solve_triangular(chol.T, tmp, lower=False)


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
    if not beta_t > 0:
        raise ValueError(f"beta must be positive, got {beta_t!r}")
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
