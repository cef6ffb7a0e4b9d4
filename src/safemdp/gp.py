"""Exact Gaussian-process regression over a finite index set.

This module provides the statistical machinery used to estimate the unknown
safety feature: stationary kernels evaluated on distances, an exact GP
posterior with incremental Cholesky updates, scaling schedules for the
confidence-interval width, and monotonically intersected confidence bands.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

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
    """

    def __init__(self, kernel: Kernel, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        self.kernel = kernel
        self.coords = coords

    @property
    def num_points(self) -> int:
        return self.coords.shape[0]

    def matrix(self, a, b) -> np.ndarray:
        """Full covariance matrix between the id sequences ``a`` and ``b``."""
        pa = self.coords[np.asarray(a, dtype=int)]
        pb = self.coords[np.asarray(b, dtype=int)]
        diff = pa[:, None, :] - pb[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        return kernel_eval(self.kernel, dist)

    def pairwise(self, a, b) -> np.ndarray:
        """Element-wise covariance between equally long id sequences."""
        pa = self.coords[np.asarray(a, dtype=int)]
        pb = self.coords[np.asarray(b, dtype=int)]
        dist = np.linalg.norm(pa - pb, axis=-1)
        return kernel_eval(self.kernel, dist)

    def diag(self, a) -> np.ndarray:
        """Prior variance of each id in ``a``."""
        return np.full(len(np.asarray(a, dtype=int)), self.kernel.prior_std**2)


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
    """Exact GP posterior with immutable-snapshot update semantics.

    ``add_observation`` returns a new model and never mutates the receiver,
    so earlier snapshots stay valid while exploration continues.  The
    Cholesky factor of ``K + noise_std**2 I`` is grown by rank-1 appends and
    refactorized from scratch every :data:`REBUILD_PERIOD` updates.

    Parameters
    ----------
    cov :
        Covariance object with ``matrix(a, b)``, ``pairwise(a, b)`` and
        ``diag(a)`` methods over integer point ids.
    noise_std : float
        Non-negative observation noise standard deviation.
    """

    def __init__(self, cov, noise_std: float, *, _points=(), _values=None, _chol=None,
                 _alpha=None, _jitter=0.0, _since_rebuild=0):
        if noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        self.cov = cov
        self.noise_std = float(noise_std)
        self._points = tuple(_points)
        self._values = np.zeros(0) if _values is None else _values
        self._chol = _chol
        self._alpha = _alpha
        self._jitter = _jitter
        self._since_rebuild = _since_rebuild

    @classmethod
    def from_data(cls, cov, noise_std: float, points: Sequence[int], values) -> "GpModel":
        """Batch-build a model from all observations at once."""
        points = tuple(int(p) for p in points)
        values = np.asarray(values, dtype=float)
        if len(points) != len(values):
            raise ValueError("points and values must have equal length")
        if not points:
            return cls(cov, noise_std)
        chol, jitter = _factorize(cov, points, noise_std**2, 0.0)
        alpha = _solve_chol(chol, values)
        return cls(cov, noise_std, _points=points, _values=values, _chol=chol,
                   _alpha=alpha, _jitter=jitter)

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

    def add_observation(self, point: int, value: float) -> "GpModel":
        """Return a new model that also conditions on ``(point, value)``."""
        point = int(point)
        points = self._points + (point,)
        values = np.append(self._values, float(value))
        noise_var = self.noise_std**2
        jitter = self._jitter
        since = self._since_rebuild + 1
        chol = None
        if self._chol is not None and since < REBUILD_PERIOD:
            chol = self._try_append(point, noise_var + jitter)
        if chol is None:
            chol, jitter = _factorize(self.cov, points, noise_var, jitter)
            since = 0
        alpha = _solve_chol(chol, values)
        return GpModel(self.cov, self.noise_std, _points=points, _values=values,
                       _chol=chol, _alpha=alpha, _jitter=jitter, _since_rebuild=since)

    def _try_append(self, point, diag_boost):
        """Grow the Cholesky factor by one row, or ``None`` if unstable."""
        k_vec = self.cov.matrix(self._points, [point])[:, 0]
        k_pp = float(self.cov.diag([point])[0]) + diag_boost
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
        prior_var = np.asarray(self.cov.diag(ids), dtype=float)
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
        prior = np.asarray(self.cov.pairwise(left, right), dtype=float)
        if not self._points:
            return prior
        kl = self.cov.matrix(self._points, left)
        kr = self.cov.matrix(self._points, right)
        vl = solve_triangular(self._chol, kl, lower=True)
        vr = solve_triangular(self._chol, kr, lower=True)
        return prior - np.einsum("ij,ij->j", vl, vr)


def _solve_chol(chol, values):
    tmp = solve_triangular(chol, values, lower=True)
    return solve_triangular(chol.T, tmp, lower=False)


@dataclass(frozen=True)
class ConstantBeta:
    """Fixed confidence-interval scaling, as used in the experiments."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class TheoreticalBeta:
    """Iteration-dependent scaling ``2 B + 300 gamma(t) ln(t / delta)**3``.

    Parameters
    ----------
    rkhs_bound : float
        Positive bound on the RKHS norm of the safety feature.
    failure_probability : float
        Tolerated probability, in ``(0, 1)``, of the bands ever excluding
        the true function.
    info_capacity : callable
        Maps the iteration index ``t`` to the non-negative information
        capacity of the kernel after ``t`` observations.
    """

    rkhs_bound: float
    failure_probability: float
    info_capacity: Callable[[int], float]

    def __post_init__(self):
        if not self.rkhs_bound > 0:
            raise ValueError("rkhs_bound must be positive")
        if not 0 < self.failure_probability < 1:
            raise ValueError("failure_probability must lie in (0, 1)")


BetaSchedule = Union[ConstantBeta, TheoreticalBeta]


def beta(schedule: BetaSchedule, t: int) -> float:
    """Confidence scaling for iteration ``t`` (1-based)."""
    if t < 1:
        raise ValueError("iteration index must be >= 1")
    if isinstance(schedule, ConstantBeta):
        return schedule.value
    ratio = t / schedule.failure_probability
    if ratio <= 1.0:
        raise ValueError(f"t / failure_probability = {ratio:g} must exceed 1")
    capacity = schedule.info_capacity(t)
    if capacity < 0:
        raise ValueError("info_capacity must be non-negative")
    return 2.0 * schedule.rkhs_bound + 300.0 * capacity * math.log(ratio) ** 3


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

    def digest(self) -> str:
        """Stable fingerprint of the current bands, for trace records."""
        payload = np.ascontiguousarray(self.lower).tobytes() + np.ascontiguousarray(self.upper).tobytes()
        return hashlib.sha256(payload).hexdigest()


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
    if beta_t <= 0:
        raise ValueError("beta_t must be positive")
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
