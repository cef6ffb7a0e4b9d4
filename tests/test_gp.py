"""GP regression, beta schedules and confidence bands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safemdp.gp import (
    ConfidenceBands,
    ConstantBeta,
    GpError,
    GpModel,
    Kernel,
    MATERN52,
    SQUARED_EXPONENTIAL,
    SingularSystemError,
    StationaryCovariance,
    TheoreticalBeta,
    beta,
    initial_bands,
    kernel_eval,
    update_bands,
)

# ---------------------------------------------------------------------------
# kernels


def _oracle_kernel(kind, lengthscale, prior_std, distance):
    """Straight transcription of the kernel formulas, kept separate from the
    library implementation."""
    r = distance / lengthscale
    if kind == MATERN52:
        value = (1 + math.sqrt(5) * r + 5 * r**2 / 3) * math.exp(-math.sqrt(5) * r)
    else:
        value = math.exp(-(r**2) / 2)
    return prior_std**2 * value


def test_kernel_value_at_zero_is_prior_variance():
    for kind in (MATERN52, SQUARED_EXPONENTIAL):
        assert kernel_eval(Kernel(kind, 3.0, 2.5), 0.0) == pytest.approx(6.25)


def test_matern52_reference_value():
    # 100 * (1 + sqrt5 + 5/3) * exp(-sqrt5), computed with mpmath at 30 digits.
    k = Kernel(MATERN52, 1.0, 10.0)
    assert kernel_eval(k, 1.0) == pytest.approx(52.399410883182031, rel=1e-14)
    assert kernel_eval(k, 1.0) == pytest.approx(_oracle_kernel(MATERN52, 1.0, 10.0, 1.0))


def test_matern52_second_reference_value():
    k = Kernel(MATERN52, 1.7, 0.9)
    assert kernel_eval(k, 2.5) == pytest.approx(0.23856446636373773, rel=1e-14)


def test_squared_exponential_reference_value():
    # 100 * exp(-1/2) at distance == lengthscale, mpmath reference.
    k = Kernel(SQUARED_EXPONENTIAL, 4.2, 10.0)
    assert kernel_eval(k, 4.2) == pytest.approx(60.65306597126334, rel=1e-14)


def test_kernel_eval_vectorized_and_decreasing():
    k = Kernel(MATERN52, 2.0, 1.0)
    d = np.linspace(0.0, 10.0, 50)
    vals = kernel_eval(k, d)
    assert vals.shape == (50,)
    assert (np.diff(vals) < 0).all()
    for di, vi in zip(d, vals):
        assert vi == pytest.approx(_oracle_kernel(MATERN52, 2.0, 1.0, di))


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Kernel("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(MATERN52, 0.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(MATERN52, 1.0, -1.0)
    with pytest.raises(ValueError):
        kernel_eval(Kernel(MATERN52, 1.0, 1.0), -0.5)


def test_stationary_covariance_matrix_matches_pairwise():
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(12, 2))
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.3, 0.7), coords)
    a = np.arange(5)
    b = np.arange(5, 10)
    full = cov.matrix(a, b)
    np.testing.assert_allclose(np.diag(cov.matrix(a, a)), cov.diag(a))
    np.testing.assert_allclose(full[np.arange(5), np.arange(5)], cov.pairwise(a, b))
    np.testing.assert_allclose(cov.matrix(a, a), cov.matrix(a, a).T)


# ---------------------------------------------------------------------------
# posterior vs a dense-solve oracle


def _dense_posterior(kind, lengthscale, prior_std, noise_std, coords, obs_ids, values, query_ids):
    """Reference posterior computed by assembling and solving the full dense
    system, with no Cholesky factors or caching."""
    def kmat(a, b):
        d = np.linalg.norm(coords[a][:, None, :] - coords[b][None, :, :], axis=2)
        return np.vectorize(lambda x: _oracle_kernel(kind, lengthscale, prior_std, x))(d)

    big_k = kmat(obs_ids, obs_ids) + noise_std**2 * np.eye(len(obs_ids))
    cross = kmat(obs_ids, query_ids)
    solve = np.linalg.solve(big_k, np.asarray(values))
    means = cross.T @ solve
    variances = prior_std**2 - np.einsum("ij,ij->j", cross, np.linalg.solve(big_k, cross))
    return means, variances


def test_posterior_of_empty_model_is_prior():
    coords = np.arange(6, dtype=float)
    cov = StationaryCovariance(Kernel(MATERN52, 2.0, 1.5), coords)
    model = GpModel(cov, 0.1)
    means, variances = model.posterior(range(6))
    np.testing.assert_array_equal(means, 0.0)
    np.testing.assert_allclose(variances, 1.5**2)


def test_single_noiseless_observation_interpolates():
    coords = np.arange(4, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0).add_observation(2, 0.7)
    means, variances = model.posterior([2])
    assert means[0] == pytest.approx(0.7)
    assert variances[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", [MATERN52, SQUARED_EXPONENTIAL])
def test_posterior_matches_dense_solve(kind):
    rng = np.random.default_rng(7)
    for trial in range(5):
        n_pool = 25
        coords = rng.normal(size=(n_pool, 2)) * 3
        lengthscale = float(rng.uniform(0.5, 3.0))
        prior_std = float(rng.uniform(0.5, 2.0))
        noise_std = float(rng.uniform(0.05, 0.3))
        cov = StationaryCovariance(Kernel(kind, lengthscale, prior_std), coords)
        obs_ids = rng.integers(0, n_pool, size=30)
        values = rng.normal(size=30)
        model = GpModel.from_data(cov, noise_std, obs_ids, values)
        means, variances = model.posterior(range(n_pool))
        ref_means, ref_vars = _dense_posterior(kind, lengthscale, prior_std, noise_std,
                                               coords, obs_ids, values, np.arange(n_pool))
        np.testing.assert_allclose(means, ref_means, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(variances, np.maximum(ref_vars, 0.0), rtol=1e-8, atol=1e-10)


def test_posterior_cov_matches_dense_solve():
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(10, 1))
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), coords)
    obs = rng.integers(0, 10, size=8)
    vals = rng.normal(size=8)
    model = GpModel.from_data(cov, 0.2, obs, vals)

    def kvec(ids, j):
        d = np.linalg.norm(coords[ids] - coords[j], axis=1)
        return np.array([_oracle_kernel(MATERN52, 1.0, 1.0, x) for x in d])

    big_k = np.array([[_oracle_kernel(MATERN52, 1.0, 1.0,
                                      float(np.linalg.norm(coords[i] - coords[j])))
                       for j in obs] for i in obs]) + 0.04 * np.eye(8)
    for a in range(10):
        for b in range(10):
            prior = _oracle_kernel(MATERN52, 1.0, 1.0, float(np.linalg.norm(coords[a] - coords[b])))
            expected = prior - kvec(obs, a) @ np.linalg.solve(big_k, kvec(obs, b))
            got = model.posterior_cov_pairs([a], [b])[0]
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_posterior_cov_diagonal_equals_posterior_variance():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(8, 2))
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.2), coords)
    model = GpModel.from_data(cov, 0.1, [1, 4, 4, 6], [0.1, -0.2, 0.0, 0.5])
    _, variances = model.posterior(range(8))
    np.testing.assert_allclose(model.posterior_cov_pairs(range(8), range(8)), variances,
                               rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# incremental updates


def test_add_observation_returns_new_model():
    coords = np.arange(5, dtype=float)
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), coords)
    base = GpModel(cov, 0.1)
    grown = base.add_observation(2, 0.5)
    assert base.num_observations == 0
    assert grown.num_observations == 1
    # The old snapshot still answers queries as before.
    _, var0 = base.posterior([2])
    assert var0[0] == pytest.approx(1.0)


def test_incremental_equals_batch():
    rng = np.random.default_rng(19)
    coords = rng.normal(size=(15, 2))
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    obs = rng.integers(0, 15, size=10)
    vals = rng.normal(size=10)
    incremental = GpModel(cov, 0.1)
    for p, v in zip(obs, vals):
        incremental = incremental.add_observation(int(p), float(v))
    batch = GpModel.from_data(cov, 0.1, obs, vals)
    mi, vi = incremental.posterior(range(15))
    mb, vb = batch.posterior(range(15))
    np.testing.assert_allclose(mi, mb, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(vi, vb, rtol=1e-8, atol=1e-12)


def test_rebuild_reproduces_posterior():
    rng = np.random.default_rng(23)
    coords = rng.normal(size=(20, 2))
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), coords)
    model = GpModel(cov, 0.05)
    for _ in range(70):  # crosses the periodic-refactorization boundary
        model = model.add_observation(int(rng.integers(20)), float(rng.normal()))
    fresh = GpModel.from_data(cov, 0.05, model.points, model.values)
    m1, v1 = model.posterior(range(20))
    m2, v2 = fresh.posterior(range(20))
    np.testing.assert_allclose(m1, m2, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-12)


def test_duplicate_noiseless_observations_need_jitter():
    coords = np.arange(3, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0)
    model = model.add_observation(1, 0.4)
    model = model.add_observation(1, 0.4)  # exactly repeated, singular without jitter
    assert model.jitter > 0
    means, variances = model.posterior([1])
    assert means[0] == pytest.approx(0.4, abs=1e-4)
    assert variances[0] == pytest.approx(0.0, abs=1e-5)


def test_singular_system_error_when_jitter_cannot_help():
    # An indefinite "covariance" (eigenvalues 3 and -1) stays indefinite under
    # every jitter rung, so the escalation ladder must give up cleanly.
    class IndefiniteCov:
        _k = np.array([[1.0, 2.0], [2.0, 1.0]])

        def matrix(self, a, b):
            return self._k[np.ix_(np.asarray(a, int), np.asarray(b, int))]

        def pairwise(self, a, b):
            return self._k[np.asarray(a, int), np.asarray(b, int)]

        def diag(self, a):
            return np.ones(len(np.asarray(a)))

    model = GpModel(IndefiniteCov(), 0.0).add_observation(0, 1.0)
    with pytest.raises(SingularSystemError):
        model.add_observation(1, 1.0)


# ---------------------------------------------------------------------------
# beta schedules


def test_constant_beta_ignores_iteration():
    schedule = ConstantBeta(2.0)
    assert beta(schedule, 1) == 2.0
    assert beta(schedule, 57) == 2.0


def test_theoretical_beta_reference_point():
    # 2*1 + 300*1*ln(e)^3 = 302 when t/delta = e.
    schedule = TheoreticalBeta(1.0, 1.0 / math.e, lambda t: 1.0)
    assert beta(schedule, 1) == pytest.approx(302.0)


def test_theoretical_beta_monotone_for_monotone_capacity():
    schedule = TheoreticalBeta(2.0, 0.05, lambda t: math.log(1 + t))
    values = [beta(schedule, t) for t in range(1, 40)]
    assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        beta(ConstantBeta(2.0), 0)
    with pytest.raises(ValueError):
        ConstantBeta(0.0)
    with pytest.raises(ValueError):
        TheoreticalBeta(1.0, 1.5, lambda t: 1.0)
    with pytest.raises(ValueError):
        TheoreticalBeta(0.0, 0.5, lambda t: 1.0)
    # t / failure_probability must exceed one for the log cube to make sense;
    # smuggle in an out-of-range probability to hit the defensive branch.
    odd = TheoreticalBeta.__new__(TheoreticalBeta)
    object.__setattr__(odd, "rkhs_bound", 1.0)
    object.__setattr__(odd, "failure_probability", 2.0)
    object.__setattr__(odd, "info_capacity", lambda t: 1.0)
    with pytest.raises(ValueError):
        beta(odd, 1)
    with pytest.raises(ValueError):
        beta(TheoreticalBeta(1.0, 0.5, lambda t: -1.0), 5)


# ---------------------------------------------------------------------------
# confidence bands


def test_initial_bands_only_constrain_the_seed():
    seed = np.array([False, True, False])
    bands = initial_bands(3, seed, -0.4)
    assert bands.lower[1] == -0.4
    assert bands.lower[0] == -np.inf
    assert (bands.upper == np.inf).all()
    assert bands.collapses == 0


def test_update_is_intersection_with_previous_band():
    h = -0.4
    seed = np.array([True, False])
    bands = initial_bands(2, seed, h)
    # Seed state: [h, inf) meets [h-1, h+1] -> [h, h+1];
    # free state: (-inf, inf) meets [-2, 3] -> [-2, 3].
    means = np.array([h, 0.5])
    variances = np.array([1.0, 2.5**2])
    updated = update_bands(bands, means, variances, 1.0)
    assert updated.lower[0] == pytest.approx(h)
    assert updated.upper[0] == pytest.approx(h + 1)
    assert updated.lower[1] == pytest.approx(-2.0)
    assert updated.upper[1] == pytest.approx(3.0)


def test_beta_scales_interval_radius():
    bands = ConfidenceBands(np.array([-np.inf]), np.array([np.inf]))
    updated = update_bands(bands, np.array([1.0]), np.array([4.0]), 2.25)
    assert updated.lower[0] == pytest.approx(1.0 - 1.5 * 2.0)
    assert updated.upper[0] == pytest.approx(1.0 + 1.5 * 2.0)


def test_empty_intersection_collapses_to_midpoint():
    bands = ConfidenceBands(np.array([0.0]), np.array([1.0]))
    updated = update_bands(bands, np.array([5.0]), np.array([0.25]), 4.0)
    # New interval [4, 6] misses [0, 1]; crossed pair is (4, 1), midpoint 2.5.
    assert updated.collapses == 1
    assert updated.lower[0] == pytest.approx(2.5)
    assert updated.upper[0] == pytest.approx(2.5)


def test_update_bands_validates_input():
    bands = initial_bands(2, np.array([True, False]), 0.0)
    with pytest.raises(ValueError):
        update_bands(bands, np.zeros(3), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        update_bands(bands, np.zeros(2), np.ones(2), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_band_sequences_are_monotone(seed):
    # Means are clipped into the current band so every new interval overlaps
    # the old one; under that (honest-update) condition the intersection is
    # genuinely monotone.  Crossing bands are exercised separately below.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    bands = initial_bands(n, rng.random(n) < 0.4, float(rng.normal()))
    for _ in range(20):
        means = np.clip(rng.normal(scale=2.0, size=n), bands.lower, bands.upper)
        variances = rng.uniform(0.01, 4.0, size=n)
        updated = update_bands(bands, means, variances, float(rng.uniform(0.5, 4.0)))
        assert (updated.lower >= bands.lower).all()
        assert (updated.upper <= bands.upper).all()
        assert (updated.lower <= updated.upper).all()
        assert updated.collapses == bands.collapses
        bands = updated


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_free_band_sequences_stay_ordered(seed):
    # Unconstrained updates may cross the running band; those states snap to a
    # point at the midpoint of the crossed pair, everything else intersects.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    bands = initial_bands(n, rng.random(n) < 0.4, float(rng.normal()))
    for _ in range(20):
        means = rng.normal(scale=3.0, size=n)
        variances = rng.uniform(1e-4, 2.0, size=n)
        beta_t = float(rng.uniform(0.5, 4.0))
        rad = np.sqrt(beta_t * variances)
        lo = np.maximum(bands.lower, means - rad)
        hi = np.minimum(bands.upper, means + rad)
        crossed = lo > hi
        updated = update_bands(bands, means, variances, beta_t)
        assert (updated.lower <= updated.upper).all()
        assert updated.collapses == bands.collapses + int(crossed.sum())
        ok = ~crossed
        assert (updated.lower[ok] >= bands.lower[ok]).all()
        assert (updated.upper[ok] <= bands.upper[ok]).all()
        mid = 0.5 * (lo[crossed] + hi[crossed])
        np.testing.assert_allclose(updated.lower[crossed], mid)
        np.testing.assert_allclose(updated.upper[crossed], mid)
        bands = updated


def test_width_and_digest():
    bands = ConfidenceBands(np.array([0.0, 1.0]), np.array([2.0, 1.5]))
    np.testing.assert_allclose(bands.width(), [2.0, 0.5])
    assert bands.digest() == bands.digest()
    other = ConfidenceBands(np.array([0.0, 1.0]), np.array([2.0, 1.6]))
    assert bands.digest() != other.digest()
