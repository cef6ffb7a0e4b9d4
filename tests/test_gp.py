"""GP regression, the confidence scale beta and confidence bands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safemdp.explorer import GpBandModel
from safemdp.gp import (
    ConfidenceBands,
    GpError,
    GpModel,
    Kernel,
    MATERN52,
    REBUILD_PERIOD,
    SQUARED_EXPONENTIAL,
    SingularSystemError,
    StationaryCovariance,
    initial_bands,
    kernel_eval,
    update_bands,
)
from safemdp.mdp import GRID_DOWN, GRID_LEFT, GRID_RIGHT, augment, grid_mdp
from safemdp import gp as gp_module
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    HeightGpBandModel,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    difference_gp,
    height_gp,
    synth_terrain,
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
    np.testing.assert_allclose(np.diag(cov.matrix(a, a)), cov.pairwise(a, a))
    np.testing.assert_allclose(full[np.arange(5), np.arange(5)], cov.pairwise(a, b))
    np.testing.assert_allclose(cov.matrix(a, a), cov.matrix(a, a).T)


def _direct_matrix(cov, a, b):
    """The kernel block between ``a`` and ``b`` in one expression, no memo."""
    pa, pb = cov.coords[np.asarray(a, dtype=int)], cov.coords[np.asarray(b, dtype=int)]
    diff = pa[:, None, :] - pb[None, :, :]
    return kernel_eval(cov.kernel, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


@pytest.mark.parametrize("kind", [MATERN52, SQUARED_EXPONENTIAL])
def test_memoized_matrix_equals_the_direct_formula_bit_for_bit(kind, monkeypatch):
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2)) * 4
    kernel = Kernel(kind, 1.7, 0.9)
    calls = [(rng.integers(0, 30, size=rng.integers(1, 12)),
              rng.integers(0, 30, size=rng.integers(1, 40))) for _ in range(20)]
    calls += [([3, 3, 7, 3], [7, 7, 3, 0]), ([], [1, 2]), (np.arange(30), np.arange(30))]
    orders = (np.arange(len(calls)), rng.permutation(len(calls)))
    # New rows in one block, then in blocks of 7 rows.
    for block_bytes in (gp_module._EVALUATE_BLOCK_BYTES, 7 * coords.nbytes):
        monkeypatch.setattr(gp_module, "_EVALUATE_BLOCK_BYTES", block_bytes)
        for order in orders:
            cov = StationaryCovariance(kernel, coords)
            for a, b in [calls[i] for i in order] * 2:  # the second pass reads the memo
                np.testing.assert_array_equal(cov.matrix(a, b), _direct_matrix(cov, a, b))


def test_each_kernel_row_is_evaluated_once_and_only_for_observed_points(monkeypatch):
    # The row of id p is the one kernel_eval sees with a zero distance at p.
    evaluated = []

    def recording(kernel, distance):
        if np.ndim(distance) == 2:
            evaluated.extend(int(np.flatnonzero(row == 0)[0]) for row in distance)
        return kernel_eval(kernel, distance)

    monkeypatch.setattr(gp_module, "kernel_eval", recording)
    rng = np.random.default_rng(13)
    cov = StationaryCovariance(Kernel(MATERN52, 1.5, 1.0), rng.normal(size=(40, 2)) * 3)
    model = GpModel(cov, 0.1)
    observed = set()
    for step in range(REBUILD_PERIOD + 10):  # crosses a refactorization
        point = int(rng.integers(0, 12))
        model.add_observation(point, float(rng.normal()))
        observed.add(point)
        if step % 5 == 0:
            model.posterior(range(40))
            model.posterior_cov_pairs(rng.integers(0, 40, 10), rng.integers(0, 40, 10))
    model.posterior(range(40))
    assert sorted(evaluated) == sorted(observed)


def test_memo_storage_doubles_up_to_one_row_per_point():
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(100, dtype=float))
    capacities = []
    for point in range(100):
        cov.matrix([point], [0])
        if not capacities or len(cov._rows) != capacities[-1]:
            capacities.append(len(cov._rows))
    assert capacities == [1, 2, 4, 8, 16, 32, 64, 100]


@pytest.mark.parametrize("observation_model", ["difference", "heights"])
def test_prior_variances_are_evaluated_once_per_model(monkeypatch, observation_model):
    calls = []
    pairwise = StationaryCovariance.pairwise

    def counting(self, a, b):
        calls.append(len(a))
        return pairwise(self, a, b)

    monkeypatch.setattr(StationaryCovariance, "pairwise", counting)
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1)), 4, 4, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 3)
    kernel = Kernel(MATERN52, 3.0, 2.0)
    if observation_model == "heights":
        model = HeightGpBandModel(height_gp(aug, kernel, 0.075), aug, 2.0)
    else:
        model = difference_band_model(aug, kernel, 0.075, 2.0)
    bands = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), env.threshold)
    per_advance = []
    for label in (GRID_RIGHT, GRID_DOWN, GRID_LEFT, GRID_RIGHT):
        model.measure(env, aug.action_state_of[(5, label)])
        before = len(calls)
        bands = model.advance(bands)
        per_advance.append(len(calls) - before)
    assert per_advance[0] > 0
    assert per_advance[1:] == [0, 0, 0]


def test_incremental_difference_gp_matches_batch_and_dense_solve():
    aug = augment(grid_mdp(6, 6, 1.0), half_step=0.5)
    kernel = Kernel(MATERN52, 3.0, 2.0)
    noise = 0.075
    rng = np.random.default_rng(31)
    obs = rng.integers(0, aug.num_states, size=REBUILD_PERIOD + 30)
    vals = rng.normal(size=len(obs))
    incremental = difference_gp(aug, kernel, noise)
    for p, v in zip(obs, vals):
        incremental.add_observation(int(p), float(v))
    batch = GpModel.from_data(difference_gp(aug, kernel, noise).cov, noise, obs, vals)

    # Dense reference: the four-term difference kernel and np.linalg.solve.
    coords, pairs = aug.base.coords, aug.pairs()

    def k(u, v):
        return kernel_eval(kernel, np.linalg.norm(coords[u][:, None] - coords[v][None], axis=-1))

    def k_diff(a, b):
        (u, w), (x, y) = pairs[a].T, pairs[b].T
        return k(u, x) - k(u, y) - k(w, x) + k(w, y)

    states = np.arange(aug.num_states)
    gram = k_diff(obs, obs) + noise**2 * np.eye(len(obs))
    cross = k_diff(obs, states)
    mean_ref = cross.T @ np.linalg.solve(gram, vals)
    prior = 2.0 * (kernel.prior_std**2 - kernel_eval(
        kernel, np.linalg.norm(coords[pairs[:, 0]] - coords[pairs[:, 1]], axis=-1)))
    var_ref = prior - np.einsum("ij,ij->j", cross, np.linalg.solve(gram, cross))

    def rel(a, b):  # acceptance gate 1's measure and bound
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))

    mean_i, var_i = incremental.posterior(states)
    mean_b, var_b = batch.posterior(states)
    for mean, var in ((mean_i, var_i), (mean_b, var_b)):
        assert rel(mean, mean_ref) <= 1e-8
        assert rel(var, np.maximum(var_ref, 0.0)) <= 1e-8
    assert rel(mean_i, mean_b) <= 1e-8 and rel(var_i, var_b) <= 1e-8


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
    variances[:] = -1.0  # the caller's copy, not the model's prior
    np.testing.assert_allclose(model.posterior(range(6))[1], 1.5**2)


def test_single_noiseless_observation_interpolates():
    coords = np.arange(4, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0)
    model.add_observation(2, 0.7)
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


def test_add_observation_updates_in_place():
    coords = np.arange(5, dtype=float)
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), coords)
    model = GpModel(cov, 0.1)
    _, var0 = model.posterior([2])
    assert var0[0] == 1.0
    assert model.add_observation(2, 0.5) is None
    assert model.num_observations == 1
    assert model.points == (2,)
    np.testing.assert_array_equal(model.values, [0.5])
    _, var1 = model.posterior([2])
    assert var1[0] == pytest.approx(0.01 / 1.01)


def test_incremental_equals_batch():
    rng = np.random.default_rng(19)
    coords = rng.normal(size=(15, 2))
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    obs = rng.integers(0, 15, size=10)
    vals = rng.normal(size=10)
    incremental = GpModel(cov, 0.1)
    for p, v in zip(obs, vals):
        incremental.add_observation(int(p), float(v))
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
        model.add_observation(int(rng.integers(20)), float(rng.normal()))
    fresh = GpModel.from_data(cov, 0.05, model.points, model.values)
    m1, v1 = model.posterior(range(20))
    m2, v2 = fresh.posterior(range(20))
    np.testing.assert_allclose(m1, m2, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(v1, v2, rtol=1e-10, atol=1e-12)


def test_duplicate_noiseless_observations_need_jitter():
    coords = np.arange(3, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0)
    model.add_observation(1, 0.4)
    model.add_observation(1, 0.4)  # exactly repeated, singular without jitter
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

    model = GpModel(IndefiniteCov(), 0.0)
    model.add_observation(0, 1.0)
    with pytest.raises(SingularSystemError):
        model.add_observation(1, 1.0)
    # The failed update leaves the model conditioned on what it had.
    assert model.points == (0,)
    np.testing.assert_array_equal(model.values, [1.0])


# ---------------------------------------------------------------------------
# the confidence scale beta


def test_constant_beta_ignores_iteration():
    # The band model holds one beta: every advance scales the posterior
    # standard deviation by sqrt(beta), however many came before.
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 2.0), np.arange(3.0))
    model = GpBandModel(GpModel(cov, 0.1), 2.25)
    bands = initial_bands(3, np.zeros(3, bool), 0.0)
    for _ in range(3):
        bands = model.advance(bands)
        np.testing.assert_allclose(bands.upper, 1.5 * 2.0)
        np.testing.assert_allclose(bands.lower, -1.5 * 2.0)
    model.gp.add_observation(1, 0.5)
    means, variances = model.gp.posterior(np.arange(3))
    bands = model.advance(bands)
    np.testing.assert_allclose(bands.upper, means + 1.5 * np.sqrt(variances))
    np.testing.assert_allclose(bands.lower, means - 1.5 * np.sqrt(variances))


def test_beta_domain_errors():
    kernel = Kernel(MATERN52, 1.0, 1.0)
    aug = augment(grid_mdp(2, 2, 1.0))
    cov = StationaryCovariance(kernel, np.arange(3.0))
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="beta"):
            GpBandModel(GpModel(cov, 0.1), bad)
        with pytest.raises(ValueError, match="beta"):
            HeightGpBandModel(height_gp(aug, kernel, 0.1), aug, bad)
        with pytest.raises(ValueError, match="beta"):
            difference_band_model(aug, kernel, 0.1, bad)
        with pytest.raises(ValueError, match="beta"):
            update_bands(initial_bands(1, [False], 0.0), [0.0], [1.0], bad)


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


def test_width():
    bands = ConfidenceBands(np.array([0.0, 1.0]), np.array([2.0, 1.5]))
    np.testing.assert_allclose(bands.width(), [2.0, 0.5])
