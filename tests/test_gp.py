"""GP regression, the confidence scale beta and confidence bands."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from safemdp.explorer import Environment, GpBandModel
from safemdp.gp import (
    ConfidenceBands,
    GpModel,
    Kernel,
    MATERN52,
    SQUARED_EXPONENTIAL,
    SingularSystemError,
    StationaryCovariance,
    initial_bands,
    kernel_eval,
    update_bands,
)
from safemdp.mdp import GRID_DOWN, GRID_LEFT, GRID_RIGHT, ManhattanMetric, Mdp, augment, grid_mdp
from safemdp import gp as gp_module
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    DifferenceCovariance,
    HeightGpBandModel,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    difference_gp,
    height_gp,
    synth_terrain,
)

from oracles import (
    dense_posterior,
    difference_rows,
    kernel_value,
    moves,
    point_rows,
    rel_dev,
    representatives,
    step,
)

# ---------------------------------------------------------------------------
# kernels


def test_kernel_value_at_zero_is_prior_variance():
    for kind in (MATERN52, SQUARED_EXPONENTIAL):
        assert kernel_eval(Kernel(kind, 3.0, 2.5), 0.0) == pytest.approx(6.25)


def test_matern52_reference_value():
    # 100 * (1 + sqrt5 + 5/3) * exp(-sqrt5), computed with mpmath at 30 digits.
    k = Kernel(MATERN52, 1.0, 10.0)
    assert kernel_eval(k, 1.0) == pytest.approx(52.399410883182031, rel=1e-14)
    assert kernel_eval(k, 1.0) == pytest.approx(kernel_value(k, 1.0))


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
        assert vi == pytest.approx(kernel_value(k, di))


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Kernel("cubic", 1.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(MATERN52, 0.0, 1.0)
    with pytest.raises(ValueError):
        Kernel(MATERN52, 1.0, -1.0)
    with pytest.raises(ValueError):
        kernel_eval(Kernel(MATERN52, 1.0, 1.0), -0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("scale", ["lengthscale", "prior_std"])
def test_kernel_rejects_non_finite_scales(scale, bad):
    # An infinite prior_std would make every posterior NaN, and an infinite
    # lengthscale a constant kernel.
    with pytest.raises(ValueError, match=f"{scale} must be positive and finite"):
        Kernel(MATERN52, **{"lengthscale": 1.0, "prior_std": 1.0, scale: bad})


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
    """The kernel block between ``a`` and ``b`` in one expression."""
    pa, pb = cov.coords[np.asarray(a, dtype=int)], cov.coords[np.asarray(b, dtype=int)]
    diff = pa[:, None, :] - pb[None, :, :]
    return kernel_eval(cov.kernel, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))


@pytest.mark.parametrize("kind", [MATERN52, SQUARED_EXPONENTIAL])
def test_kernel_eval_into_its_own_distances_keeps_every_bit(kind):
    # Written into its input or not, the kernel is the one expression, in
    # its order of operations.
    distance = np.random.default_rng(2).uniform(0.0, 9.0, size=(7, 11))
    r = distance / 1.3
    if kind == MATERN52:
        sr = math.sqrt(5.0) * r
        expected = 0.7**2 * ((1.0 + sr + sr * sr / 3.0) * np.exp(-sr))
    else:
        expected = 0.7**2 * np.exp(-0.5 * r * r)
    np.testing.assert_array_equal(kernel_eval(Kernel(kind, 1.3, 0.7), distance), expected)
    out = distance.copy()
    assert kernel_eval(Kernel(kind, 1.3, 0.7), out, out) is out
    np.testing.assert_array_equal(out, expected)


def test_covariance_ids_out_of_range_and_unequal_lengths_raise_value_error():
    # -1 used to read the last point, and 5 raised a bare IndexError.
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(5.0))
    for a, b, bad in (([-1], [0], -1), ([5], [0], 5), ([0], [-1], -1), ([2, 0], [1, 7], 7)):
        for method in (cov.matrix, cov.pairwise):
            with pytest.raises(ValueError, match=f"point id {bad} is out of range"):
                method(a, b)
    with pytest.raises(ValueError, match="point id 5 is out of range"):
        cov.fill_rows([5], np.empty((1, 5)))
    with pytest.raises(ValueError, match="differ in length: 2 and 1"):
        cov.pairwise([0, 1], [0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_covariance_rejects_non_finite_coordinates(bad):
    # A NaN coordinate gives a NaN posterior variance, which no floor catches.
    with pytest.raises(ValueError, match="coordinates must be finite"):
        StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), [[0.0, 0.0], [bad, 1.0]])


@pytest.mark.parametrize("kind", [MATERN52, SQUARED_EXPONENTIAL])
def test_matrix_equals_the_direct_formula_bit_for_bit(kind, monkeypatch):
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(30, 2)) * 4
    kernel = Kernel(kind, 1.7, 0.9)
    calls = [(rng.integers(0, 30, size=rng.integers(1, 12)),
              rng.integers(0, 30, size=rng.integers(1, 40))) for _ in range(20)]
    calls += [([3, 3, 7, 3], [7, 7, 3, 0]), ([], [1, 2]), (np.arange(30), np.arange(30))]
    cov = StationaryCovariance(kernel, coords)
    # Rows in one block, then in blocks of 7 rows.
    for block_bytes in (gp_module._BLOCK_BYTES, 7 * coords.nbytes):
        monkeypatch.setattr(gp_module, "_BLOCK_BYTES", block_bytes)
        for a, b in calls:
            np.testing.assert_array_equal(cov.matrix(a, b), _direct_matrix(cov, a, b))


def test_each_kernel_row_is_evaluated_once_and_only_for_observed_points(monkeypatch):
    # The row of id p is the one kernel_eval sees with a zero distance at p.
    evaluated = []

    def recording(kernel, distance, out=None):
        if np.ndim(distance) == 2:
            evaluated.extend(int(np.flatnonzero(row == 0)[0]) for row in distance)
        return kernel_eval(kernel, distance, out)

    monkeypatch.setattr(gp_module, "kernel_eval", recording)
    rng = np.random.default_rng(13)
    cov = StationaryCovariance(Kernel(MATERN52, 1.5, 1.0), rng.normal(size=(40, 2)) * 3)
    model = GpModel(cov, 0.1, (rng.integers(0, 40, 10), rng.integers(0, 40, 10)))
    observed = set()
    for i in range(74):
        point = int(rng.integers(0, 12))
        model.add_observation(point, float(rng.normal()))
        observed.add(point)
        if i % 5 == 0:
            model.posterior()
            model.posterior_cov_pairs()
    model.posterior()
    assert sorted(evaluated) == sorted(observed)


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
    assert calls  # the prior variances of all points, when the model is made
    bands = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), env.threshold)
    per_step = []
    for label in (GRID_RIGHT, GRID_DOWN, GRID_LEFT, GRID_RIGHT):
        before = len(calls)
        model.measure(env, step(aug, 5, label))
        bands = model.advance(bands)
        per_step.append(len(calls) - before)
    # k(p, p) comes from the stored prior, and the heights model's pair
    # covariances are evaluated with it, when the model is made.
    assert per_step == [0, 0, 0, 0]


def test_incremental_difference_gp_matches_dense_solve():
    aug = augment(grid_mdp(6, 6, 1.0), half_step=0.5)
    kernel = Kernel(MATERN52, 3.0, 2.0)
    noise = 0.075
    rng = np.random.default_rng(31)
    obs = rng.integers(0, aug.num_states, size=94)
    vals = rng.normal(size=len(obs))
    model = difference_gp(aug, kernel, noise)
    for p, v in zip(obs, vals):
        model.add_observation(int(p), float(v))
    rows = difference_rows(aug)
    mean_ref, var_ref = dense_posterior(kernel, aug.base.metric.coords, noise, rows[obs], vals, rows)
    mean, var = model.posterior()
    assert rel_dev(mean, mean_ref) <= 1e-8
    assert rel_dev(var, np.maximum(var_ref, 0.0)) <= 1e-8


def test_a_525_observation_append_chain_matches_dense_solve():
    # The CLI's default iteration cap, at 150 distinct states: the drift of
    # 525 appended rows stays within acceptance gate 1's bound.
    aug = augment(grid_mdp(12, 12, 1.0), half_step=0.5)
    kernel = Kernel(MATERN52, 3.0, 2.0)
    noise = 0.075
    rng = np.random.default_rng(43)
    pool = rng.choice(aug.num_states, size=150, replace=False)
    obs = pool[rng.integers(0, len(pool), size=525)]
    vals = rng.normal(size=len(obs))
    model = difference_gp(aug, kernel, noise)
    for p, v in zip(obs, vals):
        model.add_observation(int(p), float(v))
    assert model.num_observations == 525 and len(set(model.points)) < 525
    rows = difference_rows(aug)
    mean_ref, var_ref = dense_posterior(kernel, aug.base.metric.coords, noise, rows[obs], vals, rows)
    mean, var = model.posterior()
    assert rel_dev(mean, mean_ref) <= 1e-8
    assert rel_dev(var, np.maximum(var_ref, 0.0)) <= 1e-8


# ---------------------------------------------------------------------------
# posterior vs a dense-solve oracle


def test_posterior_of_empty_model_is_prior():
    coords = np.arange(6, dtype=float)
    cov = StationaryCovariance(Kernel(MATERN52, 2.0, 1.5), coords)
    model = GpModel(cov, 0.1)
    means, variances = model.posterior()
    np.testing.assert_array_equal(means, 0.0)
    np.testing.assert_allclose(variances, 1.5**2)
    variances[:] = -1.0  # the caller's copy, not the model's prior
    np.testing.assert_allclose(model.posterior()[1], 1.5**2)


def test_single_noiseless_observation_interpolates():
    coords = np.arange(4, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0)
    model.add_observation(2, 0.7)
    means, variances = model.posterior()
    assert means[2] == pytest.approx(0.7)
    assert variances[2] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", [MATERN52, SQUARED_EXPONENTIAL])
def test_posterior_matches_dense_solve(kind):
    rng = np.random.default_rng(7)
    for trial in range(5):
        n_pool = 25
        coords = rng.normal(size=(n_pool, 2)) * 3
        lengthscale = float(rng.uniform(0.5, 3.0))
        prior_std = float(rng.uniform(0.5, 2.0))
        noise_std = float(rng.uniform(0.05, 0.3))
        kernel = Kernel(kind, lengthscale, prior_std)
        model = GpModel(StationaryCovariance(kernel, coords), noise_std)
        obs_ids = rng.integers(0, n_pool, size=30)
        values = rng.normal(size=30)
        for point, value in zip(obs_ids, values):
            model.add_observation(point, value)
        means, variances = model.posterior()
        ref_means, ref_vars = dense_posterior(kernel, coords, noise_std, point_rows(obs_ids, n_pool),
                                              values, point_rows(range(n_pool), n_pool))
        np.testing.assert_allclose(means, ref_means, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(variances, np.maximum(ref_vars, 0.0), rtol=1e-8, atol=1e-10)


def test_posterior_cov_matches_dense_solve():
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(10, 1))
    kernel = Kernel(MATERN52, 1.0, 1.0)
    left, right = np.divmod(np.arange(100), 10)
    model = GpModel(StationaryCovariance(kernel, coords), 0.2, (left, right))
    obs = rng.integers(0, 10, size=8)
    vals = rng.normal(size=8)
    for point, value in zip(obs, vals):
        model.add_observation(point, value)
    _, cov_ref = dense_posterior(kernel, coords, 0.2, point_rows(obs, 10), vals,
                                 point_rows(left, 10), point_rows(right, 10))
    for got, expected in zip(model.posterior_cov_pairs()[2], cov_ref):
        assert got == pytest.approx(expected, rel=1e-8, abs=1e-10)


def test_the_dense_reference_imports_nothing_from_the_gp_or_terrain():
    # The reference must share no code with the modules it checks.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [".".join(filter(None, [getattr(node, "module", None), alias.name]))
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert not [name for name in imported if name.startswith(("safemdp.gp", "safemdp.terrain"))]


def test_posterior_cov_pairs_whitens_each_distinct_point_once(monkeypatch):
    rng = np.random.default_rng(17)
    cov = StationaryCovariance(Kernel(MATERN52, 1.5, 1.0), rng.normal(size=(30, 2)) * 3)
    observations = [(int(point), float(rng.normal())) for point in rng.integers(0, 30, size=12)]
    # Repeats within each side and ids shared between the sides.
    left = rng.integers(0, 12, size=60)
    right = rng.integers(6, 18, size=60)
    model = GpModel(cov, 0.1, (left, right))
    for point, value in observations:
        model.add_observation(point, value)
    chol = model._factor()
    vl = solve_triangular(chol, cov.matrix(model.points, left), lower=True)
    vr = solve_triangular(chol, cov.matrix(model.points, right), lower=True)
    separately = cov.pairwise(left, right) - np.einsum("ij,ij->j", vl, vr)

    columns = []

    def counting(a, b, **kwargs):
        columns.append(b.shape[1])
        return solve_triangular(a, b, **kwargs)

    monkeypatch.setattr(gp_module, "solve_triangular", counting)
    _, _, cross = model.posterior_cov_pairs()
    np.testing.assert_array_equal(cross, separately)
    assert columns == [30]


def _difference_model_with_repeats(size=6):
    """A difference GP over a size x size augmented grid: 40 observations at
    8 states, a cell and a stay action among them.  Its pairs are the ids
    ``(owner, landing)`` of every state."""
    aug = augment(grid_mdp(size, size, 1.0), half_step=0.5)
    cov = difference_gp(aug, Kernel(MATERN52, 3.0, 2.0), 0.075).cov
    model = GpModel(cov, 0.075, (aug.owner, aug.landing))
    rng = np.random.default_rng(41)
    stays = np.flatnonzero(aug.is_action_state & (aug.owner == aug.landing))
    pool = np.concatenate([[3, stays[0]], rng.choice(aug.num_states, size=6, replace=False)])
    for point in pool[rng.integers(0, len(pool), size=40)]:
        model.add_observation(int(point), float(rng.normal()))
    return aug, model


def _all_observation_posterior(model):
    """The posterior from the covariance of every observation's
    representative with every representative, mirrored: each point reads
    its representative's, with the mean times its sign."""
    rep, sign = model.cov.representatives
    ids = np.arange(len(rep))
    reps = np.flatnonzero(rep == ids)
    k_cross = model.cov.matrix(rep[list(model.points)], reps)
    v = solve_triangular(model._factor(), k_cross, lower=True)
    means, variances = np.zeros(len(rep)), model.cov.pairwise(ids, ids)
    means[reps] = v.T @ model._white
    variances[reps] -= np.einsum("ij,ij->j", v, v)
    return means[rep] * sign, np.maximum(variances[rep], 0.0)


def test_posterior_equals_the_all_observation_solve_bit_for_bit():
    _, model = _difference_model_with_repeats()
    assert len(set(model.points)) < model.num_observations
    for got, expected in zip(model.posterior(), _all_observation_posterior(model)):
        np.testing.assert_array_equal(got, expected)


def test_posterior_mean_moves_at_most_in_the_last_bits_of_a_final_partial_block():
    # BLAS computes a matrix-vector product's final (count mod 4) outputs
    # with another kernel.  On a 6x6 grid the 132 representatives and the 60
    # of nonzero variance both fill whole blocks of four, so the test above
    # is exact; on a 5x5 grid (90 and 40) one mean may differ in its last
    # bits.
    _, model = _difference_model_with_repeats(5)
    means, variances = model.posterior()
    ref_means, ref_variances = _all_observation_posterior(model)
    np.testing.assert_array_equal(variances, ref_variances)
    np.testing.assert_allclose(means, ref_means, rtol=1e-13, atol=0.0)


def test_zero_variance_states_get_positive_zero_mean_and_zero_variance():
    aug, model = _difference_model_with_repeats()
    ids = np.arange(aug.num_states)
    zero = model.cov.pairwise(ids, ids) == 0.0
    # Cells and stay actions: owner == landing, an identically zero feature.
    np.testing.assert_array_equal(zero, aug.owner == aug.landing)
    means, variances = model.posterior()
    assert not np.signbit(means[zero]).any() and (means[zero] == 0.0).all()
    assert not np.signbit(variances[zero]).any() and (variances[zero] == 0.0).all()
    assert (variances[~zero] > 0.0).all()


def _reverse_of(aug):
    """The action-state of each move's reverse transition, where there is
    one: a dict over ``(owner, landing)``."""
    move_of = {}
    for s in np.flatnonzero(aug.is_action_state):
        move_of.setdefault((int(aug.owner[s]), int(aug.landing[s])), int(s))
    return {s: move_of[v, u] for (u, v), s in move_of.items() if u != v and (v, u) in move_of}


def _hand_built_aug():
    """Four cells in a row: two parallel moves 0 -> 1 and one 1 -> 0, a
    one-way move 1 -> 2, and a move each way between 2 and 3."""
    base = Mdp([[(0, 1), (1, 1), (4, 0)], [(0, 0), (3, 2), (4, 1)], [(3, 3), (4, 2)],
                [(2, 2), (4, 3)]], ManhattanMetric([[0, 0], [0, 1], [0, 2], [0, 3]], 1.0))
    return augment(base, half_step=0.5)


@pytest.mark.parametrize("build", [lambda: augment(grid_mdp(5, 6, 1.0), half_step=0.5),
                                   _hand_built_aug], ids=["grid", "hand-built"])
def test_the_difference_representative_map_equals_the_brute_force_map(build):
    aug = build()
    rep, sign = difference_gp(aug, Kernel(MATERN52, 3.0, 2.0), 0.075).cov.representatives
    want_rep, want_sign = representatives(aug)
    np.testing.assert_array_equal(rep, want_rep)
    np.testing.assert_array_equal(sign, want_sign)
    assert (rep[rep] == rep).all()


def _grid_with_nodata_aug():
    """A 5 x 6 grid without three of its cells, one of them a corner."""
    valid = np.ones(30, dtype=bool)
    valid[[0, 8, 21]] = False
    return augment(grid_mdp(5, 6, 1.0, valid=valid), half_step=0.5)


@pytest.mark.parametrize("build", [_grid_with_nodata_aug, _hand_built_aug],
                         ids=["grid-with-nodata", "hand-built"])
def test_the_move_index_equals_the_brute_force_index(build):
    aug = build()
    want_move_of, want_cells, want_first = moves(aug)
    np.testing.assert_array_equal(aug.move_of, want_move_of)
    np.testing.assert_array_equal(aug.move_cells, want_cells)
    np.testing.assert_array_equal(aug.move_first, want_first)
    assert aug.move_cells.shape == (len(aug.move_first), 2)
    # Every move of the grid has its reverse; the hand-built MDP's one-way
    # move 1 -> 2 and its two parallel moves 0 -> 1 are moves all the same.
    moving = aug.owner != aug.landing
    per_move = np.bincount(aug.move_of[moving], minlength=len(aug.move_first))
    if build is _hand_built_aug:
        np.testing.assert_array_equal(aug.move_cells, [[0, 1], [1, 2], [2, 3]])
        np.testing.assert_array_equal(per_move, [3, 1, 2])
    else:
        assert (per_move == 2).all()


def test_a_stationary_covariance_represents_each_point_by_itself():
    rep, sign = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(7.0)).representatives
    np.testing.assert_array_equal(rep, np.arange(7))
    np.testing.assert_array_equal(sign, np.ones(7))


def test_a_reversed_move_reads_exactly_the_negated_mean_and_the_same_variance():
    aug = augment(grid_mdp(5, 5, 1.0), half_step=0.5)
    model = difference_gp(aug, Kernel(MATERN52, 3.0, 2.0), 0.075)
    reverse = _reverse_of(aug)
    rng = np.random.default_rng(23)
    moves = rng.choice(sorted(reverse), size=12, replace=False)
    for move in moves:  # each observed both ways, some of them twice
        for point in (move, reverse[move]) * int(rng.integers(1, 3)):
            model.add_observation(int(point), float(rng.normal()))
    means, variances = model.posterior()
    forward = np.array(sorted(reverse))
    backward = np.array([reverse[s] for s in forward])
    np.testing.assert_array_equal(means[backward], -means[forward])
    np.testing.assert_array_equal(variances[backward], variances[forward])
    assert len(reverse) == np.count_nonzero(aug.owner != aug.landing)
    zero = aug.owner == aug.landing  # the cells and the stay actions
    assert (means[zero] == 0.0).all() and not np.signbit(means[zero]).any()
    assert (variances[zero] == 0.0).all() and not np.signbit(variances[zero]).any()


def test_observing_a_reverse_conditions_as_observing_its_move_on_the_negated_value():
    aug = augment(grid_mdp(5, 5, 1.0), half_step=0.5)
    kernel = Kernel(MATERN52, 3.0, 2.0)
    reverse = _reverse_of(aug)
    rng = np.random.default_rng(37)
    through_reverse = difference_gp(aug, kernel, 0.075)
    through_move = difference_gp(aug, kernel, 0.075)
    for move in rng.choice(sorted(reverse), size=20):
        value = float(rng.normal())
        through_reverse.add_observation(reverse[int(move)], value)
        through_move.add_observation(int(move), -value)
    np.testing.assert_array_equal(through_reverse._packed, through_move._packed)
    np.testing.assert_array_equal(through_reverse._white, through_move._white)
    for got, want in zip(through_reverse.posterior(), through_move.posterior()):
        np.testing.assert_array_equal(got, want)


def test_one_way_and_parallel_moves_match_the_dense_solve():
    aug = _hand_built_aug()
    kernel, noise = Kernel(MATERN52, 2.0, 1.5), 0.075
    rng = np.random.default_rng(19)
    obs = rng.integers(0, aug.num_states, size=30)
    vals = rng.normal(size=len(obs))
    left, right = np.divmod(np.arange(aug.num_states**2), aug.num_states)
    model = GpModel(difference_gp(aug, kernel, noise).cov, noise, (left, right))
    for p, v in zip(obs, vals):
        model.add_observation(int(p), float(v))
    rows = difference_rows(aug)
    coords = aug.base.metric.coords
    mean_ref, var_ref = dense_posterior(kernel, coords, noise, rows[obs], vals, rows)
    means, variances = model.posterior()
    assert rel_dev(means, mean_ref) <= 1e-8
    assert rel_dev(variances, np.maximum(var_ref, 0.0)) <= 1e-8
    _, cov_ref = dense_posterior(kernel, coords, noise, rows[obs], vals, rows[left], rows[right])
    pair_means, pair_variances, cross = model.posterior_cov_pairs()
    assert rel_dev(pair_means, mean_ref) <= 1e-8
    assert rel_dev(pair_variances, np.maximum(var_ref, 0.0)) <= 1e-8
    assert rel_dev(cross, cov_ref) <= 1e-8


def test_cross_covariance_has_one_row_per_distinct_observed_point(monkeypatch):
    # cov.matrix runs once per newly observed representative, inside
    # add_observation, against the live representatives; the posteriors
    # read the kept rows only.
    calls = []
    matrix = DifferenceCovariance.matrix

    def recording(self, a, b):
        calls.append((list(a), np.asarray(b).copy()))
        return matrix(self, a, b)

    monkeypatch.setattr(DifferenceCovariance, "matrix", recording)
    aug, model = _difference_model_with_repeats()
    rep, _ = model.cov.representatives
    distinct = list(dict.fromkeys(int(rep[p]) for p in model.points))
    assert len(distinct) < model.num_observations
    assert [a for a, _ in calls] == [[r] for r in distinct]
    for _, b in calls:
        np.testing.assert_array_equal(b, model._live)
    del calls[:]
    model.posterior()
    model.posterior_cov_pairs()
    assert calls == []


def _arrays(value):
    """Every numpy array in ``value``, looking into containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def test_a_model_keeps_its_covariance_rows_a_packed_factor_and_nothing_of_n_by_points():
    # What a finished model holds: (capacity x live) kept rows, with the
    # capacity at most a quarter above the distinct observed
    # representatives, the factor's n (n + 1) / 2 floats, and arrays of at
    # most one float per point, its covariance's included.  No array is
    # n x points.
    aug, model = _difference_model_with_repeats()
    model.posterior()
    model.posterior_cov_pairs()
    n, points, live = model.num_observations, model.cov.num_points, len(model._live)
    distinct = len(set(model._repeats))
    assert distinct < n and n * points > 10 * distinct * live
    capacity = model._rows.shape[1]
    assert model._rows.shape == (live, capacity) and distinct <= capacity <= distinct * 5 // 4
    assert model._packed.shape == (n * (n + 1) // 2,)
    kept = [vars(model), vars(model.cov), vars(model.cov.height_cov)]
    others = [a for a in _arrays(kept) if a is not model._rows and a is not model._packed]
    assert max(a.size for a in others) <= points
    total = sum(a.size for a in _arrays(kept))
    assert total <= capacity * live + n * (n + 1) // 2 + 16 * points


def test_posterior_cov_diagonal_equals_posterior_variance():
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(8, 2))
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.2), coords)
    model = GpModel(cov, 0.1, (range(8), range(8)))
    for point, value in zip([1, 4, 4, 6], [0.1, -0.2, 0.0, 0.5]):
        model.add_observation(point, value)
    _, variances = model.posterior()
    np.testing.assert_allclose(model.posterior_cov_pairs()[2],
                               variances, rtol=0, atol=1e-12)


def test_reverse_pair_reads_its_twin_and_a_self_pair_the_unclamped_variance():
    rng = np.random.default_rng(29)
    cov = StationaryCovariance(Kernel(MATERN52, 1.5, 1.0), rng.normal(size=(12, 2)) * 3)
    points = np.arange(12)
    left = np.array([0, 3, 5, 5, 7, 2, 0])
    right = np.array([3, 0, 5, 2, 7, 5, 3])
    model = GpModel(cov, 0.1, (left, right))
    for point, value in zip(rng.integers(0, 12, size=20), rng.normal(size=20)):
        model.add_observation(point, value)
    means, variances, cross = model.posterior_cov_pairs()
    assert cross[0] == cross[1] == cross[6] and cross[3] == cross[5]
    v = solve_triangular(model._factor(), cov.matrix(model.points, points), lower=True)
    unclamped = cov.pairwise(points, points) - np.einsum("ij,ij->j", v, v)
    np.testing.assert_array_equal(cross[[2, 4]], unclamped[[5, 7]])
    for got, expected in zip((means, variances), model.posterior()):
        np.testing.assert_array_equal(got, expected)


def test_pair_covariances_are_dotted_in_blocks_below_one_gather():
    # 1770 pairs of 60 points span five blocks of 300-float columns, and
    # they equal the one-shot dots over both full gathers bit for bit.
    # One call holds at most a block per side, never an n x P gather.
    rng = np.random.default_rng(31)
    cov = StationaryCovariance(Kernel(MATERN52, 2.0, 1.0), rng.normal(size=(60, 2)) * 4)
    left, right = np.triu_indices(60, k=1)
    model = GpModel(cov, 0.1, (left, right))
    for point, value in zip(rng.integers(0, 60, size=300), rng.normal(size=300)):
        model.add_observation(point, value)
    n, pairs = model.num_observations, len(left)
    assert pairs > 4 * (gp_module._BLOCK_BYTES // (8 * n))
    _, _, cross = model.posterior_cov_pairs()
    v = solve_triangular(model._factor(), cov.matrix(model.points, np.arange(60)), lower=True)
    one_shot = cov.pairwise(left, right) - np.einsum("ij,ij->j", v[:, left], v[:, right])
    np.testing.assert_array_equal(cross, one_shot)
    tracemalloc.start()
    try:
        model.posterior_cov_pairs()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * pairs


def test_pairs_out_of_range_or_of_unequal_sides_raise_value_error():
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(5.0))
    with pytest.raises(ValueError, match="differ in length"):
        GpModel(cov, 0.1, ([0, 1], [1]))
    for left, right in (([-1], [0]), ([0], [5]), ([2, 0], [1, -2])):
        with pytest.raises(ValueError, match="point id"):
            GpModel(cov, 0.1, (left, right))


# ---------------------------------------------------------------------------
# incremental updates


def test_add_observation_updates_in_place():
    coords = np.arange(5, dtype=float)
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), coords)
    model = GpModel(cov, 0.1)
    _, var0 = model.posterior()
    assert var0[2] == 1.0
    assert model.add_observation(2, 0.5) is None
    assert model.num_observations == 1
    assert model.points == (2,)
    _, var1 = model.posterior()
    assert var1[2] == pytest.approx(0.01 / 1.01)


def test_duplicate_noiseless_observations_need_jitter():
    coords = np.arange(3, dtype=float)
    cov = StationaryCovariance(Kernel(SQUARED_EXPONENTIAL, 1.0, 1.0), coords)
    model = GpModel(cov, 0.0)
    model.add_observation(1, 0.4)
    # Exactly repeated: the pivot is zero up to round-off, and that row alone
    # takes the pivot JITTER.
    model.add_observation(1, 0.4)
    assert model.num_observations == 2
    means, variances = model.posterior()
    assert means[1] == pytest.approx(0.4, abs=1e-4)
    assert variances[1] == pytest.approx(0.0, abs=1e-5)


def test_singular_system_error_when_jitter_cannot_help():
    # An indefinite "covariance" (eigenvalues 3 and -1) gives the second
    # observation the pivot 1 - 2**2 = -3, far below VARIANCE_FLOOR; a NaN
    # covariance gives it a NaN pivot.
    class MatrixCov:
        def __init__(self, k):
            self._k = np.array(k)
            self.num_points = len(self._k)

        def matrix(self, a, b):
            return self._k[np.ix_(np.asarray(a, int), np.asarray(b, int))]

        def pairwise(self, a, b):
            return self._k[np.asarray(a, int), np.asarray(b, int)]

        @property
        def representatives(self):
            return np.arange(self.num_points), np.ones(self.num_points)

    for off_diagonal in (2.0, math.nan):
        model = GpModel(MatrixCov([[1.0, off_diagonal], [off_diagonal, 1.0]]), 0.0)
        model.add_observation(0, 1.0)
        packed, white = model._packed.copy(), model._white.copy()
        with pytest.raises(SingularSystemError, match="pivot"):
            model.add_observation(1, 1.0)
        # The failed update leaves the model conditioned on what it had.
        assert model.points == (0,)
        np.testing.assert_array_equal(model._packed, packed)
        np.testing.assert_array_equal(model._white, white)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_is_rejected_and_leaves_the_model_as_it_was(bad):
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(5, dtype=float))
    model = GpModel(cov, 0.1)
    with pytest.raises(ValueError, match="finite"):
        model.add_observation(2, bad)
    assert model.num_observations == 0
    model.add_observation(1, 0.3)
    packed, before = model._packed.copy(), model.posterior()
    with pytest.raises(ValueError, match="finite"):
        model.add_observation(2, bad)
    assert model.points == (1,)
    np.testing.assert_array_equal(model._packed, packed)
    for got, expected in zip(model.posterior(), before):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("bad", [-1, 5])
def test_observed_id_out_of_range_is_rejected_and_leaves_the_model_as_it_was(bad):
    cov = StationaryCovariance(Kernel(MATERN52, 1.0, 1.0), np.arange(5.0))
    with pytest.raises(ValueError, match=f"point id {bad} "):
        GpModel(cov, 0.1).add_observation(bad, 2.0)
    model = GpModel(cov, 0.1)
    model.add_observation(1, 0.3)
    before = model.posterior()
    with pytest.raises(ValueError, match=f"point id {bad} "):
        model.add_observation(bad, 2.0)
    assert model.num_observations == 1
    assert model.points == (1,)
    for got, expected in zip(model.posterior(), before):
        np.testing.assert_array_equal(got, expected)


def test_factor_runs_without_numpys_cholesky(monkeypatch):
    # The factor grows by appended rows; nothing factorizes a matrix.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky was called")

    cov = StationaryCovariance(Kernel(MATERN52, 2.0, 1.0), np.arange(12.0))
    rng = np.random.default_rng(4)
    obs = rng.integers(0, 12, size=69)
    vals = rng.normal(size=len(obs))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    model = GpModel(cov, 0.1)
    for p, v in zip(obs, vals):
        model.add_observation(p, v)
    model.posterior()
    assert model.num_observations == 69


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
    means, variances = model.gp.posterior()
    bands = model.advance(bands)
    np.testing.assert_allclose(bands.upper, means + 1.5 * np.sqrt(variances))
    np.testing.assert_allclose(bands.lower, means - 1.5 * np.sqrt(variances))


def test_beta_domain_errors():
    kernel = Kernel(MATERN52, 1.0, 1.0)
    aug = augment(grid_mdp(2, 2, 1.0), half_step=0.5)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_noise_and_beta_are_rejected(bad):
    kernel = Kernel(MATERN52, 1.0, 1.0)
    aug = augment(grid_mdp(2, 2, 1.0), half_step=0.5)
    cov = StationaryCovariance(kernel, np.arange(3.0))
    with pytest.raises(ValueError, match="noise_std"):
        GpModel(cov, bad)
    with pytest.raises(ValueError, match="noise_std"):
        Environment([1.0, 2.0], 0.0, bad, 0)
    with pytest.raises(ValueError, match="beta"):
        GpBandModel(GpModel(cov, 0.1), bad)
    with pytest.raises(ValueError, match="beta"):
        HeightGpBandModel(height_gp(aug, kernel, 0.1), aug, bad)
    with pytest.raises(ValueError, match="beta"):
        update_bands(initial_bands(1, [False], 0.0), [0.0], [0.0], bad)


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
