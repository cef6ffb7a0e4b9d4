"""Terrain I/O, synthesis, and the induced difference-GP machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from safemdp.gp import (
    VARIANCE_FLOOR,
    GpError,
    GpModel,
    Kernel,
    StationaryCovariance,
    initial_bands,
    kernel_eval,
)
from safemdp.mdp import GRID_DOWN, GRID_LEFT, GRID_RIGHT, GRID_STAY, augment, grid_mdp
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    DifferenceCovariance,
    EsriAsciiError,
    GpSample,
    HeightGpBandModel,
    TerrainGrid,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    difference_gp,
    dump_esri_ascii,
    height_covariance,
    height_gp,
    height_gp_to_difference_bands,
    load_esri_ascii,
    seed_pocket,
    synth_terrain,
)

from oracles import dense_posterior, difference_rows, point_rows, rel_dev, step

KERNEL = Kernel("matern52", 14.5, 10.0)


# ---------------------------------------------------------------------------
# ESRI ASCII I/O


def test_minimal_one_cell_file():
    grid = load_esri_ascii("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 2\n5.0\n")
    assert grid.rows == grid.cols == 1
    assert grid.cell_size == 2.0
    assert grid.heights[0] == 5.0
    assert not grid.nodata_mask.any()


def test_nodata_cells_are_masked():
    text = "ncols 2\nnrows 1\ncellsize 1\nNODATA_value -9999\n-9999 3.5\n"
    grid = load_esri_ascii(text)
    np.testing.assert_array_equal(grid.nodata_mask, [True, False])
    assert grid.heights[1] == 3.5
    grid = load_esri_ascii("ncols 2\nnrows 1\ncellsize 1\nNODATA_value nan\nnan 3.5\n")
    np.testing.assert_array_equal(grid.nodata_mask, [True, False])


def test_headers_are_case_insensitive_and_nodata_is_optional():
    grid = load_esri_ascii("NCOLS 2\nNROWS 1\nCELLSIZE 1\n1 2\n")
    assert grid.nodata_value == -9999.0
    np.testing.assert_array_equal(grid.heights, [1.0, 2.0])


def test_round_trip_preserves_the_grid():
    rng = np.random.default_rng(4)
    heights = rng.normal(size=12)
    mask = np.zeros(12, bool)
    mask[5] = True
    grid = TerrainGrid(3, 4, 0.5, heights, mask, xllcorner=10.0, yllcorner=-3.0)
    back = load_esri_ascii(dump_esri_ascii(grid))
    assert (back.rows, back.cols, back.cell_size) == (3, 4, 0.5)
    np.testing.assert_array_equal(back.nodata_mask, mask)
    np.testing.assert_array_equal(back.heights[~mask], heights[~mask])
    assert back.xllcorner == 10.0 and back.yllcorner == -3.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EsriAsciiError) as err:
        load_esri_ascii("ncols 1\nnrows 1\ncellsize 1\nnot_a_number\n")
    assert err.value.line == 4 and "line 4" in str(err.value)
    with pytest.raises(EsriAsciiError) as err:
        load_esri_ascii("ncols 1\nnrows 1\ncellsize one\n1\n")
    assert err.value.line == 3
    with pytest.raises(EsriAsciiError) as err:
        load_esri_ascii("ncols 2\nncols 2\nnrows 1\ncellsize 1\n1 2\n")
    assert err.value.line == 2
    for cellsize in ("0", "-2", "inf", "nan"):
        with pytest.raises(EsriAsciiError, match="cellsize must be positive") as err:
            load_esri_ascii(f"ncols 1\nnrows 1\ncellsize {cellsize}\n1\n")
        assert err.value.line == 3
    with pytest.raises(EsriAsciiError, match="missing header key 'cellsize'"):
        load_esri_ascii("ncols 1\nnrows 1\n5.0\n")
    with pytest.raises(EsriAsciiError, match="expected 4 grid values"):
        load_esri_ascii("ncols 2\nnrows 2\ncellsize 1\n1 2 3\n")
    with pytest.raises(EsriAsciiError, match="positive integers"):
        load_esri_ascii("ncols 1.5\nnrows 1\ncellsize 1\n1 2\n")
    # A height that is not finite and not NODATA_value is not a height.
    for value in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(EsriAsciiError, match="is not finite") as err:
            load_esri_ascii(f"ncols 2\nnrows 2\ncellsize 1\n1 2\n3 {value}\n")
        assert err.value.line == 5


# ---------------------------------------------------------------------------
# synthesis


def test_flat_crater_hill_is_a_constant_plane():
    grid = synth_terrain(CraterHill(CraterHillParams(base_height=2.0)), 4, 5, 1.0)
    np.testing.assert_array_equal(grid.heights, np.full(20, 2.0))


def test_gp_sample_is_deterministic_and_size_limited():
    a = synth_terrain(GpSample(KERNEL, seed=3), 8, 8, 1.0)
    b = synth_terrain(GpSample(KERNEL, seed=3), 8, 8, 1.0)
    np.testing.assert_array_equal(a.heights, b.heights)
    c = synth_terrain(GpSample(KERNEL, seed=4), 8, 8, 1.0)
    assert not np.array_equal(a.heights, c.heights)
    with pytest.raises(ValueError, match="2500"):
        synth_terrain(GpSample(KERNEL), 51, 51, 1.0)


@pytest.mark.parametrize("rows, cols, seed", [(20, 20, 0), (30, 30, 0), (5, 5, 2), (4, 7, 1)])
def test_gp_sample_heights_match_the_direct_kernel_formula(rows, cols, seed):
    # The prior is filled in place, a block of rows at a time, with the
    # jitter added to its diagonal in place; the draw is bit for bit the
    # one of the explicit distance/kernel formula, for both kernels and at
    # a cell size that is not a power of two.
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    for kernel in (Kernel("matern52", 10.0, 5.0), Kernel("squared-exponential", 2.5, 1.5)):
        for cell_size in (1.0, 0.3):
            coords = np.stack([rr, cc], axis=1) * cell_size
            diff = coords[:, None, :] - coords[None, :, :]
            cov = kernel_eval(kernel, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
            chol = np.linalg.cholesky(cov + 1e-10 * np.eye(rows * cols))
            expected = chol @ np.random.default_rng(seed).standard_normal(rows * cols)
            grid = synth_terrain(GpSample(kernel, seed), rows, cols, cell_size)
            np.testing.assert_array_equal(grid.heights, expected)


def test_gp_sample_peak_memory_at_the_cell_limit():
    # At 2500 cells the draw holds the prior (47.7 MiB) and the factor
    # np.linalg.cholesky returns (47.7 MiB); its working copy of the prior
    # is not a traced numpy array.  Filling the prior a block of at most
    # 1 MiB of coordinate differences at a time, straight into its own
    # array, adds no gather of kernel rows and no eye.
    tracemalloc.start()
    try:
        synth_terrain(GpSample(Kernel("matern52", 10.0, 5.0)), 50, 50, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100 * 2**20


def test_crater_rim_has_a_forbidden_drop():
    params = CraterHillParams(crater_row=5, crater_col=5, crater_depth=10.0, crater_radius=3.0)
    grid = synth_terrain(CraterHill(params), 10, 10, 1.0)
    steep = math.tan(math.radians(30.0)) * grid.cell_size
    drops = []
    for r in range(10):
        for c in range(10):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < 10 and c + dc < 10:
                    drops.append(abs(grid.heights[r * grid.cols + c]
                                     - grid.heights[(r + dr) * grid.cols + c + dc]))
    assert max(drops) > steep


def test_synth_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        synth_terrain(CraterHill(), 0, 3, 1.0)
    with pytest.raises(ValueError):
        synth_terrain(CraterHill(), 3, 3, 0.0)
    with pytest.raises(TypeError):
        synth_terrain("plane", 3, 3, 1.0)
    # A zero radius would divide 0 by 0 at the centre and leave NaN heights.
    with pytest.raises(ValueError):
        CraterHillParams(crater_depth=4.0, crater_radius=0.0)
    with pytest.raises(ValueError):
        CraterHillParams(hill_height=2.0, hill_radius=-1.0)


@pytest.mark.parametrize("radius", ["hill_radius", "crater_radius"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_radius_is_rejected(radius, bad):
    # An infinite radius would turn the hill or crater into a constant
    # offset.
    with pytest.raises(ValueError, match="must be positive and finite"):
        CraterHillParams(**{radius: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_cell_size_is_rejected(bad):
    # An infinite cell size would give all-NaN synthesized heights.
    for kind in (CraterHill(), GpSample(KERNEL)):
        with pytest.raises(ValueError, match="cell_size must be positive and finite"):
            synth_terrain(kind, 3, 3, bad)
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        TerrainGrid(2, 2, bad, np.zeros(4), np.zeros(4, dtype=bool))


def test_roughness_varies_with_seed_but_not_shape():
    params = CraterHillParams(roughness=0.05)
    a = synth_terrain(CraterHill(params, seed=1), 5, 5, 1.0)
    b = synth_terrain(CraterHill(params, seed=2), 5, 5, 1.0)
    assert not np.array_equal(a.heights, b.heights)
    assert np.abs(a.heights - b.heights).max() < 1.0  # same underlying plane


# ---------------------------------------------------------------------------
# safety spec and environment construction


def test_threshold_formula():
    spec = TerrainSafetySpec(conservative_slope_deg=25.0)
    assert spec.safety_threshold(1.0) == -math.tan(math.radians(25.0))
    assert spec.safety_threshold(2.0) == -2.0 * math.tan(math.radians(25.0))


def test_slope_spec_validation():
    with pytest.raises(ValueError):
        TerrainSafetySpec(conservative_slope_deg=95.0)
    with pytest.raises(ValueError):
        TerrainSafetySpec(conservative_slope_deg=0.0)
    # The threshold's slope is the only one: no second, unread limit.
    with pytest.raises(TypeError):
        TerrainSafetySpec(max_slope_deg=30.0)


def test_flat_terrain_is_safe_everywhere():
    grid = synth_terrain(CraterHill(CraterHillParams(base_height=1.0)), 3, 3, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)
    assert env.threshold == pytest.approx(-math.tan(math.radians(25.0)))
    assert (env.true_safety == 0.0).all()
    assert all(env.is_safe(s) for s in range(aug.num_states))


def test_unsafe_transitions_match_exhaustive_height_scan():
    params = CraterHillParams(crater_row=2, crater_col=2, crater_depth=6.0, crater_radius=1.5)
    grid = synth_terrain(CraterHill(params, seed=8), 5, 5, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)
    h = env.threshold
    heights = grid.heights
    for s in range(aug.num_states):
        if aug.is_action_state[s]:
            owner, landing = aug.owner[s], aug.landing[s]
            expected = heights[owner] - heights[landing] >= h
        else:
            expected = True  # original cells never violate
        assert env.is_safe(s) == expected, s


def test_nodata_cells_are_dropped_from_the_state_space():
    grid = load_esri_ascii(
        "ncols 3\nnrows 1\ncellsize 1\nNODATA_value -1\n0.0 -1 0.0\n"
    )
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)
    assert aug.num_base_states == 2
    # The two surviving cells are not adjacent, so only stay transitions.
    assert all(aug.owner[s] == aug.landing[s] for s in range(aug.num_states))


def test_empty_terrain_is_rejected():
    grid = load_esri_ascii("ncols 1\nnrows 1\ncellsize 1\nNODATA_value -1\n-1\n")
    with pytest.raises(ValueError):
        build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)


def brute_force_pocket(base, cell):
    """The seed pocket of ``cell`` from the base MDP alone: the cell, its
    moves, the cells they land on, and those cells' moves straight back.
    Action-states are numbered after the cells, by cell and then label."""
    action_state, next_id = {}, base.num_states
    for s in range(base.num_states):
        for label, _ in base.actions_of(s):
            action_state[(s, label)] = next_id
            next_id += 1
    pocket = {cell}
    for label, neighbour in base.actions_of(cell):
        pocket |= {action_state[(cell, label)], neighbour}
        pocket |= {action_state[(neighbour, back)]
                   for back, succ in base.actions_of(neighbour) if succ == cell}
    return pocket


def test_seed_pocket_matches_brute_force_on_grids_with_nodata():
    rng = np.random.default_rng(21)
    for _ in range(30):
        rows, cols = (int(n) for n in rng.integers(1, 7, size=2))
        valid = rng.random(rows * cols) >= 0.2
        valid[rng.integers(rows * cols)] = True
        aug = augment(grid_mdp(rows, cols, 1.0, valid=valid), half_step=0.5)
        for cell in range(aug.num_base_states):
            got = seed_pocket(aug, cell)
            assert set(np.flatnonzero(got).tolist()) == brute_force_pocket(aug.base, cell)


# ---------------------------------------------------------------------------
# difference GP


def flat_aug(rows=3, cols=3, cell=1.0):
    grid = synth_terrain(CraterHill(), rows, cols, cell)
    aug, _ = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)
    return aug


def test_prior_difference_variance_doubles_for_independent_cells():
    # A tiny lengthscale makes neighbouring cells effectively independent,
    # so the prior variance of their height difference is 2 sigma^2.
    aug = flat_aug()
    kernel = Kernel("matern52", 1e-3, 10.0)
    gp = difference_gp(aug, kernel, 0.075)
    moving = aug.is_action_state & (aug.owner != aug.landing)
    _, variances = gp.posterior()
    np.testing.assert_allclose(variances[moving], 200.0, rtol=1e-6)


def test_self_pairs_have_zero_mean_and_variance():
    aug = flat_aug()
    gp = difference_gp(aug, KERNEL, 0.075)
    degenerate = ~aug.is_action_state | (aug.owner == aug.landing)
    means, variances = gp.posterior()
    np.testing.assert_allclose(means[degenerate], 0.0, atol=1e-12)
    np.testing.assert_allclose(variances[degenerate], 0.0, atol=1e-9)


def test_difference_prior_variance_formula():
    aug = flat_aug()
    gp = difference_gp(aug, KERNEL, 0.075)
    moving = aug.is_action_state & (aug.owner != aug.landing)
    _, variances = gp.posterior()
    # Adjacent cells sit one cell_size apart: var = 2 (k(0) - k(d)).
    expected = 2.0 * (kernel_eval(KERNEL, 0.0) - kernel_eval(KERNEL, 1.0))
    np.testing.assert_allclose(variances[moving], expected, atol=1e-8)


def test_height_bands_match_dense_joint_covariance_oracle():
    rng = np.random.default_rng(6)
    aug = flat_aug()
    obs_points = [0, 3, 4, 4, 7, 8]
    obs_values = rng.normal(scale=3.0, size=len(obs_points)).tolist()
    noise = 0.075
    model = height_gp(aug, KERNEL, noise)
    for point, value in zip(obs_points, obs_values):
        model.add_observation(point, value)

    prev = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), 0.0)
    bands = height_gp_to_difference_bands(model, aug, 1.0, prev)

    # Dense oracle: the joint posterior of the cell heights, read through
    # the difference rows (owner: +1, landing: -1).
    coords = aug.base.metric.coords * aug.base.metric.cell_size
    diff_mu, diff_var = dense_posterior(KERNEL, coords, noise,
                                        point_rows(obs_points, aug.num_base_states), obs_values,
                                        difference_rows(aug))
    diff_var = np.clip(diff_var, 0.0, None)

    got_mean = 0.5 * (bands.lower + bands.upper)
    got_rad = 0.5 * (bands.upper - bands.lower)
    np.testing.assert_allclose(got_mean, diff_mu, atol=1e-8)
    np.testing.assert_allclose(got_rad, np.sqrt(diff_var), atol=1e-8)


class ConstantHeightPosterior:
    """Stands in for a height GP: zero posterior mean and variance at every
    cell, and the same posterior covariance ``cross`` for every pair."""

    def __init__(self, cross, num_points, pairs):
        self.cross = cross
        self.num_points = num_points
        self.num_pairs = len(pairs[0])

    def posterior_cov_pairs(self):
        zero = np.zeros(self.num_points)
        return zero, zero, np.full(self.num_pairs, self.cross)


def test_difference_variance_below_the_floor_raises():
    # Difference variance = 0 + 0 - 2 * cross, on either side of the floor.
    aug = flat_aug()
    prev = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), 0.0)
    above = ConstantHeightPosterior(-0.4 * VARIANCE_FLOOR, aug.num_base_states,
                                    aug.move_cells.T)
    bands = height_gp_to_difference_bands(above, aug, 1.0, prev)
    assert (bands.width() == 0.0).all()
    below = ConstantHeightPosterior(-0.6 * VARIANCE_FLOOR, aug.num_base_states,
                                    aug.move_cells.T)
    with pytest.raises(GpError, match="numerical floor"):
        height_gp_to_difference_bands(below, aug, 1.0, prev)


@pytest.mark.parametrize("nodata", [False, True])
def test_height_bands_match_the_dense_solve_as_observations_repeat(nodata):
    # Unbounded bands before each advance, so that each band is the
    # posterior's own mean +- sqrt(beta * variance).
    grid = synth_terrain(GpSample(KERNEL, seed=3), 5, 6, 1.0)
    if nodata:
        grid.nodata_mask[8] = True
    aug, _ = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 1)
    cells = aug.num_base_states
    assert cells == 30 - nodata
    model = height_gp(aug, KERNEL, 0.075)
    unbounded = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), 0.0)
    coords = aug.base.metric.coords * aug.base.metric.cell_size
    rng = np.random.default_rng(8)
    pool = rng.choice(cells, size=6, replace=False)
    observed, values = [], []
    for _ in range(4):
        for point in pool[rng.integers(0, len(pool), size=5)]:  # repeats
            observed.append(int(point))
            values.append(float(rng.normal(scale=3.0)))
            model.add_observation(observed[-1], values[-1])
        bands = height_gp_to_difference_bands(model, aug, 2.0, unbounded)
        mean_ref, var_ref = dense_posterior(KERNEL, coords, 0.075, point_rows(observed, cells),
                                            values, difference_rows(aug))
        assert rel_dev(0.5 * (bands.lower + bands.upper), mean_ref) <= 1e-8
        assert rel_dev((0.5 * bands.width())**2 / 2.0, np.maximum(var_ref, 0.0)) <= 1e-8
    assert len(set(model.points)) < model.num_observations


@pytest.mark.parametrize("observation_model", ["difference", "heights"])
def test_each_advance_neither_sorts_nor_evaluates_a_prior(monkeypatch, observation_model):
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1)), 4, 4, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 3)
    if observation_model == "heights":
        model = HeightGpBandModel(height_gp(aug, KERNEL, 0.075), aug, 2.0)
    else:
        model = difference_band_model(aug, KERNEL, 0.075, 2.0)
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "unique", counting("unique", np.unique))
    for cov in (StationaryCovariance, DifferenceCovariance):
        monkeypatch.setattr(cov, "pairwise", counting("pairwise", cov.pairwise))
        monkeypatch.setattr(cov, "matrix", counting("matrix", cov.matrix))
    bands = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), env.threshold)
    per_advance = []
    for label in (GRID_RIGHT, GRID_DOWN, GRID_LEFT):
        model.measure(env, step(aug, 5, label))
        before = len(calls)
        bands = model.advance(bands)
        per_advance.append(calls[before:])
    assert per_advance == [[]] * 3


def test_a_one_cell_terrain_under_the_heights_model_advances_to_zero_widths():
    # One cell and its stay action: no move, so the model has no pairs.
    grid = synth_terrain(CraterHill(), 1, 1, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 4)
    assert aug.num_states == 2 and aug.move_cells.shape == (0, 2)
    model = HeightGpBandModel(height_gp(aug, KERNEL, 0.075), aug, 2.0)
    bands = initial_bands(aug.num_states, np.ones(2, bool), env.threshold)
    for _ in range(2):
        bands = model.advance(bands)
        np.testing.assert_array_equal(bands.width(), 0.0)
        assert model.measure(env, 1) == 0.0


def test_a_height_model_over_other_moves_is_refused():
    small = augment(grid_mdp(2, 2, 1.0), half_step=0.5)
    model = height_gp(flat_aug(), KERNEL, 0.075)
    prev = initial_bands(small.num_states, np.zeros(small.num_states, bool), 0.0)
    with pytest.raises(ValueError, match="12 pairs for 4 moves"):
        height_gp_to_difference_bands(model, small, 1.0, prev)


def test_noiseless_height_measurements_collapse_the_difference_band():
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1)), 3, 3, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 2)
    seed = np.zeros(aug.num_states, bool)
    seed[0] = True
    # Model noise 5e-7 keeps the residual std of a two-cell difference
    # under 1e-6 (each observed height contributes its own noise floor).
    model = HeightGpBandModel(height_gp(aug, KERNEL, 5e-7), aug, 2.0)
    target = step(aug, 4, GRID_RIGHT)  # centre cell
    observed = model.measure(env, target)
    truth = env.true_safety[target]
    assert observed == pytest.approx(truth, abs=1e-9)
    bands = model.advance(initial_bands(aug.num_states, seed, env.threshold))
    assert bands.width()[target] <= 2.0 * math.sqrt(2.0) * 1e-6


def test_stay_measurement_observes_one_cell_and_returns_zero():
    aug = flat_aug()
    grid = synth_terrain(CraterHill(), 3, 3, 1.0)
    _, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 5)
    model = HeightGpBandModel(height_gp(aug, KERNEL, 0.075), aug, 2.0)
    stay = step(aug, 4, GRID_STAY)
    assert model.measure(env, stay) == 0.0
    assert model.gp.num_observations == 1
    moving = step(aug, 4, GRID_RIGHT)
    model.measure(env, moving)
    assert model.gp.num_observations == 3


def test_difference_covariance_blocks_are_consistent():
    aug = flat_aug()
    gp = difference_gp(aug, KERNEL, 0.075)
    ids = np.arange(aug.num_states)
    full = gp.cov.matrix(ids, ids)
    np.testing.assert_allclose(np.diag(full), gp.cov.pairwise(ids, ids), atol=1e-12)
    np.testing.assert_allclose(full, full.T, atol=1e-12)
    some = np.array([0, 5, 11, 17])
    np.testing.assert_allclose(gp.cov.pairwise(some, some[::-1]),
                               full[some, some[::-1]], atol=1e-12)


def test_difference_covariance_is_the_four_term_sum_bit_for_bit():
    # The expansion sums into its first gather; with repeated ids in both
    # sequences it must still equal ((A - B) - C) + D of fresh gathers.
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1, roughness=0.3)), 4, 5, 1.0)
    aug, _ = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 3)
    cov = difference_gp(aug, KERNEL, 0.075).cov
    rng = np.random.default_rng(5)
    a = rng.integers(0, aug.num_states, size=9)
    a[3] = a[7] = a[0]
    b = np.concatenate([np.arange(aug.num_states), a])
    k = height_covariance(aug, KERNEL).matrix
    oa, la, ob, lb = aug.owner[a], aug.landing[a], aug.owner[b], aug.landing[b]
    np.testing.assert_array_equal(cov.matrix(a, b),
                                  ((k(oa, ob) - k(oa, lb)) - k(la, ob)) + k(la, lb))


def test_difference_covariance_refuses_ids_out_of_range_and_unequal_lengths():
    aug = flat_aug()
    cov = difference_gp(aug, KERNEL, 0.075).cov
    n = aug.num_states
    for a, b in (([-1], [0]), ([n], [0]), ([0], [-1]), ([0], [n])):
        for method in (cov.matrix, cov.pairwise):
            with pytest.raises(ValueError, match=f"point id {min(a + b)} is out of range"
                               if min(a + b) < 0 else f"point id {n} is out of range"):
                method(a, b)
    with pytest.raises(ValueError, match="differ in length: 2 and 1"):
        cov.pairwise([0, 1], [0])


@pytest.mark.parametrize("build", [difference_gp, height_gp])
def test_the_posterior_writes_into_nothing_it_reads(build):
    # The difference covariance sums in place, and a posterior's arrays are
    # the caller's to write into.  A model whose posteriors are read, and
    # overwritten, after each observation conditions as one that is read
    # only at the end, and two reads in a row agree.
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1, roughness=0.3)), 4, 5, 1.0)
    aug, _ = build_terrain_environment(grid, TerrainSafetySpec(), 0.075, 3)
    cov = build(aug, KERNEL, 0.075).cov
    n = cov.num_points
    pairs = (np.arange(n), np.arange(n)[::-1]) if build is difference_gp else aug.move_cells.T
    read, unread = GpModel(cov, 0.075, pairs), GpModel(cov, 0.075, pairs)

    def outputs(model):
        return (*model.posterior(), *model.posterior_cov_pairs())

    rng = np.random.default_rng(11)
    for point in rng.integers(0, n, size=8).tolist() * 2:
        value = float(rng.normal())
        for model in (read, unread):
            model.add_observation(point, value)
        for array in outputs(read):
            array[:] = np.nan
    first = outputs(unread)
    for later in (outputs(read), outputs(unread)):
        for got, want in zip(later, first):
            np.testing.assert_array_equal(got, want)


def test_observe_height_is_seeded_and_centred():
    grid = synth_terrain(CraterHill(CraterHillParams(base_height=3.0)), 2, 2, 1.0)
    _, env1 = build_terrain_environment(grid, TerrainSafetySpec(), 0.5, 12)
    _, env2 = build_terrain_environment(grid, TerrainSafetySpec(), 0.5, 12)
    assert [env1.observe_height(0) for _ in range(4)] == [
        env2.observe_height(0) for _ in range(4)
    ]
    draws = np.array([env1.observe_height(1) for _ in range(50_000)])
    assert abs(draws.mean() - 3.0) < 0.02
