"""Terrain I/O, synthesis, and the induced difference-GP machinery."""

import math
import tracemalloc

import numpy as np
import pytest

from safemdp.gp import GpModel, Kernel, initial_bands, kernel_eval
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    EsriAsciiError,
    GpSample,
    HeightGpBandModel,
    TerrainGrid,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_gp,
    dump_esri_ascii,
    height_covariance,
    height_gp,
    height_gp_to_difference_bands,
    load_esri_ascii,
    synth_terrain,
)

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
    # The prior covariance comes from StationaryCovariance.matrix; the draw
    # is bit for bit the one of the explicit distance/kernel formula.
    kernel = Kernel("matern52", 10.0, 5.0)
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    coords = np.stack([rr, cc], axis=1) * 1.0
    diff = coords[:, None, :] - coords[None, :, :]
    cov = kernel_eval(kernel, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
    chol = np.linalg.cholesky(cov + 1e-10 * np.eye(rows * cols))
    expected = chol @ np.random.default_rng(seed).standard_normal(rows * cols)
    grid = synth_terrain(GpSample(kernel, seed), rows, cols, 1.0)
    np.testing.assert_array_equal(grid.heights, expected)


def test_gp_sample_peak_memory_at_the_cell_limit():
    # At 2500 cells the kernel rows, their gather and the prior are 48 MiB
    # each; rows evaluated a block at a time add no 2500 x 2500 x 2
    # coordinate-difference tensor (95 MiB) with its squares on top.
    tracemalloc.start()
    try:
        synth_terrain(GpSample(Kernel("matern52", 10.0, 5.0)), 50, 50, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 2**20


def test_crater_rim_has_a_forbidden_drop():
    params = CraterHillParams(crater_row=5, crater_col=5, crater_depth=10.0, crater_radius=3.0)
    grid = synth_terrain(CraterHill(params), 10, 10, 1.0)
    steep = math.tan(math.radians(30.0)) * grid.cell_size
    drops = []
    for r in range(10):
        for c in range(10):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < 10 and c + dc < 10:
                    drops.append(abs(grid.height_at(r, c) - grid.height_at(r + dr, c + dc)))
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


def test_roughness_varies_with_seed_but_not_shape():
    params = CraterHillParams(roughness=0.05)
    a = synth_terrain(CraterHill(params, seed=1), 5, 5, 1.0)
    b = synth_terrain(CraterHill(params, seed=2), 5, 5, 1.0)
    assert not np.array_equal(a.heights, b.heights)
    assert np.abs(a.heights - b.heights).max() < 1.0  # same underlying plane


# ---------------------------------------------------------------------------
# safety spec and environment construction


def test_threshold_formula():
    spec = TerrainSafetySpec(max_slope_deg=30.0, conservative_slope_deg=25.0)
    assert spec.safety_threshold(1.0) == -math.tan(math.radians(25.0))
    assert spec.safety_threshold(2.0) == -2.0 * math.tan(math.radians(25.0))


def test_slope_spec_validation():
    with pytest.raises(ValueError):
        TerrainSafetySpec(max_slope_deg=20.0, conservative_slope_deg=25.0)
    with pytest.raises(ValueError):
        TerrainSafetySpec(max_slope_deg=95.0, conservative_slope_deg=95.0)
    with pytest.raises(ValueError):
        TerrainSafetySpec(max_slope_deg=30.0, conservative_slope_deg=0.0)


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
    _, variances = gp.posterior(np.flatnonzero(moving))
    np.testing.assert_allclose(variances, 200.0, rtol=1e-6)


def test_self_pairs_have_zero_mean_and_variance():
    aug = flat_aug()
    gp = difference_gp(aug, KERNEL, 0.075)
    degenerate = ~aug.is_action_state | (aug.owner == aug.landing)
    means, variances = gp.posterior(np.flatnonzero(degenerate))
    np.testing.assert_allclose(means, 0.0, atol=1e-12)
    np.testing.assert_allclose(variances, 0.0, atol=1e-9)


def test_difference_prior_variance_formula():
    aug = flat_aug()
    gp = difference_gp(aug, KERNEL, 0.075)
    moving = np.flatnonzero(aug.is_action_state & (aug.owner != aug.landing))
    _, variances = gp.posterior(moving)
    # Adjacent cells sit one cell_size apart: var = 2 (k(0) - k(d)).
    expected = 2.0 * (kernel_eval(KERNEL, 0.0) - kernel_eval(KERNEL, 1.0))
    np.testing.assert_allclose(variances, expected, atol=1e-8)


def test_height_bands_match_dense_joint_covariance_oracle():
    rng = np.random.default_rng(6)
    aug = flat_aug()
    n_cells = aug.num_base_states
    cov = height_covariance(aug, KERNEL)
    obs_points = [0, 3, 4, 4, 7, 8]
    obs_values = rng.normal(scale=3.0, size=len(obs_points)).tolist()
    noise = 0.075
    model = GpModel.from_data(cov, noise, obs_points, obs_values)

    prev = initial_bands(aug.num_states, np.zeros(aug.num_states, bool), 0.0)
    bands = height_gp_to_difference_bands(model, aug, 1.0, prev)

    # Dense oracle: joint posterior over all cells, then the explicit linear
    # difference map A with rows (owner: +1, landing: -1).
    k_xx = cov.matrix(obs_points, obs_points) + noise**2 * np.eye(len(obs_points))
    k_sx = cov.matrix(np.arange(n_cells), obs_points)
    solve = np.linalg.solve
    mu = k_sx @ solve(k_xx, np.asarray(obs_values))
    sigma = cov.matrix(np.arange(n_cells), np.arange(n_cells)) - k_sx @ solve(k_xx, k_sx.T)
    a_map = np.zeros((aug.num_states, n_cells))
    rows = np.arange(aug.num_states)
    a_map[rows, aug.owner] += 1.0
    a_map[rows, aug.landing] -= 1.0
    diff_mu = a_map @ mu
    diff_var = np.clip(np.einsum("ij,jk,ik->i", a_map, sigma, a_map), 0.0, None)

    got_mean = 0.5 * (bands.lower + bands.upper)
    got_rad = 0.5 * (bands.upper - bands.lower)
    np.testing.assert_allclose(got_mean, diff_mu, atol=1e-8)
    np.testing.assert_allclose(got_rad, np.sqrt(diff_var), atol=1e-8)


def test_noiseless_height_measurements_collapse_the_difference_band():
    grid = synth_terrain(CraterHill(CraterHillParams(tilt_col=0.1)), 3, 3, 1.0)
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.0, 2)
    seed = np.zeros(aug.num_states, bool)
    seed[0] = True
    # Model noise 5e-7 keeps the residual std of a two-cell difference
    # under 1e-6 (each observed height contributes its own noise floor).
    model = HeightGpBandModel(height_gp(aug, KERNEL, 5e-7), aug, 2.0)
    target = aug.action_state_of[(4, 3)]  # centre cell, move right
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
    stay = aug.action_state_of[(4, 4)]
    assert model.measure(env, stay) == 0.0
    assert model.gp.num_observations == 1
    moving = aug.action_state_of[(4, 3)]
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


def test_observe_height_is_seeded_and_centred():
    grid = synth_terrain(CraterHill(CraterHillParams(base_height=3.0)), 2, 2, 1.0)
    _, env1 = build_terrain_environment(grid, TerrainSafetySpec(), 0.5, 12)
    _, env2 = build_terrain_environment(grid, TerrainSafetySpec(), 0.5, 12)
    assert [env1.observe_height(0) for _ in range(4)] == [
        env2.observe_height(0) for _ in range(4)
    ]
    draws = np.array([env1.observe_height(1) for _ in range(50_000)])
    assert abs(draws.mean() - 3.0) < 0.02
