"""End-to-end tests of the exploration loop and its baselines."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safemdp import cli
from safemdp.explorer import (
    REASON_CONVERGED,
    REASON_EXPANDERS_EMPTY,
    REASON_MAX_ITERATIONS,
    REASON_STUCK,
    REASON_VIOLATION,
    ConfigError,
    Environment,
    ExplorerConfig,
    GpBandModel,
    run_safemdp,
)
from safemdp.gp import ConfidenceBands, GpModel, Kernel, StationaryCovariance, update_bands
from safemdp.mdp import grid_mdp
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    GpSample,
    TerrainSafetySpec,
    build_terrain_environment,
    seed_pocket,
    synth_terrain,
)

from oracles import oracle_ceiling, step, to_set, trapdoor

ROOT = Path(__file__).parents[1]


def band_model(coords, *, noise=1e-3, ell=3.0, b=4.0):
    """GP band model over ``coords``; the default length scale is the
    meadow's, at which its neighbours' own bands certify them."""
    cov = StationaryCovariance(Kernel("matern52", ell, 1.0), coords)
    return GpBandModel(GpModel(cov, noise), b)


def meadow():
    """3x3 grid, everything genuinely safe, seed at the centre."""
    mdp = grid_mdp(3, 3, 1.0)
    seed = np.zeros(9, bool)
    seed[4] = True
    cfg = ExplorerConfig(0.5, 0.1, 50, seed)
    return mdp, seed, cfg


def wall():
    """3x3 grid, only the centre is safe."""
    mdp = grid_mdp(3, 3, 1.0)
    seed = np.zeros(9, bool)
    seed[4] = True
    r = np.where(np.arange(9) == 4, 1.0, -1.0)
    cfg = ExplorerConfig(1.0, 0.1, 30, seed)
    return mdp, seed, r, cfg


# ---------------------------------------------------------------------------
# environment


def test_observation_noise_statistics():
    env = Environment([2.0, -1.0], 0.0, 0.3, 123)
    draws = np.array([env.observe(0) for _ in range(100_000)])
    assert abs(draws.mean() - 2.0) < 5e-3
    assert abs(draws.std() - 0.3) < 5e-3


def test_observations_are_reproducible_and_noiseless_when_asked():
    a = Environment([1.0], 0.0, 0.5, 9)
    b = Environment([1.0], 0.0, 0.5, 9)
    assert [a.observe(0) for _ in range(5)] == [b.observe(0) for _ in range(5)]
    exact = Environment([1.25], 0.0, 0.0, 9)
    assert exact.observe(0) == 1.25


def test_safety_check_is_inclusive_at_the_threshold():
    env = Environment([0.0, -1e-9], 0.0, 0.1, 1)
    assert env.is_safe(0)
    assert not env.is_safe(1)
    with pytest.raises(ValueError):
        Environment([0.0], 0.0, -0.1, 1)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_validation_errors():
    mdp = grid_mdp(1, 3, 1.0)
    seed = np.array([True, False, False])
    good = ExplorerConfig(1.0, 0.1, 10, seed)
    env = Environment(np.ones(3), 0.0, 0.1, 1)

    def run_with(**changes):
        cfg = ExplorerConfig(**{**good.__dict__, **changes})
        run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))

    with pytest.raises(ConfigError):
        run_with(seed_set=np.zeros(3, bool))
    with pytest.raises(ConfigError):
        run_with(seed_set=np.array([True, False]))
    with pytest.raises(ConfigError):
        run_with(epsilon=0.0)
    with pytest.raises(ConfigError):
        run_with(max_iterations=0)
    with pytest.raises(ConfigError):
        run_with(lipschitz=-1.0)
    with pytest.raises(ConfigError):
        run_with(lipschitz=float("nan"))
    run_with(lipschitz=0.0)
    # Seed states 0 and 2 cannot reach each other without crossing the
    # non-seed state in between.
    with pytest.raises(ConfigError):
        run_with(seed_set=np.array([True, False, True]))


def test_environment_size_must_match_the_mdp():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(4), 0.0, 0.1, 1)
    with pytest.raises(ConfigError):
        run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))


def test_unknown_baseline_is_rejected():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(9), 0.0, 0.1, 1)
    with pytest.raises(ConfigError):
        run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords), strategy="greedy")


# ---------------------------------------------------------------------------
# main algorithm behaviour


def test_meadow_is_fully_explored_without_violation():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(9), 0.0, 1e-3, 11)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))
    assert trace.violation_step is None
    assert trace.terminal_reason == REASON_EXPANDERS_EMPTY
    assert trace.final_sets.ergodic.all()
    # Movement steps dominate measurement iterations on this walking run.
    assert trace.agent_steps >= trace.iterations > 0


def test_wall_keeps_the_agent_home():
    mdp, seed, r, cfg = wall()
    env = Environment(r, 0.0, 1e-3, 7)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords, ell=2.0))
    assert trace.terminal_reason == REASON_CONVERGED
    assert trace.violation_step is None
    assert trace.agent_steps == 0
    assert set(np.flatnonzero(trace.final_sets.ergodic)) == {4}


def test_everything_already_safe_terminates_immediately():
    mdp = grid_mdp(2, 2, 1.0)
    seed = np.ones(4, bool)
    cfg = ExplorerConfig(1.0, 0.1, 10, seed)
    env = Environment(np.ones(4), 0.0, 1e-3, 5)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))
    assert trace.terminal_reason == REASON_EXPANDERS_EMPTY
    assert trace.iterations == 0 and trace.agent_steps == 0


def test_wide_epsilon_converges_on_the_first_target():
    mdp, seed, cfg = meadow()
    cfg = ExplorerConfig(**{**cfg.__dict__, "epsilon": 10.0})
    env = Environment(np.ones(9), 0.0, 1e-3, 11)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))
    assert trace.terminal_reason == REASON_CONVERGED
    assert trace.iterations == 1


def test_unsafe_seed_state_is_a_config_error():
    # The seed set is declared safe unmeasured, so every seed state is
    # checked against the truth, not just the start state.
    mdp, seed, cfg = meadow()
    r = np.ones(9)
    r[4] = -1.0
    env = Environment(r, 0.0, 1e-3, 2)
    with pytest.raises(ConfigError, match=r"1 seed state\(s\) are truly unsafe"):
        run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))

    # A seed pocket whose start cell is safe but which holds 4 truly unsafe
    # transitions: without the check the run violates safety at step 1.
    ini = ROOT / "perfbench" / "configs" / "steep-oracle.ini"
    xcfg = cli.load_experiment_config(ini)
    grid = cli.build_grid(xcfg)
    aug, env = build_terrain_environment(grid, xcfg.safety, xcfg.noise_std, 0)
    pocket = cli._seed_mask(aug, grid, xcfg)
    assert env.is_safe(int(np.flatnonzero(pocket)[0]))
    with pytest.raises(ConfigError, match=r"4 seed state\(s\) are truly unsafe"):
        run_safemdp(aug, env, cli._explorer_config(xcfg, pocket),
                    cli._band_model(xcfg, aug, pocket, env.threshold))


def test_identical_seeds_reproduce_the_trace_bitwise():
    mdp, seed, cfg = meadow()
    runs = []
    for _ in range(2):
        env = Environment(np.ones(9), 0.0, 1e-3, 42)
        runs.append(run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords)))
    a, b = runs
    assert a.terminal_reason == b.terminal_reason
    assert a.agent_steps == b.agent_steps
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra.target == rb.target
        assert ra.width_at_target == rb.width_at_target
        assert ra.observation == rb.observation
        assert ra.path.actions == rb.path.actions
        for name in ("safe", "ergodic", "expanders"):
            np.testing.assert_array_equal(getattr(ra.sets, name), getattr(rb.sets, name))
    for name in ("lower", "upper"):
        assert getattr(a.final_bands, name).tobytes() == getattr(b.final_bands, name).tobytes()


def test_measurements_happen_only_at_targets():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(9), 0.0, 1e-3, 11)
    bm = band_model(mdp.metric.coords)
    trace = run_safemdp(mdp, env, cfg, bm)
    assert bm.gp.num_observations == trace.iterations


def test_snapshots_keep_growing_and_stay_nested():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(9), 0.0, 1e-3, 11)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords))
    prev_safe = seed
    prev_erg = seed
    for rec in trace.records:
        s = rec.sets
        assert not (s.expanders & ~s.ergodic).any()
        assert not (s.ergodic & ~s.safe).any()
        assert not (prev_safe & ~s.safe).any()
        assert not (prev_erg & ~s.ergodic).any()
        prev_safe, prev_erg = s.safe, s.ergodic


# ---------------------------------------------------------------------------
# baselines


def test_random_baseline_on_safe_ground_never_violates():
    mdp, seed, cfg = meadow()
    env = Environment(np.ones(9), 0.0, 1e-3, 13)
    cfg = ExplorerConfig(**{**cfg.__dict__, "max_iterations": 40})
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords), strategy="random")
    assert trace.terminal_reason == REASON_MAX_ITERATIONS
    assert trace.violation_step is None
    # One action per iteration: movement and measurement counts coincide.
    assert trace.agent_steps == trace.iterations == 40
    for rec in trace.records:
        assert len(rec.path.actions) == 1
        assert step(mdp, rec.path.states[0], rec.path.actions[0]) == rec.path.states[1]


def test_random_baseline_respects_max_iterations_and_reproduces():
    mdp, seed, cfg = meadow()
    cfg = ExplorerConfig(**{**cfg.__dict__, "max_iterations": 5})
    paths = []
    for _ in range(2):
        env = Environment(np.ones(9), 0.0, 1e-3, 29)
        trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords), strategy="random")
        assert trace.agent_steps == 5
        paths.append([tuple(r.path.states) for r in trace.records])
    assert paths[0] == paths[1]


def test_no_expanders_baseline_keeps_sampling_when_nothing_is_outside():
    # With the whole space already safe the main algorithm stops at once,
    # while the width-over-ergodic baseline keeps measuring until converged.
    mdp = grid_mdp(2, 2, 1.0)
    seed = np.ones(4, bool)
    cfg = ExplorerConfig(1.0, 0.1, 25, seed)
    env = Environment(np.ones(4), 0.0, 1e-3, 5)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords), strategy="no_expanders")
    assert trace.terminal_reason == REASON_CONVERGED
    assert trace.iterations > 0


def test_unsafe_baseline_marches_into_the_wall():
    mdp, seed, r, cfg = wall()
    env = Environment(r, 0.0, 1e-3, 7)
    trace = run_safemdp(mdp, env, cfg, band_model(mdp.metric.coords, ell=2.0), strategy="unsafe")
    assert trace.terminal_reason == REASON_VIOLATION
    assert trace.violation_step == 1
    assert np.isnan(trace.records[-1].observation)


def test_non_ergodic_baseline_gets_stuck_in_the_trapdoor():
    mdp, coords, seed, r = trapdoor()
    cfg = ExplorerConfig(0.25, 0.05, 30, seed)
    env = Environment(r, 0.0, 1e-3, 3)
    trace = run_safemdp(mdp, env, cfg, band_model(coords, ell=4.0), strategy="non_ergodic")
    assert trace.terminal_reason == REASON_STUCK
    assert 1 in {s for rec in trace.records for s in rec.path.states}
    assert trace.violation_step is None


def test_safemdp_avoids_the_trapdoor_entirely():
    mdp, coords, seed, r = trapdoor()
    cfg = ExplorerConfig(0.25, 0.05, 30, seed)
    env = Environment(r, 0.0, 1e-3, 3)
    trace = run_safemdp(mdp, env, cfg, band_model(coords, ell=4.0))
    assert trace.terminal_reason == REASON_CONVERGED
    visited = {s for rec in trace.records for s in rec.path.states}
    assert 1 not in visited and 2 not in visited
    assert trace.violation_step is None
    # State 1's own band certifies it, but the returnability check keeps it
    # out of the ergodic set.
    assert trace.final_sets.safe[1] and not trace.final_sets.ergodic[1]


class ExactBands:
    """A band model that knows the truth: every advance intersects the
    zero-width intervals at ``truth``, and a measurement conditions
    nothing."""

    def __init__(self, truth, beta):
        self.truth, self.beta = truth, beta

    def advance(self, prev):
        return update_bands(prev, self.truth, np.zeros(len(self.truth)), self.beta)

    def measure(self, env, state):
        return env.observe(state)


def _readme_example(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(re.search(r"```ini\n(.*?)```", (ROOT / "README.md").read_text(),
                              re.S).group(1))
    return path


@pytest.mark.parametrize("config", [
    _readme_example,
    lambda _: ROOT / "perfbench" / "configs" / "smoke-explore-diff.ini",
    lambda _: ROOT / "perfbench" / "configs" / "smoke-explore-heights.ini",
], ids=["readme-example", "smoke-explore-diff", "smoke-explore-heights"])
def test_exact_bands_end_on_the_reach_return_ceiling(tmp_path, config):
    xcfg = cli.load_experiment_config(config(tmp_path))
    grid = cli.build_grid(xcfg)
    aug, env = build_terrain_environment(grid, xcfg.safety, xcfg.noise_std, 0)
    pocket = cli._seed_mask(aug, grid, xcfg)
    trace = run_safemdp(aug, env, cli._explorer_config(xcfg, pocket),
                        ExactBands(env.true_safety, xcfg.beta))
    assert trace.violation_step is None and trace.terminal_reason != REASON_VIOLATION
    ceiling = oracle_ceiling(aug, to_set(pocket), env.true_safety, env.threshold)
    assert to_set(trace.final_sets.ergodic) == ceiling


class TruthBands:
    """A band model whose every advance intersects random intervals that
    contain the truth: each state's margins below and above the truth
    shrink by a random factor at each advance, and by 10x at a measured
    state."""

    def __init__(self, truth, rng):
        self.truth, self.rng = truth, rng
        self.margins = rng.uniform(0.5, 3.0, size=(2, len(truth)))

    def advance(self, prev):
        self.margins *= self.rng.uniform(0.5, 1.0, size=self.margins.shape)
        below, above = self.margins
        return ConfidenceBands(np.maximum(prev.lower, self.truth - below),
                               np.minimum(prev.upper, self.truth + above), prev.collapses)

    def measure(self, env, state):
        self.margins[:, state] /= 10
        return env.observe(state)


@st.composite
def _terrain(draw):
    rows, cols = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        kernel = Kernel("matern52", draw(st.floats(3.0, 10.0)), draw(st.floats(0.5, 5.0)))
        return synth_terrain(GpSample(kernel, seed), rows, cols, 1.0)
    heights = st.floats(0.0, 4.0)
    params = CraterHillParams(
        tilt_row=draw(st.floats(-0.3, 0.3)), tilt_col=draw(st.floats(-0.3, 0.3)),
        hill_row=draw(st.floats(0, rows)), hill_col=draw(st.floats(0, cols)),
        hill_height=draw(heights), hill_radius=draw(st.floats(1.0, 3.0)),
        crater_row=draw(st.floats(0, rows)), crater_col=draw(st.floats(0, cols)),
        crater_depth=draw(heights), crater_radius=draw(st.floats(1.0, 3.0)),
        roughness=draw(st.floats(0.0, 0.2)))
    return synth_terrain(CraterHill(params, seed), rows, cols, 1.0)


@given(_terrain(), st.integers(0, 63), st.floats(0.0, 2.0), st.integers(0, 2**16))
@settings(derandomize=True, deadline=None, max_examples=40)
def test_bands_that_contain_the_truth_never_lead_to_a_violation(grid, start, lipschitz, seed):
    # The paper's promise, for the algorithm and the expander-free baseline.
    aug, env = build_terrain_environment(grid, TerrainSafetySpec(), 0.05, seed)
    cells = aug.num_base_states
    pockets = (seed_pocket(aug, (start + k) % cells) for k in range(cells))
    pocket = next((p for p in pockets if (env.true_safety[p] >= env.threshold).all()), None)
    assume(pocket is not None)
    ceiling = oracle_ceiling(aug, to_set(pocket), env.true_safety, env.threshold)
    for strategy in ("safemdp", "no_expanders"):
        rng = np.random.default_rng([seed, 1])
        trace = run_safemdp(aug, env, ExplorerConfig(lipschitz, 0.05, 200, pocket),
                            TruthBands(env.true_safety, rng), strategy=strategy)
        assert trace.violation_step is None
        assert trace.terminal_reason not in (REASON_VIOLATION, REASON_STUCK)
        assert to_set(trace.final_sets.ergodic) <= ceiling
