"""Release acceptance suite.

One test per promised behavior.  Each re-derives its expected values with
independent brute-force code (dense linear solves, python-set fixpoints,
plain BFS) instead of reusing library internals, pins the numerical
tolerances, and enforces a wall-clock budget where one is promised.  Every
test prints a single verdict line so a full run reads as a checklist:

    acceptance [gp vs dense solve] PASS  max rel dev 1.3e-12 ...

The terrain fixtures are chosen so that the promise under test is actually
exercised, not dodged; see the comments next to each parameter block.
"""

import itertools
import statistics
import time
import tracemalloc

import numpy as np

from safemdp import cli
from safemdp.explorer import (
    REASON_CONVERGED,
    REASON_EXPANDERS_EMPTY,
    REASON_STUCK,
    REASON_VIOLATION,
    Environment,
    ExplorerConfig,
    GpBandModel,
    run_safemdp,
)
from safemdp.gp import (
    ConfidenceBands,
    GpModel,
    Kernel,
    StationaryCovariance,
    initial_bands,
    update_bands,
)
from safemdp.mdp import GRID_STAY, Mdp, augment, grid_mdp
from safemdp.planner import NoPathError, shortest_safe_path
from safemdp.reach import r_eps, r_eps_fixpoint, r_reach, r_ret_fixpoint, r_safe_eps
from safemdp.safeset import compute_safe_sets, expanders
from safemdp.terrain import (
    CraterHill,
    CraterHillParams,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    seed_pocket,
    synth_terrain,
)

from oracles import (
    DenseMetric,
    bfs_hops,
    dense_distances,
    dense_posterior,
    operator_mismatches,
    oracle_safe,
    point_rows,
    random_mdp,
    readme_example,
    rel_dev,
    step,
    to_set,
    trapdoor,
    write_config,
)

SAFETY = TerrainSafetySpec()

# A quasi-1-D ramp: a gentle downhill tilt everywhere, ending in a deep
# crater across the far rows.  Every transition's height difference falls in
# one of three zones — comfortably certifiable, just past the threshold (an
# uncrossable "fence" of slopes the agent can neither certify nor be fooled
# by), or decisively steep behind the fence.  No transition lands in the
# narrow window right at the threshold where a noisy band legitimately
# misclassifies, so safe behavior is a property of the algorithm rather
# than of lucky noise draws.
RAMP = CraterHillParams(tilt_row=0.1, crater_row=17.0, crater_col=1.0,
                        crater_depth=18.0, crater_radius=2.4)
RAMP_SHAPE = (14, 3)

# A 6x6 field with one sub-lengthscale crater in the corner: enough unsafe
# ground that classification decisions are non-trivial in every run.
CRATER = CraterHillParams(crater_row=4.5, crater_col=4.5,
                          crater_depth=5.0, crater_radius=1.2)

KERN_WIDE = Kernel("matern52", 14.5, 10.0)
KERN_LOCAL = Kernel("matern52", 7.0, 3.0)


def verdict(capsys, label, ok, detail):
    """Print the one-line checklist verdict, then enforce it."""
    with capsys.disabled():
        print(f"\nacceptance [{label}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{label}: {detail}"


def terrain_setup(params, rows, cols, seed, *, noise=0.075, start=(1, 1)):
    grid = synth_terrain(CraterHill(params, seed=seed), rows, cols, 1.0)
    aug, env = build_terrain_environment(grid, SAFETY, noise_std=noise, rng_seed=seed)
    mask = seed_pocket(aug, start[0] * cols + start[1])
    return aug, env, mask, SAFETY.safety_threshold(1.0)


def run_strategy(aug, env, mask, kern, strategy, budget, *, eps=0.15, noise=0.075):
    bands = difference_band_model(aug, kern, noise, 2.0)
    cfg = ExplorerConfig(lipschitz=0.2, epsilon=eps, max_iterations=budget, seed_set=mask)
    return run_safemdp(aug, env, cfg, bands, strategy=strategy)


def coverage(aug, env, mask, threshold, trace, *, eps=0.15):
    """Fraction of the epsilon-accurately-explorable benchmark attained."""
    benchmark = r_eps_fixpoint(aug, mask, env.true_safety, eps, 0.2, threshold)
    return float((trace.final_sets.ergodic & benchmark).sum() / benchmark.sum())


# ---------------------------------------------------------------------------
# 1. exact GP inference vs an independent dense solve


def test_gp_posterior_matches_dense_solve(capsys):
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(2024)

    for i in range(20):
        kind = "matern52" if i % 2 == 0 else "squared-exponential"
        kern = Kernel(kind, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 2.0)))
        noise = float(rng.uniform(0.05, 0.3))
        coords = rng.uniform(0, 6, size=(40, 2))
        n_obs = int(rng.integers(1, 51))
        obs = rng.integers(0, 40, size=n_obs)
        vals = rng.normal(size=n_obs)
        pairs = rng.integers(0, 40, size=(15, 2))
        model = GpModel(StationaryCovariance(kern, coords), noise, pairs.T)
        for point, value in zip(obs, vals):
            model.add_observation(point, value)

        obs_rows = point_rows(obs, 40)
        mean_ref, var_ref = dense_posterior(kern, coords, noise, obs_rows, vals,
                                            point_rows(range(40), 40))
        mean, var = model.posterior()
        worst = max(worst, rel_dev(mean, mean_ref), rel_dev(var, np.maximum(var_ref, 0.0)))

        _, _, got = model.posterior_cov_pairs()
        _, cov_ref = dense_posterior(kern, coords, noise, obs_rows, vals,
                                     point_rows(pairs[:, 0], 40), point_rows(pairs[:, 1], 40))
        worst = max(worst, rel_dev(got, cov_ref))

    elapsed = time.time() - t0
    verdict(capsys, "gp vs dense solve",
            worst <= 1e-8 and elapsed < 10.0,
            f"max rel dev {worst:.2e} (allowed 1e-8), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. set operators vs brute force, exhaustively on tiny MDPs


def check_all_operators(mdp, dist, rng):
    """Compare every operator against brute force; returns mismatch count."""
    n = mdp.num_states
    r = rng.normal(size=n)
    eps = float(rng.uniform(0, 0.4))
    lip = float(rng.uniform(0, 1.2))
    h = float(rng.normal(scale=0.5))
    base = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
    through = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
    target = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
    return len(operator_mismatches(mdp, dist, r, eps, lip, h, base, through, target))


def test_set_operators_match_bruteforce(capsys):
    t0 = time.time()
    rng = np.random.default_rng(5)
    mismatches = 0

    # Exhaustive: every 4-state deterministic MDP with at most two actions
    # per state.  Actions with duplicate successors are behaviorally
    # identical, so dynamics are enumerated as successor sets of size 1-2:
    # ten per state, 10^4 machines in total.
    successor_sets = [c for k in (1, 2) for c in itertools.combinations(range(4), k)]
    dist4 = [[abs(i - j) * 1.0 for j in range(4)] for i in range(4)]
    metric4 = DenseMetric(dist4)
    n_exhaustive = 0
    for combo in itertools.product(successor_sets, repeat=4):
        mdp = Mdp([[(a, s) for a, s in enumerate(ss)] for ss in combo], metric4)
        mismatches += check_all_operators(mdp, dist4, rng)
        n_exhaustive += 1

    for _ in range(200):
        mdp, dist = random_mdp(rng, int(rng.integers(20, 31)), 10)
        mismatches += check_all_operators(mdp, dist, rng)

    elapsed = time.time() - t0
    verdict(capsys, "set operators vs brute force",
            mismatches == 0 and elapsed < 60.0,
            f"{n_exhaustive} exhaustive + 200 random MDPs, "
            f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def random_grid(rng, cell_size):
    """A small grid with about a fifth of its cells invalid."""
    rows, cols = (int(v) for v in rng.integers(1, 7, size=2))
    valid = rng.random(rows * cols) < 0.8
    valid[int(rng.integers(rows * cols))] = True
    return grid_mdp(rows, cols, cell_size, valid)


def test_envelope_matches_bruteforce(capsys):
    """The grid and augmented-grid envelopes (distance transforms, not
    blocks), and the ``Mdp.distances`` derived from them, against the
    metrics' dense formulas in ``oracles.dense_distances``; and the two
    operators built on the envelopes against python-set brute force over
    that dense block."""
    rng = np.random.default_rng(8)
    worst = 0.0
    mismatches = 0
    trials = 240
    for i in range(trials):
        grid = random_grid(rng, (1.0, 0.3, 2.5)[i % 3])
        mdp = grid if i % 2 else augment(grid, half_step=grid.metric.cell_size / 2)
        n = mdp.num_states
        ids = np.arange(n)
        dist = dense_distances(mdp, ids, ids)
        worst = max(worst, float(np.abs(mdp.distances(ids, ids) - dist).max()))
        lip = 0.0 if i % 7 == 0 else float(rng.uniform(0, 2))
        witnesses = (np.zeros(n, bool), np.ones(n, bool), rng.random(n) < 0.3)[i % 3]
        values = rng.normal(size=n)

        encoded = np.where(witnesses, values, -np.inf)
        got = mdp.metric.envelope(encoded, lip)
        expected = (encoded[:, None] - lip * dist).max(axis=0)
        mismatches += not np.array_equal(np.isinf(got), np.isinf(expected))
        finite = np.isfinite(expected)
        if finite.any():
            worst = max(worst, float(np.abs(got[finite] - expected[finite]).max()))

        h = float(rng.normal(scale=0.5))
        eps = float(rng.uniform(0, 0.4))
        base = to_set(witnesses)
        # r_safe_eps reads values only on its base: NaN, +inf or -inf elsewhere are ignored.
        unread = np.where(witnesses, values, np.resize([np.nan, np.inf, -np.inf], n))
        mismatches += to_set(r_safe_eps(mdp, witnesses, unread, eps, lip, h)) != oracle_safe(
            mdp, dist, base, values, eps, lip, h)
        bands = ConfidenceBands(values, values + rng.uniform(0, 2, size=n))
        safe = witnesses | (rng.random(n) < 0.5)
        ergodic = safe & (rng.random(n) < 0.7)
        got_exp, nearest = expanders(mdp, ergodic, safe, bands, lip, h)
        outside = np.flatnonzero(~safe)
        mismatches += not np.array_equal(
            nearest, dist[:, outside].min(axis=1) if outside.size else np.full(n, np.inf))
        mismatches += to_set(got_exp) != {
            s for s in to_set(ergodic)
            if any(bands.upper[s] - lip * dist[s][o] >= h for o in outside)}

    verdict(capsys, "envelope vs brute force",
            mismatches == 0 and worst <= 1e-12,
            f"{trials} grids and augmented grids, {mismatches} mismatches, "
            f"max envelope and distance dev {worst:.1e} (<= 1e-12)")


def test_operators_need_no_quadratic_memory(capsys):
    """Both oracle fixpoints and a classification round on
    an augmented 30x30 grid (N=5280), where one dense witness block would
    take up to 223 MB."""
    grid = grid_mdp(30, 30, 1.0)
    aug = augment(grid, half_step=0.5)
    n = aug.num_states
    rng = np.random.default_rng(3)
    # Flat cells; transitions mostly gentle, about 1% steeper than h = -0.5.
    r = np.where(aug.is_action_state, rng.normal(scale=0.2, size=n), 0.0)
    seed = np.zeros(n, dtype=bool)
    seed[[0, step(aug, 0, GRID_STAY)]] = True
    bands = ConfidenceBands(r - 0.05, r + 0.05)
    upper_half = grid.metric.coords[aug.owner, 0] < 15
    tracemalloc.start()
    try:
        grown = r_eps_fixpoint(aug, seed, r, 0.05, 0.2, -0.5)
        sets = compute_safe_sets(aug, bands, upper_half, -0.5, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mb = peak / 2**20
    verdict(capsys, "linear memory",
            peak_mb < 8.0 and grown.sum() == n and upper_half.sum() < sets.safe.sum() < n
            and sets.expanders.any(),
            f"N={n}, oracle grew {int(seed.sum())} -> {int(grown.sum())} states, "
            f"safe set {int(upper_half.sum())} -> {int(sets.safe.sum())}, "
            f"peak {peak_mb:.1f} MB (< 8 MB)")


# ---------------------------------------------------------------------------
# 3. monotonicity: nested sets in, nested sets out; bands only tighten


def test_operator_and_band_monotonicity(capsys):
    counterexamples = 0

    def subset(a, b):
        return not (a & ~b).any()

    for trial in range(1000):
        rng = np.random.default_rng(10_000 + trial)
        n = int(rng.integers(2, 16))
        mdp, dist = random_mdp(rng, n, 8)
        r = rng.normal(size=n)
        eps = float(rng.uniform(0, 0.4))
        lip = float(rng.uniform(0, 1.2))
        h = float(rng.normal(scale=0.5))
        small = rng.random(n) < rng.uniform(0.1, 0.6)
        big = small | (rng.random(n) < 0.4)
        other = rng.random(n) < 0.5

        pairs = [
            (r_safe_eps(mdp, small, r, eps, lip, h), r_safe_eps(mdp, big, r, eps, lip, h)),
            (r_reach(mdp, small), r_reach(mdp, big)),
            (r_ret_fixpoint(mdp, small, other), r_ret_fixpoint(mdp, big, other)),
            (r_ret_fixpoint(mdp, other, small), r_ret_fixpoint(mdp, other, big)),
            (r_eps(mdp, small, r, eps, lip, h), r_eps(mdp, big, r, eps, lip, h)),
            (r_eps_fixpoint(mdp, small, r, eps, lip, h), r_eps_fixpoint(mdp, big, r, eps, lip, h)),
        ]
        counterexamples += sum(not subset(a, b) for a, b in pairs)

    # Bands are running intersections of intervals that each contain the
    # same unknown function, so feed them exactly that: random intervals
    # around a fixed truth.  Lower bounds may then only rise, upper bounds
    # only fall, and the emergency collapse path must never fire.
    band_breaks = 0
    collapses = 0
    for sequence in range(20):
        rng = np.random.default_rng(77 + sequence)
        n = 25
        truth = rng.normal(scale=2.0, size=n)
        seed = rng.random(n) < 0.3
        seed[0] = True
        bands = initial_bands(n, seed, float(truth[seed].min()) - 0.1)
        beta_t = 4.0
        for _ in range(100):
            offset = rng.uniform(-1.0, 1.0, size=n)
            radius = np.abs(offset) + rng.uniform(0.05, 2.0, size=n)
            new = update_bands(bands, truth + offset, radius**2 / beta_t, beta_t)
            if (new.lower < bands.lower).any() or (new.upper > bands.upper).any():
                band_breaks += 1
            if (new.lower > truth).any() or (new.upper < truth).any():
                band_breaks += 1
            bands = new
        collapses += bands.collapses

    verdict(capsys, "monotonicity",
            counterexamples == 0 and band_breaks == 0 and collapses == 0,
            f"1000 nested-set trials, 20x100 band updates, "
            f"{counterexamples + band_breaks} counterexamples, "
            f"{collapses} collapses")


# ---------------------------------------------------------------------------
# 4. every reported ergodic set is mutually connected through the safe set


def test_ergodic_sets_stay_mutually_connected(capsys):
    """Sampled ergodic pairs connect both ways through the safe set, and
    every plan holds to what the planner relies on: it starts on an ergodic
    state, stays inside the safe set, and ends on an expander."""
    t0 = time.time()
    failures = 0
    checks = 0
    bad_plans = 0
    plans = 0
    for seed in range(50):
        aug, env, mask, _ = terrain_setup(CRATER, 6, 6, seed)
        trace = run_strategy(aug, env, mask, KERN_LOCAL, "safemdp", 40)
        rng = np.random.default_rng(seed)
        for rec in trace.records:
            states = rec.path.states
            plans += 1
            bad_plans += not (rec.sets.ergodic[states[0]] and rec.sets.safe[states].all()
                              and rec.sets.expanders[states[-1]])
            ergodic = np.flatnonzero(rec.sets.ergodic)
            if ergodic.size < 2:
                continue
            for a, b in rng.choice(ergodic, size=(20, 2)):
                checks += 1
                there = bfs_hops(aug, rec.sets.safe, int(a), int(b)) is not None
                back = bfs_hops(aug, rec.sets.safe, int(b), int(a)) is not None
                failures += not (there and back)
    elapsed = time.time() - t0
    verdict(capsys, "ergodic set connectivity",
            failures == 0 and bad_plans == 0 and plans > 0,
            f"{failures} failures in {checks} sampled pairs over 50 runs, "
            f"{bad_plans} of {plans} plans left ergodic start, safe path or "
            f"expander target, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. the explorer never sets foot on truly unsafe ground


def test_exploration_only_visits_truly_safe_states(capsys):
    t0 = time.time()
    bad_runs = 0
    for seed in range(100):
        aug, env, mask, h = terrain_setup(RAMP, *RAMP_SHAPE, seed)
        trace = run_strategy(aug, env, mask, KERN_WIDE, "safemdp", 120)
        visited = {int(np.flatnonzero(mask)[0])}
        for rec in trace.records:
            visited.update(rec.path.states)
        unsafe_visits = sum(env.true_safety[s] < h for s in visited)
        bad_runs += trace.terminal_reason == REASON_VIOLATION or unsafe_visits > 0
    elapsed = time.time() - t0
    verdict(capsys, "no unsafe visits",
            bad_runs == 0 and elapsed < 300.0,
            f"{bad_runs}/100 runs touched unsafe ground, {elapsed:.0f}s (< 300s)")


# ---------------------------------------------------------------------------
# 6. the terminal ergodic set brackets the explorable-set benchmarks


def bracketing_fixture(i):
    """Gentle noiseless 5x5 slopes with a shallow dip; nothing pathological,
    so an accurate explorer should settle between the two benchmarks."""
    rng = np.random.default_rng(100 + i)
    return CraterHillParams(
        tilt_row=float(rng.uniform(0.03, 0.15)),
        tilt_col=float(rng.uniform(-0.08, 0.08)),
        crater_row=float(rng.uniform(2.5, 4.0)),
        crater_col=float(rng.uniform(2.5, 4.0)),
        crater_depth=float(rng.uniform(0.0, 0.8)),
        crater_radius=1.5)


def test_terminal_set_brackets_reach_benchmarks(capsys):
    holds = 0
    natural_stops = 0
    for i in range(10):
        aug, env, mask, h = terrain_setup(bracketing_fixture(i), 5, 5, i, noise=1e-6)
        trace = run_strategy(aug, env, mask, KERN_LOCAL, "safemdp", 200,
                             eps=0.05, noise=1e-6)
        attained = trace.final_sets.ergodic
        floor = r_eps_fixpoint(aug, mask, env.true_safety, 0.05, 0.2, h)
        ceiling = r_eps_fixpoint(aug, mask, env.true_safety, 0.0, 0.2, h)
        holds += not (floor & ~attained).any() and not (attained & ~ceiling).any()
        natural_stops += trace.terminal_reason in (REASON_CONVERGED,
                                                   REASON_EXPANDERS_EMPTY)
    verdict(capsys, "terminal set brackets benchmarks",
            holds == 10 and natural_stops == 10,
            f"{holds}/10 fixtures bracketed, {natural_stops}/10 natural stops")


# ---------------------------------------------------------------------------
# 7. the four strategies separate qualitatively on shared fixtures


def test_strategy_comparison_on_shared_fixtures(capsys):
    t0 = time.time()

    # Full algorithm: natural stopping point, then its coverage of the
    # benchmark.  The expander-free baseline gets the same per-seed
    # iteration allowance, so the comparison isolates the target choice.
    sm_cov, ne_cov, unsafe_violations = [], [], 0
    for seed in range(20):
        aug, env, mask, h = terrain_setup(RAMP, *RAMP_SHAPE, seed)
        sm = run_strategy(aug, env, mask, KERN_LOCAL, "safemdp", 120)
        sm_cov.append(coverage(aug, env, mask, h, sm))
        ne = run_strategy(aug, env, mask, KERN_LOCAL, "no_expanders",
                          max(1, sm.iterations))
        ne_cov.append(coverage(aug, env, mask, h, ne))
        unsafe = run_strategy(aug, env, mask, KERN_LOCAL, "unsafe", 120)
        unsafe_violations += unsafe.terminal_reason == REASON_VIOLATION

    # The trapdoor: the baseline that skips the returnability check walks
    # into the lure's antechamber and strands itself; the full algorithm
    # never enters it.
    stuck_or_low, sm_lured = 0, 0
    mdp, coords, seed_mask, r = trapdoor()
    cfg = ExplorerConfig(0.25, 0.05, 30, seed_mask)
    benchmark = r_eps_fixpoint(mdp, seed_mask, r, 0.05, cfg.lipschitz, 0.0)
    for seed in range(20):
        traces = {}
        for strategy in ("non_ergodic", "safemdp"):
            env = Environment(r, 0.0, 1e-3, seed)
            cov = StationaryCovariance(Kernel("matern52", 4.0, 1.0), coords)
            bands = GpBandModel(GpModel(cov, 1e-3), 4.0)
            traces[strategy] = run_safemdp(mdp, env, cfg, bands, strategy=strategy)
        trace = traces["non_ergodic"]
        frac = float((trace.final_sets.ergodic & benchmark).sum() / benchmark.sum())
        stuck_or_low += trace.terminal_reason == REASON_STUCK or frac < 0.2
        sm_lured += bool({1, 2} & {s for rec in traces["safemdp"].records
                                   for s in rec.path.states})

    sm_med = statistics.median(sm_cov)
    ne_med = statistics.median(ne_cov)
    elapsed = time.time() - t0
    ok = (sm_med >= 0.7 and ne_med < sm_med and unsafe_violations >= 16
          and stuck_or_low >= 16 and sm_lured == 0 and elapsed < 600.0)
    verdict(capsys, "strategy separation", ok,
            f"coverage medians {sm_med:.3f} (full) vs {ne_med:.3f} (no expanders), "
            f"unsafe violated {unsafe_violations}/20, "
            f"non-ergodic stuck-or-lost {stuck_or_low}/20, "
            f"full algorithm lured {sm_lured}/20, {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 8. planned paths are exactly as short as BFS says they can be


def test_planner_matches_bfs_distances(capsys):
    t0 = time.time()
    rng = np.random.default_rng(8)
    mismatches = 0
    planned = 0
    blocked = 0
    for _ in range(500):
        rows, cols = int(rng.integers(2, 13)), int(rng.integers(2, 13))
        mdp = grid_mdp(rows, cols, 1.0)
        n = mdp.num_states
        allowed = rng.random(n) < float(rng.uniform(0.3, 0.95))
        start, goal = int(rng.integers(n)), int(rng.integers(n))
        allowed[start] = True
        oracle = bfs_hops(mdp, allowed, start, goal)
        try:
            plan = shortest_safe_path(mdp, allowed, start, goal)
        except NoPathError:
            blocked += 1
            mismatches += oracle is not None
            continue
        planned += 1
        off_allowed = sum(not allowed[s] for s in plan.states)
        relinked = [step(mdp, s, a) for s, a in zip(plan.states, plan.actions)]
        mismatches += (len(plan) != oracle or off_allowed > 0
                       or relinked != plan.states[1:])
    elapsed = time.time() - t0
    verdict(capsys, "planner vs BFS oracle",
            mismatches == 0 and elapsed < 10.0,
            f"{planned} paths + {blocked} correctly-refused pairs, "
            f"{mismatches} mismatches, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 9. identical configs produce byte-identical traces


def test_cli_traces_are_byte_identical(capsys, tmp_path):
    def config_for(out_dir):
        return write_config(readme_example(), tmp_path / f"{out_dir.name}.ini", out_dir,
                            max_iterations="25", seeds="0 3")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["explore", str(config_for(out_a))]) == 0
    assert cli.main(["explore", str(config_for(out_b))]) == 0
    same = all(
        (out_a / f"seed_{s}" / "trace.csv").read_bytes()
        == (out_b / f"seed_{s}" / "trace.csv").read_bytes()
        for s in (0, 3))
    nonempty = all(
        len((out_a / f"seed_{s}" / "trace.csv").read_bytes().splitlines()) > 1
        for s in (0, 3))
    verdict(capsys, "byte-identical traces",
            same and nonempty,
            "2 seeds x 2 runs, trace.csv compared byte for byte")
