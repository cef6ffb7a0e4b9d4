"""Tests for safe-set classification, ergodic filtering and expanders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemdp.gp import ConfidenceBands
from safemdp.mdp import Mdp, grid_mdp
from safemdp.safeset import (
    ErgodicPreconditionError,
    LastRound,
    SafeSets,
    acquisition_target,
    classify_safe,
    compute_safe_sets,
    ergodic_safe,
    expanders,
)

from oracles import DenseMetric, dense_distances, from_set, random_mdp


def bands_of(lower, upper):
    return ConfidenceBands(np.asarray(lower, float), np.asarray(upper, float))


def random_bands(rng, n, h):
    lower = h + rng.normal(scale=1.0, size=n)
    return ConfidenceBands(lower, lower + rng.uniform(0.0, 2.0, size=n))


# ---------------------------------------------------------------------------
# classification


def test_dipped_witness_keeps_only_the_previous_set():
    # The sole previous ergodic state's lower band dips just below the
    # threshold: nothing new is certified, and the previous ergodic set is
    # retained rather than letting the safe set shrink to nothing.
    h = 0.0
    bands = bands_of([h - 0.01, -5.0, -5.0], [1.0, 1.0, 1.0])
    safe = classify_safe(bands, from_set(3, {0}), h)
    np.testing.assert_array_equal(safe, [True, False, False])


def test_direct_mode_reads_each_lower_band():
    h = 0.2
    bands = bands_of([h - 1.0, h, h + 0.3, h - 0.1], [2.0, 2.0, 2.0, 2.0])
    safe = classify_safe(bands, from_set(4, {0}), h)
    # Own band decides (inclusive >=); the previous set stays regardless.
    np.testing.assert_array_equal(safe, [True, True, True, False])


def test_classify_requires_a_nonempty_previous_set():
    with pytest.raises(ValueError):
        classify_safe(bands_of([0, 0], [1, 1]), from_set(2, set()), 0.0)


def test_classify_matches_bruteforce_double_loop():
    rng = np.random.default_rng(5)
    n = 16
    for _ in range(60):
        h = float(rng.normal(scale=0.5))
        bands = random_bands(rng, n, h)
        prev = from_set(n, set(rng.choice(n, size=int(rng.integers(1, 6)), replace=False).tolist()))
        got = classify_safe(bands, prev, h)
        expected = {s for s in range(n) if prev[s] or bands.lower[s] >= h}
        assert set(np.flatnonzero(got).tolist()) == expected


# ---------------------------------------------------------------------------
# ergodic filtering


def test_ergodic_is_previous_set_when_nothing_new_is_safe():
    mdp = grid_mdp(2, 2, 1.0)
    prev = from_set(4, {0, 1})
    np.testing.assert_array_equal(ergodic_safe(mdp, prev.copy(), prev), prev)


def test_ergodic_adds_reachable_returnable_states():
    mdp = Mdp([[(0, 0), (1, 1)], [(0, 0)]], DenseMetric([[0, 1], [1, 0]]))
    out = ergodic_safe(mdp, from_set(2, {0, 1}), from_set(2, {0}))
    assert out.all()


def test_trapdoor_state_is_not_ergodic():
    # A state the agent could enter but never safely leave must be excluded
    # even though its band classifies it safe.  Rewire one grid cell so all
    # its moves lead into unsafe territory and only the self-loop remains.
    base = grid_mdp(4, 4, 1.0)
    trapdoor, sink = 5, 15
    actions = []
    for s in range(base.num_states):
        if s == trapdoor:
            acts = [(label, sink if succ != s else s) for label, succ in base.actions_of(s)]
        else:
            acts = list(base.actions_of(s))
        actions.append(acts)
    mdp = Mdp(actions, base.metric)
    safe = from_set(16, {0, 1, 4, 5})
    prev = from_set(16, {0, 1, 4})
    out = ergodic_safe(mdp, safe, prev)
    assert not out[trapdoor]
    np.testing.assert_array_equal(out, prev)


def test_ergodic_rejects_escaped_previous_set():
    mdp = grid_mdp(2, 2, 1.0)
    with pytest.raises(ErgodicPreconditionError):
        ergodic_safe(mdp, from_set(4, {0}), from_set(4, {0, 1}))


def test_ergodic_matches_operator_composition():
    from safemdp.reach import r_reach, r_ret_fixpoint

    rng = np.random.default_rng(13)
    mdp = grid_mdp(4, 4, 1.0)
    for _ in range(40):
        prev = from_set(16, set(rng.choice(16, size=3, replace=False).tolist()))
        safe = prev | (rng.random(16) < 0.5)
        got = ergodic_safe(mdp, safe, prev)
        expected = safe & r_reach(mdp, prev) & r_ret_fixpoint(mdp, safe, prev)
        np.testing.assert_array_equal(got, expected)


# ---------------------------------------------------------------------------
# expanders


def test_no_outside_states_means_no_expanders():
    mdp = grid_mdp(2, 2, 1.0)
    bands = bands_of([1.0] * 4, [5.0] * 4)
    # With lip = 0 the infinite distance must not turn into 0 * inf = NaN.
    for lip in (1.0, 0.0):
        mask_, nearest = expanders(mdp, np.ones(4, bool), np.ones(4, bool), bands, lip, 0.0)
        assert not mask_.any()
        assert (nearest == np.inf).all()
    # An infinite constant would compute that 0 * inf; it is refused, as
    # are NaN and negative ones.
    for lip in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="lipschitz must be finite and non-negative"):
            expanders(mdp, np.ones(4, bool), np.ones(4, bool), bands, lip, 0.0)


def test_boundary_certificate_counts_inclusively():
    mdp = grid_mdp(1, 2, 1.0)
    h, lip = 0.0, 0.5  # exactly representable so the boundary really is exact
    # u(s0) - L*d(s0,s1) == h; inclusive comparison makes s0 an expander.
    bands = bands_of([h, -1.0], [h + lip * 1.0, -0.5])
    mask_, nearest = expanders(mdp, from_set(2, {0}), from_set(2, {0}), bands, lip, h)
    np.testing.assert_array_equal(mask_, [True, False])
    np.testing.assert_array_equal(nearest, [1.0, 0.0])
    # An upper band a hair lower misses the certificate.
    bands = bands_of([h, -1.0], [h + lip - 1e-9, -0.5])
    mask_, nearest = expanders(mdp, from_set(2, {0}), from_set(2, {0}), bands, lip, h)
    assert not mask_.any()


def test_expanders_match_bruteforce():
    rng = np.random.default_rng(21)
    mdp = grid_mdp(4, 4, 1.0)
    n = mdp.num_states
    dist = dense_distances(mdp, np.arange(n), np.arange(n))
    for _ in range(60):
        h = float(rng.normal(scale=0.5))
        bands = random_bands(rng, n, h)
        safe = rng.random(n) < 0.6
        ergodic = safe & (rng.random(n) < 0.7)
        lip = float(rng.uniform(0.05, 1.5))
        got_mask, got_nearest = expanders(mdp, ergodic, safe, bands, lip, h)
        nearest = np.array([min((dist[s, s2] for s2 in np.flatnonzero(~safe)),
                                default=np.inf) for s in range(n)])
        expected = np.zeros(n, dtype=bool)
        for s in np.flatnonzero(ergodic):
            for s2 in np.flatnonzero(~safe):
                if bands.upper[s] - lip * dist[s, s2] >= h:
                    expected[s] = True
        np.testing.assert_array_equal(got_nearest, nearest)
        np.testing.assert_array_equal(got_mask, expected)


def test_shrinking_upper_bands_never_add_expanders():
    rng = np.random.default_rng(27)
    mdp = grid_mdp(4, 4, 1.0)
    n = mdp.num_states
    for _ in range(30):
        h = float(rng.normal(scale=0.3))
        wide = random_bands(rng, n, h)
        narrow = ConfidenceBands(wide.lower, wide.lower + (wide.upper - wide.lower) * rng.random(n))
        safe = rng.random(n) < 0.6
        ergodic = safe & (rng.random(n) < 0.7)
        lip = float(rng.uniform(0.05, 1.5))
        before, _ = expanders(mdp, ergodic, safe, wide, lip, h)
        after, _ = expanders(mdp, ergodic, safe, narrow, lip, h)
        assert not (after & ~before).any()


# ---------------------------------------------------------------------------
# acquisition and assembly


def test_acquisition_target_rules():
    assert acquisition_target(np.zeros(5, bool), np.zeros(5)) is None
    assert acquisition_target(from_set(5, {3}), np.arange(5.0)) == 3
    widths = np.array([0.0, 0.5, 0.3, 0.0, 0.5])
    assert acquisition_target(from_set(5, {1, 2, 4}), widths) == 1  # tie -> lowest id


def test_safe_sets_validation():
    ok = SafeSets(
        safe=from_set(3, {0, 1}),
        ergodic=from_set(3, {0}),
        expanders=from_set(3, {0}),
    )
    assert ok.expanders[0]
    with pytest.raises(ValueError):
        SafeSets(from_set(3, {0}), from_set(3, {0, 1}), from_set(3, set()))
    with pytest.raises(ValueError):
        SafeSets(from_set(3, {0, 1}), from_set(3, {0}), from_set(3, {1}))


def test_compute_safe_sets_nesting_on_random_instances():
    rng = np.random.default_rng(33)
    mdp = grid_mdp(4, 4, 1.0)
    for _ in range(40):
        h = float(rng.normal(scale=0.4))
        bands = random_bands(rng, mdp.num_states, h)
        prev = from_set(16, {int(rng.integers(16))})
        sets = compute_safe_sets(mdp, bands, prev, h, float(rng.uniform(0.0, 1.0)))
        assert not (sets.ergodic & ~sets.safe).any()
        assert not (sets.expanders & ~sets.ergodic).any()


def test_safe_and_ergodic_sets_grow_under_monotone_bands():
    # Feed a fixed sequence of shrinking bands through repeated
    # classification rounds: both sets must be non-decreasing.
    rng = np.random.default_rng(39)
    mdp = grid_mdp(4, 4, 1.0)
    h = 0.0
    lower = np.full(16, -3.0)
    lower[5] = 1.0
    upper = np.full(16, 4.0)
    bands = ConfidenceBands(lower, upper)
    prev = from_set(16, {5})
    prev_safe = prev.copy()
    for _ in range(12):
        lift = rng.uniform(0.0, 0.35, size=16)
        bands = ConfidenceBands(bands.lower + lift, bands.upper - rng.uniform(0, 0.1, size=16))
        sets = compute_safe_sets(mdp, bands, prev, h, 1.0)
        assert not (prev_safe & ~sets.safe).any()
        assert not (prev & ~sets.ergodic).any()
        prev, prev_safe = sets.ergodic, sets.safe


@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=2, max_size=14))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_a_threaded_last_round_changes_no_bit_of_any_round(seed, moves):
    # Monotone bands that stand still on the rounds ``moves`` marks False:
    # such a round repeats the last safe set, and from the second repeat on
    # the ergodic set has settled.  Each round is checked against a round
    # that keeps no state.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    mdp, _ = random_mdp(rng, n, 5)
    h, lip = 0.0, float(rng.uniform(0.0, 1.0))
    lower = rng.normal(-1.0, 1.0, size=n)
    upper = lower + rng.uniform(0.0, 3.0, size=n)
    prev = from_set(n, {int(rng.integers(n))})
    last = LastRound()
    for moved in moves:
        if moved:
            lower = np.minimum(lower + rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.4), upper)
            upper = np.maximum(lower, upper - rng.uniform(0.0, 0.5, size=n))
        last_safe = None if last.sets is None else last.sets.safe
        bands = ConfidenceBands(lower, upper)
        got = compute_safe_sets(mdp, bands, prev, h, lip, last)
        want = compute_safe_sets(mdp, bands, prev, h, lip)
        for name in ("safe", "ergodic", "expanders"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        if not moved and last_safe is not None:
            assert got.safe is last_safe
        prev = got.ergodic
