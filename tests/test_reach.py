"""Brute-force checks for the safety / reachability / returnability operators.

Every operator is compared against a literal python-set reimplementation of
its definition on randomly generated MDPs, plus hand-derived small cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemdp.mdp import Mdp, grid_mdp
from safemdp.reach import (
    r_eps,
    r_eps_fixpoint,
    r_reach,
    r_ret_fixpoint,
    r_ret_one,
    r_safe_eps,
)

from oracles import (
    DenseMetric,
    from_set,
    operator_mismatches,
    oracle_eps,
    oracle_ret_fixpoint,
    random_mdp,
    to_set,
)

#: A three-state chain 0 -> 1 -> 2 with a self-loop on 2.
CHAIN = Mdp([[(0, 1)], [(0, 2)], [(0, 2)]],
            DenseMetric(np.abs(np.subtract.outer(np.arange(3), np.arange(3)))))


def random_subset(rng, n):
    return set(np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.7)).tolist())


# ---------------------------------------------------------------------------
# one-step operators


def test_safe_eps_includes_base_and_certified_neighbours():
    mdp = grid_mdp(1, 3, 1.0)
    r = np.array([1.0, 0.0, 0.0])
    base = from_set(3, {0})
    # With eps=0.1, L=0.4: state 1 needs 1.0 - 0.1 - 0.4 >= h, state 2 needs
    # 1.0 - 0.1 - 0.8 >= h.  Pick h=0.2 so only state 1 clears the bar.
    out = r_safe_eps(mdp, base, r, 0.1, 0.4, 0.2)
    assert to_set(out) == {0, 1}
    # Larger eps removes the certificate but never the base.
    out = r_safe_eps(mdp, base, r, 0.9, 0.4, 0.2)
    assert to_set(out) == {0}


def test_safe_eps_empty_base_is_empty():
    mdp = grid_mdp(2, 2, 1.0)
    out = r_safe_eps(mdp, np.zeros(4, bool), np.zeros(4), 0.1, 1.0, 0.0)
    assert not out.any()


def test_reach_adds_one_step_successors():
    mdp = grid_mdp(2, 2, 1.0)
    out = r_reach(mdp, from_set(4, {0}))
    # From the top-left corner: down (2), right (1), stay (0).
    assert to_set(out) == {0, 1, 2}
    assert not r_reach(mdp, np.zeros(4, bool)).any()


def test_ret_one_small_cases():
    assert not r_ret_one(CHAIN, np.zeros(3, bool), np.zeros(3, bool)).any()
    out = r_ret_one(CHAIN, from_set(3, {1}), from_set(3, {2}))
    assert to_set(out) == {1, 2}
    # A through-state whose actions all miss the target is not added.
    out = r_ret_one(CHAIN, from_set(3, {0}), from_set(3, {2}))
    assert to_set(out) == {2}


def test_ret_fixpoint_small_cases():
    out = r_ret_fixpoint(CHAIN, from_set(3, {0, 1}), from_set(3, {2}))
    assert to_set(out) == {0, 1, 2}
    # Strongly connected grid, full through-set: everything returns.
    mdp = grid_mdp(3, 3, 1.0)
    out = r_ret_fixpoint(mdp, np.ones(9, bool), from_set(9, {4}))
    assert out.all()


def test_mask_shape_is_validated():
    mdp = grid_mdp(2, 2, 1.0)
    with pytest.raises(ValueError):
        r_reach(mdp, np.zeros(5, bool))


# ---------------------------------------------------------------------------
# brute-force sweeps


def test_operators_match_bruteforce_on_random_mdps():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        mdp, dist = random_mdp(rng, n, 6)
        r = rng.normal(size=n)
        eps = float(rng.uniform(0.0, 0.5))
        lip = float(rng.uniform(0.0, 1.5))
        h = float(rng.normal(scale=0.5))
        base = random_subset(rng, n)
        through = random_subset(rng, n)
        target = random_subset(rng, n)
        assert not operator_mismatches(mdp, dist, r, eps, lip, h, base, through, target)


def test_ret_fixpoint_equals_reverse_bfs():
    # The oracle grows the target backwards one layer of predecessors at a
    # time, a breadth-first walk of the reversed edges inside `through`.
    rng = np.random.default_rng(7)
    for _ in range(200):
        mdp, _ = random_mdp(rng, 8, 6)
        through = random_subset(rng, 8)
        target = random_subset(rng, 8)
        got = to_set(r_ret_fixpoint(mdp, from_set(8, through), from_set(8, target)))
        assert got == oracle_ret_fixpoint(mdp, through, target)


def hub_mdp(n):
    """The ring ``0 -> 1 -> ... -> n - 1 -> 0`` in which each state but 0
    also has an action into state 0, a hub with ``n - 1`` predecessors."""
    actions = [[(0, 1)]] + [[(0, 0), (1, (s + 1) % n)] for s in range(1, n)]
    coords = np.arange(n, dtype=float)
    return Mdp(actions, DenseMetric(np.abs(np.subtract.outer(coords, coords))))


def test_ret_fixpoint_among_equals_the_full_fixpoint_restricted():
    rng = np.random.default_rng(23)
    mdps = [random_mdp(rng, int(rng.integers(2, 25)), 6)[0] for _ in range(80)]
    mdps += [hub_mdp(n) for n in (2, 5, 40)]
    for mdp in mdps:
        n = mdp.num_states
        for _ in range(3):
            through = from_set(n, random_subset(rng, n))
            target = from_set(n, random_subset(rng, n))
            if n >= 5 and rng.random() < 0.5:
                target = from_set(n, {int(rng.integers(n))})
            full = r_ret_fixpoint(mdp, through, target)
            overlap = target.copy()
            overlap[rng.integers(n)] = True
            for among in (np.zeros(n, bool),
                          ~through,
                          overlap | from_set(n, random_subset(rng, n)),
                          r_reach(mdp, target)):
                got = r_ret_fixpoint(mdp, through, target, among=among)
                np.testing.assert_array_equal(got, among & full)


def test_eps_fixpoint_is_order_independent():
    # Asynchronous single-state updates in random order land on the same
    # least fixpoint as the synchronous sweep.
    rng = np.random.default_rng(3)
    for _ in range(30):
        mdp, dist = random_mdp(rng, 7, 6)
        r = rng.normal(size=7)
        eps, lip = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 1.0))
        h = float(rng.normal(scale=0.4))
        seed = random_subset(rng, 7) or {int(rng.integers(7))}

        current = set(seed)
        changed = True
        while changed:
            changed = False
            for s in rng.permutation(7):
                if s not in current and int(s) in oracle_eps(mdp, dist, current, r, eps, lip, h):
                    current.add(int(s))
                    changed = True
        # Asynchronous growth can overshoot states that later lose their
        # certificate only if the operator were non-monotone; one final
        # synchronous pass must therefore be a no-op.
        assert oracle_eps(mdp, dist, current, r, eps, lip, h) == current
        got = r_eps_fixpoint(mdp, from_set(7, seed), r, eps, lip, h)
        assert to_set(got) == current


# ---------------------------------------------------------------------------
# invariants


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_operators_are_monotone_in_their_set_arguments(seed):
    rng = np.random.default_rng(seed)
    mdp, dist = random_mdp(rng, int(rng.integers(2, 31)), 6)
    n = mdp.num_states
    r = rng.normal(size=n)
    eps, lip = float(rng.uniform(0, 0.4)), float(rng.uniform(0, 1.2))
    h = float(rng.normal(scale=0.5))
    small = random_subset(rng, n)
    big = small | random_subset(rng, n)
    small_m, big_m = from_set(n, small), from_set(n, big)

    def subset(a, b):
        return not (a & ~b).any()

    assert subset(r_safe_eps(mdp, small_m, r, eps, lip, h), r_safe_eps(mdp, big_m, r, eps, lip, h))
    assert subset(r_reach(mdp, small_m), r_reach(mdp, big_m))
    other = from_set(n, random_subset(rng, n))
    assert subset(r_ret_one(mdp, small_m, other), r_ret_one(mdp, big_m, other))
    assert subset(r_ret_one(mdp, other, small_m), r_ret_one(mdp, other, big_m))
    assert subset(r_ret_fixpoint(mdp, small_m, other), r_ret_fixpoint(mdp, big_m, other))
    assert subset(r_ret_fixpoint(mdp, other, small_m), r_ret_fixpoint(mdp, other, big_m))
    assert subset(r_eps(mdp, small_m, r, eps, lip, h), r_eps(mdp, big_m, r, eps, lip, h))
    assert subset(
        r_eps_fixpoint(mdp, small_m, r, eps, lip, h), r_eps_fixpoint(mdp, big_m, r, eps, lip, h)
    )


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_operators_contain_their_base_sets(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    mdp, _ = random_mdp(rng, n, 6)
    r = rng.normal(size=n)
    base = from_set(n, random_subset(rng, n))
    through = from_set(n, random_subset(rng, n))
    h = float(rng.normal())

    assert (r_safe_eps(mdp, base, r, 0.1, 1.0, h) | ~base).all()
    assert (r_reach(mdp, base) | ~base).all()
    assert (r_ret_one(mdp, through, base) | ~base).all()
    assert (r_ret_fixpoint(mdp, through, base) | ~base).all()
    assert (r_eps(mdp, base, r, 0.1, 1.0, h) | ~base).all()
    assert (r_eps_fixpoint(mdp, base, r, 0.1, 1.0, h) | ~base).all()


def iterate_to_fixpoint(operator, start):
    """Apply ``operator`` from ``start`` until nothing changes; returns the
    fixpoint and the number of applications, the last one included."""
    current, applications = start, 0
    while True:
        grown = operator(current)
        applications += 1
        if np.array_equal(grown, current):
            return current, applications
        current = grown


def test_fixpoints_stabilize_within_state_count_bounds():
    rng = np.random.default_rng(11)
    for _ in range(60):
        mdp, _ = random_mdp(rng, int(rng.integers(2, 25)), 6)
        n = mdp.num_states
        r = rng.normal(size=n)
        through = from_set(n, random_subset(rng, n))
        target = from_set(n, random_subset(rng, n))
        fix, k = iterate_to_fixpoint(lambda cur: r_ret_one(mdp, through, cur), target)
        assert k <= n
        np.testing.assert_array_equal(fix, r_ret_fixpoint(mdp, through, target))
        seed = from_set(n, random_subset(rng, n))
        h = float(rng.normal())
        fix, k = iterate_to_fixpoint(lambda cur: r_eps(mdp, cur, r, 0.1, 0.8, h), seed)
        assert k <= n + 1
        np.testing.assert_array_equal(fix, r_eps_fixpoint(mdp, seed, r, 0.1, 0.8, h))


def test_larger_eps_never_grows_the_explorable_set():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        mdp, _ = random_mdp(rng, n, 6)
        r = rng.normal(size=n)
        seed = from_set(n, {int(rng.integers(n))})
        lip, h = float(rng.uniform(0, 1)), float(rng.normal(scale=0.5))
        e1, e2 = sorted(rng.uniform(0, 0.6, size=2).tolist())
        big = r_eps_fixpoint(mdp, seed, r, e1, lip, h)
        small = r_eps_fixpoint(mdp, seed, r, e2, lip, h)
        assert not (small & ~big).any()


def test_everything_safe_grid_expands_to_whole_component():
    mdp = grid_mdp(3, 3, 1.0)
    r = np.full(9, 10.0)
    out = r_eps_fixpoint(mdp, from_set(9, {0}), r, 0.01, 0.5, 0.0)
    assert out.all()


def test_unsafe_ring_pins_fixpoint_to_the_seed():
    mdp = grid_mdp(3, 3, 1.0)
    r = np.full(9, -1.0)
    r[4] = 1.0
    out = r_eps_fixpoint(mdp, from_set(9, {4}), r, 0.1, 1.0, 0.0)
    assert to_set(out) == {4}
