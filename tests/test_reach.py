"""Brute-force checks for the safety / reachability / returnability operators.

Every operator is compared against a literal python-set reimplementation of
its definition on randomly generated MDPs, plus hand-derived small cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemdp.mdp import Mdp, augment, grid_mdp
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
    hub_mdp,
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
    # So is the Lipschitz constant: an infinite one made the envelope
    # compute 0 * inf, and a NaN one returned the seed, certifying nothing.
    seed, r = from_set(4, {0}), np.ones(4)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="lipschitz must be finite and non-negative"):
            r_safe_eps(mdp, seed, r, 0.1, bad, 0.0)
        with pytest.raises(ValueError, match="lipschitz must be finite and non-negative"):
            r_eps_fixpoint(mdp, seed, r, 0.1, bad, 0.0)


# ---------------------------------------------------------------------------
# brute-force sweeps


def test_operators_match_bruteforce_on_random_mdps():
    # Every fourth MDP has a hub whose in- and out-degree exceed the width
    # of the padded adjacency tables, so its extra edges are in the spill.
    rng = np.random.default_rng(42)
    for i in range(120):
        if i % 4:
            n = int(rng.integers(2, 9))
            mdp, dist = random_mdp(rng, n, 6)
        else:
            n = int(rng.integers(10, 25))
            mdp, dist = hub_mdp(rng, n, 6)
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
    for i in range(200):
        n = 8 if i % 4 else 30
        mdp, _ = (random_mdp if i % 4 else hub_mdp)(rng, n, 6)
        through = random_subset(rng, n)
        target = random_subset(rng, n)
        got = to_set(r_ret_fixpoint(mdp, from_set(n, through), from_set(n, target)))
        assert got == oracle_ret_fixpoint(mdp, through, target)


def test_ret_fixpoint_reads_the_spill_of_every_hub_it_enters():
    # States 1 and 2 are each entered from eleven states, three past the
    # tables' eight columns, and both lead into 0; state 25 leads into 0
    # only through its twelfth action, past its eight columns.  From the
    # target {0} the second layer needs both hubs' spills, and from the
    # target {0, 1, 2} the open state 25 is found from the smaller side,
    # its out-edges, through its spill alone.
    actions = [[(0, 0)], [(0, 0)], [(0, 0)]] + [[(0, 1 + s % 2)] for s in range(3, 25)]
    actions.append([(a, 3 + a) for a in range(11)] + [(11, 0)])
    mdp = Mdp(actions, DenseMetric(np.ones((26, 26)) - np.eye(26)))
    assert all(spill.size for spill, _ in (mdp.successors()[1:], mdp.predecessors()[1:]))
    rng = np.random.default_rng(31)
    cases = [(set(range(26)), {0}), ({25}, {0, 1, 2})]
    cases += [(random_subset(rng, 26) | {1, 2}, {0}) for _ in range(20)]
    for through, target in cases:
        got = to_set(r_ret_fixpoint(mdp, from_set(26, through), from_set(26, target)))
        assert got == oracle_ret_fixpoint(mdp, through, target)
    assert to_set(r_ret_fixpoint(mdp, from_set(26, {25}), from_set(26, {0, 1, 2}))) == {0, 1, 2, 25}
    assert to_set(r_ret_fixpoint(mdp, np.ones(26, bool), from_set(26, {0}))) == set(range(26))


def ring_with_a_hub(n):
    """The ring ``0 -> 1 -> ... -> n - 1 -> 0`` in which each state but 0
    also has an action into state 0, a hub with ``n - 1`` predecessors, so
    a search from one state walks the whole ring."""
    actions = [[(0, 1)]] + [[(0, 0), (1, (s + 1) % n)] for s in range(1, n)]
    coords = np.arange(n, dtype=float)
    return Mdp(actions, DenseMetric(np.abs(np.subtract.outer(coords, coords))))


def test_ret_fixpoint_among_equals_the_full_fixpoint_restricted():
    rng = np.random.default_rng(23)
    mdps = [random_mdp(rng, int(rng.integers(2, 25)), 6)[0] for _ in range(80)]
    mdps += [ring_with_a_hub(n) for n in (2, 5, 40)]
    mdps += [hub_mdp(rng, n, 6)[0] for n in (2, 5, 40)]
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


def test_ret_fixpoint_from_a_target_with_a_one_step_shell():
    # The shape r_eps hands over: the target is the whole current set but a
    # shell one step out of it, the shell is what is open, and r_eps asks
    # about the states one step from the target.  The first layer then
    # comes from the shell's out-edges, not the target's in-edges.
    rng = np.random.default_rng(29)
    for _ in range(40):
        rows, cols = (int(v) for v in rng.integers(2, 7, size=2))
        valid = rng.random(rows * cols) < 0.85
        valid[0] = True
        mdp = augment(grid_mdp(rows, cols, 1.0, valid), half_step=0.5)
        n = mdp.num_states
        target = rng.random(n) < 0.85
        shell = r_reach(mdp, target) & ~target & (rng.random(n) < 0.7)
        through = target | shell
        assert np.count_nonzero(shell) < np.count_nonzero(target)
        expected = from_set(n, oracle_ret_fixpoint(mdp, to_set(through), to_set(target)))
        np.testing.assert_array_equal(r_ret_fixpoint(mdp, through, target), expected)
        among = r_reach(mdp, target)
        np.testing.assert_array_equal(r_ret_fixpoint(mdp, through, target, among=among),
                                      expected & among)


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
