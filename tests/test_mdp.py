"""Tests for the MDP core: grids, metrics, and action-state augmentation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemdp.mdp import (
    AugmentedMetric,
    GRID_DOWN,
    GRID_LEFT,
    GRID_RIGHT,
    GRID_STAY,
    GRID_UP,
    ManhattanMetric,
    Mdp,
    augment,
    grid_mdp,
)

from oracles import DenseMetric, dense_distances, hub_mdp, step

MOVES = {GRID_UP: (-1, 0), GRID_DOWN: (1, 0), GRID_LEFT: (0, -1), GRID_RIGHT: (0, 1)}


# ---------------------------------------------------------------------------
# plain MDPs


def test_actions_are_sorted_and_validated():
    mdp = Mdp([[(3, 1), (0, 0)], [(1, 1)]], DenseMetric([[0, 1], [1, 0]]))
    assert mdp.actions_of(0) == ((0, 0), (3, 1))
    assert mdp.actions_of(1) == ((1, 1),)
    # The planner's hot loop reads Python ints, not numpy scalars.
    for s in range(mdp.num_states):
        assert all(type(x) is int for pair in mdp.actions_of(s) for x in pair)


def test_constructor_rejects_malformed_tables():
    metric = DenseMetric(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="state 1 has no actions"):
        Mdp([[(0, 0)], []], metric)
    with pytest.raises(ValueError, match="state 0 has duplicate action labels"):
        Mdp([[(0, 0), (0, 1)], [(0, 1)]], metric)
    with pytest.raises(ValueError, match="state 1 action 4 leads to unknown state 2"):
        Mdp([[(0, 1)], [(4, 2)]], metric)
    with pytest.raises(ValueError, match="state 0 action 0 leads to unknown state -1"):
        Mdp([[(0, -1)], [(0, 0)]], metric)


def test_edges_match_action_table():
    valid = np.ones(12, dtype=bool)
    valid[[1, 6]] = False
    unsorted = Mdp([[(7, 2), (1, 0), (4, 1)], [(9, 1), (2, 2)], [(5, 0), (0, 2), (3, 0)]],
                   DenseMetric(np.ones((3, 3)) - np.eye(3)))
    hub, _ = hub_mdp(np.random.default_rng(4), 12, 6)
    for mdp in (grid_mdp(2, 3, 1.0), augment(grid_mdp(3, 4, 1.0, valid=valid), 0.5), unsorted,
                hub):
        src, lab, dst = mdp.edges()
        listed = list(zip(src.tolist(), lab.tolist(), dst.tolist()))
        expected = [
            (s, label, succ)
            for s in range(mdp.num_states)
            for label, succ in mdp.actions_of(s)
        ]
        assert listed == expected
        for s in range(mdp.num_states):
            labels = [label for label, _ in mdp.actions_of(s)]
            assert labels == sorted(labels)
        # The padded tables, brute force: the successors of s by label, and
        # every edge into t by source, each a column and then its spill.
        n = mdp.num_states
        for s in range(n):
            assert neighbours(mdp.successors(), s, n) == [succ for _, succ in mdp.actions_of(s)]
            into = [u for u in range(n) for _, succ in mdp.actions_of(u) if succ == s]
            assert neighbours(mdp.predecessors(), s, n) == into
        for table, _, _ in (mdp.successors(), mdp.predecessors()):
            assert table.shape[1] == n + 1
            assert (table[:, n] == n).all()


def neighbours(layout, s, sentinel):
    """State ``s``'s neighbours in a padded table layout: its column
    without the sentinel, then its spill."""
    table, spill, spill_states = layout
    return [u for u in table[:, s].tolist() if u != sentinel] + spill[spill_states == s].tolist()


def test_hub_tables_spill_and_stay_linear():
    # Without a spill, a hub of degree n would widen both tables to n rows
    # of N + 1 entries, quadratic in the states.
    rng = np.random.default_rng(8)
    for n in (40, 400):
        mdp, _ = hub_mdp(rng, n, 6)
        edges = len(mdp.edges()[0])
        for table, spill, spill_states in (mdp.successors(), mdp.predecessors()):
            assert spill.size and spill_states.size == spill.size
            assert table.size + spill.size <= 9 * (n + 1) + 3 * edges < n * (n + 1)


def test_grid_tables_build_no_spill():
    # Grids and their augmentations have degree at most five.
    valid = np.random.default_rng(9).random(48) < 0.8
    for mdp in (grid_mdp(1, 1, 1.0), grid_mdp(6, 8, 1.0), grid_mdp(6, 8, 1.0, valid=valid),
                augment(grid_mdp(6, 8, 1.0), 0.5), augment(grid_mdp(6, 8, 1.0, valid=valid), 0.5)):
        for table, spill, _ in (mdp.successors(), mdp.predecessors()):
            assert spill.size == 0
            assert table.shape == (5 if mdp.num_states > 1 else 1, mdp.num_states + 1)


# ---------------------------------------------------------------------------
# grid construction


def test_grid_counts_and_action_sets():
    mdp = grid_mdp(3, 3, 1.0)
    assert mdp.num_states == 9
    # Corner, edge and centre cells offer 3, 4 and 5 actions respectively.
    sizes = sorted(len(mdp.actions_of(s)) for s in range(9))
    assert sizes == [3, 3, 3, 3, 4, 4, 4, 4, 5]
    for s in range(9):
        assert (GRID_STAY, s) in mdp.actions_of(s)


def test_grid_moves_go_where_expected():
    mdp = grid_mdp(3, 4, 1.0)
    # Row-major ids: state r * 4 + c.
    assert step(mdp, 5, GRID_UP) == 1
    assert step(mdp, 5, GRID_DOWN) == 9
    assert step(mdp, 5, GRID_LEFT) == 4
    assert step(mdp, 5, GRID_RIGHT) == 6
    # Moves off the grid are absent.
    assert GRID_UP not in dict(mdp.actions_of(0))
    assert GRID_RIGHT not in dict(mdp.actions_of(3))


def test_grid_metric_scales_manhattan_distance_by_cell_size():
    mdp = grid_mdp(3, 3, 2.0)
    # Opposite corners are four cells apart: 4 * 2.0 = 8.0.
    np.testing.assert_array_equal(mdp.distances([0, 3], [8, 1]), [[8.0, 2.0], [6.0, 4.0]])


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        grid_mdp(0, 3, 1.0)
    with pytest.raises(ValueError):
        grid_mdp(3, 3, 0.0)
    with pytest.raises(ValueError):
        grid_mdp(2, 2, 1.0, valid=[False, False, False, False])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_rejects_a_non_finite_cell_size(bad):
    # An infinite cell size would give an all-NaN envelope.
    with pytest.raises(ValueError, match="cell_size must be positive and finite"):
        grid_mdp(3, 3, bad)


def test_masked_grid_drops_cells_and_compacts_ids():
    valid = np.ones(9, dtype=bool)
    valid[4] = False  # knock out the centre of a 3x3 grid
    mdp = grid_mdp(3, 3, 1.0, valid=valid)
    assert mdp.num_states == 8
    # Ids stay row-major over the surviving cells.
    np.testing.assert_array_equal(mdp.metric.coords[3], [1, 0])
    np.testing.assert_array_equal(mdp.metric.coords[4], [1, 2])
    # No move enters the hole: cell (0,1) (state 1) cannot go down.
    labels = [label for label, _ in mdp.actions_of(1)]
    assert GRID_DOWN not in labels
    assert set(labels) == {GRID_LEFT, GRID_RIGHT, GRID_STAY}


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_random_masked_grids_agree_with_direct_construction(rows, cols, seed):
    rng = np.random.default_rng(seed)
    valid = rng.random(rows * cols) < 0.7
    if not valid.any():
        valid[rng.integers(rows * cols)] = True
    mdp = grid_mdp(rows, cols, 1.0, valid=valid)
    cells = np.flatnonzero(valid)
    assert mdp.num_states == len(cells)
    state_of = {int(c): s for s, c in enumerate(cells)}
    for s, cell in enumerate(cells):
        r, c = divmod(int(cell), cols)
        expected = []
        for label, (dr, dc) in MOVES.items():
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < rows and 0 <= c2 < cols and valid[r2 * cols + c2]:
                expected.append((label, state_of[r2 * cols + c2]))
        expected.append((GRID_STAY, s))
        assert mdp.actions_of(s) == tuple(sorted(expected))


# ---------------------------------------------------------------------------
# metric axioms


def test_manhattan_metric_axioms_exhaustively():
    mdp = grid_mdp(4, 4, 1.5)
    ids = np.arange(mdp.num_states)
    dist = mdp.distances(ids, ids)
    assert (np.diag(dist) == 0).all()
    np.testing.assert_allclose(dist, dist.T)
    assert (dist[~np.eye(len(ids), dtype=bool)] > 0).all()
    # Triangle inequality via min-plus product.
    through = (dist[:, :, None] + dist[None, :, :]).min(axis=1)
    assert (dist <= through + 1e-12).all()


def test_manhattan_block_matches_pairwise_calls():
    # Mdp.distances reads the metric's envelope, one column per witness; a
    # flat coordinate vector is one axis.
    for coords in ([[0, 0], [2, 1], [5, 5]], [0, 3, 1]):
        mdp = Mdp([[(0, s)] for s in range(3)], ManhattanMetric(coords, 0.5))
        a, b = [0, 2], [0, 1, 2]
        block = mdp.distances(a, b)
        for i, s in enumerate(a):
            for j, s2 in enumerate(b):
                assert block[i, j] == np.abs(np.subtract(coords[s], coords[s2])).sum() * 0.5


@pytest.mark.parametrize("coords, cell_size", [([[0], [0.5], [2]], 1.0), ([[0], [math.nan]], 1.0),
                                               ([[0], [math.inf]], 1.0), ([[0], [1]], 0.0),
                                               ([[0], [1]], math.inf),
                                               ([[0, 1], [2, 0], [0, 1]], 1.0)])
def test_manhattan_metric_rejects_non_integer_coordinates_and_bad_cell_sizes(coords, cell_size):
    # Truncated, 0.5 would sit in cell 0, at distance 0 from the state at 0;
    # two states in one cell would share one slot of the envelope's box.
    with pytest.raises(ValueError, match=r"finite integers|cell_size must be positive|"
                                         r"states \[0, 2\] share the coordinates \[0, 1\]"):
        ManhattanMetric(coords, cell_size)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_counts_and_structure():
    base = grid_mdp(3, 3, 1.0)
    aug = augment(base, half_step=0.5)
    transitions = sum(len(base.actions_of(s)) for s in range(base.num_states))
    assert transitions == 33
    assert aug.num_base_states == 9
    assert aug.num_states == 9 + 33
    assert not aug.is_action_state[:9].any()
    assert aug.is_action_state[9:].all()
    # Action-states are numbered after the originals, by state and label.
    mid = 9
    for s in range(9):
        base_acts = base.actions_of(s)
        aug_acts = aug.actions_of(s)
        assert [label for label, _ in aug_acts] == [label for label, _ in base_acts]
        for (label, succ), (_, got) in zip(base_acts, aug_acts):
            assert got == mid
            assert aug.actions_of(mid) == ((label, succ),)
            assert aug.owner[mid] == s
            assert aug.landing[mid] == succ
            mid += 1


def test_augment_pairs():
    aug = augment(grid_mdp(2, 2, 1.0), half_step=0.5)
    for s in range(aug.num_base_states):
        assert (aug.owner[s], aug.landing[s]) == (s, s)
        for label, mid in aug.actions_of(s):
            assert (aug.owner[mid], aug.landing[mid]) == (s, step(aug.base, s, label))
    # The metric reads the very arrays the MDP holds, in the MDP's layout:
    # the cells first, then the action-states.
    assert aug.metric.owner is aug.owner
    assert aug.metric.landing is aug.landing
    assert aug.metric.is_action is aug.is_action_state
    with pytest.raises(ValueError, match="the cells first, then the action-states"):
        AugmentedMetric(aug.base.metric, aug.owner[::-1], aug.landing[::-1],
                        aug.is_action_state[::-1], 0.5)


def test_augmented_metric_values_on_a_grid():
    base = grid_mdp(3, 3, 2.0)
    aug = augment(base, half_step=1.0)  # half a cell
    assert aug.metric.half_step == 1.0

    def d(i, j):
        return aug.distances([i], [j])[0, 0]

    x = step(aug, 0, GRID_RIGHT)  # between states 0 and 1
    assert d(x, 0) == 1.0
    assert d(0, x) == 1.0
    assert d(x, 1) == 1.0
    # Non-adjacent originals sit at owner distance plus the offset.
    assert d(x, 2) == base.distances([0], [2])[0, 0] + 1.0
    # Between action-states: owner distance plus one offset per endpoint.
    y = step(aug, 1, GRID_RIGHT)
    assert d(x, y) == base.distances([0], [1])[0, 0] + 2.0
    assert d(x, x) == 0.0
    # A stay action-state is half_step from its owner in both roles.
    z = step(aug, 4, GRID_STAY)
    assert d(z, 4) == 1.0
    ids = np.arange(aug.num_states)
    block = aug.distances(ids, ids)
    np.testing.assert_array_equal(block, block.T)
    assert (np.diag(block) == 0).all()


def test_augmented_envelope_off_the_grid():
    # Every grid cell has a stay action, so on grids no state lacks a way
    # in.  Here state 5 has none, 1 -> 2 is one way, and every state leads
    # into the hub 0, more often than the landing fold's dense table holds.
    coords = [[0, 0], [0, 1], [2, 1], [3, 3], [5, 2], [4, 0]]
    base = Mdp([[(0, 0), (1, 1)], [(0, 0), (1, 2)], [(0, 0), (1, 3)],
                [(0, 0), (1, 2), (2, 4)], [(0, 0), (1, 3)], [(0, 0), (1, 4)]],
               ManhattanMetric(coords, 1.5))
    aug = augment(base, half_step=0.75)
    ids = np.arange(aug.num_states)
    dist = dense_distances(aug, ids, ids)
    np.testing.assert_allclose(aug.distances(ids, ids), dist, rtol=0, atol=1e-12)
    rng = np.random.default_rng(5)
    for trial in range(60):
        values = rng.normal(size=aug.num_states)
        values[rng.random(aug.num_states) >= (0.0, 0.2, 0.6, 1.0)[trial % 4]] = -np.inf
        lip = float(rng.uniform(0, 3))
        got = aug.metric.envelope(values, lip)
        expected = (values[:, None] - lip * dist).max(axis=0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_augment_half_step_defaults():
    # There is no default: the caller names the half-step.
    with pytest.raises(TypeError):
        augment(grid_mdp(2, 2, 1.0))
    # Off the grid: three points on a line at 0, 0.6 and 1.6, with half of
    # the shortest move, 0 -> 1, as the half-step.
    x = np.array([0.0, 0.6, 1.6])
    line = Mdp([[(0, 0), (1, 1)], [(0, 2), (1, 0)], [(0, 2)]],
               DenseMetric(np.abs(x[:, None] - x[None, :])))
    aug = augment(line, half_step=0.3)
    assert aug.metric.half_step == 0.3
    there = step(aug, 0, 1)  # 0 -> 1
    onward = step(aug, 1, 0)  # 1 -> 2
    np.testing.assert_allclose(aug.distances([there], [0, 1, 2, onward]),
                               [[0.3, 0.3, 1.9, 1.2]], rtol=1e-15)
    with pytest.raises(ValueError):
        augment(grid_mdp(2, 2, 1.0), half_step=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_augment_rejects_a_non_finite_half_step(bad):
    # An infinite half-step would put every action-state infinitely far
    # from its cell, so the envelope from a cell would be finite only on
    # the cells.
    with pytest.raises(ValueError, match="half_step must be positive and finite"):
        augment(grid_mdp(3, 3, 1.0), half_step=bad)


def _random_base_walk(base, rng, length):
    s = int(rng.integers(base.num_states))
    path = [s]
    acts = []
    for _ in range(length):
        label, succ = base.actions_of(path[-1])[int(rng.integers(len(base.actions_of(path[-1]))))]
        acts.append(label)
        path.append(succ)
    return path, acts


@given(st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_paths_correspond_two_to_one(seed):
    # Every base walk maps to an augmented walk of twice the length through
    # the matching action-states, replaying the same labels twice each.
    rng = np.random.default_rng(seed)
    base = grid_mdp(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 1.0)
    aug = augment(base, half_step=0.5)
    path, acts = _random_base_walk(base, rng, int(rng.integers(1, 8)))
    pos = path[0]
    for label, nxt in zip(acts, path[1:]):
        mid = step(aug, pos, label)
        assert aug.is_action_state[mid]
        assert (aug.owner[mid], aug.landing[mid]) == (pos, nxt)
        pos = step(aug, mid, label)
        assert pos == nxt
