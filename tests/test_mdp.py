"""Tests for the MDP core: grids, metrics, and action-state augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemdp.mdp import (
    GRID_DOWN,
    GRID_LEFT,
    GRID_RIGHT,
    GRID_STAY,
    GRID_UP,
    FunctionMetric,
    ManhattanMetric,
    Mdp,
    UnknownActionError,
    augment,
    grid_mdp,
)

MOVES = {GRID_UP: (-1, 0), GRID_DOWN: (1, 0), GRID_LEFT: (0, -1), GRID_RIGHT: (0, 1)}


# ---------------------------------------------------------------------------
# plain MDPs


def test_actions_are_sorted_and_validated():
    mdp = Mdp([[(3, 1), (0, 0)], [(1, 1)]], FunctionMetric(lambda i, j: abs(i - j)))
    assert mdp.actions_of(0) == ((0, 0), (3, 1))
    assert mdp.step(0, 3) == 1
    assert mdp.step(1, 1) == 1
    with pytest.raises(UnknownActionError):
        mdp.step(1, 0)


def test_constructor_rejects_malformed_tables():
    metric = FunctionMetric(lambda i, j: 0.0)
    with pytest.raises(ValueError):
        Mdp([[(0, 0)], []], metric)  # state without actions
    with pytest.raises(ValueError):
        Mdp([[(0, 0), (0, 1)], [(0, 1)]], metric)  # duplicate label
    with pytest.raises(ValueError):
        Mdp([[(0, 2)]], metric)  # successor out of range


def test_edges_match_action_table():
    mdp = grid_mdp(2, 3, 1.0)
    src, lab, dst = mdp.edges()
    listed = list(zip(src.tolist(), lab.tolist(), dst.tolist()))
    expected = [
        (s, label, succ)
        for s in range(mdp.num_states)
        for label, succ in mdp.actions_of(s)
    ]
    assert listed == expected
    assert len(listed) == sum(len(mdp.actions_of(s)) for s in range(mdp.num_states))


def test_function_metric_and_generic_block():
    metric = FunctionMetric(lambda i, j: float(abs(i - j) ** 2))
    assert metric.pair(1, 4) == 9.0
    block = metric.block([0, 2], [1, 2, 3])
    np.testing.assert_allclose(block, [[1.0, 4.0, 9.0], [1.0, 0.0, 1.0]])


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
    assert mdp.step(5, GRID_UP) == 1
    assert mdp.step(5, GRID_DOWN) == 9
    assert mdp.step(5, GRID_LEFT) == 4
    assert mdp.step(5, GRID_RIGHT) == 6
    with pytest.raises(UnknownActionError):
        mdp.step(0, GRID_UP)
    with pytest.raises(UnknownActionError):
        mdp.step(3, GRID_RIGHT)


def test_grid_metric_scales_manhattan_distance_by_cell_size():
    mdp = grid_mdp(3, 3, 2.0)
    # Opposite corners are four cells apart: 4 * 2.0 = 8.0.
    assert mdp.metric.pair(0, 8) == 8.0
    assert mdp.metric.pair(0, 1) == 2.0
    assert mdp.metric.pair(3, 1) == 4.0


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        grid_mdp(0, 3, 1.0)
    with pytest.raises(ValueError):
        grid_mdp(3, 3, 0.0)
    with pytest.raises(ValueError):
        grid_mdp(2, 2, 1.0, valid=[False, False, False, False])


def test_masked_grid_drops_cells_and_compacts_ids():
    valid = np.ones(9, dtype=bool)
    valid[4] = False  # knock out the centre of a 3x3 grid
    mdp = grid_mdp(3, 3, 1.0, valid=valid)
    assert mdp.num_states == 8
    # Ids stay row-major over the surviving cells.
    np.testing.assert_array_equal(mdp.coords[3], [1, 0])
    np.testing.assert_array_equal(mdp.coords[4], [1, 2])
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
    metric = ManhattanMetric([[0, 0], [2, 1], [5, 5]], 0.5)
    a, b = [0, 2], [0, 1, 2]
    block = metric.block(a, b)
    for i, s in enumerate(a):
        for j, s2 in enumerate(b):
            assert block[i, j] == metric.pair(s, s2)


# ---------------------------------------------------------------------------
# augmentation


def test_augment_counts_and_structure():
    base = grid_mdp(3, 3, 1.0)
    aug = augment(base)
    transitions = sum(len(base.actions_of(s)) for s in range(base.num_states))
    assert transitions == 33
    assert aug.num_base_states == 9
    assert aug.num_states == 9 + 33
    assert len(aug.action_state_of) == transitions
    assert not aug.is_action_state[:9].any()
    assert aug.is_action_state[9:].all()
    for s in range(9):
        base_acts = base.actions_of(s)
        aug_acts = aug.actions_of(s)
        assert [label for label, _ in aug_acts] == [label for label, _ in base_acts]
        for (label, succ), (_, mid) in zip(base_acts, aug_acts):
            assert mid == aug.action_state_of[(s, label)]
            assert aug.actions_of(mid) == ((label, succ),)
            assert aug.owner[mid] == s
            assert aug.landing[mid] == succ
            assert aug.action_label[mid] == label


def test_augment_pairs():
    aug = augment(grid_mdp(2, 2, 1.0))
    pairs = aug.pairs()
    for s in range(aug.num_base_states):
        assert tuple(pairs[s]) == (s, s)
    for (s, label), mid in aug.action_state_of.items():
        assert tuple(pairs[mid]) == (s, aug.landing[mid])


def test_augmented_metric_values_on_a_grid():
    base = grid_mdp(3, 3, 2.0)
    aug = augment(base)  # default half_step = half a cell = 1.0
    assert aug.half_step == 1.0
    x = aug.action_state_of[(0, GRID_RIGHT)]  # between states 0 and 1
    assert aug.metric.pair(x, 0) == 1.0
    assert aug.metric.pair(0, x) == 1.0
    assert aug.metric.pair(x, 1) == 1.0
    # Non-adjacent originals sit at owner distance plus the offset.
    assert aug.metric.pair(x, 2) == base.metric.pair(0, 2) + 1.0
    # Between action-states: owner distance plus one offset per endpoint.
    y = aug.action_state_of[(1, GRID_RIGHT)]
    assert aug.metric.pair(x, y) == base.metric.pair(0, 1) + 2.0
    assert aug.metric.pair(x, x) == 0.0
    # A stay action-state is half_step from its owner in both roles.
    z = aug.action_state_of[(4, GRID_STAY)]
    assert aug.metric.pair(z, 4) == 1.0


def test_augmented_block_matches_pair_exhaustively():
    aug = augment(grid_mdp(2, 3, 1.0))
    ids = np.arange(aug.num_states)
    block = aug.distances(ids, ids)
    for i in ids:
        for j in ids:
            assert block[i, j] == aug.metric.pair(int(i), int(j)), (i, j)
    np.testing.assert_allclose(block, block.T)
    assert (np.diag(block) == 0).all()


def test_augment_half_step_defaults():
    assert augment(grid_mdp(2, 2, 3.0)).half_step == 1.5
    loops = Mdp([[(0, 0)], [(0, 1)]], FunctionMetric(lambda i, j: float(i != j)))
    assert augment(loops).half_step == 0.5
    with pytest.raises(ValueError):
        augment(grid_mdp(2, 2, 1.0), half_step=0.0)


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
    aug = augment(base)
    path, acts = _random_base_walk(base, rng, int(rng.integers(1, 8)))
    pos = path[0]
    for label, nxt in zip(acts, path[1:]):
        mid = aug.step(pos, label)
        assert mid == aug.action_state_of[(pos, label)]
        pos = aug.step(mid, label)
        assert pos == nxt
