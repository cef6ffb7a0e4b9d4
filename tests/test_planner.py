"""Planner tests against an independent breadth-first-search oracle."""

from collections import deque

import numpy as np
import pytest

from safemdp.mdp import GRID_DOWN, GRID_RIGHT, grid_mdp
from safemdp.planner import NoPathError, PathPlan, shortest_safe_path

from oracles import bfs_hops, step


def all_shortest_action_sequences(mdp, allowed, start, goal):
    """Every minimum-hop action sequence, via distance-to-goal recursion."""
    # Distances to the goal over reversed edges.
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        s = queue.popleft()
        for u in range(mdp.num_states):
            if not allowed[u] or u in dist:
                continue
            if any(succ == s and allowed[u] for _, succ in mdp.actions_of(u)):
                dist[u] = dist[s] + 1
                queue.append(u)
    if start not in dist:
        return []

    sequences = []

    def walk(s, prefix):
        if s == goal:
            sequences.append(tuple(prefix))
            return
        for label, succ in mdp.actions_of(s):
            if allowed[succ] and dist.get(succ, -1) == dist[s] - 1:
                walk(succ, prefix + [label])

    walk(start, [])
    return sequences


def test_trivial_and_chain_paths():
    mdp = grid_mdp(1, 3, 1.0)
    allowed = np.ones(3, dtype=bool)
    plan = shortest_safe_path(mdp, allowed, 1, 1)
    assert plan.actions == [] and plan.states == [1]
    plan = shortest_safe_path(mdp, allowed, 0, 2)
    assert plan.actions == [GRID_RIGHT, GRID_RIGHT]
    assert plan.states == [0, 1, 2]


def test_plan_replays_through_the_dynamics():
    rng = np.random.default_rng(2)
    for _ in range(50):
        mdp = grid_mdp(6, 6, 1.0)
        allowed = rng.random(36) < 0.75
        inside = np.flatnonzero(allowed)
        if len(inside) < 2:
            continue
        start, goal = rng.choice(inside, size=2, replace=False).tolist()
        try:
            plan = shortest_safe_path(mdp, allowed, int(start), int(goal))
        except NoPathError:
            assert bfs_hops(mdp, allowed, int(start), int(goal)) is None
            continue
        assert plan.states[0] == start and plan.states[-1] == goal
        assert all(allowed[s] for s in plan.states)
        for s, a, nxt in zip(plan.states, plan.actions, plan.states[1:]):
            assert step(mdp, s, a) == nxt


def test_hop_count_matches_bfs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        mdp = grid_mdp(6, 6, 1.0)
        allowed = rng.random(36) < rng.uniform(0.4, 0.95)
        inside = np.flatnonzero(allowed)
        if not len(inside):
            continue
        start, goal = rng.choice(inside, size=2).tolist()
        expected = bfs_hops(mdp, allowed, int(start), int(goal))
        if expected is None:
            with pytest.raises(NoPathError):
                shortest_safe_path(mdp, allowed, int(start), int(goal))
        else:
            plan = shortest_safe_path(mdp, allowed, int(start), int(goal))
            assert len(plan) == expected


def test_ties_break_to_lexicographically_smallest_actions():
    # Down (1) sorts before right (3), so the corner-to-corner plan walks
    # all the way down before turning.
    mdp = grid_mdp(3, 3, 1.0)
    plan = shortest_safe_path(mdp, np.ones(9, bool), 0, 8)
    assert plan.actions == [GRID_DOWN, GRID_DOWN, GRID_RIGHT, GRID_RIGHT]


def test_plan_is_minimum_of_all_shortest_sequences():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 40:
        mdp = grid_mdp(4, 4, 1.0)
        allowed = rng.random(16) < 0.8
        inside = np.flatnonzero(allowed)
        if len(inside) < 2:
            continue
        start, goal = rng.choice(inside, size=2, replace=False).tolist()
        candidates = all_shortest_action_sequences(mdp, allowed, int(start), int(goal))
        if not candidates:
            continue
        plan = shortest_safe_path(mdp, allowed, int(start), int(goal))
        assert tuple(plan.actions) == min(candidates)
        checked += 1


def test_endpoints_must_be_allowed():
    mdp = grid_mdp(2, 2, 1.0)
    allowed = np.array([True, False, True, True])
    with pytest.raises(NoPathError):
        shortest_safe_path(mdp, allowed, 1, 3)
    with pytest.raises(NoPathError):
        shortest_safe_path(mdp, allowed, 0, 1)


def test_disconnected_islands_raise():
    # Left and right columns of a 2x3 grid with the middle column removed.
    mdp = grid_mdp(2, 3, 1.0)
    allowed = np.array([True, False, True, True, False, True])
    with pytest.raises(NoPathError):
        shortest_safe_path(mdp, allowed, 0, 2)


def test_identical_inputs_give_identical_plans():
    mdp = grid_mdp(5, 5, 1.0)
    allowed = np.ones(25, dtype=bool)
    allowed[[7, 11, 13]] = False
    a = shortest_safe_path(mdp, allowed, 0, 24)
    b = shortest_safe_path(mdp, allowed, 0, 24)
    assert a.actions == b.actions and a.states == b.states


def test_path_plan_length_is_action_count():
    assert len(PathPlan([1, 3], [0, 2, 3])) == 2
