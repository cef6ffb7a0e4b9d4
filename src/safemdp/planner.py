"""Shortest-path planning restricted to a set of allowed states.

Edges all have unit cost, so breadth-first search finds a minimum-hop path.
Neighbors are expanded in increasing action-label order and each state keeps
its first discovery, which makes the returned plan the lexicographically
smallest action sequence among all minimum-hop paths — a cheap way to keep
traces reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .mdp import Mdp


class NoPathError(Exception):
    """No path between the endpoints inside the allowed set."""


@dataclass
class PathPlan:
    """A concrete plan: ``states[0]`` is the start, ``states[-1]`` the goal,
    and ``actions[i]`` moves from ``states[i]`` to ``states[i + 1]``."""

    actions: list[int]
    states: list[int]

    def __len__(self) -> int:
        return len(self.actions)


def shortest_safe_path(mdp: Mdp, allowed, start: int, goal: int) -> PathPlan:
    """Minimum-hop path from ``start`` to ``goal`` visiting only ``allowed``
    states.

    Raises
    ------
    NoPathError
        If either endpoint lies outside ``allowed`` or no connecting path
        exists inside it.
    """
    allowed = np.asarray(allowed, dtype=bool)
    start, goal = int(start), int(goal)
    if not allowed[start]:
        raise NoPathError(f"start state {start} is not in the allowed set")
    if not allowed[goal]:
        raise NoPathError(f"goal state {goal} is not in the allowed set")
    if start == goal:
        return PathPlan([], [start])

    open_ = bytearray(allowed.tobytes())  # allowed states not yet seen
    open_[start] = 0
    prev = {}  # state -> (predecessor, action label)
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for label, succ in mdp.actions_of(s):
            if not open_[succ]:
                continue
            open_[succ] = 0
            prev[succ] = (s, label)
            if succ == goal:
                queue.clear()
                break
            queue.append(succ)

    if goal not in prev:
        raise NoPathError(f"no path from {start} to {goal} inside the allowed set")
    actions, states = [], [goal]
    s = goal
    while s != start:
        s, label = prev[s]
        actions.append(label)
        states.append(s)
    actions.reverse()
    states.reverse()
    return PathPlan(actions, states)
