"""Finite deterministic MDPs with a state metric.

States are dense integer ids.  Each state carries a sorted list of
``(action label, successor)`` pairs; transitions are deterministic.  A
metric between states supports the Lipschitz arguments used by the safety
operators, and grids get the Manhattan metric scaled by the cell size.

``augment`` re-expresses safety-on-transitions as safety-on-states by
inserting one artificial "action-state" per (state, action) pair, so that
every original transition becomes a two-hop path through its action-state.
"""

from __future__ import annotations

import numpy as np

GRID_UP = 0
GRID_DOWN = 1
GRID_LEFT = 2
GRID_RIGHT = 3
GRID_STAY = 4

_GRID_MOVES = ((GRID_UP, -1, 0), (GRID_DOWN, 1, 0), (GRID_LEFT, 0, -1), (GRID_RIGHT, 0, 1))


class UnknownActionError(ValueError):
    """An action label not offered by the queried state."""


class Metric:
    """Distance between states; subclasses implement ``pair``."""

    def pair(self, i: int, j: int) -> float:
        raise NotImplementedError

    def block(self, a, b) -> np.ndarray:
        """Distance matrix between id arrays ``a`` (rows) and ``b`` (cols)."""
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = np.empty((len(a), len(b)))
        for i, s in enumerate(a):
            for j, s2 in enumerate(b):
                out[i, j] = self.pair(int(s), int(s2))
        return out


class FunctionMetric(Metric):
    """Wraps an arbitrary ``d(i, j)`` callable."""

    def __init__(self, fn):
        self.fn = fn

    def pair(self, i, j):
        return float(self.fn(i, j))


class ManhattanMetric(Metric):
    """Manhattan distance between per-state integer coordinates, scaled."""

    def __init__(self, coords, cell_size: float):
        self.coords = np.asarray(coords, dtype=float)
        self.cell_size = float(cell_size)

    def pair(self, i, j):
        return float(np.abs(self.coords[i] - self.coords[j]).sum() * self.cell_size)

    def block(self, a, b):
        pa = self.coords[np.asarray(a, dtype=int)]
        pb = self.coords[np.asarray(b, dtype=int)]
        return np.abs(pa[:, None, :] - pb[None, :, :]).sum(axis=2) * self.cell_size


class AugmentedMetric(Metric):
    """Metric over an augmented state space.

    An action-state sits halfway along its transition: it is ``half_step``
    away from the two original states adjacent to it in the augmented graph
    (its owner and its landing state), and any other distance is the base
    distance between owners plus ``half_step`` per action-state endpoint.
    """

    def __init__(self, base: Metric, owner, landing, is_action, half_step: float):
        self.base = base
        self.owner = np.asarray(owner, dtype=int)
        self.landing = np.asarray(landing, dtype=int)
        self.is_action = np.asarray(is_action, dtype=bool)
        self.half_step = float(half_step)

    def pair(self, i, j):
        if i == j:
            return 0.0
        if self.is_action[i] and not self.is_action[j]:
            if self.owner[i] == j or self.landing[i] == j:
                return self.half_step
        if self.is_action[j] and not self.is_action[i]:
            if self.owner[j] == i or self.landing[j] == i:
                return self.half_step
        extra = self.half_step * (int(self.is_action[i]) + int(self.is_action[j]))
        return self.base.pair(int(self.owner[i]), int(self.owner[j])) + extra

    def block(self, a, b):
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = self.base.block(self.owner[a], self.owner[b])
        out = out + self.half_step * (
            self.is_action[a][:, None].astype(float) + self.is_action[b][None, :].astype(float)
        )
        # Adjacent (action-state, original) pairs collapse to half_step.
        act_a = self.is_action[a][:, None] & ~self.is_action[b][None, :]
        adj_a = act_a & (
            (self.owner[a][:, None] == b[None, :]) | (self.landing[a][:, None] == b[None, :])
        )
        act_b = ~self.is_action[a][:, None] & self.is_action[b][None, :]
        adj_b = act_b & (
            (self.owner[b][None, :] == a[:, None]) | (self.landing[b][None, :] == a[:, None])
        )
        out[adj_a | adj_b] = self.half_step
        out[a[:, None] == b[None, :]] = 0.0
        return out


class Mdp:
    """Finite deterministic MDP.

    Parameters
    ----------
    actions :
        One sequence of ``(label, successor)`` pairs per state.  Labels must
        be unique within a state and every state needs at least one action.
    metric : Metric
        State metric used by the Lipschitz-based safety operators.
    coords : array_like, optional
        Per-state coordinates (e.g. grid cells); kept for callers that need
        geometry, ignored by the dynamics.
    """

    def __init__(self, actions, metric: Metric, coords=None):
        table = []
        for s, acts in enumerate(actions):
            acts = sorted((int(label), int(succ)) for label, succ in acts)
            if not acts:
                raise ValueError(f"state {s} has no actions")
            labels = [label for label, _ in acts]
            if len(set(labels)) != len(labels):
                raise ValueError(f"state {s} has duplicate action labels")
            table.append(tuple(acts))
        self._actions = tuple(table)
        self.num_states = len(table)
        for s, acts in enumerate(self._actions):
            for label, succ in acts:
                if not 0 <= succ < self.num_states:
                    raise ValueError(f"state {s} action {label} leads to unknown state {succ}")
        self.metric = metric
        self.coords = None if coords is None else np.asarray(coords)
        self._edges = None

    def actions_of(self, s: int):
        """Sorted ``(label, successor)`` pairs available in state ``s``."""
        return self._actions[s]

    def step(self, s: int, a: int) -> int:
        """Deterministic successor of taking action ``a`` in state ``s``."""
        for label, succ in self._actions[s]:
            if label == a:
                return succ
        raise UnknownActionError(f"state {s} has no action {a}")

    def edges(self):
        """All transitions as parallel arrays ``(sources, labels, successors)``."""
        if self._edges is None:
            src, lab, dst = [], [], []
            for s, acts in enumerate(self._actions):
                for label, succ in acts:
                    src.append(s)
                    lab.append(label)
                    dst.append(succ)
            self._edges = (
                np.asarray(src, dtype=int),
                np.asarray(lab, dtype=int),
                np.asarray(dst, dtype=int),
            )
        return self._edges

    def distances(self, a, b) -> np.ndarray:
        """Metric distance matrix between id arrays ``a`` and ``b``."""
        return self.metric.block(a, b)


def grid_mdp(rows: int, cols: int, cell_size: float, valid=None) -> Mdp:
    """2-D grid MDP with four moves plus a stay action.

    Action labels are 0=up, 1=down, 2=left, 3=right, 4=stay; moves that
    would leave the grid (or enter an invalid cell) are simply absent, and
    the stay self-loop is always present so no state is action-less.

    Parameters
    ----------
    rows, cols : int
        Grid shape; must be positive.
    cell_size : float
        Positive edge length of a cell; the metric is Manhattan distance in
        cells times ``cell_size``.
    valid : array_like of bool, optional
        Row-major mask of usable cells (e.g. after removing missing terrain
        data).  Invalid cells get no state.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    if not cell_size > 0:
        raise ValueError("cell_size must be positive")
    if valid is None:
        valid = np.ones(rows * cols, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool).reshape(rows * cols)
    if not valid.any():
        raise ValueError("grid has no valid cells")
    state_of_cell = np.full(rows * cols, -1, dtype=int)
    cells = np.flatnonzero(valid)
    state_of_cell[cells] = np.arange(len(cells))
    coords = np.stack([cells // cols, cells % cols], axis=1)

    actions = []
    for s, cell in enumerate(cells):
        r, c = divmod(int(cell), cols)
        acts = []
        for label, dr, dc in _GRID_MOVES:
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < rows and 0 <= c2 < cols and valid[r2 * cols + c2]:
                acts.append((label, int(state_of_cell[r2 * cols + c2])))
        acts.append((GRID_STAY, s))
        actions.append(acts)
    return Mdp(actions, ManhattanMetric(coords, cell_size), coords=coords)


class AugmentedMdp(Mdp):
    """MDP whose states are the original states plus one per transition.

    Original states keep their ids; action-states are appended after them.
    In an original state, action ``a`` leads to the action-state of
    ``(s, a)``; an action-state has exactly one action, landing on the
    original transition's successor.  Every length-``k`` path of the base
    MDP corresponds to a length-``2k`` path here and vice versa.

    Attributes
    ----------
    base : Mdp
        The MDP that was augmented.
    action_state_of : dict
        Maps ``(state, label)`` to the action-state id.
    half_step : float
        Metric offset of an action-state from its two adjacent originals.
    """

    def __init__(self, base: Mdp, half_step: float):
        n = base.num_states
        owner = list(range(n))
        landing = list(range(n))
        labels = [-1] * n
        action_state_of = {}
        actions = [None] * n
        aug_actions = []
        for s in range(n):
            acts = []
            for label, succ in base.actions_of(s):
                aug_id = n + len(aug_actions)
                action_state_of[(s, label)] = aug_id
                owner.append(s)
                landing.append(succ)
                labels.append(label)
                aug_actions.append(((label, succ),))
                acts.append((label, aug_id))
            actions[s] = acts
        # Action-states land on original ids, which are unchanged.
        actions.extend(aug_actions)
        is_action = np.arange(n + len(aug_actions)) >= n
        metric = AugmentedMetric(base.metric, owner, landing, is_action, half_step)
        super().__init__(actions, metric)
        self.base = base
        self.num_base_states = n
        self.action_state_of = action_state_of
        self.owner = np.asarray(owner, dtype=int)
        self.landing = np.asarray(landing, dtype=int)
        self.action_label = np.asarray(labels, dtype=int)
        self.is_action_state = is_action
        self.half_step = float(half_step)

    def pairs(self) -> np.ndarray:
        """Per-state ``(owner, landing)`` base ids; originals map to
        the degenerate pair ``(s, s)``."""
        return np.stack([self.owner, self.landing], axis=1)


def augment(mdp: Mdp, half_step: float | None = None) -> AugmentedMdp:
    """Insert an action-state into every transition of ``mdp``.

    Parameters
    ----------
    mdp : Mdp
    half_step : float, optional
        Metric distance between an action-state and each original state it
        touches.  Defaults to half the shortest nonzero transition length
        (half a cell on grids), or 0.5 if every action is a self-loop.
    """
    if half_step is None:
        shortest = None
        for s in range(mdp.num_states):
            for _, succ in mdp.actions_of(s):
                if succ != s:
                    d = mdp.metric.pair(s, succ)
                    if d > 0 and (shortest is None or d < shortest):
                        shortest = d
        half_step = 0.5 if shortest is None else 0.5 * shortest
    if not half_step > 0:
        raise ValueError("half_step must be positive")
    return AugmentedMdp(mdp, half_step)
