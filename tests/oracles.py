"""Brute-force stand-ins for library pieces that only tests need.

``DenseMetric`` is a metric given by an explicit distance matrix, whose
``envelope`` takes the plain maximum over the witness rows.
``dense_distances`` is the dense distance block of an MDP's metric, from
each metric's own closed-form definition rather than through its
envelope: the independent reference the envelope and ``Mdp.distances``
are checked against.  ``step`` looks up a deterministic successor by
action label.

The set operators have literal python-set references, each read straight
from its definition: ``oracle_safe`` (safety by a Lipschitz witness),
``oracle_reach`` (one-step reach), ``oracle_ret_one`` and its least
fixpoint ``oracle_ret_fixpoint`` (return into a target set),
``oracle_eps`` (R_eps) and its fixpoint ``oracle_eps_fixpoint``.  They take
and return python sets; ``to_set`` and ``from_set`` convert to and from
boolean masks.  Their ``dist`` is indexed ``dist[s][w]``, so nested lists
and arrays both serve.  ``bfs_hops`` is the hop count of a shortest path
inside an allowed set, ``None`` when there is none.
"""

from collections import deque

import numpy as np

from safemdp.mdp import AugmentedMetric, ManhattanMetric


class DenseMetric:
    """Metric read from a dense ``N x N`` distance matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def envelope(self, values, mask, lipschitz) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return np.full(len(mask), -np.inf)
        return (values[mask][:, None] - lipschitz * self.matrix[mask]).max(axis=0)


def dense_distances(mdp, a, b) -> np.ndarray:
    """Distance matrix of ``mdp``'s metric between id arrays ``a`` (rows)
    and ``b`` (columns)."""
    return _block(mdp.metric, np.asarray(a, dtype=int), np.asarray(b, dtype=int))


def _block(metric, a, b) -> np.ndarray:
    if isinstance(metric, DenseMetric):
        return metric.matrix[np.ix_(a, b)]
    if isinstance(metric, ManhattanMetric):
        pa = metric.coords[a]
        pb = metric.coords[b]
        return np.abs(pa[:, None, :] - pb[None, :, :]).sum(axis=2) * metric.cell_size
    if not isinstance(metric, AugmentedMetric):
        raise TypeError(f"no dense formula for {type(metric).__name__}")
    # Base distance between owners plus half_step per action-state endpoint,
    out = _block(metric.base, metric.owner[a], metric.owner[b])
    out = out + metric.half_step * (
        metric.is_action[a][:, None].astype(float) + metric.is_action[b][None, :].astype(float)
    )
    # except that adjacent (action-state, original) pairs collapse to half_step.
    act_a = metric.is_action[a][:, None] & ~metric.is_action[b][None, :]
    adj_a = act_a & (
        (metric.owner[a][:, None] == b[None, :]) | (metric.landing[a][:, None] == b[None, :])
    )
    act_b = ~metric.is_action[a][:, None] & metric.is_action[b][None, :]
    adj_b = act_b & (
        (metric.owner[b][None, :] == a[:, None]) | (metric.landing[b][None, :] == a[:, None])
    )
    out[adj_a | adj_b] = metric.half_step
    out[a[:, None] == b[None, :]] = 0.0
    return out


def step(mdp, s, a):
    """Successor of taking the action labelled ``a`` in state ``s``; a
    ``KeyError`` when ``s`` offers no such action."""
    return dict(mdp.actions_of(s))[a]


def to_set(mask):
    return set(np.flatnonzero(mask).tolist())


def from_set(n, members):
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def oracle_safe(mdp, dist, base, r, eps, lip, h):
    out = set(base)
    for s in range(mdp.num_states):
        for w in base:
            if r[w] - eps - lip * dist[s][w] >= h:
                out.add(s)
    return out


def oracle_reach(mdp, base):
    out = set(base)
    for s in base:
        for _, succ in mdp.actions_of(s):
            out.add(succ)
    return out


def oracle_ret_one(mdp, through, target):
    out = set(target)
    for s in through:
        if any(succ in target for _, succ in mdp.actions_of(s)):
            out.add(s)
    return out


def oracle_ret_fixpoint(mdp, through, target):
    """Least fixpoint of :func:`oracle_ret_one`."""
    current = set(target)
    while True:
        grown = oracle_ret_one(mdp, through, current)
        if grown == current:
            return current
        current = grown


def oracle_eps(mdp, dist, base, r, eps, lip, h):
    if not base:
        return set()
    safe = oracle_safe(mdp, dist, base, r, eps, lip, h)
    return safe & oracle_reach(mdp, base) & oracle_ret_fixpoint(mdp, safe, base)


def oracle_eps_fixpoint(mdp, dist, seed, r, eps, lip, h):
    current = set(seed)
    while True:
        grown = oracle_eps(mdp, dist, current, r, eps, lip, h)
        if grown == current:
            return current
        current = grown


def bfs_hops(mdp, allowed, start, goal):
    """Hop count of a shortest path from ``start`` to ``goal`` through
    states in ``allowed``; ``None`` when there is none."""
    if not (allowed[start] and allowed[goal]):
        return None
    depth = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if s == goal:
            return depth[s]
        for _, succ in mdp.actions_of(s):
            if allowed[succ] and succ not in depth:
                depth[succ] = depth[s] + 1
                queue.append(succ)
    return None
