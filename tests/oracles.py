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
``oracle_eps`` (R_eps) and its fixpoint ``oracle_eps_fixpoint``, and
``oracle_ceiling``, what the ergodic set grows to under bands that are
the truth.  They take
and return python sets; ``to_set`` and ``from_set`` convert to and from
boolean masks.  Their ``dist`` is indexed ``dist[s][w]``, so nested lists
and arrays both serve.  ``bfs_hops`` is the hop count of a shortest path
inside an allowed set, ``None`` when there is none.  ``trapdoor`` is a
four-state MDP whose lure only checking returnability keeps the agent out
of.  ``random_mdp`` draws a small deterministic MDP with its distance
matrix, and ``operator_mismatches`` names the operators of
``safemdp.reach`` that disagree with their references on given inputs.
``readme_example`` is the README's example config, and ``write_config``
writes a config with its ``[explorer]`` keys and output directory set.

The dense GP reference reads every quantity as a row over a GP's points:
``point_rows`` gives e_u (a height) and ``difference_rows`` e_owner -
e_landing (a transition's height difference).  ``dense_posterior``
conditions on such rows with one ``np.linalg.solve``, no factor, over the
kernel that ``kernel_value`` transcribes from its formulas; ``rel_dev`` is
acceptance gate 1's deviation.  ``representatives`` is the difference
model's representative map, read from a dict over each state's ``(owner,
landing)``, and ``moves`` the augmented MDP's undirected move index, read
from a dict over each action-state's unordered ``{owner, landing}``.  None
of it reads ``safemdp.gp`` or ``safemdp.terrain``, the
code it checks.
"""

import configparser
import re
from collections import deque
from pathlib import Path

import numpy as np

from safemdp.mdp import AugmentedMetric, ManhattanMetric, Mdp
from safemdp.reach import r_eps, r_eps_fixpoint, r_reach, r_ret_fixpoint, r_ret_one, r_safe_eps

README = Path(__file__).parents[1] / "README.md"


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


def oracle_ceiling(mdp, seed, r, h):
    """The least fixpoint above ``seed`` of S -> (S | {r >= h}) & reach(S)
    & return(S | {r >= h} -> S): the eps = 0 reach-return ceiling of a
    classifier that reads each state's own value."""
    above = {s for s in range(mdp.num_states) if r[s] >= h}
    current = set(seed)
    while True:
        safe = current | above
        grown = safe & oracle_reach(mdp, current) & oracle_ret_fixpoint(mdp, safe, current)
        if grown == current:
            return current
        current = grown


def random_mdp(rng, n, span):
    """``(mdp, dist)``: ``n`` states with one to three actions each into
    random successors, at random integer coordinates in ``[0, span)`` whose
    Manhattan distances ``dist`` are the metric."""
    coords = rng.integers(0, span, size=(n, 2))
    actions = [[(a, int(rng.integers(n))) for a in range(int(rng.integers(1, 4)))]
               for _ in range(n)]
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2).astype(float)
    return Mdp(actions, DenseMetric(dist)), dist


def operator_mismatches(mdp, dist, r, eps, lip, h, base, through, target):
    """Names of the six set operators whose result on these inputs differs
    from its python-set reference; ``base``, ``through`` and ``target`` are
    python sets."""
    n = mdp.num_states
    bm, tm, gm = from_set(n, base), from_set(n, through), from_set(n, target)
    pairs = {
        "r_safe_eps": (r_safe_eps(mdp, bm, r, eps, lip, h),
                       oracle_safe(mdp, dist, base, r, eps, lip, h)),
        "r_reach": (r_reach(mdp, bm), oracle_reach(mdp, base)),
        "r_ret_one": (r_ret_one(mdp, tm, gm), oracle_ret_one(mdp, through, target)),
        "r_ret_fixpoint": (r_ret_fixpoint(mdp, tm, gm),
                           oracle_ret_fixpoint(mdp, through, target)),
        "r_eps": (r_eps(mdp, bm, r, eps, lip, h), oracle_eps(mdp, dist, base, r, eps, lip, h)),
        "r_eps_fixpoint": (r_eps_fixpoint(mdp, bm, r, eps, lip, h),
                           oracle_eps_fixpoint(mdp, dist, base, r, eps, lip, h)),
    }
    return [name for name, (got, want) in pairs.items() if to_set(got) != want]


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


def trapdoor():
    """``(mdp, coords, seed, r)`` of a four-state MDP in which state 1
    looks attractive but its only exit leads into unsafe ground.

    State 2 (the lure) is close enough to states 1 and 3 that their upper
    bands keep certifying it, yet too far from the measured states for its
    own lower band ever to clear the threshold 0.  The seed is state 0.
    """
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [-1.0, 0.0]])
    actions = [[(0, 0), (1, 1), (2, 3)], [(0, 2)], [(0, 2)], [(0, 3), (1, 0)]]
    seed = np.zeros(4, dtype=bool)
    seed[0] = True
    return Mdp(actions, ManhattanMetric(coords, 1.0)), coords, seed, np.array([1.0, 1.0, -5.0, 1.0])


def readme_example() -> str:
    """The README's example ``safemdp explore`` config: its ``ini`` block."""
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


def write_config(text, path, out_dir, **explorer):
    """Write the config ``text`` to ``path`` with the ``[explorer]`` keys
    given and its output in ``out_dir``; return ``path``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    parser["explorer"].update(explorer)
    parser["output"]["directory"] = str(out_dir)
    with open(path, "w") as handle:
        parser.write(handle)
    return path


def kernel_value(kernel, distance):
    """``kernel`` at ``distance``, transcribed from the Matern-5/2 and
    squared-exponential formulas."""
    r = np.asarray(distance, dtype=float) / kernel.lengthscale
    if kernel.kind == "matern52":
        shape = (1 + np.sqrt(5) * r + 5 * r**2 / 3) * np.exp(-np.sqrt(5) * r)
    else:
        shape = np.exp(-(r**2) / 2)
    return kernel.prior_std**2 * shape


def point_rows(ids, n):
    """The rows e_u over ``n`` points, one per id ``u`` in ``ids``."""
    return np.eye(n)[np.asarray(ids, dtype=int)]


def difference_rows(aug):
    """The rows e_owner - e_landing over ``aug``'s cells, one per state;
    zero for a cell and a stay action."""
    cells = aug.num_base_states
    return point_rows(aug.owner, cells) - point_rows(aug.landing, cells)


def representatives(aug):
    """Per state of ``aug``, the lowest-id state of its kind (original or
    action-state) whose ``(owner, landing)`` is its own or its reverse, and
    the sign: -1.0 where that state's is the reverse, +1.0 otherwise."""
    states = list(zip(aug.owner.tolist(), aug.landing.tolist(), aug.is_action_state.tolist()))
    first = {}
    for s, key in enumerate(states):
        first.setdefault(key, s)
    rep, sign = [], []
    for owner, landing, acting in states:
        r = min(first[owner, landing, acting], first.get((landing, owner, acting), len(states)))
        rep.append(r)
        sign.append(1.0 if states[r][:2] == (owner, landing) else -1.0)
    return np.array(rep), np.array(sign)


def moves(aug):
    """The undirected moves of ``aug``: per state, the index of its
    unordered ``{owner, landing}`` among those of the action-states that
    join two distinct cells, -1 for the rest; each move's ``(low, high)``
    cells, the moves sorted by them; and each move's lowest action-state."""
    states = list(zip(aug.owner.tolist(), aug.landing.tolist(), aug.is_action_state.tolist()))
    first = {}
    for s, (owner, landing, acting) in enumerate(states):
        if acting and owner != landing:
            first.setdefault(frozenset((owner, landing)), s)
    cells = sorted(sorted(pair) for pair in first)
    index = {frozenset(pair): i for i, pair in enumerate(cells)}
    move_of = [index.get(frozenset((owner, landing)), -1) for owner, landing, _ in states]
    return (np.array(move_of), np.array(cells, dtype=int).reshape(-1, 2),
            np.array([first[frozenset(pair)] for pair in cells], dtype=int))


def dense_posterior(kernel, coords, noise_std, obs_rows, values, left_rows, right_rows=None):
    """Posterior of a GP over the points ``coords``, conditioned on
    ``obs_rows @ f + noise == values``: the means of ``left_rows @ f`` and
    the covariance of each pair ``left_rows[i] @ f, right_rows[i] @ f``
    (the variances when ``right_rows`` is omitted), unclamped.  One
    ``np.linalg.solve`` of the gram matrix, with no factor."""
    right_rows = left_rows if right_rows is None else right_rows
    prior = kernel_value(kernel, np.linalg.norm(coords[:, None] - coords[None], axis=-1))
    gram = obs_rows @ prior @ obs_rows.T + noise_std**2 * np.eye(len(obs_rows))
    k_left, k_right = obs_rows @ prior @ left_rows.T, obs_rows @ prior @ right_rows.T
    solved = np.linalg.solve(gram, np.column_stack([values, k_right]))
    covariances = ((left_rows @ prior) * right_rows).sum(axis=1)
    return k_left.T @ solved[:, 0], covariances - np.einsum("ij,ij->j", k_left, solved[:, 1:])


def rel_dev(got, want):
    """Largest deviation of ``got`` from ``want``, relative where ``|want|``
    exceeds 1: acceptance gate 1's measure."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
