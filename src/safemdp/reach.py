"""Set operators for safety, reachability and returnability.

All operators take and return boolean masks over the states of an
:class:`~safemdp.mdp.Mdp`.  They are monotone in their set arguments, which
the exploration algorithm relies on, and the fixpoint variants stabilize
after at most ``|S|`` (respectively ``|S| + 1``) applications.  Lipschitz
safety reads one number per state from the metric's ``envelope``, and
returnability is one reverse breadth-first search over the MDP's padded
neighbour tables, each layer one gather of its frontier's columns, so an
application costs O(N + E) time and memory on grids and their
augmentations.  The search finds its first layer from the smaller side,
the open states' out-edges or the target's in-edges: when the target is
most of the set, as in :func:`r_eps` and the ergodic check, it pays for the
shell around the target rather than its interior.  A caller that reads
returnability only on some states (``among``) stops the search as soon as
those states are decided.
"""

from __future__ import annotations

import numpy as np

from .mdp import Mdp


def _as_mask(mdp: Mdp, mask) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (mdp.num_states,):
        raise ValueError(f"expected a mask over {mdp.num_states} states, got shape {mask.shape}")
    return mask


def r_safe_eps(mdp: Mdp, base, r_values, eps: float, lipschitz: float, threshold: float) -> np.ndarray:
    """States whose safety follows from ``base`` by a Lipschitz argument.

    A state ``s`` is included when some ``s'`` in ``base`` satisfies
    ``r(s') - eps - lipschitz * d(s, s') >= threshold``, that is when the
    envelope of ``r - eps`` over ``base`` clears the threshold; ``base``
    itself is always included.
    """
    base = _as_mask(mdp, base)
    values = np.where(base, np.asarray(r_values, dtype=float) - eps, -np.inf)
    return base | (mdp.metric.envelope(values, lipschitz) >= threshold)


def r_reach(mdp: Mdp, base) -> np.ndarray:
    """``base`` plus everything reachable from it in one action."""
    base = _as_mask(mdp, base)
    src, _, dst = mdp.edges()
    out = base.copy()
    out[dst[base[src]]] = True
    return out


def r_ret_one(mdp: Mdp, through, target) -> np.ndarray:
    """One-step returnability: ``target`` plus the states of ``through``
    with an action leading into ``target``."""
    through = _as_mask(mdp, through)
    target = _as_mask(mdp, target)
    src, _, dst = mdp.edges()
    out = target.copy()
    hits = through[src] & target[dst]
    out[src[hits]] = True
    return out


def _spill_of(spill, spill_states, states) -> np.ndarray:
    """The spilled neighbours of ``states``.  ``spill_states`` is sorted, so
    each state's are one run of ``spill``, and only the runs of the states
    that have one are read."""
    lo = np.searchsorted(spill_states, states)
    hi = np.searchsorted(spill_states, states, side="right")
    return np.concatenate([spill[lo[i]:hi[i]] for i in np.flatnonzero(hi > lo).tolist()]
                          + [spill[:0]])


def r_ret_fixpoint(mdp: Mdp, through, target, among=None) -> np.ndarray:
    """States that can return to ``target`` along a path inside ``through``.

    This is the least fixpoint of :func:`r_ret_one`, found by one reverse
    breadth-first search from ``target`` that enters only ``through``
    states, in O(N + E).  Its first layer, the ``through`` states with an
    action into ``target``, is found from the smaller side: the out-edges
    of the open states (``through & ~target``) or the in-edges of
    ``target``, so a large target's interior costs nothing.  Every later
    layer is one gather of its frontier's columns of the reverse table,
    plus the spilled in-edges of the frontier's hubs, if the MDP has any.
    With ``among``, the result is that fixpoint intersected with ``among``,
    and the search stops as soon as every state of ``among & through &
    ~target`` has been entered; ``among=None`` asks about every state.
    """
    through = _as_mask(mdp, through)
    target = _as_mask(mdp, target)
    among = np.ones_like(target) if among is None else _as_mask(mdp, among)
    n = mdp.num_states
    # The through states the search has not entered, and a closed slot for
    # the tables' sentinel.
    open_ = np.zeros(n + 1, dtype=bool)
    open_[:n] = through & ~target
    asked = open_[:n] & among
    undecided = np.count_nonzero(asked)
    if not undecided:
        return target & among
    into, into_spill, into_spill_states = mdp.predecessors()
    if np.count_nonzero(open_) < np.count_nonzero(target):
        out, out_spill, out_spill_states = mdp.successors()
        inside = np.zeros(n + 1, dtype=bool)
        inside[:n] = target
        candidates = np.flatnonzero(open_)
        found = candidates[inside[out.take(candidates, axis=1)].any(axis=0)]
        if out_spill.size:
            hits = open_[out_spill_states] & inside[out_spill]
            found = np.concatenate([found, out_spill_states[hits]])
    else:
        found = into.take(np.flatnonzero(target), axis=1)
        found = found[open_[found]]
        if into_spill.size:
            hits = target[into_spill_states] & open_[into_spill]
            found = np.concatenate([found, into_spill[hits]])
    slot = np.empty(n, dtype=np.intp)
    while found.size:
        # A state found from several frontier states is kept once, at the
        # position its slot ends up holding; left twice, it would be
        # gathered twice in the next layer, and the copies would multiply
        # along every shortest path.
        order = np.arange(found.size)
        slot[found] = order
        found = found[slot[found] == order]
        undecided -= np.count_nonzero(asked[found])
        open_[found] = False
        if not undecided:
            break
        layer = into.take(found, axis=1)
        if into_spill.size:
            layer = np.concatenate([layer.ravel(), _spill_of(into_spill, into_spill_states, found)])
        found = layer[open_[layer]]
    return (target | (through & ~open_[:n])) & among


def r_eps(mdp: Mdp, base, r_values, eps: float, lipschitz: float, threshold: float) -> np.ndarray:
    """One expansion round: safe by Lipschitz, reachable in a step, and able
    to return to ``base`` through the enlarged safe set.  The returnability
    search answers within the reachable states, and its answer lies in
    ``base`` and the safe states, so it is the round's set."""
    base = _as_mask(mdp, base)
    if not base.any():
        return base.copy()
    safe = r_safe_eps(mdp, base, r_values, eps, lipschitz, threshold)
    return r_ret_fixpoint(mdp, safe, base, among=r_reach(mdp, base))


def r_eps_fixpoint(mdp: Mdp, seed, r_values, eps: float, lipschitz: float,
                   threshold: float) -> np.ndarray:
    """Largest set safely explorable from ``seed``: the least fixpoint of
    :func:`r_eps`, reached within ``|S| + 1`` applications."""
    current = _as_mask(mdp, seed).copy()
    while True:
        grown = r_eps(mdp, current, r_values, eps, lipschitz, threshold)
        if np.array_equal(grown, current):
            return current
        current = grown
