"""Finite deterministic MDPs with a state metric.

States are dense integer ids.  Each state carries a sorted list of
``(action label, successor)`` pairs; transitions are deterministic.  The
forward and reverse adjacency are ``(k, N + 1)`` tables of neighbour ids,
padded with the sentinel ``N`` and built once by the padded-table
primitive that the envelope's folds below also use: a state of degree at
most ``k`` fits its column, and a hub's edges beyond ``k`` go to a spill
list, so the tables hold O(N + E) entries.  Grids and augmented grids have
degree at most five and build no spill.

A metric between states has one method, ``envelope(values, lipschitz)``,
the Lipschitz envelope ``max_w v(w) - L * d(s, w)`` in which a state at
``-inf`` is no witness; the safety operators read the metric only through
it, and so does :meth:`Mdp.distances`: ``d(., w)`` is minus the envelope at
``L = 1`` of 0 at ``w`` and ``-inf`` elsewhere.  Grids get the Manhattan
metric scaled by the cell size, one state per cell, and its envelope is an
L1 distance transform over the cells' bounding box, in place: O(box) time.

``augment`` re-expresses safety-on-transitions as safety-on-states by
inserting one artificial "action-state" per (state, action) pair, so that
every original transition becomes a two-hop path through its action-state.
The augmented metric's envelope is the base envelope over cells plus two
folds of the action-states, into their owner and into their landing cell;
both read index layouts built once, at augmentation, so an envelope costs
O(N) with no scatter.
"""

from __future__ import annotations

import math

import numpy as np

GRID_UP = 0
GRID_DOWN = 1
GRID_LEFT = 2
GRID_RIGHT = 3
GRID_STAY = 4

_GRID_MOVES = ((GRID_UP, -1, 0), (GRID_DOWN, 1, 0), (GRID_LEFT, 0, -1), (GRID_RIGHT, 0, 1))


class ManhattanMetric:
    """Manhattan distance between per-state integer coordinates, scaled.

    ``coords`` is ``(N, d)``, or ``(N,)`` for one axis.  Coordinates that
    are not finite integers, two states sharing them, or a ``cell_size``
    that is not positive and finite, raise :class:`ValueError`.
    """

    def __init__(self, coords, cell_size: float):
        self.coords = np.asarray(coords, dtype=float)
        if self.coords.ndim == 1:
            self.coords = self.coords[:, None]
        self.cell_size = float(cell_size)
        if not np.isfinite(self.coords).all() or (self.coords != np.round(self.coords)).any():
            raise ValueError("Manhattan coordinates must be finite integers")
        if not 0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {cell_size!r}")
        # Each state's flat cell index in the coordinates' bounding box, and
        # each axis's cell positions, shaped to broadcast along that axis.
        cells = self.coords.astype(int)
        cells -= cells.min(axis=0)
        self._box = tuple(cells.max(axis=0) + 1)
        self._flat = np.ravel_multi_index(tuple(cells.T), self._box)
        used, counts = np.unique(self._flat, return_counts=True)
        if (counts > 1).any():
            shared = np.flatnonzero(self._flat == used[counts > 1][0])
            raise ValueError(f"states {shared.tolist()} share the coordinates "
                             f"{self.coords[shared[0]].astype(int).tolist()}; a Manhattan "
                             f"metric holds one state per cell")
        ndim = len(self._box)
        self._ramps = [np.arange(size, dtype=float).reshape((-1,) + (1,) * (ndim - 1 - axis))
                       for axis, size in enumerate(self._box)]
        # Per axis, the index whose view reverses the box along that axis.
        self._reversed = [tuple(slice(None, None, -1 if a == axis else 1) for a in range(ndim))
                          for axis in range(ndim)]

    def envelope(self, values, lipschitz) -> np.ndarray:
        """Lipschitz envelope of ``values``, a state at ``-inf`` being no
        witness, as the exact L1 distance transform of a sampled function
        (Felzenszwalb & Huttenlocher, 2012) on the coordinates' bounding
        box, whose cells without a state start at ``-inf`` too: one forward
        and one backward running maximum per axis, in place, O(box) time
        and memory."""
        flat = np.full(math.prod(self._box), -np.inf)
        flat[self._flat] = values
        box = flat.reshape(self._box)
        step = lipschitz * self.cell_size
        for axis, (ramp, reverse) in enumerate(zip(self._ramps, self._reversed)):
            ramp = step * ramp
            forward = box + ramp
            np.maximum.accumulate(forward, axis=axis, out=forward)
            forward -= ramp
            backward = np.subtract(box, ramp, out=box)[reverse]
            np.maximum.accumulate(backward, axis=axis, out=backward)
            box += ramp
            np.maximum(forward, box, out=box)
        return flat.take(self._flat)


#: Width that a padded table may always take, whatever the mean group size:
#: any group of at most this many members, such as a grid state's five
#: moves or an augmented cell's five, fits the table without a spill.
_MIN_WIDTH = 8


def _fold_layout(groups, num_groups: int):
    """Index layout ``(table, spill, spill_groups)`` for :func:`_fold` and
    :class:`Mdp`'s adjacency, built once from each member's group.

    Each group's first ``k`` members, in member order, sit in a dense
    ``(k, num_groups)`` table, padded with the sentinel id
    ``len(groups)``; the members beyond the ``k``-th of a group are kept
    apart (``spill``), by group, beside their groups (``spill_groups``,
    sorted).  ``k`` is the largest group, capped at :data:`_MIN_WIDTH` or
    one more than twice the mean group size, whichever is more, so the
    table stays linear in the groups and members even when one group
    holds most of the members.
    """
    order = np.argsort(groups, kind="stable")
    counts = np.bincount(groups, minlength=num_groups)
    rank = np.arange(len(groups)) - np.repeat(np.cumsum(counts) - counts, counts)
    k = min(counts.max(initial=1), max(_MIN_WIDTH, 1 + 2 * len(groups) // max(num_groups, 1)))
    table = np.full((k, num_groups), len(groups))
    dense = rank < k
    table[rank[dense], groups[order[dense]]] = order[dense]
    spill = order[~dense]
    return table, spill, groups[spill]


def _fold(values, layout) -> np.ndarray:
    """Per group, the maximum of ``values`` over its members (``-inf`` for
    a group without any); ``values`` holds one more entry, the sentinel,
    which must be ``-inf``."""
    table, spill, spill_groups = layout
    out = values.take(table).max(axis=0)
    if spill.size:
        np.maximum.at(out, spill_groups, values[spill])
    return out


class AugmentedMetric:
    """Metric over an augmented state space.

    An action-state sits halfway along its transition: it is ``half_step``
    away from the two original states adjacent to it in the augmented graph
    (its owner and its landing state), and any other distance is the base
    distance between owners plus ``half_step`` per action-state endpoint.

    The ids must follow :class:`AugmentedMdp`'s layout, the cells first and
    the action-states after them: the envelope reads the two parts by
    slices, and folds the action-states into their owner and landing cells
    through index layouts built here, once.
    """

    def __init__(self, base, owner, landing, is_action, half_step: float):
        self.base = base
        self.owner = np.asarray(owner, dtype=int)
        self.landing = np.asarray(landing, dtype=int)
        self.is_action = np.asarray(is_action, dtype=bool)
        self.half_step = float(half_step)
        n = self._num_cells = np.count_nonzero(~self.is_action)
        if not self.is_action[n:].all():
            raise ValueError("an augmented metric needs the cells first, then the action-states")
        self._owner_tail = self.owner[n:]
        self._landing_tail = self.landing[n:]
        self._by_owner = _fold_layout(self._owner_tail, n)
        self._by_landing = _fold_layout(self._landing_tail, n)

    def envelope(self, values, lipschitz) -> np.ndarray:
        """Fold every witness, a state not at ``-inf``, into its owner cell
        at ``half_step`` per action-state endpoint, take the base envelope
        over cells, then apply the two exceptions in O(N): a witness is at
        distance 0 from itself, and an action-state and its landing state
        are ``half_step`` apart (owner adjacency already matches the fold)."""
        n = self._num_cells
        offset = lipschitz * self.half_step
        own = np.asarray(values, dtype=float)
        # The action-state witnesses, one endpoint away, and the sentinel.
        shifted = np.full(len(own) - n + 1, -np.inf)
        np.subtract(own[n:], offset, out=shifted[:-1])
        cells = np.maximum(own[:n], _fold(shifted, self._by_owner))
        out = np.empty(len(own))
        out[:n] = self.base.envelope(cells, lipschitz)
        np.subtract(out.take(self._owner_tail), offset, out=out[n:])
        np.maximum(out, own, out=out)
        # An original state is half_step from each witnessing action-state
        # that lands on it,
        np.maximum(out[:n], _fold(shifted, self._by_landing), out=out[:n])
        # and an action-state is half_step from its landing state.
        np.maximum(out[n:], (own[:n] - offset).take(self._landing_tail), out=out[n:])
        return out


def _adjacency(states, neighbours, num_states: int):
    """Padded neighbour table of each state, over the edges
    ``states[i] -> neighbours[i]``, as :meth:`Mdp.successors` describes it:
    a :func:`_fold_layout` over ``N + 1`` states, its edge ids read as
    neighbour ids and its sentinel ``len(states)`` as ``N``."""
    table, spill, spill_states = _fold_layout(states, num_states + 1)
    return np.append(neighbours, num_states)[table], neighbours[spill], spill_states


class Mdp:
    """Finite deterministic MDP.

    Parameters
    ----------
    actions :
        One sequence of ``(label, successor)`` pairs per state.  Labels must
        be unique within a state and every state needs at least one action.
    metric :
        State metric with the one method ``envelope`` described in the
        module docstring.

    The table is sorted by state and then by label, and checked, once:
    :meth:`actions_of`, :meth:`edges`, :meth:`successors` and
    :meth:`predecessors` are views of it built at construction, the last
    two as padded neighbour tables that a search reads one frontier at a
    time with a single gather.
    """

    def __init__(self, actions, metric):
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
        self.metric = metric
        sizes = [len(acts) for acts in table]
        src = np.repeat(np.arange(self.num_states), sizes)
        flat = [x for acts in table for pair in acts for x in pair]
        lab, dst = np.array(flat, dtype=int).reshape(-1, 2).T.copy()
        unknown = np.flatnonzero((dst < 0) | (dst >= self.num_states))
        if unknown.size:
            i = unknown[0]
            raise ValueError(f"state {src[i]} action {lab[i]} leads to unknown state {dst[i]}")
        self._edges = (src, lab, dst)
        self._successors = _adjacency(src, dst, self.num_states)
        self._predecessors = _adjacency(dst, src, self.num_states)

    def actions_of(self, s: int):
        """Sorted ``(label, successor)`` pairs available in state ``s``."""
        return self._actions[s]

    def edges(self):
        """All transitions as parallel arrays ``(sources, labels, successors)``,
        by state and then by label."""
        return self._edges

    def successors(self):
        """Forward adjacency as ``(table, spill, spill_states)``: column
        ``s`` of the ``(k, N + 1)`` table holds the successors of ``s`` by
        label, padded with the sentinel ``N`` (whose own column is all
        sentinel); a state with more than ``k`` actions keeps the
        successors of the rest in ``spill``, each beside its state in
        ``spill_states``, which is sorted."""
        return self._successors

    def predecessors(self):
        """Reverse adjacency as ``(table, spill, spill_states)``: column
        ``t`` of the ``(k, N + 1)`` table holds the states with an action
        into ``t``, by id and padded with the sentinel ``N``; a state with
        more than ``k`` of them keeps the rest in ``spill``, each beside
        it in ``spill_states``, which is sorted."""
        return self._predecessors

    def distances(self, a, b) -> np.ndarray:
        """Metric distance matrix between id arrays ``a`` (rows) and ``b``
        (columns), one envelope per column: ``d(., w)`` is minus the
        envelope at ``L = 1`` of 0 at the witness ``w`` and ``-inf`` elsewhere."""
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = np.empty((len(a), len(b)))
        ids = np.arange(self.num_states)
        for j, w in enumerate(b):
            out[:, j] = -self.metric.envelope(np.where(ids == w, 0.0, -np.inf), 1.0)[a]
        return out


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
        Positive, finite edge length of a cell; the metric is Manhattan
        distance in cells times ``cell_size``.
    valid : array_like of bool, optional
        Row-major mask of usable cells (e.g. after removing missing terrain
        data).  Invalid cells get no state.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be positive and finite, got {cell_size!r}")
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
    return Mdp(actions, ManhattanMetric(coords, cell_size))


class AugmentedMdp(Mdp):
    """MDP whose states are the original states plus one per transition.

    Original states keep their ids; action-states are appended after them,
    in the order of the base's ``edges()``, by state and then by label.  In
    an original state, action ``a`` leads to the action-state of ``(s, a)``;
    an action-state has exactly one action, landing on the original
    transition's successor.  Every length-``k`` path of the base MDP
    corresponds to a length-``2k`` path here and vice versa.  The metric
    relies on this layout, the cells first and the action-states after
    them: it reads the two parts by slices.

    Attributes
    ----------
    base : Mdp
        The MDP that was augmented.
    num_base_states : int
        Number of original states; action-states have ids from here on.
    owner, landing : np.ndarray of int
        Per state, the base state an action-state's transition leaves from
        and the one it lands on; an original state ``s`` maps to ``(s, s)``.
    is_action_state : np.ndarray of bool
        Per state, whether it is an action-state.
    move_of, move_cells, move_first : np.ndarray of int
        The undirected moves, one per unordered ``{owner, landing}`` pair of
        distinct cells that an action-state joins: per state, its move (-1
        for a cell or a stay action); each move's ``(low, high)`` cells,
        shape (moves, 2), sorted; and each move's lowest action-state.

    The metric (an :class:`AugmentedMetric`) reads the first three arrays.
    """

    def __init__(self, base: Mdp, half_step: float):
        n = base.num_states
        src, labels, dst = base.edges()
        ids = np.arange(n, n + len(src))
        self.base = base
        self.num_base_states = n
        self.owner = np.concatenate([np.arange(n), src])
        self.landing = np.concatenate([np.arange(n), dst])
        self.is_action_state = np.arange(n + len(src)) >= n
        joins = np.flatnonzero(src != dst)
        low, high = np.minimum(src, dst)[joins], np.maximum(src, dst)[joins]
        _, first, inverse = np.unique(low * n + high, return_index=True, return_inverse=True)
        self.move_of = np.full(n + len(src), -1, dtype=np.intp)
        self.move_of[n + joins] = inverse
        self.move_cells = np.stack([low[first], high[first]], axis=1)
        self.move_first = n + joins[first]
        starts = np.searchsorted(src, np.arange(n + 1))
        actions = [tuple(zip(labels[lo:hi].tolist(), ids[lo:hi].tolist()))
                   for lo, hi in zip(starts[:-1], starts[1:])]
        # Action-states land on original ids, which are unchanged.
        actions += [((label, succ),) for label, succ in zip(labels.tolist(), dst.tolist())]
        super().__init__(actions, AugmentedMetric(base.metric, self.owner, self.landing,
                                                  self.is_action_state, half_step))


def augment(mdp: Mdp, half_step: float) -> AugmentedMdp:
    """Insert an action-state into every transition of ``mdp``.

    Parameters
    ----------
    mdp : Mdp
    half_step : float
        Positive, finite metric distance between an action-state and each
        original state it touches; half a cell on grids.
    """
    if not 0 < half_step < math.inf:
        raise ValueError(f"half_step must be positive and finite, got {half_step!r}")
    return AugmentedMdp(mdp, half_step)
