"""Finite deterministic MDPs with a state metric.

States are dense integer ids.  Each state carries a sorted list of
``(action label, successor)`` pairs; transitions are deterministic.  A
metric between states has one method, ``envelope(values, mask, lipschitz)``,
the Lipschitz envelope ``max_{w in W} v(w) - L * d(s, w)``; the safety
operators read the metric only through it, and so does
:meth:`Mdp.distances`, which derives each distance ``d(s, w)`` as
``-envelope(0, {w}, 1)[s]``.  Grids get the Manhattan metric scaled by the
cell size.

``augment`` re-expresses safety-on-transitions as safety-on-states by
inserting one artificial "action-state" per (state, action) pair, so that
every original transition becomes a two-hop path through its action-state.
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

    Coordinates that are not finite integers, or a ``cell_size`` that is
    not positive and finite, raise :class:`ValueError`.
    """

    def __init__(self, coords, cell_size: float):
        self.coords = np.asarray(coords, dtype=float)
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
        ndim = len(self._box)
        self._ramps = [np.arange(size, dtype=float).reshape((-1,) + (1,) * (ndim - 1 - axis))
                       for axis, size in enumerate(self._box)]

    def envelope(self, values, mask, lipschitz) -> np.ndarray:
        """Lipschitz envelope of ``values`` from the states in ``mask``
        (``-inf`` everywhere when ``mask`` is empty), as the exact L1
        distance transform of a sampled function (Felzenszwalb &
        Huttenlocher, 2012) on the coordinates' bounding box: one forward
        and one backward running maximum per axis, O(box) time and memory.
        Box cells without a witness start at ``-inf``."""
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        flat = np.full(math.prod(self._box), -np.inf)
        np.maximum.at(flat, self._flat[mask], values[mask])
        box = flat.reshape(self._box)
        step = lipschitz * self.cell_size
        for axis, ramp in enumerate(self._ramps):
            ramp = step * ramp
            forward = np.maximum.accumulate(box + ramp, axis=axis) - ramp
            backward = np.flip(np.maximum.accumulate(np.flip(box - ramp, axis), axis=axis),
                               axis) + ramp
            box = np.maximum(forward, backward)
        return box.reshape(-1)[self._flat]


class AugmentedMetric:
    """Metric over an augmented state space.

    An action-state sits halfway along its transition: it is ``half_step``
    away from the two original states adjacent to it in the augmented graph
    (its owner and its landing state), and any other distance is the base
    distance between owners plus ``half_step`` per action-state endpoint.
    """

    def __init__(self, base, owner, landing, is_action, half_step: float):
        self.base = base
        self.owner = np.asarray(owner, dtype=int)
        self.landing = np.asarray(landing, dtype=int)
        self.is_action = np.asarray(is_action, dtype=bool)
        self.half_step = float(half_step)
        self._num_cells = np.count_nonzero(~self.is_action)

    def envelope(self, values, mask, lipschitz) -> np.ndarray:
        """Fold every witness into its owner cell at ``half_step`` per
        action-state endpoint, take the base metric's envelope over cells,
        then apply the two exceptions in O(N): a witness is at distance 0
        from itself, and an action-state and its landing state are
        ``half_step`` apart (owner adjacency already matches the fold)."""
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        offset = lipschitz * self.half_step
        shifted = values - offset
        cells = np.full(self._num_cells, -np.inf)
        np.maximum.at(cells, self.owner[mask], np.where(self.is_action, shifted, values)[mask])
        out = self.base.envelope(cells, cells > -np.inf, lipschitz)[self.owner]
        out[self.is_action] -= offset
        np.maximum(out, np.where(mask, values, -np.inf), out=out)
        # An original state is half_step from each witnessing action-state
        # that lands on it,
        acting = mask & self.is_action
        np.maximum.at(out, self.landing[acting], shifted[acting])
        # and an action-state is half_step from its landing state.
        landed = self.is_action & mask[self.landing]
        out[landed] = np.maximum(out[landed], shifted[self.landing[landed]])
        return out


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
        for s, acts in enumerate(self._actions):
            for label, succ in acts:
                if not 0 <= succ < self.num_states:
                    raise ValueError(f"state {s} action {label} leads to unknown state {succ}")
        self.metric = metric
        self._edges = None
        self._predecessors = None

    def actions_of(self, s: int):
        """Sorted ``(label, successor)`` pairs available in state ``s``."""
        return self._actions[s]

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

    def predecessors(self):
        """Reverse adjacency as ``(starts, sources)``: the states with an
        action leading into ``t`` are ``sources[starts[t]:starts[t + 1]]``."""
        if self._predecessors is None:
            src, _, dst = self.edges()
            order = np.argsort(dst, kind="stable")
            starts = np.zeros(self.num_states + 1, dtype=int)
            np.cumsum(np.bincount(dst, minlength=self.num_states), out=starts[1:])
            self._predecessors = (starts, src[order])
        return self._predecessors

    def distances(self, a, b) -> np.ndarray:
        """Metric distance matrix between id arrays ``a`` (rows) and ``b``
        (columns), one envelope per column: ``d(., w)`` is minus the
        envelope of zero from the witness ``w`` at ``L = 1``."""
        a = np.asarray(a, dtype=int)
        b = np.asarray(b, dtype=int)
        out = np.empty((len(a), len(b)))
        zero = np.zeros(self.num_states)
        for j, w in enumerate(b):
            witness = np.zeros(self.num_states, dtype=bool)
            witness[w] = True
            out[:, j] = -self.metric.envelope(zero, witness, 1.0)[a]
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
    corresponds to a length-``2k`` path here and vice versa.

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
