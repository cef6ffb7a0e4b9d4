"""Safe-set classification from confidence bands.

Turns the current confidence bands into the three nested sets the explorer
works with: states classified safe, the ergodic subset the agent may
actually visit (reachable and able to return), and the expanders whose
observation could enlarge the safe set.

A run threads one :class:`LastRound` through its rounds, since most leave
the safe set as it was.  A round whose safe set equals the last one's
reuses that mask and its distances to the nearest outside state, which
depend on the safe set alone.  If the last round's ergodic set also
equalled its own input and is this round's input, it is reused too: it is
a function of the safe set and that input alone.  So every mask is what a
round without the state builds; masks are read-only, as rounds share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import ConfidenceBands
from .mdp import Mdp
from .reach import r_reach, r_ret_fixpoint


class ErgodicPreconditionError(ValueError):
    """:func:`ergodic_safe` was handed a previous ergodic set that is not
    inside its safe set.  The explorer cannot raise it, because
    :func:`classify_safe` keeps the previous ergodic set safe whatever the
    bands say; only a direct call with inconsistent masks can."""


@dataclass
class SafeSets:
    """Snapshot of one classification round.

    ``expanders <= ergodic <= safe`` always holds.
    """

    safe: np.ndarray
    ergodic: np.ndarray
    expanders: np.ndarray

    def __post_init__(self):
        if (self.ergodic & ~self.safe).any():
            raise ValueError("ergodic set must be contained in the safe set")
        if (self.expanders & ~self.ergodic).any():
            raise ValueError("expanders must be contained in the ergodic set")


def classify_safe(bands: ConfidenceBands, prev_ergodic, threshold: float) -> np.ndarray:
    """States currently believed safe: those whose own lower band clears
    the threshold.  The previous ergodic set stays safe, so that a noisy
    dip of a band can never shrink the safe set.
    """
    prev_ergodic = np.asarray(prev_ergodic, dtype=bool)
    if not prev_ergodic.any():
        raise ValueError("prev_ergodic must not be empty")
    return prev_ergodic | (bands.lower >= threshold)


def ergodic_safe(mdp: Mdp, safe, prev_ergodic) -> np.ndarray:
    """Subset of ``safe`` that is reachable from the previous ergodic set in
    one step and can return to it through ``safe``: the returnability
    search's answer within the reachable states, which lies in ``safe``."""
    safe = np.asarray(safe, dtype=bool)
    prev_ergodic = np.asarray(prev_ergodic, dtype=bool)
    if (prev_ergodic & ~safe).any():
        raise ErgodicPreconditionError(
            "previous ergodic set is not contained in the safe set; "
            "pass a safe mask that includes it, as classify_safe's does"
        )
    reachable = r_reach(mdp, prev_ergodic)
    return r_ret_fixpoint(mdp, safe, prev_ergodic, among=reachable)


def expanders(mdp: Mdp, ergodic, safe, bands: ConfidenceBands, lipschitz: float,
              threshold: float, nearest=None) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic states whose optimistic band could certify an outside state.

    A state ``s`` is an expander when it is ergodic and
    ``upper(s) - lipschitz * d(s, s') >= threshold`` for some ``s'``
    outside ``safe``; the nearest outside state decides, so this is
    ``upper(s) - lipschitz * nearest(s) >= threshold``.  Returns the
    expander mask together with ``nearest``, the distance from every state
    to the nearest state outside ``safe`` (minus the slope-1 envelope of 0
    outside ``safe`` and ``-inf`` in it), ``inf`` when every state is safe.
    ``nearest`` depends on ``safe`` alone, so a caller that has it for
    this ``safe`` passes it and the envelope is skipped.
    """
    ergodic = np.asarray(ergodic, dtype=bool)
    outside = ~np.asarray(safe, dtype=bool)
    if nearest is None:
        nearest = -mdp.metric.envelope(np.where(outside, 0.0, -np.inf), 1.0)
    if not outside.any():
        return np.zeros(mdp.num_states, dtype=bool), nearest
    return ergodic & (bands.upper - lipschitz * nearest >= threshold), nearest


def acquisition_target(candidates, widths) -> int | None:
    """Most uncertain candidate state, or ``None`` when there is none.

    Ties are broken towards the lowest state id, which keeps runs
    reproducible.
    """
    candidates = np.asarray(candidates, dtype=bool)
    ids = np.flatnonzero(candidates)
    if not ids.size:
        return None
    widths = np.asarray(widths, dtype=float)
    return int(ids[np.argmax(widths[ids])])


@dataclass
class LastRound:
    """What one run's last :func:`compute_safe_sets` round leaves for the
    next: its sets, the distances from every state to the nearest state
    outside its safe set, and whether its ergodic set equalled its input."""

    sets: SafeSets | None = None
    nearest: np.ndarray | None = None
    settled: bool = False


def compute_safe_sets(mdp: Mdp, bands: ConfidenceBands, prev_ergodic, threshold: float,
                      lipschitz: float, last: LastRound | None = None) -> SafeSets:
    """One full classification round, as used per exploration iteration;
    ``lipschitz`` is the expander test's constant.  With the run's ``last``,
    the round reuses what its inputs leave unchanged (see the module
    docstring) and updates ``last``; the sets are the same either way."""
    safe = classify_safe(bands, prev_ergodic, threshold)
    last = LastRound() if last is None else last
    ergodic = nearest = None
    if last.sets is not None and np.array_equal(safe, last.sets.safe):
        safe, nearest = last.sets.safe, last.nearest
        if last.settled and np.array_equal(prev_ergodic, last.sets.ergodic):
            ergodic = last.sets.ergodic
    if ergodic is None:
        ergodic = ergodic_safe(mdp, safe, prev_ergodic)
    mask, nearest = expanders(mdp, ergodic, safe, bands, lipschitz, threshold, nearest=nearest)
    for built in (safe, ergodic, mask):
        built.setflags(write=False)
    last.sets, last.nearest = SafeSets(safe, ergodic, mask), nearest
    last.settled = np.array_equal(ergodic, prev_ergodic)
    return last.sets
