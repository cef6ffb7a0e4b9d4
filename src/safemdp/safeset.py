"""Safe-set classification from confidence bands.

Turns the current confidence bands into the three nested sets the explorer
works with: states classified safe, the ergodic subset the agent may
actually visit (reachable and able to return), and the expanders whose
observation could enlarge the safe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import ConfidenceBands
from .mdp import Mdp
from .reach import r_reach, r_ret_fixpoint, r_safe_eps


class ErgodicPreconditionError(ValueError):
    """The previous ergodic set escaped the safe set, which indicates the
    confidence bands collapsed upstream."""


#: Classifier modes, named as the ``explorer.mode`` config key names them:
#: ``gp-direct`` certifies a state by its own lower band, ``lipschitz`` by
#: a Lipschitz argument from the previous ergodic set.
CLASSIFIER_MODES = ("gp-direct", "lipschitz")


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


def classify_safe(mdp: Mdp, bands: ConfidenceBands, prev_ergodic, threshold: float,
                  mode: str, lipschitz: float) -> np.ndarray:
    """States currently believed safe.

    In ``lipschitz`` mode a state qualifies when some previous ergodic
    witness ``s'`` has ``lower(s') - lipschitz * d(s, s') >= threshold``:
    this is the oracle's :func:`~safemdp.reach.r_safe_eps` over the lower
    bands with ``eps = 0``.  In ``gp-direct`` mode its own lower band must
    clear the threshold.  The previous ergodic set is kept safe in both
    modes so that a noisy dip of a band can never shrink the safe set.
    """
    prev_ergodic = np.asarray(prev_ergodic, dtype=bool)
    if not prev_ergodic.any():
        raise ValueError("prev_ergodic must not be empty")
    if mode == "gp-direct":
        return prev_ergodic | (bands.lower >= threshold)
    return r_safe_eps(mdp, prev_ergodic, bands.lower, 0.0, lipschitz, threshold)


def ergodic_safe(mdp: Mdp, safe, prev_ergodic) -> np.ndarray:
    """Subset of ``safe`` that is reachable from the previous ergodic set in
    one step and can return to it through ``safe``."""
    safe = np.asarray(safe, dtype=bool)
    prev_ergodic = np.asarray(prev_ergodic, dtype=bool)
    if (prev_ergodic & ~safe).any():
        raise ErgodicPreconditionError(
            "previous ergodic set is not contained in the safe set; "
            "confidence bands must have collapsed"
        )
    return safe & r_reach(mdp, prev_ergodic) & r_ret_fixpoint(mdp, safe, prev_ergodic)


def expanders(mdp: Mdp, ergodic, safe, bands: ConfidenceBands, lipschitz: float,
              threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic states whose optimistic band could certify an outside state.

    A state ``s`` is an expander when it is ergodic and
    ``upper(s) - lipschitz * d(s, s') >= threshold`` for some ``s'``
    outside ``safe``; the nearest outside state decides, so this is
    ``upper(s) - lipschitz * nearest(s) >= threshold``.  Returns the
    expander mask together with ``nearest``, the distance from every state
    to the nearest state outside ``safe`` (the negated envelope of zeros
    with slope 1), which is ``inf`` everywhere when every state is safe.
    """
    ergodic = np.asarray(ergodic, dtype=bool)
    outside = ~np.asarray(safe, dtype=bool)
    nearest = -mdp.metric.envelope(np.zeros(mdp.num_states), outside, 1.0)
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


def compute_safe_sets(mdp: Mdp, bands: ConfidenceBands, prev_ergodic, threshold: float,
                      mode: str, lipschitz: float) -> SafeSets:
    """One full classification round, as used per exploration iteration;
    ``lipschitz`` is the one constant of both the classifier and the
    expanders."""
    safe = classify_safe(mdp, bands, prev_ergodic, threshold, mode, lipschitz)
    ergodic = ergodic_safe(mdp, safe, prev_ergodic)
    mask, _ = expanders(mdp, ergodic, safe, bands, lipschitz, threshold)
    return SafeSets(safe, ergodic, mask)
