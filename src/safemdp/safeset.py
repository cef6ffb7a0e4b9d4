"""Safe-set classification from confidence bands.

Turns the current confidence bands into the three nested sets the explorer
works with: states classified safe, the ergodic subset the agent may
actually visit (reachable and able to return), and the expanders whose
observation could enlarge the safe set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .gp import ConfidenceBands
from .mdp import Mdp
from .reach import r_reach, r_ret_fixpoint


class ErgodicPreconditionError(ValueError):
    """The previous ergodic set escaped the safe set, which indicates the
    confidence bands collapsed upstream."""


@dataclass(frozen=True)
class LipschitzMode:
    """Classify via Lipschitz generalization from ergodic witnesses."""

    lipschitz: float

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise ValueError("lipschitz constant must be positive")


@dataclass(frozen=True)
class GpDirectMode:
    """Classify a state safe exactly when its own lower band clears the
    threshold (the generalization step is left to the expanders)."""


ClassifierMode = Union[LipschitzMode, GpDirectMode]


@dataclass
class SafeSets:
    """Snapshot of one classification round.

    ``expanders <= ergodic <= safe`` always holds, and ``widths`` are the
    band widths the acquisition rule maximizes over.
    """

    safe: np.ndarray
    ergodic: np.ndarray
    expanders: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        if (self.ergodic & ~self.safe).any():
            raise ValueError("ergodic set must be contained in the safe set")
        if (self.expanders & ~self.ergodic).any():
            raise ValueError("expanders must be contained in the ergodic set")


def classify_safe(mdp: Mdp, bands: ConfidenceBands, prev_ergodic, threshold: float,
                  mode: ClassifierMode) -> np.ndarray:
    """States currently believed safe.

    In Lipschitz mode a state qualifies when some previous ergodic witness
    ``s'`` has ``lower(s') - lipschitz * d(s, s') >= threshold``; in direct
    mode its own lower band must clear the threshold.  The previous ergodic
    set is kept safe in both modes so that a noisy dip of a band can never
    shrink the safe set.
    """
    prev_ergodic = np.asarray(prev_ergodic, dtype=bool)
    if not prev_ergodic.any():
        raise ValueError("prev_ergodic must not be empty")
    if isinstance(mode, GpDirectMode):
        return prev_ergodic | (bands.lower >= threshold)
    witnesses = np.flatnonzero(prev_ergodic)
    dist = mdp.distances(witnesses, np.arange(mdp.num_states))
    bound = bands.lower[witnesses][:, None] - mode.lipschitz * dist
    return prev_ergodic | (bound >= threshold).any(axis=0)


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

    Returns the expander mask together with per-state counts of outside
    states ``s'`` satisfying ``upper(s) - lipschitz * d(s, s') >= threshold``.
    """
    ergodic = np.asarray(ergodic, dtype=bool)
    safe = np.asarray(safe, dtype=bool)
    counts = np.zeros(mdp.num_states, dtype=int)
    inside = np.flatnonzero(ergodic)
    outside = np.flatnonzero(~safe)
    if inside.size and outside.size:
        dist = mdp.distances(inside, outside)
        bound = bands.upper[inside][:, None] - lipschitz * dist
        counts[inside] = (bound >= threshold).sum(axis=1)
    return counts > 0, counts


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
                      mode: ClassifierMode, expander_lipschitz: float) -> SafeSets:
    """One full classification round, as used per exploration iteration."""
    safe = classify_safe(mdp, bands, prev_ergodic, threshold, mode)
    ergodic = ergodic_safe(mdp, safe, prev_ergodic)
    mask, _ = expanders(mdp, ergodic, safe, bands, expander_lipschitz, threshold)
    return SafeSets(safe, ergodic, mask, bands.width())
