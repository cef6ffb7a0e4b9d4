"""Brute-force stand-ins for library pieces that only tests need.

``DenseMetric`` is a metric given by an explicit distance matrix, with
the two methods the library's metrics have: ``block`` and an ``envelope``
that takes the plain maximum over the witness rows.  ``step`` looks up a
deterministic successor by action label.
"""

import numpy as np


class DenseMetric:
    """Metric read from a dense ``N x N`` distance matrix."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def block(self, a, b) -> np.ndarray:
        return self.matrix[np.ix_(np.asarray(a, dtype=int), np.asarray(b, dtype=int))]

    def envelope(self, values, mask, lipschitz) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return np.full(len(mask), -np.inf)
        return (values[mask][:, None] - lipschitz * self.matrix[mask]).max(axis=0)


def step(mdp, s, a):
    """Successor of taking the action labelled ``a`` in state ``s``; a
    ``KeyError`` when ``s`` offers no such action."""
    return dict(mdp.actions_of(s))[a]
