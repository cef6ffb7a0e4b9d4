"""Safe-exploration loop and baseline strategies.

The explorer repeatedly tightens GP confidence bands, classifies the safe /
ergodic / expander sets, walks to the most uncertain expander along a path
through the safe set, and measures the safety feature there.  It stops
when the expanders run out, when their uncertainty falls below ``epsilon``,
or when the iteration cap is hit.  A simulated :class:`Environment` supplies
noisy measurements and checks — independently of what the agent believes —
that no truly unsafe state is ever visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .gp import ConfidenceBands, GpModel, initial_bands, point_ids, update_bands
from .mdp import Mdp
from .planner import NoPathError, PathPlan, shortest_safe_path
from .reach import r_reach, r_ret_fixpoint
from .safeset import (
    LastRound,
    SafeSets,
    acquisition_target,
    classify_safe,
    compute_safe_sets,
    expanders,
)

REASON_CONVERGED = "converged"
REASON_EXPANDERS_EMPTY = "expanders_empty"
REASON_MAX_ITERATIONS = "max_iterations"
REASON_VIOLATION = "violation"
REASON_STUCK = "stuck"

#: Seed-stream offset separating the random baseline's action draws from the
#: environment's observation noise.
_ACTION_STREAM = 7919


class ConfigError(ValueError):
    """Invalid exploration configuration."""


class Environment:
    """Simulated safety feature with seeded Gaussian observation noise.

    Parameters
    ----------
    true_safety : array_like
        The hidden feature value of every state.
    threshold : float
        Finite safety threshold; a visit to a state with
        ``true_safety < threshold`` is a violation.
    noise_std : float
        Finite, non-negative standard deviation of the observation noise.
    rng_seed : int
        Seed of the observation stream; equal seeds give identical runs.
    """

    def __init__(self, true_safety, threshold: float, noise_std: float, rng_seed: int):
        self.true_safety = np.asarray(true_safety, dtype=float)
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold!r}")
        self.threshold = float(threshold)
        if not 0 <= noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and non-negative, got {noise_std!r}")
        self.noise_std = float(noise_std)
        self.rng_seed = int(rng_seed)
        self._rng = np.random.default_rng(self.rng_seed)

    @property
    def num_states(self) -> int:
        return len(self.true_safety)

    def observe(self, state: int) -> float:
        """Noisy measurement of the safety feature at ``state``."""
        return float(self.true_safety[state] + self.noise_std * self._rng.standard_normal())

    def is_safe(self, state: int) -> bool:
        return bool(self.true_safety[state] >= self.threshold)


@dataclass
class ExplorerConfig:
    """Parameters of one exploration run.

    ``seed_set`` is the boolean mask of states known safe a priori: the
    run's lower bands start at the environment's threshold there, and the
    agent starts on its lowest id.  ``lipschitz`` is the expander test's
    Lipschitz constant.  ``epsilon`` is the accuracy at which an expander
    counts as resolved.
    """

    lipschitz: float
    epsilon: float
    max_iterations: int
    seed_set: np.ndarray


def check_beta(beta: float) -> float:
    """A confidence scale as a float; :class:`ValueError` unless positive and finite."""
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    return float(beta)


class GpBandModel:
    """Tightens the run's confidence bands with a GP over the working states.

    The model holds the GP, the confidence scale ``beta`` (intervals are
    ``mean +- sqrt(beta * variance)``) and the GP covariance's ``states``
    readout, read when it is made: per state, its ``point`` (-1 where the
    feature is exactly 0) and ``sign``.  The run owns the bands: each
    ``advance`` intersects the posterior intervals of all states, read
    through the readout, into the bands it is handed, and each ``measure``
    conditions the GP in place on ``sign * value`` at the state's point, or
    on nothing where it has none, so ``num_observations`` counts conditionings.
    """

    def __init__(self, gp: GpModel, beta: float):
        self.gp, self.beta = gp, check_beta(beta)
        self.point, self.sign = gp.cov.states

    def advance(self, prev: ConfidenceBands) -> ConfidenceBands:
        means, variances = self.gp.posterior()
        # Index -1 reads the appended 0: a state whose feature is exactly 0.
        means = np.append(means, 0.0)[self.point]
        means *= self.sign
        return update_bands(prev, means, np.append(variances, 0.0)[self.point], self.beta)

    def measure(self, env: Environment, state: int) -> float:
        """Check ``state``, take one measurement there, fold it into the GP."""
        point = self.point[point_ids(state, len(self.point))]
        value = env.observe(state)
        if point >= 0:
            self.gp.add_observation(point, self.sign[state] * value)
        return value


@dataclass
class IterationRecord:
    """What happened in one iteration: which state was targeted at which
    band width, the path walked, the measurement taken, and the safe-set
    snapshot used for the decision."""

    target: int
    width_at_target: float
    path: PathPlan
    observation: float
    sets: SafeSets


@dataclass
class ExplorationTrace:
    """Complete record of a run; ``final_bands`` are the bands of its last
    ``advance``."""

    records: list[IterationRecord]
    terminal_reason: str
    violation_step: int | None
    agent_steps: int
    final_sets: SafeSets
    final_bands: ConfidenceBands

    @property
    def iterations(self) -> int:
        return len(self.records)


def validate_config(mdp: Mdp, cfg: ExplorerConfig) -> None:
    """Raise :class:`ConfigError` unless ``cfg`` is usable on ``mdp``.

    Besides range checks this verifies that the seed states are mutually
    returnable inside the seed set — without that the agent could strand
    itself on its very first move.
    """
    seed = np.asarray(cfg.seed_set, dtype=bool)
    if seed.shape != (mdp.num_states,):
        raise ConfigError(f"seed_set must be a mask over {mdp.num_states} states")
    if not seed.any():
        raise ConfigError("seed_set must contain at least one state")
    if not 0 < cfg.epsilon < math.inf:
        raise ConfigError(f"epsilon must be positive and finite, got {cfg.epsilon!r}")
    if not isinstance(cfg.max_iterations, (int, np.integer)) or cfg.max_iterations < 1:
        raise ConfigError(f"max_iterations must be an integer of at least 1, "
                          f"got {cfg.max_iterations!r}")
    if not 0 <= cfg.lipschitz < math.inf:
        raise ConfigError(f"lipschitz must be non-negative and finite, got {cfg.lipschitz!r}")
    for s in np.flatnonzero(seed):
        target = np.zeros(mdp.num_states, dtype=bool)
        target[s] = True
        returnable = r_ret_fixpoint(mdp, seed, target, among=seed)
        if not returnable[seed].all():
            raise ConfigError(
                f"seed states are not mutually returnable within the seed set "
                f"(state {int(s)} is unreachable from part of the seed)"
            )


def run_safemdp(mdp: Mdp, env: Environment, cfg: ExplorerConfig, band_model: GpBandModel,
                strategy: str = "safemdp") -> ExplorationTrace:
    """Run the strategy named ``strategy``, one of :data:`STRATEGIES`, and
    return its trace.

    ``safemdp`` runs the algorithm itself.  ``no_expanders`` targets the
    most uncertain ergodic state instead of an expander; ``non_ergodic``
    drops the returnability requirement and may get stuck; ``unsafe``
    targets the most uncertain state anywhere and plans over the full MDP;
    ``random`` takes uniformly random actions and measures every state it
    lands on.  An unknown strategy raises :class:`ConfigError`.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {tuple(STRATEGIES)}")
    validate_config(mdp, cfg)
    if env.num_states != mdp.num_states:
        raise ConfigError("environment and MDP disagree on the number of states")
    seed = np.asarray(cfg.seed_set, dtype=bool)
    # The seed set is declared safe unmeasured; a truly unsafe state in it
    # breaks the safety promise before the first step.
    unsafe = np.flatnonzero(seed & (env.true_safety < env.threshold))
    if unsafe.size:
        raise ConfigError(f"{unsafe.size} seed state(s) are truly unsafe "
                          f"(first ids: {unsafe[:5].tolist()})")
    rules = STRATEGIES[strategy]
    current = int(np.flatnonzero(seed)[0])
    action_rng = np.random.default_rng([env.rng_seed, _ACTION_STREAM])

    records: list[IterationRecord] = []
    steps = 0
    violation_step = None
    reason = REASON_MAX_ITERATIONS
    bands = initial_bands(mdp.num_states, seed, env.threshold)
    # Each round classifies from the last round's ergodic set, the seed's first.
    sets = SafeSets(seed, seed, np.zeros_like(seed))
    last = LastRound()

    for _ in range(cfg.max_iterations):
        bands = band_model.advance(bands)
        sets = rules.classify(mdp, bands, sets.ergodic, env.threshold, cfg, last)

        widths = bands.width()
        try:
            plan = rules.plan(mdp, sets, widths, current, action_rng)
        except NoPathError:
            reason = REASON_STUCK
            break
        if plan is None:
            reason = REASON_EXPANDERS_EMPTY
            break
        target = plan.states[-1]
        width_at_target = float(widths[target])

        observation = np.nan
        for state in plan.states[1:]:
            steps += 1
            current = int(state)
            if not env.is_safe(current):
                violation_step = steps
                break
        else:
            observation = band_model.measure(env, target)
        records.append(IterationRecord(target, width_at_target, plan, observation, sets))

        if violation_step is not None:
            reason = REASON_VIOLATION
            break
        if rules.converges and width_at_target <= cfg.epsilon:
            reason = REASON_CONVERGED
            break

    if reason != REASON_VIOLATION:
        # The ergodic set grows by at most one reachability step per
        # iteration, so it lags behind the classified-safe set whenever the
        # run stops early.  With measuring over, the set recursion is pure
        # computation; finish it so the reported sets are its fixpoint.
        while True:
            ergodic = sets.ergodic
            sets = rules.classify(mdp, bands, ergodic, env.threshold, cfg, last)
            if np.array_equal(sets.ergodic, ergodic):
                break
    return ExplorationTrace(records, reason, violation_step, steps, sets, bands)


# ---------------------------------------------------------------------------
# strategies: their entries look library functions up as module globals at
# call time, so that a tracer that replaces them here sees every call.


@dataclass(frozen=True)
class Strategy:
    """What one strategy classifies, where it walks, and when it stops.

    ``classify(mdp, bands, prev_ergodic, threshold, cfg, last)`` returns
    the round's :class:`~safemdp.safeset.SafeSets`; ``last`` is the run's
    :class:`~safemdp.safeset.LastRound`.  ``plan(mdp, sets, widths,
    current, rng)``, given the round's band widths, returns the
    :class:`~safemdp.planner.PathPlan` to walk, ``None``
    when there is nothing left to target, or raises
    :class:`~safemdp.planner.NoPathError`.  A strategy that ``converges``
    stops once the width at its target is at most ``epsilon``.
    """

    classify: Callable
    plan: Callable
    converges: bool = True


def _classify(mdp, bands, prev_ergodic, threshold, cfg, last) -> SafeSets:
    return compute_safe_sets(mdp, bands, prev_ergodic, threshold, cfg.lipschitz, last)


def _classify_without_returnability(mdp, bands, prev_ergodic, threshold, cfg, last) -> SafeSets:
    """Safe states one step from the previous ergodic set stand in for the
    ergodic set; nothing checks that the agent can come back from them."""
    safe = classify_safe(bands, prev_ergodic, threshold)
    pseudo = safe & r_reach(mdp, prev_ergodic)
    mask, _ = expanders(mdp, pseudo, safe, bands, cfg.lipschitz, threshold)
    return SafeSets(safe, pseudo, mask)


def _everywhere(sets: SafeSets) -> np.ndarray:
    return np.ones_like(sets.safe)


def _walk_to(candidates, allowed):
    """Plan to the widest state of ``candidates(sets)`` along a shortest path
    inside ``allowed(sets)``."""
    def plan(mdp, sets, widths, current, rng):
        target = acquisition_target(candidates(sets), widths)
        if target is None:
            return None
        return shortest_safe_path(mdp, allowed(sets), current, target)
    return plan


def _random_step(mdp, sets, widths, current, rng) -> PathPlan:
    acts = mdp.actions_of(current)
    label, succ = acts[int(rng.integers(len(acts)))]
    return PathPlan([label], [current, succ])


_EXPANDERS = attrgetter("expanders")
_ERGODIC = attrgetter("ergodic")
# All but ``unsafe`` plan through the full safe set.  The returnability
# guarantee promises a route between any two ergodic states through safe
# states, not through ergodic ones, and the frontier of the ergodic set
# routinely lacks an ergodic continuation for one round.
_SAFE = attrgetter("safe")

#: Every strategy by name: the algorithm and its four flawed baselines.
STRATEGIES = {
    "safemdp": Strategy(_classify, _walk_to(_EXPANDERS, _SAFE)),
    "no_expanders": Strategy(_classify, _walk_to(_ERGODIC, _SAFE)),
    "non_ergodic": Strategy(_classify_without_returnability, _walk_to(_EXPANDERS, _SAFE)),
    "unsafe": Strategy(_classify, _walk_to(_everywhere, _everywhere)),
    "random": Strategy(_classify, _random_step, converges=False),
}
