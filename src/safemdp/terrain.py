"""Terrain grids and the slope-safety environment built on them.

A rover on a height map fails when it climbs too steep a slope, so safety is
a property of transitions rather than cells: moving from cell ``s`` to cell
``s'`` has safety feature ``H(s) - H(s')`` and is safe when that drop stays
above ``-cell_size * tan(conservative_slope)``.  The grid MDP is therefore
augmented with one action-state per transition and the GP models height
*differences* directly, via the covariance that a GP over heights induces on
them.  Stay actions and original cells have a height difference of exactly
zero, so they are always safe and never constrain exploration.

The module also reads and writes ESRI ASCII grids and synthesizes test
terrain, either as an exact draw from a kernel or as a parametric
crater-and-hill surface.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .explorer import Environment, GpBandModel
from .gp import (
    VARIANCE_FLOOR,
    ConfidenceBands,
    GpError,
    GpModel,
    Kernel,
    StationaryCovariance,
    point_ids,
    update_bands,
)
from .mdp import AugmentedMdp, augment, grid_mdp

#: Exact GP draws factorize a dense covariance over all cells; refuse grids
#: where that stops being a desk-scale operation.
GP_SAMPLE_MAX_CELLS = 2500

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class EsriAsciiError(ValueError):
    """Malformed ESRI ASCII grid; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class TerrainGrid:
    """Row-major height map; row 0 is the northernmost row.

    ``nodata_mask`` flags cells without a height; they get no MDP state.
    """

    rows: int
    cols: int
    cell_size: float
    heights: np.ndarray
    nodata_mask: np.ndarray
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    nodata_value: float = -9999.0

    def __post_init__(self):
        self.heights = np.asarray(self.heights, dtype=float).reshape(self.rows * self.cols)
        self.nodata_mask = np.asarray(self.nodata_mask, dtype=bool).reshape(self.rows * self.cols)
        if not 0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size!r}")


def load_esri_ascii(source) -> TerrainGrid:
    """Parse an ESRI ASCII grid from a string, bytes or text stream.

    The header keys are matched case-insensitively and ``NODATA_value`` may
    be omitted (defaulting to -9999).  Parse problems, including a grid
    value that is neither finite nor ``NODATA_value``, raise
    :class:`EsriAsciiError` with the line number.
    """
    if isinstance(source, bytes):
        source = source.decode()
    if isinstance(source, str):
        source = io.StringIO(source)
    header: dict[str, float] = {}
    data: list[float] = []
    data_line_of: list[int] = []
    for lineno, raw in enumerate(source, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        key = tokens[0].lower()
        if not data and key in _HEADER_KEYS:
            if len(tokens) != 2:
                raise EsriAsciiError(f"header key {tokens[0]!r} needs exactly one value", lineno)
            if key in header:
                raise EsriAsciiError(f"duplicate header key {tokens[0]!r}", lineno)
            try:
                header[key] = float(tokens[1])
            except ValueError:
                raise EsriAsciiError(f"header value {tokens[1]!r} is not a number", lineno) from None
            if key == "cellsize" and not 0 < header[key] < math.inf:
                raise EsriAsciiError(f"cellsize must be positive and finite, got {tokens[1]!r}",
                                     lineno)
            continue
        for tok in tokens:
            try:
                data.append(float(tok))
            except ValueError:
                raise EsriAsciiError(f"grid value {tok!r} is not a number", lineno) from None
            data_line_of.append(lineno)

    for key in ("ncols", "nrows", "cellsize"):
        if key not in header:
            raise EsriAsciiError(f"missing header key {key!r}")
    cols = int(header["ncols"])
    rows = int(header["nrows"])
    if cols < 1 or rows < 1 or cols != header["ncols"] or rows != header["nrows"]:
        raise EsriAsciiError("ncols and nrows must be positive integers")
    if len(data) != rows * cols:
        line = data_line_of[-1] if data_line_of else None
        raise EsriAsciiError(
            f"expected {rows * cols} grid values ({rows} rows x {cols} cols), got {len(data)}",
            line,
        )
    nodata = header.get("nodata_value", -9999.0)
    heights = np.asarray(data)
    mask = np.isnan(heights) if math.isnan(nodata) else heights == nodata
    bad = np.flatnonzero(~(mask | np.isfinite(heights)))
    if bad.size:
        raise EsriAsciiError(f"grid value {data[bad[0]]!r} is not finite",
                             data_line_of[bad[0]])
    return TerrainGrid(rows, cols, float(header["cellsize"]), heights, mask,
                       xllcorner=header.get("xllcorner", 0.0),
                       yllcorner=header.get("yllcorner", 0.0),
                       nodata_value=nodata)


def dump_esri_ascii(grid: TerrainGrid) -> str:
    """Serialize ``grid`` so that :func:`load_esri_ascii` round-trips it."""
    heights = grid.heights.copy()
    heights[grid.nodata_mask] = grid.nodata_value
    lines = [
        f"ncols {grid.cols}",
        f"nrows {grid.rows}",
        f"xllcorner {grid.xllcorner:.6f}",
        f"yllcorner {grid.yllcorner:.6f}",
        f"cellsize {grid.cell_size!r}",
        f"NODATA_value {grid.nodata_value!r}",
    ]
    for r in range(grid.rows):
        row = heights[r * grid.cols:(r + 1) * grid.cols]
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GpSample:
    """Synthesize terrain as one exact draw from ``kernel``'s prior."""

    kernel: Kernel
    seed: int = 0


@dataclass(frozen=True)
class CraterHillParams:
    """Parametric surface: tilted plane + Gaussian hill - Gaussian crater.

    Centers and radii are in cell units, heights and depths in meters.
    ``roughness`` adds seeded i.i.d. Gaussian noise to every cell, which
    gives fixture variety across seeds without changing the large shapes.
    """

    base_height: float = 0.0
    tilt_row: float = 0.0
    tilt_col: float = 0.0
    hill_row: float = 0.0
    hill_col: float = 0.0
    hill_height: float = 0.0
    hill_radius: float = 1.0
    crater_row: float = 0.0
    crater_col: float = 0.0
    crater_depth: float = 0.0
    crater_radius: float = 1.0
    roughness: float = 0.0

    def __post_init__(self):
        if not (0 < self.hill_radius < math.inf and 0 < self.crater_radius < math.inf):
            raise ValueError(f"hill_radius and crater_radius must be positive and finite, "
                             f"got {self.hill_radius!r} and {self.crater_radius!r}")


@dataclass(frozen=True)
class CraterHill:
    params: CraterHillParams = field(default_factory=CraterHillParams)
    seed: int = 0


SynthKind = Union[GpSample, CraterHill]


def synth_terrain(kind: SynthKind, rows: int, cols: int, cell_size: float) -> TerrainGrid:
    """Deterministically synthesize a ``rows`` x ``cols`` height map."""
    if rows < 1 or cols < 1:
        raise ValueError("terrain must have at least one row and one column")
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be positive and finite, got {cell_size!r}")
    rr, cc = np.divmod(np.arange(rows * cols), cols)
    if isinstance(kind, GpSample):
        if rows * cols > GP_SAMPLE_MAX_CELLS:
            raise ValueError(
                f"GpSample terrain is limited to {GP_SAMPLE_MAX_CELLS} cells, got {rows * cols}"
            )
        # The prior is the one C x C array the draw fills; adding the jitter
        # in place keeps every bit of the off-diagonal, as x + 0.0 == x.
        # np.linalg.cholesky copies it and returns the factor, so those
        # three arrays are the draw's peak.
        coords = np.stack([rr, cc], axis=1) * cell_size
        prior = StationaryCovariance(kind.kernel, coords).fill_rows(
            np.arange(rows * cols), np.empty((rows * cols, rows * cols)))
        prior[np.diag_indices_from(prior)] += 1e-10
        chol = np.linalg.cholesky(prior)
        rng = np.random.default_rng(kind.seed)
        heights = chol @ rng.standard_normal(rows * cols)
    elif isinstance(kind, CraterHill):
        p = kind.params
        heights = (p.base_height
                   + p.tilt_row * rr * cell_size
                   + p.tilt_col * cc * cell_size)
        if p.hill_height:
            d2 = (rr - p.hill_row) ** 2 + (cc - p.hill_col) ** 2
            heights = heights + p.hill_height * np.exp(-0.5 * d2 / p.hill_radius**2)
        if p.crater_depth:
            d2 = (rr - p.crater_row) ** 2 + (cc - p.crater_col) ** 2
            heights = heights - p.crater_depth * np.exp(-0.5 * d2 / p.crater_radius**2)
        if p.roughness:
            rng = np.random.default_rng(kind.seed)
            heights = heights + p.roughness * rng.standard_normal(rows * cols)
    else:
        raise TypeError(f"unknown terrain kind {type(kind).__name__}")
    return TerrainGrid(rows, cols, cell_size, heights, np.zeros(rows * cols, dtype=bool))


@dataclass(frozen=True)
class TerrainSafetySpec:
    """Slope limit of the rover.

    A transition is safe when it climbs no more steeply than
    ``conservative_slope_deg``: the safety threshold on height differences
    is ``-cell_size * tan(conservative_slope_deg)``, and both the
    classifier and the violation check read it.
    """

    conservative_slope_deg: float = 25.0

    def __post_init__(self):
        if not 0 < self.conservative_slope_deg < 90:
            raise ValueError("need 0 < conservative_slope_deg < 90")

    def safety_threshold(self, cell_size: float) -> float:
        return -cell_size * math.tan(math.radians(self.conservative_slope_deg))


class TerrainEnvironment(Environment):
    """Environment over an augmented terrain MDP that can also serve noisy
    height measurements (used by the measured-heights observation model)."""

    def __init__(self, true_safety, threshold, noise_std, rng_seed, base_heights):
        super().__init__(true_safety, threshold, noise_std, rng_seed)
        self.base_heights = np.asarray(base_heights, dtype=float)

    def observe_height(self, base_state: int) -> float:
        return float(self.base_heights[base_state] + self.noise_std * self._rng.standard_normal())


def build_terrain_environment(grid: TerrainGrid, spec: TerrainSafetySpec, noise_std: float,
                              rng_seed: int) -> tuple[AugmentedMdp, TerrainEnvironment]:
    """Augmented MDP plus simulated environment for a terrain grid.

    Cells flagged as missing data are dropped from the state space.  The
    safety feature of every augmented state is the height drop of its
    transition — zero for original cells and stay actions, which therefore
    never violate nor constrain the safe set.
    """
    valid = ~grid.nodata_mask
    base = grid_mdp(grid.rows, grid.cols, grid.cell_size, valid=valid)
    aug = augment(base, half_step=grid.cell_size / 2.0)
    base_heights = grid.heights[valid]
    true_safety = base_heights[aug.owner] - base_heights[aug.landing]
    threshold = spec.safety_threshold(grid.cell_size)
    env = TerrainEnvironment(true_safety, threshold, noise_std, rng_seed, base_heights)
    return aug, env


def seed_pocket(aug: AugmentedMdp, base_state: int) -> np.ndarray:
    """Smallest mutually-returnable seed set around the cell ``base_state``,
    a state of ``aug.base`` (a cell's index among the cells with data).

    The cell itself, its action-states, the cells they move to, and those
    cells' action-states that lead straight back.  A bare cell would leave
    the difference model with nothing of nonzero width to target, so
    exploration could never leave it.
    """
    seed = np.zeros(aug.num_states, dtype=bool)
    seed[base_state] = True
    for _, move in aug.actions_of(base_state):
        neighbour = aug.landing[move]
        seed[[move, neighbour]] = True
        for _, back in aug.actions_of(neighbour):
            if aug.landing[back] == base_state:
                seed[back] = True
    return seed


def height_covariance(aug: AugmentedMdp, kernel: Kernel) -> StationaryCovariance:
    """Kernel covariance between base cells, at metric (not cell) scale."""
    return StationaryCovariance(kernel, aug.base.metric.coords * aug.base.metric.cell_size)


class DifferenceCovariance:
    """Covariance that a GP over cell heights induces on height differences.

    Points are the ids of ``aug``'s states, ``num_points`` of them; each
    maps to its ``(owner, landing)`` cell pair and covariances expand to the
    four-term combination ``k(s,u) - k(s,u') - k(s',u) + k(s',u')``.
    Original states map to the degenerate pair ``(s, s)`` and so have zero
    variance — their "height difference" is identically zero.  Ids and
    lengths are checked as :class:`StationaryCovariance` checks them.

    ``representatives`` maps every action-state of a move (``aug.move_of``)
    to the move's lowest action-state, with sign -1.0 where its direction
    is the reverse of that one's, as ``h(u) - h(v) = -(h(v) - h(u))``, and
    +1.0 otherwise.  So a move and its reverse share one representative,
    parallel moves share one with sign +1.0, and a move with no reverse, a
    stay action and every original state keep themselves.
    """

    def __init__(self, height_cov: StationaryCovariance, aug: AugmentedMdp):
        self.height_cov = height_cov
        self.aug = aug
        rep = np.arange(aug.num_states)
        moving = aug.move_of >= 0
        rep[moving] = aug.move_first[aug.move_of[moving]]
        self._representatives = rep, np.where(aug.owner == aug.owner[rep], 1.0, -1.0)

    @property
    def num_points(self) -> int:
        return self.aug.num_states

    @property
    def representatives(self) -> tuple[np.ndarray, np.ndarray]:
        return self._representatives

    def matrix(self, a, b) -> np.ndarray:
        """``((k(oa, ob) - k(oa, lb)) - k(la, ob)) + k(la, lb)``, read from
        one height block between the owners then the landings of ``a`` and
        those of ``b``, so each distinct cell row is evaluated once."""
        a, b = point_ids(a, self.num_points), point_ids(b, self.num_points)
        owner, landing = self.aug.owner, self.aug.landing
        k = self.height_cov.matrix(np.concatenate([owner[a], landing[a]]),
                                   np.concatenate([owner[b], landing[b]]))
        na, nb = len(a), len(b)
        out = k[:na, :nb] - k[:na, nb:]
        out -= k[na:, :nb]
        out += k[na:, nb:]
        return out

    def pairwise(self, a, b) -> np.ndarray:
        """The same sum element by element, summed into the first term."""
        a, b = point_ids(a, self.num_points), point_ids(b, self.num_points)
        owner, landing = self.aug.owner, self.aug.landing
        oa, la, ob, lb = owner[a], landing[a], owner[b], landing[b]
        k = self.height_cov.pairwise
        out = k(oa, ob)
        out -= k(oa, lb)
        out -= k(la, ob)
        out += k(la, lb)
        return out


def difference_gp(aug: AugmentedMdp, kernel: Kernel, noise_std: float) -> GpModel:
    """Empty GP over augmented states with the induced difference kernel."""
    return GpModel(DifferenceCovariance(height_covariance(aug, kernel), aug), noise_std)


def height_gp(aug: AugmentedMdp, kernel: Kernel, noise_std: float) -> GpModel:
    """Empty GP over base cells, for the measured-heights observation model;
    its pairs are the cells of ``aug``'s moves (``aug.move_cells``)."""
    return GpModel(height_covariance(aug, kernel), noise_std, aug.move_cells.T)


def height_gp_to_difference_bands(height_model: GpModel, aug: AugmentedMdp, beta: float,
                                  prev: ConfidenceBands) -> ConfidenceBands:
    """Difference bands derived from a GP over cell heights.

    For the action-state of ``s -> s'`` the interval is centered on
    ``mean(s) - mean(s')`` with variance
    ``var(s) + var(s') - 2 cov(s, s')``, scaled by ``sqrt(beta)`` and
    intersected into ``prev``; a cell or a stay action has variance 0.  All
    of these come from one :meth:`GpModel.posterior_cov_pairs` call, which
    whitens the cells once and takes one dot product per move of ``aug``,
    the model's pairs; a model with another number of pairs raises
    :class:`ValueError`.  As in :meth:`GpModel.posterior`, variances are
    clamped at zero, and one below ``VARIANCE_FLOOR`` raises
    :class:`GpError`.
    """
    means, variances, cross = height_model.posterior_cov_pairs()
    if len(cross) != len(aug.move_cells):
        raise ValueError(f"the height model has {len(cross)} pairs for "
                         f"{len(aug.move_cells)} moves")
    low, high = aug.move_cells.T
    diff_mean = means[aug.owner] - means[aug.landing]
    # One variance per move, then the 0 that move_of's -1 reads.
    diff_var = np.append(variances[low] + variances[high] - 2.0 * cross, 0.0)[aug.move_of]
    low = diff_var.min(initial=0.0)
    if low < VARIANCE_FLOOR:
        raise GpError(f"difference variance {low:g} fell below the numerical floor")
    diff_var = np.maximum(diff_var, 0.0)
    return update_bands(prev, diff_mean, diff_var, beta)


class HeightGpBandModel(GpBandModel):
    """Band model that measures cell heights instead of differences.

    Visiting an action-state yields two noisy height measurements (of the
    transition's two cells); ``advance`` derives bands over augmented
    states from the height posterior via
    :func:`height_gp_to_difference_bands` and intersects them into the
    run's bands.
    """

    def __init__(self, height_model: GpModel, aug: AugmentedMdp, beta: float):
        super().__init__(height_model, beta)
        self.aug = aug

    def advance(self, prev: ConfidenceBands) -> ConfidenceBands:
        return height_gp_to_difference_bands(self.gp, self.aug, self.beta, prev)

    def measure(self, env: TerrainEnvironment, state: int) -> float:
        owner = int(self.aug.owner[state])
        landing = int(self.aug.landing[state])
        y_owner = env.observe_height(owner)
        self.gp.add_observation(owner, y_owner)
        if landing == owner:
            return 0.0
        y_landing = env.observe_height(landing)
        self.gp.add_observation(landing, y_landing)
        return y_owner - y_landing


def difference_band_model(aug: AugmentedMdp, kernel: Kernel, noise_std: float,
                          beta: float) -> GpBandModel:
    """Default observation model: a GP directly over height differences."""
    return GpBandModel(difference_gp(aug, kernel, noise_std), beta)
