"""Command-line interface: run experiments, compute oracles, make terrain.

``safemdp explore CONFIG`` runs one exploration strategy on a terrain
environment for one or more seeds and writes, per seed, ``trace.csv``,
``snapshots.csv``, ``metrics.txt`` and ``manifest.txt``.  ``safemdp oracle
CONFIG`` writes the exact safely-explorable sets for the same environment,
and ``safemdp synth`` writes a synthetic terrain grid as an ESRI ASCII file.

Configs are flat INI files; every section and key is schema-checked and
unknown ones are rejected.  Exit codes: 0 on success (a safety violation is
a reported result, not a failure), 1 on runtime errors, 2 on config errors.
Relative output directories resolve against ``$SAFEMDP_OUT`` when that
variable is set.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .explorer import (
    STRATEGIES,
    ConfigError,
    ExplorationTrace,
    ExplorerConfig,
    run_safemdp,
)
from .gp import KERNEL_KINDS, Kernel
from .reach import r_eps_fixpoint
from .terrain import (
    CraterHill,
    CraterHillParams,
    EsriAsciiError,
    GP_SAMPLE_MAX_CELLS,
    GpSample,
    HeightGpBandModel,
    TerrainEnvironment,
    TerrainGrid,
    TerrainSafetySpec,
    build_terrain_environment,
    difference_band_model,
    dump_esri_ascii,
    height_gp,
    load_esri_ascii,
    seed_pocket,
    synth_terrain,
)

OUTPUT_ROOT_ENV = "SAFEMDP_OUT"

TRACE_HEADER = "t,target,width,path_length,observation,safe_size,ergodic_size,expander_size"
SNAPSHOT_HEADER = "t,safe,ergodic,expanders"
ORACLE_HEADER = "state,in_r_eps,in_r_zero"


@dataclass
class Metrics:
    """Per-run summary written to ``metrics.txt``."""

    coverage_fraction: float
    violation_step: int | None
    iterations: int
    agent_steps: int
    terminal_reason: str
    band_collapses: int
    oracle_eps_size: int
    oracle_zero_size: int


# ---------------------------------------------------------------------------
# config schema

REQUIRED = object()


def _always(values) -> bool:
    return True


@dataclass(frozen=True)
class Field:
    """One config key.

    ``parse(name, text)`` turns the text given for ``section.key`` into its
    value, or raises :class:`ConfigError` naming the key.  ``when(values)``
    decides from the keys parsed before this one whether it applies; a key
    that does not apply is rejected as unknown and its value is ``None``.
    """

    section: str
    key: str
    parse: Callable[[str, str], Any]
    default: Any = REQUIRED
    when: Callable[[dict], bool] = _always


#: Range checks for :func:`_number`: what the value must be, and the test.
_POSITIVE = ("positive", lambda v: v > 0)
_NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
_ANGLE = ("strictly between 0 and 90 degrees", lambda v: 0 < v < 90)


def _number(kind, bound=None):
    """Parser for an integer (``kind=int``) or a finite float in ``bound``."""
    expected = "an integer" if kind is int else "a number"

    def parse(name, text):
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{name}: expected {expected}, got {text!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {text!r}")
        if bound is not None and not bound[1](value):
            raise ConfigError(f"{name}: must be {bound[0]}, got {text!r}")
        return value
    return parse


def _text(name, text):
    return text


def _choice(*options):
    def parse(name, text):
        if text not in options:
            raise ConfigError(f"{name}: expected one of {sorted(options)}, got {text!r}")
        return text
    return parse


def _seeds(name, text):
    try:
        seeds = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{name}: expected whitespace-separated integers") from None
    if not seeds:
        raise ConfigError(f"{name}: needs at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"{name}: seeds must be non-negative")
    return seeds


def _dem(values):
    return values["source"] == "dem"


def _synth(values):
    return values["source"] == "synth"


def _crater_hill(values):
    return values["kind"] == "crater-hill"


_RADII = ("hill_radius", "crater_radius")

#: Every config key, in the order they are parsed and written to
#: ``manifest.txt``.  A ``when`` condition reads only keys above it.
SCHEMA = (
    Field("terrain", "source", _choice("synth", "dem")),
    Field("terrain", "terrain_seed", _number(int, _NON_NEGATIVE), 0),
    Field("terrain", "dem_path", _text, when=_dem),
    Field("terrain", "kind", _choice("crater-hill", "gp-sample"), when=_synth),
    Field("terrain", "rows", _number(int, _POSITIVE), when=_synth),
    Field("terrain", "cols", _number(int, _POSITIVE), when=_synth),
    Field("terrain", "cell_size", _number(float, _POSITIVE), when=_synth),
    *(Field("terrain", f.name, _number(float, _POSITIVE) if f.name in _RADII else _number(float),
            f.default, _crater_hill) for f in fields(CraterHillParams)),
    Field("safety", "conservative_slope_deg", _number(float, _ANGLE), 25.0),
    Field("gp", "kernel", _choice(*KERNEL_KINDS), "matern52"),
    Field("gp", "lengthscale", _number(float, _POSITIVE), 14.5),
    Field("gp", "prior_std", _number(float, _POSITIVE), 10.0),
    Field("gp", "noise_std", _number(float, _NON_NEGATIVE), 0.075),
    Field("explorer", "strategy", _choice(*STRATEGIES), "safemdp"),
    Field("explorer", "observation_model", _choice("difference", "heights"), "difference"),
    Field("explorer", "beta", _number(float, _POSITIVE), 2.0),
    # One classifier is left; configs and manifests still name it.
    Field("explorer", "mode", _choice("gp-direct"), "gp-direct"),
    Field("explorer", "lipschitz", _number(float, _NON_NEGATIVE), 1.0),
    Field("explorer", "epsilon", _number(float, _POSITIVE), 0.15),
    Field("explorer", "max_iterations", _number(int, _POSITIVE), 525),
    Field("explorer", "seed_row", _number(int)),
    Field("explorer", "seed_col", _number(int)),
    Field("explorer", "seeds", _seeds, (0,)),
    Field("output", "directory", _text),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description: one attribute per
    :data:`SCHEMA` key, ``None`` where the key does not apply, plus the
    library objects those values describe."""

    __annotations__ = {field.key: Any for field in SCHEMA}

    @property
    def safety(self) -> TerrainSafetySpec:
        return TerrainSafetySpec(self.conservative_slope_deg)

    @property
    def gp_kernel(self) -> Kernel:
        return _gp_kernel(self)


def _gp_kernel(values) -> Kernel:
    return Kernel(values.kernel, values.lengthscale, values.prior_std)


def _synth_grid(values) -> TerrainGrid:
    """The synthetic terrain ``values`` describe.  ``values`` holds the
    ``[terrain]`` and ``[gp]`` keys as attributes: an
    :class:`ExperimentConfig`, or the ``synth`` flags, which are named
    after them."""
    if values.kind == "gp-sample":
        kind = GpSample(_gp_kernel(values), values.terrain_seed)
    else:
        params = CraterHillParams(**{f.name: getattr(values, f.name)
                                     for f in fields(CraterHillParams)})
        kind = CraterHill(params, values.terrain_seed)
    return synth_terrain(kind, values.rows, values.cols, values.cell_size)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"config file {path} is not valid INI: {exc}") from None

    texts = {field.section: {} for field in SCHEMA}
    for section in parser.sections():
        if section not in texts:
            raise ConfigError(f"unknown config section [{section}]")
        texts[section] = dict(parser[section])

    values = {}
    for field in SCHEMA:
        name = f"{field.section}.{field.key}"
        given = texts[field.section]
        if not field.when(values):
            values[field.key] = None
        elif field.key in given:
            values[field.key] = field.parse(name, given.pop(field.key))
        elif field.default is REQUIRED:
            raise ConfigError(f"missing required config field {name}")
        else:
            values[field.key] = field.default
    for section, unknown in texts.items():
        for key in unknown:
            raise ConfigError(f"unknown config field {section}.{key}")

    _check_cell_count(values["kind"], values["rows"], values["cols"], "terrain.rows/terrain.cols")
    return ExperimentConfig(**values)


def _check_cell_count(kind, rows, cols, name):
    """Reject a gp-sample grid over :data:`GP_SAMPLE_MAX_CELLS` cells with a
    :class:`ConfigError` naming ``name``."""
    if kind == "gp-sample" and rows * cols > GP_SAMPLE_MAX_CELLS:
        raise ConfigError(f"{name}: gp-sample terrain is limited to {GP_SAMPLE_MAX_CELLS} "
                          f"cells, got {rows}x{cols} = {rows * cols}")


def build_grid(cfg: ExperimentConfig) -> TerrainGrid:
    if cfg.source == "dem":
        try:
            with open(cfg.dem_path) as handle:
                grid = load_esri_ascii(handle)
        except FileNotFoundError:
            raise ConfigError(f"terrain.dem_path: file {cfg.dem_path!r} does not exist") from None
        except EsriAsciiError as exc:
            raise ConfigError(f"terrain.dem_path: {cfg.dem_path!r}: {exc}") from None
        if grid.nodata_mask.all():
            raise ConfigError(f"terrain.dem_path: {cfg.dem_path!r} has no cells with data")
        return grid
    return _synth_grid(cfg)


def _seed_mask(aug, grid, cfg):
    valid = ~grid.nodata_mask
    cell = cfg.seed_row * grid.cols + cfg.seed_col
    if not (0 <= cfg.seed_row < grid.rows and 0 <= cfg.seed_col < grid.cols):
        raise ConfigError(
            f"explorer.seed_row/seed_col: cell ({cfg.seed_row}, {cfg.seed_col}) "
            f"is outside the {grid.rows}x{grid.cols} grid")
    if not valid[cell]:
        raise ConfigError(
            f"explorer.seed_row/seed_col: cell ({cfg.seed_row}, {cfg.seed_col}) has no data")
    return seed_pocket(aug, int(np.searchsorted(np.flatnonzero(valid), cell)))


def _band_model(cfg, aug, seed, threshold):
    # seed and threshold are unused (the run builds its bands); perfbench still passes them.
    if cfg.observation_model == "heights":
        return HeightGpBandModel(height_gp(aug, cfg.gp_kernel, cfg.noise_std), aug, cfg.beta)
    return difference_band_model(aug, cfg.gp_kernel, cfg.noise_std, cfg.beta)


def _explorer_config(cfg: ExperimentConfig, seed_mask) -> ExplorerConfig:
    return ExplorerConfig(
        lipschitz=cfg.lipschitz, epsilon=cfg.epsilon, max_iterations=cfg.max_iterations,
        seed_set=seed_mask)


def resolve_output_dir(out_dir: str) -> Path:
    path = Path(out_dir)
    if not path.is_absolute():
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            path = Path(root) / path
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def write_trace_csv(trace: ExplorationTrace, path: Path) -> None:
    lines = [TRACE_HEADER]
    for t, rec in enumerate(trace.records, start=1):
        lines.append(",".join([
            str(t), str(rec.target), _fmt(rec.width_at_target),
            str(len(rec.path)), _fmt(rec.observation),
            str(int(rec.sets.safe.sum())), str(int(rec.sets.ergodic.sum())),
            str(int(rec.sets.expanders.sum())),
        ]))
    path.write_text("\n".join(lines) + "\n")


def _bits(mask) -> str:
    return (np.asarray(mask, dtype=np.uint8) + ord("0")).tobytes().decode()


def write_snapshots_csv(trace: ExplorationTrace, path: Path) -> None:
    lines = [SNAPSHOT_HEADER]
    for t, rec in enumerate(trace.records, start=1):
        lines.append(",".join([str(t), _bits(rec.sets.safe), _bits(rec.sets.ergodic),
                               _bits(rec.sets.expanders)]))
    path.write_text("\n".join(lines) + "\n")


def compute_metrics(trace: ExplorationTrace, oracle_eps, oracle_zero) -> Metrics:
    eps_size = int(oracle_eps.sum())
    covered = int((trace.final_sets.ergodic & oracle_eps).sum())
    return Metrics(
        coverage_fraction=covered / eps_size if eps_size else 0.0,
        violation_step=trace.violation_step,
        iterations=trace.iterations,
        agent_steps=trace.agent_steps,
        terminal_reason=trace.terminal_reason,
        band_collapses=trace.final_bands.collapses,
        oracle_eps_size=eps_size,
        oracle_zero_size=int(oracle_zero.sum()),
    )


def write_metrics(metrics: Metrics, path: Path) -> None:
    lines = []
    for f in fields(Metrics):
        value = getattr(metrics, f.name)
        lines.append(f"{f.name}: {'' if value is None else _fmt(value)}")
    path.write_text("\n".join(lines) + "\n")


def write_manifest(cfg: ExperimentConfig, seed: int, path: Path) -> None:
    """Write ``cfg`` as a config file that reproduces the run of ``seed``."""
    out = configparser.ConfigParser()
    for field in SCHEMA:
        value = seed if field.key == "seeds" else getattr(cfg, field.key)
        if value is None:
            continue
        if not out.has_section(field.section):
            out.add_section(field.section)
        out[field.section][field.key] = _fmt(value)
    with open(path, "w") as handle:
        out.write(handle)


def _prepare(config_path: str):
    """What both commands build first: the config, the augmented MDP with
    its environment, the seed mask, and the oracle masks for ``epsilon``
    and for zero."""
    cfg = load_experiment_config(config_path)
    grid = build_grid(cfg)
    aug, env = build_terrain_environment(grid, cfg.safety, cfg.noise_std, 0)
    seed_mask = _seed_mask(aug, grid, cfg)
    oracle = tuple(r_eps_fixpoint(aug, seed_mask, env.true_safety, eps, cfg.lipschitz,
                                  env.threshold) for eps in (cfg.epsilon, 0.0))
    return cfg, aug, env, seed_mask, oracle


def cmd_explore(config_path: str) -> int:
    """Run the configured strategy for every seed and write its artifacts."""
    cfg, aug, env, seed_mask, oracle = _prepare(config_path)
    # The seed pocket is declared safe unmeasured; an unsafe state in it
    # breaks the safety promise before the first step.
    unsafe = int(np.count_nonzero(seed_mask & (env.true_safety < env.threshold)))
    if unsafe:
        raise ConfigError(
            f"explorer.seed_row/seed_col: the seed pocket of cell ({cfg.seed_row}, "
            f"{cfg.seed_col}) holds {unsafe} unsafe state(s), transitions steeper than "
            f"safety.conservative_slope_deg; choose a flatter start cell")
    out_root = resolve_output_dir(cfg.directory)
    for seed in cfg.seeds:
        env = TerrainEnvironment(env.true_safety, env.threshold, cfg.noise_std, seed,
                                 env.base_heights)
        band_model = _band_model(cfg, aug, seed_mask, env.threshold)
        trace = run_safemdp(aug, env, _explorer_config(cfg, seed_mask), band_model,
                            cfg.strategy)
        run_dir = out_root / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(trace, run_dir / "trace.csv")
        write_snapshots_csv(trace, run_dir / "snapshots.csv")
        write_metrics(compute_metrics(trace, *oracle), run_dir / "metrics.txt")
        write_manifest(cfg, seed, run_dir / "manifest.txt")
        print(f"wrote {run_dir}")
    return 0


def cmd_oracle(config_path: str) -> int:
    """Write exact safely-explorable sets for the configured environment."""
    cfg, aug, _, _, (oracle_eps, oracle_zero) = _prepare(config_path)
    out_root = resolve_output_dir(cfg.directory)
    out_root.mkdir(parents=True, exist_ok=True)
    lines = [ORACLE_HEADER]
    for s in range(aug.num_states):
        lines.append(f"{s},{int(oracle_eps[s])},{int(oracle_zero[s])}")
    path = out_root / "oracle.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_synth(args) -> int:
    """Synthesize terrain from command-line flags and write an .asc file."""
    _check_cell_count(args.kind, args.rows, args.cols, "--rows/--cols")
    grid = _synth_grid(args)
    out = resolve_output_dir(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dump_esri_ascii(grid))
    print(f"wrote {out}")
    return 0


def _add_flag(parser, flag, key, **kwargs):
    """Add the ``synth`` flag for the config key ``key``.  It is parsed by
    the key's :data:`SCHEMA` parser, so a bad value exits 2 naming the flag,
    and defaults to the key's default, if it has one."""
    field = next(field for field in SCHEMA if field.key == key)

    def convert(text):
        try:
            return field.parse(key, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc).removeprefix(f"{key}: ")) from None
    if field.default is not REQUIRED:
        kwargs.setdefault("default", field.default)
    parser.add_argument(flag, type=convert, dest=key, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safemdp",
                                     description="Safe exploration of terrain MDPs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_explore = sub.add_parser("explore", help="run an exploration experiment")
    p_explore.add_argument("config", help="path to an INI experiment config")

    p_oracle = sub.add_parser("oracle", help="compute exact safely-explorable sets")
    p_oracle.add_argument("config", help="path to an INI experiment config")

    p_synth = sub.add_parser("synth", help="write synthetic terrain as ESRI ASCII")
    _add_flag(p_synth, "--kind", "kind", default="crater-hill")
    _add_flag(p_synth, "--rows", "rows", required=True)
    _add_flag(p_synth, "--cols", "cols", required=True)
    _add_flag(p_synth, "--cell-size", "cell_size", default=1.0)
    _add_flag(p_synth, "--seed", "terrain_seed")
    p_synth.add_argument("--out", required=True, help="output .asc path")
    _add_flag(p_synth, "--kernel", "kernel")
    _add_flag(p_synth, "--lengthscale", "lengthscale")
    _add_flag(p_synth, "--prior-std", "prior_std")
    for f in fields(CraterHillParams):
        _add_flag(p_synth, f"--{f.name.replace('_', '-')}", f.name)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "explore":
            return cmd_explore(args.config)
        if args.command == "oracle":
            return cmd_oracle(args.config)
        return cmd_synth(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
