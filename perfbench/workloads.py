"""Workload fixtures, the timed operations, and the output check.

Every workload is a closed loop in one process: one agent, and each
operation starts only after the previous one has returned.  The fixtures
are built with the same calls ``safemdp explore`` and ``safemdp oracle``
make (``cli.build_grid``, ``build_terrain_environment``, ``cli._seed_mask``,
``cli._band_model``, ``cli._explorer_config``), from the INI files in
``configs/``.  Every library function is looked up through its module at
call time, so the traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from safemdp import cli, explorer, reach, terrain
from tracing import null_span

HERE = Path(__file__).resolve().parent

#: Workload name -> (kind, config file).  The oracle runs on the
#: explore-diff fixture, as ``safemdp oracle`` would with the same file.
WORKLOADS = {
    "explore-diff": ("explore", "explore-diff.ini"),
    "explore-heights": ("explore", "explore-heights.ini"),
    "oracle": ("oracle", "explore-diff.ini"),
}

#: The oracle's untimed check fixture: a 5x5 terrain with unsafe
#: transitions and L=0.5, on which both fixpoints leave states out.  On the
#: timed fixture (L=0.2) the Lipschitz test admits every state, so its
#: masks are all-ones.
STEEP_CONFIG = HERE / "configs" / "steep-oracle.ini"

#: Relative tolerance on widths and observations against the reference,
#: taken against the largest magnitude in the reference sequence: an
#: observation near zero carries the rounding of the heights it is a
#: difference of, which changes with the BLAS thread count.
FLOAT_RTOL = 1e-8


def config_path(workload: str, smoke: bool) -> Path:
    name = WORKLOADS[workload][1]
    return HERE / "configs" / (f"smoke-{name}" if smoke else name)


def reference_path(workload: str, smoke: bool) -> Path:
    return HERE / "reference" / (f"smoke-{workload}.json" if smoke else f"{workload}.json")


def noise_seed(cfg, bench_seed: int, episode: int) -> int:
    """Noise seed of one episode: the run walks the pinned pool
    (``[explorer] seeds``) starting at ``bench_seed``."""
    pool = cfg.seeds
    return pool[(bench_seed + episode) % len(pool)]


@dataclass
class Fixture:
    """Everything built before the first timed call."""

    kind: str
    cfg: object
    grid: object
    aug: object
    env: object
    seed_mask: np.ndarray
    threshold: float
    band_model: object | None


def setup(workload: str, bench_seed: int, smoke: bool = False) -> Fixture:
    """Terrain synthesis, augmentation, environment and, for the explore
    workloads, the first episode's band model."""
    return build_fixture(WORKLOADS[workload][0], config_path(workload, smoke), bench_seed)


def build_fixture(kind: str, path: Path, bench_seed: int) -> Fixture:
    cfg = cli.load_experiment_config(path)
    grid = cli.build_grid(cfg)
    aug, env = terrain.build_terrain_environment(grid, cfg.safety, cfg.noise_std,
                                                 noise_seed(cfg, bench_seed, 0))
    seed_mask = cli._seed_mask(aug, grid, cfg)
    threshold = cfg.safety.safety_threshold(grid.cell_size)
    band_model = None
    if kind == "explore":
        band_model = cli._band_model(cfg, aug, seed_mask, threshold)
    return Fixture(kind, cfg, grid, aug, env, seed_mask, threshold, band_model)


def next_episode(fx: Fixture, bench_seed: int, episode: int) -> None:
    """Fresh environment and band model for ``episode``, built outside the
    timed region the way ``cmd_explore`` builds them for each seed."""
    _, fx.env = terrain.build_terrain_environment(fx.grid, fx.cfg.safety, fx.cfg.noise_std,
                                                  noise_seed(fx.cfg, bench_seed, episode))
    if fx.kind == "explore":
        fx.band_model = cli._band_model(fx.cfg, fx.aug, fx.seed_mask, fx.threshold)


@dataclass
class OpResult:
    """What one timed operation produced, for the check and the report."""

    seconds: float
    noise_seed: int | None
    iteration_ms: list
    outputs: dict
    iterations: int = 0
    observations: int = 0
    terminal_reason: str | None = None
    violation_step: int | None = None
    useful_iterations: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)


def _stamp_entries(fn, stamps):
    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)
    return stamped


def run_explore(fx: Fixture, out_dir: Path, oracle_masks, span) -> OpResult:
    """One episode: ``run_safemdp`` plus the four ``cli.write_*`` artifacts.

    The oracle masks that ``metrics.txt`` needs come from the pinned
    reference; the oracle itself is what the ``oracle`` workload times.
    Iteration latency is the time between consecutive ``advance`` entries
    on the band model passed in.
    """
    stamps: list[float] = []
    band_model = fx.band_model
    band_model.advance = _stamp_entries(band_model.advance, stamps)
    seed = fx.env.rng_seed
    run_dir = out_dir / f"seed_{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = [run_dir / name for name in
             ("trace.csv", "snapshots.csv", "metrics.txt", "manifest.txt")]

    start = time.perf_counter()
    trace = explorer.run_safemdp(fx.aug, fx.env, cli._explorer_config(fx.cfg, fx.seed_mask),
                                 band_model)
    with span("cli.write_artifacts"):
        cli.write_trace_csv(trace, paths[0])
        cli.write_snapshots_csv(trace, paths[1])
        cli.write_metrics(cli.compute_metrics(trace, *oracle_masks), paths[2])
        cli.write_manifest(fx.cfg, seed, paths[3])
    seconds = time.perf_counter() - start

    safe_sizes = [int(rec.sets.safe.sum()) for rec in trace.records]
    safe_sizes.append(int(trace.final_sets.safe.sum()))
    return OpResult(
        seconds=seconds,
        noise_seed=seed,
        iteration_ms=[1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
        outputs=explore_outputs(trace),
        iterations=trace.iterations,
        observations=band_model.gp.num_observations,
        terminal_reason=trace.terminal_reason,
        violation_step=trace.violation_step,
        useful_iterations=sum(b > a for a, b in zip(safe_sizes, safe_sizes[1:])),
        bytes_written=sum(p.stat().st_size for p in paths),
    )


def run_oracle(fx: Fixture, out_dir: Path, span) -> OpResult:
    """Both fixpoints plus ``oracle.csv``, as ``cmd_oracle`` computes them.

    Iteration latency is the duration of each ``r_eps`` application.  The
    size of the set after each application is kept for the check.
    """
    durations: list[float] = []
    results: list[np.ndarray] = []
    r_eps = reach.r_eps

    def timed_r_eps(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = r_eps(*args, **kwargs)
        finally:
            durations.append(1e3 * (time.perf_counter() - t0))
        results.append(result)
        return result

    cfg, truth = fx.cfg, fx.env.true_safety
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "oracle.csv"
    reach.r_eps = timed_r_eps
    try:
        start = time.perf_counter()
        oracle_eps = reach.r_eps_fixpoint(fx.aug, fx.seed_mask, truth, cfg.epsilon,
                                          cfg.lipschitz, fx.threshold)
        eps_applications = len(results)
        oracle_zero = reach.r_eps_fixpoint(fx.aug, fx.seed_mask, truth, 0.0,
                                           cfg.lipschitz, fx.threshold)
        with span("cli.write_artifacts"):
            lines = [cli.ORACLE_HEADER]
            for s in range(fx.aug.num_states):
                lines.append(f"{s},{int(oracle_eps[s])},{int(oracle_zero[s])}")
            path.write_text("\n".join(lines) + "\n")
        seconds = time.perf_counter() - start
    finally:
        reach.r_eps = r_eps
    sizes = [int(mask.sum()) for mask in results]
    outputs = oracle_outputs(path)
    outputs["r_eps_sizes"] = sizes[:eps_applications]
    outputs["r_zero_sizes"] = sizes[eps_applications:]
    return OpResult(seconds=seconds, noise_seed=None, iteration_ms=durations,
                    outputs=outputs, bytes_written=path.stat().st_size)


def checked_op(fx: Fixture, out_dir: Path, oracle_masks, span, reference) -> OpResult:
    """One operation plus its output check.  An operation that raises is a
    failed one; its traceback goes to standard error."""
    try:
        if fx.kind == "explore":
            op = run_explore(fx, out_dir, oracle_masks, span)
            ref = reference["episodes"].get(str(op.noise_seed))
            if ref is None:
                op.problems.append(f"no reference for noise seed {op.noise_seed}")
            else:
                op.problems += check_outputs(fx.kind, op.outputs, ref)
        else:
            op = run_oracle(fx, out_dir, span)
            op.problems += check_outputs(fx.kind, op.outputs, reference["outputs"])
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        op = _raised(exc)
    return op


def steep_oracle_check(out_dir: Path, reference) -> OpResult:
    """The oracle on :data:`STEEP_CONFIG`, checked against
    ``reference["steep"]``.  Untimed: it guards the reach layer where the
    timed fixture cannot, because there every state passes."""
    try:
        op = run_oracle(build_fixture("oracle", STEEP_CONFIG, 0), out_dir / "steep",
                        null_span)
        op.problems += [f"steep fixture: {p}"
                        for p in check_outputs("oracle", op.outputs, reference["steep"])]
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        op = _raised(exc)
    return op


def _raised(exc: Exception) -> OpResult:
    traceback.print_exc()
    return OpResult(seconds=math.nan, noise_seed=None, iteration_ms=[], outputs={},
                    problems=[f"{type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# output check


def explore_outputs(trace) -> dict:
    """The parts of an episode the reference pins."""
    recs = trace.records
    return {
        "terminal_reason": trace.terminal_reason,
        "violation_step": trace.violation_step,
        "targets": [int(r.target) for r in recs],
        "path_lengths": [len(r.path) for r in recs],
        "safe_sizes": [int(r.sets.safe.sum()) for r in recs],
        "ergodic_sizes": [int(r.sets.ergodic.sum()) for r in recs],
        "expander_sizes": [int(r.sets.expanders.sum()) for r in recs],
        "widths": [float(r.width_at_target) for r in recs],
        "observations": [None if math.isnan(r.observation) else float(r.observation)
                         for r in recs],
    }


def mask_digest(mask) -> str:
    return hashlib.sha256(np.packbits(np.asarray(mask, dtype=bool)).tobytes()).hexdigest()


def oracle_outputs(csv_path: Path) -> dict:
    """Digests of the two masks, read back from the written ``oracle.csv``."""
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    return {
        "in_r_eps_sha256": mask_digest(rows[:, 1]),
        "in_r_zero_sha256": mask_digest(rows[:, 2]),
        "in_r_eps_size": int(rows[:, 1].sum()),
        "in_r_zero_size": int(rows[:, 2].sum()),
    }


_EXACT_KEYS = ("violation_step", "targets", "path_lengths", "safe_sizes",
               "ergodic_sizes", "expander_sizes")
_FLOAT_KEYS = ("widths", "observations")


def _close_sequences(got, ref) -> bool:
    if len(got) != len(ref) or [g is None for g in got] != [r is None for r in ref]:
        return False
    scale = max((abs(r) for r in ref if r is not None), default=0.0)
    return all(abs(g - r) <= FLOAT_RTOL * scale
               for g, r in zip(got, ref) if r is not None)


def check_outputs(kind: str, got: dict, ref: dict) -> list[str]:
    """Mismatches of ``got`` against the pinned ``ref``; empty when it passes.

    Explore: integer sequences exactly, widths and observations within
    :data:`FLOAT_RTOL` of the sequence's largest magnitude, and the run
    must have converged.  Oracle: the two mask digests and sizes, and the
    size of the set after each ``r_eps`` application.
    """
    problems = []
    if kind == "oracle":
        for key, value in ref.items():
            if got.get(key) != value:
                problems.append(f"{key}: got {got.get(key)!r}, expected {value!r}")
        return problems
    if got["terminal_reason"] != "converged":
        problems.append(f"terminal_reason is {got['terminal_reason']!r}, not 'converged'")
    if got["terminal_reason"] != ref["terminal_reason"]:
        problems.append(f"terminal_reason: got {got['terminal_reason']!r}, "
                        f"expected {ref['terminal_reason']!r}")
    for key in _EXACT_KEYS:
        if got[key] != ref[key]:
            problems.append(f"{key} differs from the reference")
    for key in _FLOAT_KEYS:
        if not _close_sequences(got[key], ref[key]):
            problems.append(f"{key} differ from the reference beyond rtol {FLOAT_RTOL:g}")
    return problems


def load_reference(workload: str, smoke: bool) -> dict:
    with open(reference_path(workload, smoke)) as handle:
        return json.load(handle)


def unpack_mask(hex_bits: str, size: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(bytes.fromhex(hex_bits), dtype=np.uint8))[:size].astype(bool)


def pack_mask(mask) -> str:
    return np.packbits(np.asarray(mask, dtype=bool)).tobytes().hex()
