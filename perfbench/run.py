"""safemdp benchmark: one workload, one closed-loop run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore-diff --seed 0 --seconds 25 --trace 0

``--trace 0`` times the operations with tracing off and reports the
end-to-end metrics; ``--trace 1`` wraps the library's public functions and
reports per-layer metrics instead.  ``--smoke`` swaps in tiny fixtures.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's context.  Spans, artifacts and a copy of the result go to
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads to the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up is measured in this many fresh interpreters per run; the median
#: is reported.
SETUP_PROBES = 5

#: Every run times at least this many operations, so that the iteration
#: latency p90 of the oracle (80 ``r_eps`` applications per operation) has
#: at least ten samples beyond it.
MIN_OPS = 2


class SourceMissing(RuntimeError):
    """The checkout holds no importable ``src/safemdp``."""


def import_library():
    """Import ``safemdp`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "safemdp" / "__init__.py").is_file():
        raise SourceMissing(f"no safemdp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import safemdp

    if Path(safemdp.__file__).resolve().parent != (SRC / "safemdp").resolve():
        raise SourceMissing(f"safemdp was imported from {safemdp.__file__}, not {SRC}")
    return safemdp


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore-diff", "explore-heights", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fixtures, for self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: build the fixture, print the clock, exit")
    return parser.parse_args(argv)


def quantile(values, q):
    """``q``-quantile by linear interpolation between order statistics."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_probe(args) -> int:
    import_library()
    import workloads

    workloads.setup(args.workload, args.seed, args.smoke)
    print(time.monotonic())
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def context(args, num_states, checked, safemdp) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "safemdp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    failed = sum(1 for r in checked if r.problems)
    return {
        "workload": args.workload, "workload_seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "commit": commit, "src_sha256": digest.hexdigest(), "num_states": num_states,
        "operations": [{"noise_seed": r.noise_seed,
                        "run_s": r.seconds if math.isfinite(r.seconds) else None,
                        "iterations": r.iterations, "observations": r.observations,
                        "terminal_reason": r.terminal_reason,
                        "violation_step": r.violation_step, "problems": r.problems}
                       for r in checked],
        "failed_fraction": failed / len(checked),
        "nproc": NPROC, "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "python": sys.version.split()[0], "safemdp": safemdp.__version__,
    }


def run(args) -> int:
    safemdp = import_library()
    import tracing
    import workloads

    reference = workloads.load_reference(args.workload, args.smoke)
    setup_times = [] if args.trace else measure_setup(args)

    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer) if tracer else (lambda: None)
    span = tracer.span if tracer else tracing.null_span
    results, latencies, untraced = [], [], []
    try:
        with span(tracing.SETUP):
            fx = workloads.setup(args.workload, args.seed, args.smoke)
        out_dir = OUT / "artifacts" / f"{'smoke-' if args.smoke else ''}{args.workload}"
        oracle_masks = None
        if fx.kind == "explore":
            n = fx.aug.num_states
            oracle_masks = (workloads.unpack_mask(reference["oracle_eps_hex"], n),
                            workloads.unpack_mask(reference["oracle_zero_hex"], n))

        def op(span):
            return workloads.checked_op(fx, out_dir, oracle_masks, span, reference)

        # Episode 0 runs untraced first, to warm up: the first operation in a
        # process is several per cent slower than the ones after it.  A
        # traced run then times it untraced once more; its traced repeat
        # below has the same inputs, and the difference is the overhead.
        restore()
        for _ in range(2 if tracer else 1):
            workloads.next_episode(fx, args.seed, 0)
            untraced.append(op(tracing.null_span))
        if tracer:
            restore = tracing.install(tracer)
        workloads.next_episode(fx, args.seed, 0)
        deadline = time.perf_counter() + args.seconds
        episode = 0
        while True:
            if tracer:
                tracer.episode = episode
            with span("bench.op"):
                result = op(span)
            results.append(result)
            latencies.extend(result.iteration_ms)
            episode += 1
            timed = finished(results)
            if len(results) >= MIN_OPS and (
                    not timed or time.perf_counter() + statistics.median(timed) > deadline):
                break
            workloads.next_episode(fx, args.seed, episode)
    finally:
        restore()

    checked = untraced + results
    if fx.kind == "oracle":
        checked.append(workloads.steep_oracle_check(out_dir, reference))
    failed = sum(1 for r in checked if r.problems)
    if not finished(results):
        print(f"perfbench: all {len(results)} timed operations raised; no result",
              file=sys.stderr)
        return 1
    ctx = context(args, fx.aug.num_states, checked, safemdp)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.dump(OUT / "spans" / f"{tag}.jsonl")
        metrics = per_layer_metrics(tracer, results, untraced[-1].seconds)
    else:
        ctx["iteration_samples"] = len(latencies)
        ctx["setup_s_samples"] = setup_times
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(finished(results)), "s"),
            "iter_ms_p50": (quantile(latencies, 0.5), "ms"),
            "iter_ms_p90": (quantile(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    # A metric is NaN only when an operation it needs raised, so the run is
    # already incorrect; it is left out rather than reported as a number.
    line = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if math.isfinite(value)},
    }
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({"context": ctx, **line}, indent=1))
    for problem in (p for r in checked for p in r.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"context": ctx}))
    print(json.dumps(line))
    return 0


def finished(results) -> list[float]:
    """Seconds of the operations that returned; one that raised has NaN."""
    return [r.seconds for r in results if math.isfinite(r.seconds)]


def per_layer_metrics(tracer, results, untraced_s) -> dict:
    import tracing

    ops = len(results)
    metrics = tracing.layer_metrics(tracer.spans, ops)
    iterations = sum(r.iterations for r in results)
    metrics.update({
        "explorer.iterations": (iterations / ops, "count"),
        "gp.observations": (sum(r.observations for r in results) / ops, "count"),
        "explorer.useful_iteration_ratio":
            (sum(r.useful_iterations for r in results) / iterations if iterations else 0.0,
             "ratio"),
        "cli.bytes_written": (sum(r.bytes_written for r in results) / ops, "bytes"),
        "trace.run_s": (statistics.median(finished(results)), "s"),
        "trace.overhead_s": (results[0].seconds - untraced_s, "s"),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        return run(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
