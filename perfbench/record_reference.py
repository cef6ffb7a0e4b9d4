"""Record the pinned reference outputs the benchmark checks against.

Run it from the root of a checkout, at the commit whose behaviour the
references should pin::

    python3 perfbench/record_reference.py            # full fixtures
    python3 perfbench/record_reference.py --smoke    # tiny fixtures

For each explore workload it runs one episode per noise seed of the pool
(``[explorer] seeds`` in the config) and stores what ``check_outputs``
compares, plus the two oracle masks that ``metrics.txt`` needs.  For the
oracle workload it stores the digests and sizes of the two masks and the
set size after each ``r_eps`` application, on the workload's fixture and on
the untimed check fixture ``configs/steep-oracle.ini``.  The oracle on the
explore-heights fixture builds distance blocks of several hundred MB.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # pins BLAS threads before numpy loads, as benchmark runs do

run.import_library()

from safemdp import cli, explorer, reach, terrain  # noqa: E402

import workloads  # noqa: E402
from tracing import null_span  # noqa: E402

SCRATCH = run.OUT / "record"


def oracle_masks(fx):
    truth = fx.env.true_safety
    return tuple(reach.r_eps_fixpoint(fx.aug, fx.seed_mask, truth, eps, fx.cfg.lipschitz,
                                      fx.threshold) for eps in (fx.cfg.epsilon, 0.0))


def record(workload: str, smoke: bool) -> dict:
    kind = workloads.WORKLOADS[workload][0]
    fx = workloads.setup(workload, 0, smoke)
    if kind == "oracle":
        steep = workloads.build_fixture("oracle", workloads.STEEP_CONFIG, 0)
        return {"outputs": workloads.run_oracle(fx, SCRATCH, null_span).outputs,
                "steep": workloads.run_oracle(steep, SCRATCH, null_span).outputs}
    eps_mask, zero_mask = oracle_masks(fx)
    episodes = {}
    for seed in fx.cfg.seeds:
        _, env = terrain.build_terrain_environment(fx.grid, fx.cfg.safety, fx.cfg.noise_std, seed)
        band_model = cli._band_model(fx.cfg, fx.aug, fx.seed_mask, fx.threshold)
        trace = explorer.run_safemdp(fx.aug, env, cli._explorer_config(fx.cfg, fx.seed_mask),
                                     band_model)
        episodes[str(seed)] = workloads.explore_outputs(trace)
        print(f"{workload} noise seed {seed}: {trace.iterations} iterations, "
              f"{trace.terminal_reason}", file=sys.stderr)
    return {
        "num_states": fx.aug.num_states,
        "oracle_eps_hex": workloads.pack_mask(eps_mask),
        "oracle_zero_hex": workloads.pack_mask(zero_mask),
        "episodes": episodes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    for workload in sorted(workloads.WORKLOADS):
        data = record(workload, args.smoke)
        path = workloads.reference_path(workload, args.smoke)
        path.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
