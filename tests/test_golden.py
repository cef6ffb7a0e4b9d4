"""Behavioural contract: the CLI reproduces recorded artifacts.

Every strategy runs under both observation models on

- the README's 6x6 ``safemdp explore`` example, noise seeds 0 and 1
  (``golden/readme_example.json``), and
- both ``perfbench/configs/smoke-explore-*.ini`` fixtures, noise seeds 0 and 1
  (``golden/contract.json``).  The two differ only in their observation
  model, so each runs under its own.

The integer columns of ``trace.csv``, the whole of ``metrics.txt`` and the
sha256 of ``snapshots.csv`` must match the goldens exactly.  Widths and
observations must match within ``FLOAT_RTOL`` of each column's largest
magnitude, because their last bits change with the BLAS thread count.
``safemdp oracle`` must reproduce the sha256 of ``oracle.csv`` for all
three configs, for the crater 50x50 fixture, where the returnability
searches run long, and for ``perfbench/configs/steep-oracle.ini``, whose
masks leave states out (``golden/contract.json``).  ``safemdp explore``
runs the crater 50x50 fixture too, for its first 60 iterations at noise
seed 0: at paper scale, with a distinct target at every iteration.

Re-record the goldens with ``PYTHONPATH=src python tests/test_golden.py``.
It re-runs every case but rewrites only the entries whose key is new or
that no longer pass the tests above, and prints each key it rewrites; on
an unchanged program it leaves ``golden/`` byte-identical.
"""

import configparser
import hashlib
import json
import math
from pathlib import Path

import pytest

from safemdp.cli import main
from safemdp.explorer import STRATEGIES

GOLDEN = Path(__file__).parent / "golden"
README_GOLDEN = GOLDEN / "readme_example.json"
CONTRACT_GOLDEN = GOLDEN / "contract.json"
PERFBENCH_CONFIGS = Path(__file__).parents[1] / "perfbench" / "configs"

FLOAT_RTOL = 1e-8

#: The README's example config; each case sets its strategy, observation
#: model and output directory.
README_EXAMPLE = """\
[terrain]
source = synth
kind = crater-hill
rows = 6
cols = 6
cell_size = 1.0
crater_row = 4.5
crater_col = 4.5
crater_depth = 5.0
crater_radius = 1.2

[gp]
lengthscale = 7.0
prior_std = 3.0
noise_std = 0.075

[explorer]
lipschitz = 0.2
epsilon = 0.15
max_iterations = 100
seed_row = 1
seed_col = 1
seeds = 0 1 2 3 4

[output]
directory = out
"""

#: A misspecified, paper-scale crater: 14800 augmented states, all of them
#: in both oracle masks.  ``safemdp explore`` runs it capped at
#: ``CRATER_ITERATIONS``.
CRATER_50 = """\
[terrain]
source = synth
kind = crater-hill
rows = 50
cols = 50
cell_size = 1.0
tilt_row = 0.05
hill_row = 12
hill_col = 38
hill_height = 6.0
hill_radius = 5.0
crater_row = 34
crater_col = 30
crater_depth = 8.0
crater_radius = 6.0
roughness = 0.05

[explorer]
lipschitz = 0.2
beta = 9.0
seed_row = 10
seed_col = 10
seeds = 0 1 2 3 4

[output]
directory = out
"""

CRATER_ITERATIONS = 60
CRATER_KEY = "crater-50x50/safemdp/seed_0"

SMOKE_CONFIGS = ("smoke-explore-diff", "smoke-explore-heights")
CONFIGS = {"readme-example": README_EXAMPLE,
           **{name: (PERFBENCH_CONFIGS / f"{name}.ini").read_text() for name in SMOKE_CONFIGS},
           "crater-50x50": CRATER_50,
           "steep-oracle": (PERFBENCH_CONFIGS / "steep-oracle.ini").read_text()}
README_SEEDS = SMOKE_SEEDS = (0, 1)

MODELS = ("difference", "heights")
RUNS = [(strategy, model) for strategy in STRATEGIES for model in MODELS]
#: The README goldens were recorded when the classifier was a config
#: choice; their keys and test ids keep the name of the one that is left.
README_CASES = [pytest.param(strategy, model, id=f"{strategy}-{model}-gp-direct")
                for strategy, model in RUNS]
SMOKE_CASES = [(config, strategy) for config in SMOKE_CONFIGS for strategy in STRATEGIES]

#: ``trace.csv`` columns compared exactly, and the float columns.
INT_COLUMNS = ("t", "target", "path_length", "safe_size", "ergodic_size", "expander_size")
FLOAT_COLUMNS = ("width", "observation")


def _readme_key(strategy, model, seed) -> str:
    # The seed-0 keys were recorded before seed 1 was pinned.
    return f"{strategy}/{model}/gp-direct" + (f"/seed_{seed}" if seed else "")


def _smoke_key(config, strategy, seed) -> str:
    return f"{config}/{strategy}/seed_{seed}"


def _oracle_key(config) -> str:
    return f"{config}/oracle.csv"


def _run(tmp_path, command, config, **explorer) -> Path:
    """Run ``safemdp command`` on ``config`` with the ``[explorer]`` keys
    given; return the output directory."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(CONFIGS[config])
    parser["explorer"].update(explorer)
    out = tmp_path / "out"
    parser["output"]["directory"] = str(out)
    path = tmp_path / "experiment.ini"
    with open(path, "w") as handle:
        parser.write(handle)
    assert main([command, str(path)]) == 0
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned(run_dir: Path) -> dict:
    """What the goldens pin of one seed's artifacts."""
    header, *rows = (line.split(",") for line in
                     (run_dir / "trace.csv").read_text().splitlines())
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return {
        "trace": [[int(v) for v in columns[name]] for name in INT_COLUMNS],
        **{name: [float(v) if v else None for v in columns[name]] for name in FLOAT_COLUMNS},
        "metrics": (run_dir / "metrics.txt").read_text(),
        "snapshots_sha256": _sha256(run_dir / "snapshots.csv"),
    }


def run_readme(tmp_path, strategy, model) -> dict:
    """Every seed of one README case, by golden key."""
    out = _run(tmp_path, "explore", "readme-example", strategy=strategy,
               observation_model=model, seeds=" ".join(map(str, README_SEEDS)))
    return {_readme_key(strategy, model, seed): pinned(out / f"seed_{seed}")
            for seed in README_SEEDS}


def run_smoke(tmp_path, config, strategy) -> dict:
    """Every seed of one smoke case, by golden key."""
    out = _run(tmp_path, "explore", config, strategy=strategy,
               seeds=" ".join(map(str, SMOKE_SEEDS)))
    return {_smoke_key(config, strategy, seed): pinned(out / f"seed_{seed}")
            for seed in SMOKE_SEEDS}


def run_crater(tmp_path) -> dict:
    """The capped crater 50x50 run's seed 0, by golden key."""
    out = _run(tmp_path, "explore", "crater-50x50", strategy="safemdp", seeds="0",
               max_iterations=str(CRATER_ITERATIONS))
    return {CRATER_KEY: pinned(out / "seed_0")}


def run_oracle(tmp_path, config) -> str:
    return _sha256(_run(tmp_path, "oracle", config) / "oracle.csv")


def _close(got, want) -> bool:
    """Equal ``None`` positions, and floats within ``FLOAT_RTOL`` of the
    column's largest finite magnitude."""
    if [v is None for v in got] != [v is None for v in want]:
        return False
    finite = [abs(v) for v in want if v is not None and math.isfinite(v)]
    tol = FLOAT_RTOL * max(finite, default=0.0)
    return all(g == w or abs(g - w) <= tol
               for g, w in zip(got, want) if w is not None)


def assert_matches(got, want):
    assert got["metrics"] == want["metrics"]
    assert got["trace"] == want["trace"]
    assert got["snapshots_sha256"] == want["snapshots_sha256"]
    for name in FLOAT_COLUMNS:
        assert _close(got[name], want[name]), name


@pytest.mark.parametrize("strategy,model", README_CASES)
def test_readme_example_reproduces_its_golden(tmp_path, strategy, model):
    goldens = json.loads(README_GOLDEN.read_text())
    for key, got in run_readme(tmp_path, strategy, model).items():
        assert_matches(got, goldens[key])


@pytest.mark.parametrize("config,strategy", SMOKE_CASES)
def test_smoke_config_reproduces_its_golden(tmp_path, config, strategy):
    goldens = json.loads(CONTRACT_GOLDEN.read_text())
    for key, got in run_smoke(tmp_path, config, strategy).items():
        assert_matches(got, goldens[key])


def test_crater_explore_reproduces_its_golden(tmp_path):
    goldens = json.loads(CONTRACT_GOLDEN.read_text())
    assert_matches(run_crater(tmp_path)[CRATER_KEY], goldens[CRATER_KEY])


@pytest.mark.parametrize("config", CONFIGS)
def test_oracle_reproduces_its_golden(tmp_path, config):
    want = json.loads(CONTRACT_GOLDEN.read_text())[_oracle_key(config)]
    assert run_oracle(tmp_path, config) == want


def _still_matches(got, want) -> bool:
    """Whether the fresh entry ``got`` passes its test against ``want``."""
    if isinstance(want, str):  # an oracle.csv sha256
        return got == want
    try:
        assert_matches(got, want)
    except AssertionError:
        return False
    return True


def merge(committed: dict, fresh: dict) -> tuple[dict, list]:
    """The goldens to record, and the keys among them written afresh.

    Every key of ``fresh`` keeps its ``committed`` entry while the fresh
    run still matches it, so last-bit noise rewrites nothing; a new key or
    a moved entry takes the fresh run.
    """
    merged, rewritten = {}, []
    for key, got in fresh.items():
        if key in committed and _still_matches(got, committed[key]):
            merged[key] = committed[key]
        else:
            merged[key] = got
            rewritten.append(key)
    return merged, rewritten


def test_the_recorder_rewrites_only_entries_that_moved():
    want = {"trace": [[1, 2]], "width": [1.0, 0.5], "observation": [0.25, None],
            "metrics": "iterations: 2\n", "snapshots_sha256": "ab"}
    near = {**want, "width": [1.0 + FLOAT_RTOL / 2, 0.5]}
    far = {**want, "width": [1.0 + 2 * FLOAT_RTOL, 0.5]}
    metrics = {**want, "metrics": "iterations: 3\n"}
    committed = {"near": want, "far": want, "metrics": want, "oracle": "cd"}
    fresh = {"near": near, "far": far, "metrics": metrics, "oracle": "cd", "new": want}
    merged, rewritten = merge(committed, fresh)
    assert merged == {"near": want, "far": far, "metrics": metrics, "oracle": "cd",
                      "new": want}
    assert rewritten == ["far", "metrics", "new"]


def _record(path: Path, fresh: dict) -> None:
    committed = json.loads(path.read_text()) if path.exists() else {}
    goldens, rewritten = merge(committed, fresh)
    for key in rewritten:
        print(f"rewrote {path.name}: {key}")
    path.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(golden)}"
                                        for key, golden in goldens.items()) + "\n}\n")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    def fresh(run, *args):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            return run(Path(tmp), *args)

    GOLDEN.mkdir(exist_ok=True)
    readme = {}
    for case in RUNS:
        readme.update(fresh(run_readme, *case))
    _record(README_GOLDEN, readme)
    contract = {}
    for case in SMOKE_CASES:
        contract.update(fresh(run_smoke, *case))
    contract.update(fresh(run_crater))
    contract.update({_oracle_key(config): fresh(run_oracle, config) for config in CONFIGS})
    _record(CONTRACT_GOLDEN, contract)
