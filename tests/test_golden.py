"""Behavioural contract: the CLI reproduces recorded artifacts of the README example.

Every strategy runs under both observation models and both classifier modes
on the README's 6x6 ``safemdp explore`` example, with noise seed 0.  The
integer columns of ``trace.csv``, the whole of ``metrics.txt`` and the
sha256 of ``snapshots.csv`` must match the goldens exactly.  Widths and
observations must match within ``FLOAT_RTOL`` of each column's largest
magnitude, because their last bits change with the BLAS thread count.

Re-record the goldens, only for a deliberate change of behaviour, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from safemdp.cli import main
from safemdp.explorer import STRATEGIES

GOLDEN = Path(__file__).parent / "golden" / "readme_example.json"

FLOAT_RTOL = 1e-8

#: The README's example config, with ``{placeholders}`` for the varied keys.
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
strategy = {strategy}
observation_model = {observation_model}
mode = {mode}
lipschitz = 0.2
epsilon = 0.15
max_iterations = 100
seed_row = 1
seed_col = 1
seeds = 0

[output]
directory = {directory}
"""

CASES = [(strategy, model, mode) for strategy in STRATEGIES
         for model in ("difference", "heights") for mode in ("gp-direct", "lipschitz")]

#: ``trace.csv`` columns compared exactly, and the float columns.
INT_COLUMNS = ("t", "target", "path_length", "safe_size", "ergodic_size", "expander_size")
FLOAT_COLUMNS = ("width", "observation")


def run_case(tmp_path, strategy, model, mode) -> dict:
    """Run one case through ``safemdp explore``; return what the goldens pin."""
    out = tmp_path / "out"
    config = tmp_path / "experiment.ini"
    config.write_text(README_EXAMPLE.format(strategy=strategy, observation_model=model,
                                            mode=mode, directory=out))
    assert main(["explore", str(config)]) == 0
    run_dir = out / "seed_0"
    header, *rows = (line.split(",") for line in
                     (run_dir / "trace.csv").read_text().splitlines())
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return {
        "trace": [[int(v) for v in columns[name]] for name in INT_COLUMNS],
        **{name: [float(v) if v else None for v in columns[name]] for name in FLOAT_COLUMNS},
        "metrics": (run_dir / "metrics.txt").read_text(),
        "snapshots_sha256": hashlib.sha256((run_dir / "snapshots.csv").read_bytes()).hexdigest(),
    }


def _close(got, want) -> bool:
    """Equal ``None`` positions, and floats within ``FLOAT_RTOL`` of the
    column's largest finite magnitude."""
    if [v is None for v in got] != [v is None for v in want]:
        return False
    finite = [abs(v) for v in want if v is not None and math.isfinite(v)]
    tol = FLOAT_RTOL * max(finite, default=0.0)
    return all(g == w or abs(g - w) <= tol
               for g, w in zip(got, want) if w is not None)


@pytest.mark.parametrize("strategy,model,mode", CASES)
def test_readme_example_reproduces_its_golden(tmp_path, strategy, model, mode):
    want = json.loads(GOLDEN.read_text())[f"{strategy}/{model}/{mode}"]
    got = run_case(tmp_path, strategy, model, mode)
    assert got["metrics"] == want["metrics"]
    assert got["trace"] == want["trace"]
    assert got["snapshots_sha256"] == want["snapshots_sha256"]
    for name in FLOAT_COLUMNS:
        assert _close(got[name], want[name]), name


if __name__ == "__main__":
    import tempfile

    goldens = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            goldens["/".join(case)] = run_case(Path(tmp), *case)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(f"{json.dumps(case)}: {json.dumps(golden)}"
                                          for case, golden in goldens.items()) + "\n}\n")
    print(f"wrote {GOLDEN}")
