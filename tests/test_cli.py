"""Command-line interface tests: config schema, artifacts, exit codes."""

import ast
import configparser
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from safemdp.cli import (REQUIRED, SCHEMA, _build_parser, load_experiment_config, main,
                         write_manifest)
from safemdp.explorer import ConfigError
from safemdp.gp import KERNEL_KINDS
from safemdp.terrain import load_esri_ascii

TRACE_HEADER = "t,target,width,path_length,observation,safe_size,ergodic_size,expander_size"
SNAPSHOT_HEADER = "t,safe,ergodic,expanders"
ORACLE_HEADER = "state,in_r_eps,in_r_zero"
ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, out_dir, **overrides):
    """A small flat-terrain config; overrides replace whole key lines."""
    fields = {
        "terrain": {
            "source": "synth",
            "kind": "crater-hill",
            "rows": "4",
            "cols": "4",
            "cell_size": "1.0",
        },
        "gp": {
            "lengthscale": "3.0",
            "prior_std": "1.0",
            "noise_std": "0.05",
        },
        "explorer": {
            "strategy": "safemdp",
            "mode": "gp-direct",
            "lipschitz": "0.25",
            "epsilon": "0.05",
            "max_iterations": "60",
            "seed_row": "1",
            "seed_col": "1",
            "seeds": "0",
        },
        "output": {"directory": str(out_dir)},
    }
    for dotted, value in overrides.items():
        section, key = dotted.split(".", 1)
        if value is None:
            fields[section].pop(key, None)
        else:
            fields.setdefault(section, {})[key] = value
    text = ""
    for section, body in fields.items():
        text += f"[{section}]\n"
        text += "".join(f"{k} = {v}\n" for k, v in body.items())
    path = tmp_path / "experiment.ini"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_and_parsing(tmp_path):
    cfg = load_experiment_config(write_config(tmp_path, tmp_path / "out"))
    assert cfg.strategy == "safemdp"
    assert cfg.beta == 2.0
    assert cfg.max_iterations == 60
    assert cfg.seeds == (0,)
    assert cfg.gp_kernel.lengthscale == 3.0
    assert cfg.safety.conservative_slope_deg == 25.0


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_kernel_kinds_are_spelled_as_in_config_files(tmp_path, kind):
    # The config value is the kernel's kind, with no translation table.
    cfg = load_experiment_config(write_config(tmp_path, tmp_path / "out", **{"gp.kernel": kind}))
    assert cfg.gp_kernel.kind == kind


def test_missing_required_field_names_it(tmp_path):
    path = write_config(tmp_path, tmp_path / "out", **{"explorer.seed_row": None})
    with pytest.raises(ConfigError, match="explorer.seed_row"):
        load_experiment_config(path)


def test_unknown_keys_and_sections_are_rejected(tmp_path):
    path = write_config(tmp_path, tmp_path / "out", **{"terrain.wobble": "3"})
    with pytest.raises(ConfigError, match="terrain.wobble"):
        load_experiment_config(path)
    path.write_text(path.read_text() + "[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError, match=r"\[plotting\]"):
        load_experiment_config(path)


def test_bad_values_name_their_field(tmp_path, capsys):
    cases = [
        ({"explorer.max_iterations": "soon"}, "explorer.max_iterations"),
        ({"explorer.strategy": "greedy"}, "explorer.strategy"),
        ({"explorer.strategy": "no-expanders"}, "explorer.strategy"),
        ({"explorer.beta": "-1"}, "explorer.beta"),
        ({"gp.noise_std": "-0.1"}, "gp.noise_std"),
        ({"terrain.cell_size": "wide"}, "terrain.cell_size"),
        ({"explorer.seeds": "one two"}, "explorer.seeds"),
        ({"terrain.rows": "0"}, "terrain.rows"),
        ({"terrain.cell_size": "-1"}, "terrain.cell_size"),
        ({"gp.lengthscale": "0"}, "gp.lengthscale"),
        ({"safety.conservative_slope_deg": "95"}, "safety.conservative_slope_deg"),
        # The one slope is the conservative one; a second is an unknown key.
        ({"safety.max_slope_deg": "30"}, "unknown config field safety.max_slope_deg"),
        # The iteration cap is the one budget, and the target the one
        # measured state.
        ({"explorer.max_steps": "9"}, "unknown config field explorer.max_steps"),
        ({"explorer.measure_along_path": "yes"},
         "unknown config field explorer.measure_along_path"),
        # One classifier is left; the key still names it.
        ({"explorer.mode": "lipschitz"}, "explorer.mode"),
        ({"explorer.lipschitz": "-1"}, "explorer.lipschitz"),
        ({"terrain.crater_depth": "4.0", "terrain.crater_radius": "0"},
         "terrain.crater_radius"),
        ({"terrain.hill_height": "2.0", "terrain.hill_radius": "0"}, "terrain.hill_radius"),
        ({"terrain.kind": "gp-sample", "terrain.rows": "60", "terrain.cols": "60"},
         "terrain.rows/terrain.cols"),
    ]
    for overrides, needle in cases:
        path = write_config(tmp_path, tmp_path / "out", **overrides)
        with pytest.raises(ConfigError, match=needle):
            load_experiment_config(path)
        assert main(["explore", str(path)]) == 2
        assert needle in capsys.readouterr().err


def test_multiple_seeds_parse_with_commas(tmp_path):
    path = write_config(tmp_path, tmp_path / "out", **{"explorer.seeds": "3, 5 8"})
    assert load_experiment_config(path).seeds == (3, 5, 8)


def test_manifest_reparses_to_the_run_config(tmp_path):
    asc = tmp_path / "terrain.asc"
    assert main(["synth", "--rows", "4", "--cols", "4", "--out", str(asc)]) == 0
    configs = {
        "crater-hill": {"terrain.crater_depth": "3.0"},
        "gp-sample": {"terrain.kind": "gp-sample", "explorer.strategy": "no_expanders"},
        "dem": {"terrain.source": "dem", "terrain.kind": None, "terrain.rows": None,
                "terrain.cols": None, "terrain.cell_size": None,
                "terrain.dem_path": str(asc)},
    }
    for name, overrides in configs.items():
        cfg = load_experiment_config(
            write_config(tmp_path, tmp_path / name, **{"explorer.seeds": "3 5", **overrides}))
        manifest = tmp_path / f"{name}-manifest.txt"
        write_manifest(cfg, 5, manifest)
        assert load_experiment_config(manifest) == dataclasses.replace(cfg, seeds=(5,)), name


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_experiment_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# explore command


def test_explore_smoke_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["explore", str(write_config(tmp_path, out))]) == 0
    run_dir = out / "seed_0"
    for name in ("trace.csv", "snapshots.csv", "metrics.txt", "manifest.txt"):
        assert (run_dir / name).exists(), name
    trace = (run_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) > 1
    snapshots = (run_dir / "snapshots.csv").read_text().splitlines()
    assert snapshots[0] == SNAPSHOT_HEADER
    metrics = dict(line.split(": ", 1) for line in
                   (run_dir / "metrics.txt").read_text().splitlines())
    assert metrics["violation_step"] == ""
    assert 0.0 <= float(metrics["coverage_fraction"]) <= 1.0
    assert metrics["terminal_reason"] in ("converged", "expanders_empty", "max_iterations")


def test_explore_exit_codes(tmp_path, capsys):
    missing = write_config(tmp_path, tmp_path / "out", **{"explorer.seed_col": None})
    assert main(["explore", str(missing)]) == 2
    assert "explorer.seed_col" in capsys.readouterr().err
    # Seed cell outside the grid is caught during setup, still a config error.
    outside = write_config(tmp_path, tmp_path / "out", **{"explorer.seed_row": "9"})
    assert main(["explore", str(outside)]) == 2
    assert "seed_row" in capsys.readouterr().err


def test_explore_runs_one_directory_per_seed(tmp_path):
    out = tmp_path / "batch"
    path = write_config(tmp_path, out, **{"explorer.seeds": "1 2 4"})
    assert main(["explore", str(path)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["seed_1", "seed_2", "seed_4"]


def test_explore_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["explore", str(write_config(tmp_path, out))]) == 0
    for name in ("trace.csv", "snapshots.csv", "metrics.txt"):
        assert (out_a / "seed_0" / name).read_bytes() == (out_b / "seed_0" / name).read_bytes()


def test_violation_is_a_result_not_a_failure(tmp_path):
    # The crater sits in the far corner, so the seed pocket at (0, 0) is
    # truly safe and the violation happens on the way.
    out = tmp_path / "out"
    path = write_config(
        tmp_path, out,
        **{
            "terrain.crater_row": "3", "terrain.crater_col": "3",
            "terrain.crater_depth": "8.0", "terrain.crater_radius": "1.2",
            "explorer.strategy": "unsafe", "explorer.max_iterations": "30",
            "explorer.seed_row": "0", "explorer.seed_col": "0",
        },
    )
    assert main(["explore", str(path)]) == 0
    metrics = dict(line.split(": ", 1) for line in
                   (out / "seed_0" / "metrics.txt").read_text().splitlines())
    assert metrics["terminal_reason"] == "violation"
    assert metrics["violation_step"] != ""


def test_unsafe_seed_pocket_is_a_config_error(tmp_path, capsys):
    # On this 20x20 gp-sample terrain, terrain seed 1 puts two transitions
    # steeper than the conservative slope into the start cell's seed pocket;
    # terrain seed 0 puts none there.
    config = Path(__file__).parents[1] / "perfbench" / "configs" / "explore-diff.ini"
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(config)
    parser["explorer"].update(seeds="0", max_iterations="2")
    for terrain_seed, code in (("1", 2), ("0", 0)):
        parser["terrain"]["terrain_seed"] = terrain_seed
        parser["output"]["directory"] = str(tmp_path / f"terrain_{terrain_seed}")
        path = tmp_path / f"terrain_{terrain_seed}.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        assert main(["explore", str(path)]) == code
    err = capsys.readouterr().err
    assert "cell (10, 10) holds 2 unsafe state(s)" in err
    assert not (tmp_path / "terrain_1").exists()
    assert (tmp_path / "terrain_0" / "seed_0" / "trace.csv").exists()


def test_output_root_env_var_rebases_relative_dirs(tmp_path, monkeypatch):
    monkeypatch.setenv("SAFEMDP_OUT", str(tmp_path / "root"))
    path = write_config(tmp_path, "runs/flat")
    assert main(["explore", str(path)]) == 0
    assert (tmp_path / "root" / "runs" / "flat" / "seed_0" / "trace.csv").exists()
    assert main(["synth", "--rows", "2", "--cols", "2", "--out", "rel/t.asc"]) == 0
    assert (tmp_path / "root" / "rel" / "t.asc").exists()


def test_explore_reads_dem_sources(tmp_path, capsys):
    asc = tmp_path / "terrain.asc"
    assert main(["synth", "--rows", "4", "--cols", "4", "--out", str(asc)]) == 0
    out = tmp_path / "dem_out"
    path = write_config(
        tmp_path, out,
        **{"terrain.source": "dem", "terrain.kind": None, "terrain.rows": None,
           "terrain.cols": None, "terrain.cell_size": None, "terrain.dem_path": str(asc)},
    )
    assert main(["explore", str(path)]) == 0
    assert (out / "seed_0" / "trace.csv").exists()
    # A missing file, a non-positive cell size, a grid without data and a
    # height that is not finite are config errors naming the key.
    unusable = {
        "gone.asc": (None, "does not exist"),
        "zero_cell.asc": ("ncols 2\nnrows 1\ncellsize 0\n1 2\n",
                          "line 3: cellsize must be positive"),
        "no_data.asc": ("ncols 2\nnrows 1\ncellsize 1\nNODATA_value -1\n-1 -1\n",
                        "no cells with data"),
        "nan_cell.asc": ("ncols 2\nnrows 1\ncellsize 1\n1 nan\n",
                         "line 4: grid value nan is not finite"),
        "inf_cell.asc": ("ncols 2\nnrows 2\ncellsize 1\n1 2\n-inf 3\n",
                         "line 5: grid value -inf is not finite"),
    }
    for name, (text, needle) in unusable.items():
        if text is not None:
            (tmp_path / name).write_text(text)
        bad = write_config(
            tmp_path, out,
            **{"terrain.source": "dem", "terrain.kind": None, "terrain.rows": None,
               "terrain.cols": None, "terrain.cell_size": None,
               "terrain.dem_path": str(tmp_path / name)},
        )
        assert main(["explore", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error: terrain.dem_path:" in err and needle in err


# ---------------------------------------------------------------------------
# oracle command


def test_oracle_on_flat_terrain_covers_the_whole_component(tmp_path):
    out = tmp_path / "oracle_out"
    assert main(["oracle", str(write_config(tmp_path, out))]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == ORACLE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[1] == "1" and r[2] == "1" for r in rows)


def test_oracle_walled_seed_stays_home(tmp_path):
    # A flat plus-shaped courtyard walled in by +10 m cliffs.  The honest
    # Lipschitz constant for such a cliff terrain is huge (10 m over half a
    # cell), so certificates reach almost nowhere and the oracle keeps
    # exactly the seeded pocket.
    asc = tmp_path / "walled.asc"
    wall = np.full((5, 5), 10.0)
    wall[2, 1:4] = 0.0
    wall[1:4, 2] = 0.0
    body = "\n".join(" ".join(repr(float(v)) for v in row) for row in wall)
    asc.write_text(f"ncols 5\nnrows 5\ncellsize 1.0\nNODATA_value -9999\n{body}\n")
    out = tmp_path / "walled_out"
    path = write_config(
        tmp_path, out,
        **{"terrain.source": "dem", "terrain.kind": None, "terrain.rows": None,
           "terrain.cols": None, "terrain.cell_size": None, "terrain.dem_path": str(asc),
           "explorer.seed_row": "2", "explorer.seed_col": "2",
           "explorer.lipschitz": "20.0", "explorer.epsilon": "0.15"},
    )
    assert main(["oracle", str(path)]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()[1:]
    eps = {int(r[0]) for r in (line.split(",") for line in lines) if r[1] == "1"}
    zero = {int(r[0]) for r in (line.split(",") for line in lines) if r[2] == "1"}
    # Seed pocket: centre, four neighbours, and the nine transitions among
    # them (stay plus four out, four back) — and nothing else.
    assert len(eps) == 14
    assert {s for s in eps if s < 25} == {7, 11, 12, 13, 17}
    assert zero == eps


# ---------------------------------------------------------------------------
# synth command


def test_synth_round_trip_and_determinism(tmp_path):
    a, b = tmp_path / "a.asc", tmp_path / "b.asc"
    args = ["synth", "--rows", "3", "--cols", "4", "--kind", "gp-sample",
            "--lengthscale", "2.0", "--prior-std", "1.0", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    grid = load_esri_ascii(a.read_text())
    assert (grid.rows, grid.cols) == (3, 4)


def test_synth_crater_flags_shape_the_surface(tmp_path):
    out = tmp_path / "crater.asc"
    assert main(["synth", "--rows", "5", "--cols", "5", "--crater-row", "2",
                 "--crater-col", "2", "--crater-depth", "4.0",
                 "--crater-radius", "1.0", "--out", str(out)]) == 0
    grid = load_esri_ascii(out.read_text())
    assert grid.heights[2 * grid.cols + 2] == pytest.approx(-4.0)
    assert grid.heights[0] == pytest.approx(0.0, abs=0.1)


def test_synth_over_the_cell_limit_is_a_config_error(tmp_path, capsys):
    # GpSample above the dense-solve limit exits 2 naming the flags, with the
    # check that names terrain.rows/terrain.cols in a config.
    out = tmp_path / "big.asc"
    assert main(["synth", "--rows", "60", "--cols", "60", "--kind", "gp-sample",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --rows/--cols: gp-sample terrain is limited to 2500 cells" in err
    assert not out.exists()
    # The limit is gp-sample's own.
    assert main(["synth", "--rows", "60", "--cols", "60", "--out", str(out)]) == 0


def test_synth_flag_defaults_are_the_config_defaults():
    args = _build_parser().parse_args(["synth", "--rows", "3", "--cols", "3", "--out", "t.asc"])
    checked = {field.key for field in SCHEMA
               if field.default is not REQUIRED and hasattr(args, field.key)}
    assert {"terrain_seed", "kernel", "lengthscale", "prior_std", "crater_radius"} <= checked
    for field in SCHEMA:
        if field.key in checked:
            assert getattr(args, field.key) == field.default, field.key
    assert args.kind == "crater-hill"


def test_synth_unknown_kernel_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "t.asc"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rows", "3", "--cols", "3", "--kind", "gp-sample",
              "--kernel", "rbf", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --kernel: expected one of" in capsys.readouterr().err
    assert not out.exists()


def test_synth_unknown_kind_is_a_usage_error(tmp_path, capsys):
    # --kind takes its choices from the config key's parser.
    out = tmp_path / "t.asc"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rows", "3", "--cols", "3", "--kind", "ridge", "--out", str(out)])
    assert exc.value.code == 2
    assert ("argument --kind: expected one of ['crater-hill', 'gp-sample'], got 'ridge'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--rows", "0"), ("--cell-size", "-1"),
                                         ("--crater-radius", "0")])
def test_synth_out_of_range_flags_are_usage_errors(tmp_path, capsys, flag, value):
    # The flags share their config keys' range checks: exit 2, naming the flag.
    out = tmp_path / "t.asc"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rows", "3", "--cols", "3", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# what a command loads


def test_only_a_command_that_conditions_a_gp_loads_scipy(tmp_path):
    # Importing scipy.linalg takes most of the package's import time; only
    # a GP's first triangular solve needs it.  A fresh interpreter, so that
    # no other test has loaded it already.
    smoke = str(ROOT / "perfbench" / "configs" / "smoke-explore-diff.ini")
    script = textwrap.dedent(f"""
        import sys
        import safemdp
        from safemdp.cli import main
        steps = ["scipy" in sys.modules]
        for argv in (["oracle", {smoke!r}],
                     ["synth", "--rows", "3", "--cols", "3", "--kind", "gp-sample",
                      "--out", {str(tmp_path / "t.asc")!r}],
                     ["explore", {str(tmp_path / "nope.ini")!r}],
                     ["explore", {smoke!r}]):
            steps += [main(argv), "scipy" in sys.modules]
        print(steps)
    """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, check=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path, "SAFEMDP_OUT": str(tmp_path)})
    steps = ast.literal_eval(done.stdout.splitlines()[-1])
    # Import, oracle, synth and a config error stay scipy-free; explore
    # conditions a GP.
    assert steps == [False, 0, False, 0, False, 2, False, 0, True]
