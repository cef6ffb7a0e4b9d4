"""Command-line interface tests: config schema, artifacts, exit codes."""

import dataclasses
import textwrap

import numpy as np
import pytest

from safemdp.cli import load_experiment_config, main, write_manifest
from safemdp.explorer import ConfigError
from safemdp.terrain import load_esri_ascii

TRACE_HEADER = "t,target,width,path_length,observation,safe_size,ergodic_size,expander_size"
SNAPSHOT_HEADER = "t,safe,ergodic,expanders"
ORACLE_HEADER = "state,in_r_eps,in_r_zero"


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
        ({"safety.max_slope_deg": "95"}, "safety.max_slope_deg"),
        ({"safety.max_slope_deg": "20"}, "safety.conservative_slope_deg"),
        ({"explorer.mode": "lipschitz", "explorer.lipschitz": "-1"}, "explorer.lipschitz"),
        ({"explorer.mode": "lipschitz", "explorer.lipschitz": "0"}, "explorer.lipschitz"),
        ({"terrain.crater_depth": "4.0", "terrain.crater_radius": "0"},
         "terrain.crater_radius"),
        ({"terrain.hill_height": "2.0", "terrain.hill_radius": "0"}, "terrain.hill_radius"),
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
        "crater-hill": {"terrain.crater_depth": "3.0", "explorer.max_steps": "9"},
        "gp-sample": {"terrain.kind": "gp-sample", "explorer.strategy": "no_expanders",
                      "explorer.measure_along_path": "yes"},
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
    out = tmp_path / "out"
    path = write_config(
        tmp_path, out,
        **{
            "terrain.crater_row": "2", "terrain.crater_col": "2",
            "terrain.crater_depth": "8.0", "terrain.crater_radius": "1.2",
            "explorer.strategy": "unsafe", "explorer.max_iterations": "30",
        },
    )
    assert main(["explore", str(path)]) == 0
    metrics = dict(line.split(": ", 1) for line in
                   (out / "seed_0" / "metrics.txt").read_text().splitlines())
    assert metrics["terminal_reason"] == "violation"
    assert metrics["violation_step"] != ""


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
    missing = write_config(
        tmp_path, out,
        **{"terrain.source": "dem", "terrain.kind": None, "terrain.rows": None,
           "terrain.cols": None, "terrain.cell_size": None,
           "terrain.dem_path": str(tmp_path / "gone.asc")},
    )
    assert main(["explore", str(missing)]) == 2
    assert "terrain.dem_path" in capsys.readouterr().err


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
    assert grid.height_at(2, 2) == pytest.approx(-4.0)
    assert grid.height_at(0, 0) == pytest.approx(0.0, abs=0.1)


def test_synth_failure_is_a_runtime_error(tmp_path, capsys):
    # GpSample above the dense-solve limit exits 1 (runtime), not 2 (config).
    assert main(["synth", "--rows", "60", "--cols", "60", "--kind", "gp-sample",
                 "--out", str(tmp_path / "big.asc")]) == 1
    assert "error" in capsys.readouterr().err
