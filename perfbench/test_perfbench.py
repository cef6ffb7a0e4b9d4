"""Self-tests of the benchmark, on the tiny ``--smoke`` fixtures.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from safemdp import reach  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@functools.cache
def smoke(workload, trace):
    """Result line of one smoke run; each (workload, trace) pair runs once."""
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    line = smoke(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    line = smoke(workload, 1)
    assert line["correct"] and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def _spans(workload):
    path = ROOT / ".perfbench_out" / "spans" / f"smoke-{workload}-seed5-trace1.jsonl"
    return [tracing.Span(d["name"], d["start"], d["end"], d["parent"], d["episode"])
            for d in map(json.loads, path.read_text().splitlines())]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_and_self_times_add_up(workload):
    smoke(workload, 1)
    spans = _spans(workload)
    own = tracing.self_times(spans)
    subtree = [0.0] * len(spans)
    for i in reversed(range(len(spans))):
        subtree[i] += own[i]
        parent = spans[i].parent
        if parent >= 0:
            p, s = spans[parent], spans[i]
            assert p.start <= s.start and s.end <= p.end
            assert s.duration <= p.duration
            subtree[parent] += subtree[i]
    for i, s in enumerate(spans):
        assert own[i] >= -1e-9
        assert subtree[i] == pytest.approx(s.duration, rel=1e-9, abs=1e-9)


def test_explore_spans_have_one_iteration_per_advance_and_a_closure():
    smoke("explore-diff", 1)
    spans = _spans("explore-diff")
    ops = [i for i, s in enumerate(spans) if s.name == "bench.op"]
    assert ops
    for op in ops:
        episode = spans[op].episode
        names = [s.name for s in spans if s.episode == episode]
        assert names.count(tracing.ITERATION) == names.count("gp.advance")
        assert names.count(tracing.CLOSURE) == 1


def test_self_time_arithmetic_on_hand_made_spans():
    spans = [tracing.Span("root", 0.0, 10.0, -1, 0),
             tracing.Span("a", 1.0, 3.0, 0, 0),
             tracing.Span("b", 4.0, 8.0, 0, 0),
             tracing.Span("c", 5.0, 6.0, 2, 0)]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    metrics = tracing.layer_metrics(spans, ops=2)
    assert metrics["trace.spans"] == (2.0, "count")


def test_reference_check_accepts_the_reference_and_catches_changes():
    ref = workloads.load_reference("explore-diff", smoke=True)["episodes"]["0"]
    assert workloads.check_outputs("explore", copy.deepcopy(ref), ref) == []

    def changed(key, fn):
        got = copy.deepcopy(ref)
        got[key] = fn(got[key])
        return workloads.check_outputs("explore", got, ref)

    assert changed("targets", lambda v: v[:-1] + [v[-1] + 1])
    assert changed("path_lengths", lambda v: v[:-1])
    assert changed("expander_sizes", lambda v: [x + 1 for x in v])
    assert changed("widths", lambda v: [x * (1 + 1e-6) for x in v])
    assert not changed("widths", lambda v: [x * (1 + 1e-10) for x in v])
    assert changed("observations", lambda v: [x + 1e-3 for x in v])
    assert changed("terminal_reason", lambda v: "max_iterations")
    assert changed("violation_step", lambda v: 3)

    oracle = workloads.load_reference("oracle", smoke=True)["outputs"]
    assert workloads.check_outputs("oracle", dict(oracle), oracle) == []
    assert workloads.check_outputs("oracle", {**oracle, "in_r_eps_sha256": "0" * 64}, oracle)
    assert workloads.check_outputs("oracle", {**oracle, "r_zero_sizes": oracle["r_zero_sizes"][1:]},
                                   oracle)


def test_an_operation_that_raises_is_a_failed_one():
    fx = workloads.setup("explore-diff", 0, smoke=True)
    fx.band_model = None
    op = workloads.checked_op(fx, ROOT / ".perfbench_out" / "artifacts", None,
                              tracing.null_span, {})
    assert op.problems and op.problems[0].startswith("AttributeError")


def _raise_on_calls(monkeypatch, calls):
    """Make ``run_explore`` raise on the given 1-based calls."""
    real, count = workloads.run_explore, [0]

    def flaky(*args, **kwargs):
        count[0] += 1
        if count[0] in calls:
            raise RuntimeError(f"forced failure on call {count[0]}")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "run_explore", flaky)


def _run_in_process(capsys):
    code = run.main(["--workload", "explore-diff", "--seed", "7", "--seconds", "0.2",
                     "--trace", "0", "--smoke"])
    return code, capsys.readouterr().out.strip().splitlines()


def test_a_run_with_a_raising_operation_reports_it_as_failed(monkeypatch, capsys):
    _raise_on_calls(monkeypatch, {2})  # the first timed operation
    code, lines = _run_in_process(capsys)
    assert code == 0
    line = json.loads(lines[-1])
    assert not line["correct"] and line["failed"] == 1 and line["attempted"] >= 3
    assert {"run_s", "iter_ms_p50", "iter_ms_p90"} <= set(line["metrics"])
    assert all(np.isfinite(v["value"]) for v in line["metrics"].values())


def test_a_run_whose_timed_operations_all_raise_prints_no_result(monkeypatch, capsys):
    _raise_on_calls(monkeypatch, set(range(2, 1000)))
    code, lines = _run_in_process(capsys)
    assert code != 0
    assert not any('"metrics"' in line for line in lines)


def _all_safe(mdp, base, *args):
    return np.ones(mdp.num_states, dtype=bool)


def _return_anywhere(mdp, through, target, **kwargs):
    return np.asarray(through, dtype=bool) | np.asarray(target, dtype=bool)


def test_steep_oracle_check_passes_at_this_commit():
    reference = workloads.load_reference("oracle", smoke=True)
    op = workloads.steep_oracle_check(ROOT / ".perfbench_out" / "artifacts", reference)
    assert op.problems == []
    outputs = op.outputs
    assert outputs["in_r_eps_size"] < outputs["in_r_zero_size"] < 130


@pytest.mark.parametrize("name, broken", [("r_safe_eps", _all_safe),
                                          ("r_ret_fixpoint", _return_anywhere)])
def test_steep_oracle_check_catches_a_broken_reach_layer(monkeypatch, name, broken):
    """On the timed fixtures every state passes the Lipschitz test, so only
    the steep fixture can tell these mutations from the real operators."""
    reference = workloads.load_reference("oracle", smoke=True)
    monkeypatch.setattr(reach, name, broken)
    op = workloads.steep_oracle_check(ROOT / ".perfbench_out" / "artifacts", reference)
    assert op.problems


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
