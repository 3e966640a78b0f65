"""Smoke tests: each workload's tiny instance through run.py,
its output check and its tracer, plus the benchmark's own failure paths."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_traced_run(name, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--scale", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    layer = {"local": "policy_iter.rounds", "global": "lp_solver.pivots",
             "train": "robust_train.epochs"}[WORKLOADS[name].check]
    assert result["metrics"][layer]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics(capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    assert run.main(["--workload", "global-lp", "--seed", "0", "--seconds", "0",
                     "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1
    for name in ("wall_s", "setup_s", "peak_rss_mb", "output_mb"):
        assert result["metrics"][name]["value"] > 0
    assert result["metrics"]["setup_s"]["value"] < result["metrics"]["wall_s"]["value"]


def test_inputs_are_seeded_and_connected(tmp_path):
    spec = WORKLOADS["local-remove"].tiny
    a = inputs.write_inputs(spec, 5, "t", tmp_path / "a")
    b = inputs.write_inputs(spec, 5, "t", tmp_path / "b")
    c = inputs.write_inputs(spec, 6, "t", tmp_path / "c")
    assert a["digests"] == b["digests"] != c["digests"]
    assert a["E"] == c["E"] == 2 * (spec.edges_in + spec.edges_out)
    pairs, *_ = inputs.generate(spec, 6, "t")
    assert inputs._connected(pairs, spec.nodes)


def test_output_check_rejects_changed_results():
    ref = {"status": "rrn", "margins": [0.5, 0.2, -0.1]}
    assert check.compare("local", dict(ref), ref, {}) is None
    assert "status" in check.compare("local", {**ref, "status": "rnn"}, ref, {})
    assert "worst_margin" in check.compare(
        "local", {**ref, "margins": [0.5, 0.2, -0.1 + 1e-5]}, ref, {})
    losses = {"losses": [[2.0, 1.0], [1.5, 1.0]]}
    assert check.compare("train", losses, losses, {}) is None
    assert "epochs" in check.compare("train", {"losses": [[2.0, 1.0]]}, losses, {})
    assert "non-finite" in check.compare(
        "train", {"losses": [[2.0, 1.0], [float("nan"), 1.0]]}, losses, {})


def test_tracer_fails_on_a_missing_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.setattr(tracer, "WRAPPED", {"graph": ["no_such_function"]})
    with pytest.raises(tracer.TraceSetupError, match="no_such_function"):
        tracer.install(tracer.Tracer())


def test_self_time_subtracts_child_spans():
    spans = [[1, 0, "a.f", 0.0, 10.0, {}], [2, 1, "b.g", 1.0, 4.0, {}],
             [3, 1, "b.g", 3.0, 6.0, {}], [4, 2, "c.h", 2.0, 3.0, {}]]
    assert tracer._self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "global-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
