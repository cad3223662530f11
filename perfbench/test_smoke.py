"""Smoke tests of the benchmark itself (tiny inputs, a few seconds each).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run as run_module  # noqa: E402
from perfbench.harness import END_TO_END, Pass  # noqa: E402
from perfbench.layers import PER_LAYER, SpanTracer  # noqa: E402
from perfbench.outcome import GateFailure, check_gate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TINY = "0.02"


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int):
    code = run_module.main(
        [
            "--workload", workload,
            "--seed", "2",
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", TINY,
        ]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_passes_the_gate_at_tiny_size(name):
    run = Pass(WORKLOADS[name], seed=3, scale=float(TINY)).run_sub(0)
    assert run.records and run.setup_s > 0 and run.sim_s > 0


def test_gate_rejects_a_request_with_no_outcome():
    records = Pass(WORKLOADS["node_serving"], seed=3, scale=float(TINY)).run_sub(0).records
    records[0].completed = records[0].completed[1:]
    with pytest.raises(GateFailure, match="do not cover"):
        check_gate(records)


def test_workloads_match_benchmark_json():
    listed = [entry["name"] for entry in _benchmark_json()["workloads"]]
    assert listed == list(WORKLOADS) == list(run_module.WORKLOAD_NAMES)


def test_end_to_end_names_match_benchmark_json(capsys):
    listed = [
        (entry["name"], entry["unit"], entry["better"])
        for entry in _benchmark_json()["end_to_end"]
    ]
    assert listed == [(name, unit, better) for name, unit, better, _ in END_TO_END]
    code, payload = _run(capsys, "node_batching", trace=0)
    assert code == 0 and payload["correct"] and payload["failed"] == 0
    assert [(name, m["unit"]) for name, m in payload["metrics"].items()] == [
        (name, unit) for name, unit, _ in listed
    ]


def test_per_layer_names_match_benchmark_json(capsys):
    listed = [
        (entry["name"], entry["unit"])
        for entry in _benchmark_json()["per_layer"]
    ]
    assert listed == list(PER_LAYER)
    before = SpanTracer().entry_points()
    code, payload = _run(capsys, "node_serving", trace=1)
    assert code == 0 and payload["correct"]
    assert [(name, m["unit"]) for name, m in payload["metrics"].items()] == listed
    # The wrappers came off: every entry point is the original again.
    assert all(
        vars(owner)[attribute] is original
        for owner, attribute, original in before
    )


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", "paper_npu", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
