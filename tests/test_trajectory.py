"""The committed performance trajectory, ``benchmarks/trajectory.jsonl``.

One JSON object per line, one line per change, oldest first.  A row
holds:

- ``parent`` and ``commit``: the two commits measured (full hashes);
- ``cpu_count`` (``os.cpu_count()``) and ``python`` of the host;
- ``hotpath``: ``calibration_ops_per_s`` and each tier's
  ``normalized`` tasks/s from ``bench_hotpath.py --tier small`` at
  ``commit``;
- ``counts``: ``seed`` and, per workload, the exact rows that
  ``benchmarks/check_perfbench_counts.py`` checks, at ``commit``;
- ``ab``: ``seed``, ``seconds``, ``pairs`` and, per workload, the
  ``benchmarks/ab.py parent commit`` summary of each timed metric
  (``base_median``, ``base_iqr``, ``head_median``, ``head_iqr``,
  ``change_pct``, ``head_won``).

The last row must cover the current benchmark and hot-path gate, so a
workload or tier added without a measurement fails here.
``benchmarks/trajectory_diff.py`` reports what moved between two rows;
it runs here on a two-row fixture.
"""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_TRAJECTORY = _ROOT / "benchmarks" / "trajectory.jsonl"
_SPEC = importlib.util.spec_from_file_location(
    "trajectory_diff", _ROOT / "benchmarks" / "trajectory_diff.py"
)
trajectory_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory_diff)
_TIMED = ("sim_tasks_per_s", "setup_s", "peak_rss_mb")
_SUMMARY = ("base_median", "base_iqr", "head_median", "head_iqr", "change_pct", "head_won")


def _rows():
    lines = _TRAJECTORY.read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _workloads():
    benchmark = json.loads((_ROOT / "BENCHMARK.json").read_text())
    return {workload["name"] for workload in benchmark["workloads"]}


def _tiers():
    baseline = _ROOT / "benchmarks" / "baselines" / "hotpath_baseline.json"
    return set(json.loads(baseline.read_text())["normalized"])


def test_every_line_is_a_row():
    rows = _rows()
    assert rows
    for row in rows:
        assert isinstance(row, dict)
        for key in ("parent", "commit"):
            assert len(row[key]) == 40 and set(row[key]) <= set("0123456789abcdef"), key
        assert row["cpu_count"] >= 1
        assert row["hotpath"]["calibration_ops_per_s"] > 0
        assert isinstance(row["counts"]["seed"], int)
        assert row["ab"]["pairs"] >= 1


@pytest.mark.parametrize("section", ["counts", "ab"])
def test_last_row_covers_every_workload(section):
    last = _rows()[-1]
    missing = _workloads() - set(last[section]["workloads"])
    assert not missing, f"{section} lacks {sorted(missing)}"


def test_last_row_covers_every_hotpath_tier():
    measured = _rows()[-1]["hotpath"]["normalized"]
    missing = _tiers() - set(measured)
    assert not missing, f"hotpath lacks {sorted(missing)}"
    assert all(value > 0 for value in measured.values())


def test_last_row_summarizes_each_timed_metric():
    last = _rows()[-1]
    for workload, metrics in last["ab"]["workloads"].items():
        for metric in _TIMED:
            assert set(_SUMMARY) <= set(metrics[metric]), (workload, metric)
            assert 0 <= metrics[metric]["head_won"] <= last["ab"]["pairs"]


def _fixture_row(commit, counts, median, tier):
    return {
        "parent": "0" * 40,
        "commit": commit * 40,
        "cpu_count": 2,
        "python": "3.11.7",
        "hotpath": {
            "calibration_ops_per_s": 1_000_000,
            "normalized": {"steady": 0.002, "tier": tier},
        },
        "counts": {"seed": 7, "workloads": {"w": counts, "calm": {"a.b": 1}}},
        "ab": {
            "seed": 7,
            "seconds": 30.0,
            "pairs": 10,
            "workloads": {
                "w": {
                    "sim_tasks_per_s": {"head_median": median},
                    "setup_s": {"head_median": 0.05},
                }
            },
        },
    }


def test_diff_reports_what_moved_between_two_rows(tmp_path, capsys):
    old = _fixture_row(
        "a", {"simulator.events.period": 100, "simulator.preemptions": 5,
              "job.sharded": 3, "tokens.ledger.calls": 7}, 2000.0, 0.004,
    )
    new = _fixture_row(
        "b", {"simulator.events.period": 90, "simulator.preemptions": 5,
              "job.sharded": 4, "trace.spans": 9}, 2100.0, 0.003,
    )
    path = tmp_path / "trajectory.jsonl"
    path.write_text(json.dumps(old) + "\n" + json.dumps(new) + "\n")
    assert trajectory_diff.main(["--file", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "trajectory: aaaaaaaaaaaa -> bbbbbbbbbbbb",
        "work counts:",
        "  calm: no count moved",
        "  w:",
        "    job",
        "      job.sharded: 3 -> 4 (+33.3%)",
        "    simulator",
        "      simulator.events.period: 100 -> 90 (-10.0%)",
        "    tokens",
        "      tokens.ledger.calls: 7 -> absent",
        "    trace",
        "      trace.spans: absent -> 9",
        "ab head medians:",
        "  w sim_tasks_per_s: 2000 -> 2100 (+5.0%)",
        "hotpath normalized tasks/s (calibration 1,000,000 -> 1,000,000 ops/s):",
        "  tier: 0.004 -> 0.003 (-25.0%)",
    ]
    # Rows named by commit prefix, in either order.
    assert trajectory_diff.main(["--file", str(path), "bbb", "a"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "trajectory: bbbbbbbbbbbb -> aaaaaaaaaaaa"
    )
