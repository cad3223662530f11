"""The A/B runner's summary step (``benchmarks/ab.py``), on hand-made pairs.

The runner itself starts perfbench processes and is not run here.
"""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _run(tasks_per_s, setup_s, rss_mb, antt=2.5, digest="abc", failed=0):
    return {
        "metrics": {
            "sim_tasks_per_s": {"value": tasks_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "antt": {"value": antt, "unit": "sim-ratio"},
        },
        "failed": failed,
        "digest": digest,
    }


def test_summary_medians_iqr_change_and_wins():
    pairs = [
        (_run(100, 4.0, 180), _run(210, 4.1, 180)),
        (_run(110, 4.2, 181), _run(190, 4.0, 180)),
        (_run(90, 4.0, 180), _run(200, 4.0, 182)),
        (_run(120, 3.8, 180), _run(100, 3.9, 180)),
    ]
    rows = {row["metric"]: row for row in ab.summarize(pairs)}
    tasks = rows["sim_tasks_per_s"]
    assert tasks["base_median"] == 105.0
    # Inclusive quartiles of 90, 100, 110, 120 are 97.5 and 112.5.
    assert tasks["base_iqr"] == 15.0
    assert tasks["head_median"] == 195.0
    assert tasks["change_pct"] == pytest.approx(100.0 * 90 / 105)
    assert (tasks["head_won"], tasks["pairs"]) == (3, 4)
    # Lower is better for set-up time and memory; ties count for neither.
    assert rows["setup_s"]["head_won"] == 1
    assert rows["setup_s"]["change_pct"] == 0.0
    assert rows["peak_rss_mb"]["head_won"] == 1


def test_one_pair_has_no_spread():
    (row, *_) = ab.summarize([(_run(100, 4.0, 180), _run(150, 4.0, 180))])
    assert (row["base_median"], row["base_iqr"]) == (100, 0.0)
    assert (row["head_median"], row["head_iqr"]) == (150, 0.0)
    assert row["head_won"] == 1


def test_mismatches_name_each_differing_simulated_result():
    # Host metrics may differ freely.
    same = (_run(100, 4.0, 180), _run(200, 3.0, 170))
    assert ab.mismatches([same]) == []
    moved = (_run(100, 4.0, 180), _run(100, 4.0, 180, antt=2.6, digest="abd"))
    assert ab.mismatches([same, moved]) == [
        "pair 1: antt 2.5 -> 2.6",
        "pair 1: decision digest abc -> abd",
    ]
    failed = (_run(100, 4.0, 180), _run(100, 4.0, 180, failed=2))
    assert ab.mismatches([failed]) == ["pair 0: failed 0 -> 2"]
