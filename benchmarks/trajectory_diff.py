"""Print what moved between two rows of the performance trajectory.

Usage, from any directory::

    python3 benchmarks/trajectory_diff.py [OLD NEW] [--file PATH]

OLD and NEW name rows of ``benchmarks/trajectory.jsonl`` (or of PATH)
by a prefix of their ``commit``; by default the last two rows are
compared.  The report lists, in this order:

- per workload, each work count that moved (``old -> new``), grouped by
  layer, the first dotted part of the row's name;
- each ``ab`` head median that moved, with its change in percent;
- each ``bench_hotpath`` tier whose normalized tasks/s moved, under a
  header with each row's calibration ops/s: normalized tiers of one
  source differ by up to a third between runs on one host, so weigh a
  move against the host's state.

A workload, metric or tier that only one row has reads ``absent`` on the
other side.  The row schema is in ``tests/test_trajectory.py``.  Needs
only the standard library.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"


def load(path: Path) -> List[dict]:
    """Every row of a trajectory file, oldest first."""
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def pick(rows: Sequence[dict], prefix: str) -> dict:
    """The one row whose commit starts with ``prefix``."""
    found = [row for row in rows if row["commit"].startswith(prefix)]
    if len(found) != 1:
        raise SystemExit(f"{len(found)} rows have a commit starting {prefix!r}")
    return found[0]


def _show(value: Optional[float]) -> str:
    return "absent" if value is None else f"{value:g}"


def _change(old: Optional[float], new: Optional[float]) -> str:
    if old is None or new is None or old == 0:
        return ""
    return f" ({(new - old) / old * 100:+.1f}%)"


def _moved(old: Dict[str, float], new: Dict[str, float]) -> List[str]:
    """``name: old -> new`` for each key whose value differs."""
    return [
        f"{name}: {_show(old.get(name))} -> {_show(new.get(name))}"
        f"{_change(old.get(name), new.get(name))}"
        for name in sorted(old.keys() | new.keys())
        if old.get(name) != new.get(name)
    ]


def counts_report(old: dict, new: dict) -> List[str]:
    lines = ["work counts:"]
    old_counts = old["counts"]["workloads"]
    new_counts = new["counts"]["workloads"]
    for workload in sorted(old_counts.keys() | new_counts.keys()):
        before = old_counts.get(workload, {})
        after = new_counts.get(workload, {})
        moved = _moved(before, after)
        if not moved:
            lines.append(f"  {workload}: no count moved")
            continue
        lines.append(f"  {workload}:")
        layer = None
        for line in moved:
            name = line.split(":", 1)[0]
            if name.split(".", 1)[0] != layer:
                layer = name.split(".", 1)[0]
                lines.append(f"    {layer}")
            lines.append(f"      {line}")
    return lines


def ab_report(old: dict, new: dict) -> List[str]:
    lines = ["ab head medians:"]
    old_ab = old["ab"]["workloads"]
    new_ab = new["ab"]["workloads"]
    for workload in sorted(old_ab.keys() | new_ab.keys()):
        medians = [
            {
                metric: summary["head_median"]
                for metric, summary in side.get(workload, {}).items()
            }
            for side in (old_ab, new_ab)
        ]
        for line in _moved(*medians):
            lines.append(f"  {workload} {line}")
    if len(lines) == 1:
        lines.append("  none moved")
    return lines


def hotpath_report(old: dict, new: dict) -> List[str]:
    before, after = (row["hotpath"]["calibration_ops_per_s"] for row in (old, new))
    lines = [
        f"hotpath normalized tasks/s (calibration {before:,.0f} -> {after:,.0f} ops/s):"
    ]
    moved = _moved(old["hotpath"]["normalized"], new["hotpath"]["normalized"])
    lines.extend(f"  {line}" for line in moved or ["none moved"])
    return lines


def diff(old: dict, new: dict) -> List[str]:
    """The report's lines for two rows."""
    return [
        f"trajectory: {old['commit'][:12]} -> {new['commit'][:12]}",
        *counts_report(old, new),
        *ab_report(old, new),
        *hotpath_report(old, new),
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        usage="%(prog)s [OLD NEW] [--file PATH]",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("rows", nargs="*", help="commit prefixes")
    parser.add_argument("--file", type=Path, default=TRAJECTORY, metavar="PATH")
    args = parser.parse_args(argv)
    if len(args.rows) not in (0, 2):
        parser.error("name both rows, OLD and NEW, or neither")
    rows = load(args.file)
    if args.rows:
        old, new = (pick(rows, prefix) for prefix in args.rows)
    elif len(rows) >= 2:
        old, new = rows[-2:]
    else:
        parser.error(f"{args.file} holds {len(rows)} row(s); need two")
    print("\n".join(diff(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
