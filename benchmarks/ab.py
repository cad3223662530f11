"""Time two revisions against each other on the committed benchmark.

Usage, from any directory inside the repository::

    python3 benchmarks/ab.py BASE [HEAD] [--pairs N] [--seed S]
                             [--seconds T] [--workload W ...]

Both revisions (HEAD defaults to ``HEAD``) are exported with ``git
archive`` into a temporary directory.  For each workload, N pairs of
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` run
there, one on each side; pair k runs BASE first when k is even and HEAD
first when it is odd.  For each workload the tool prints, for
``sim_tasks_per_s``, ``setup_s`` and ``peak_rss_mb``, each side's median
and interquartile range, the change of the medians in percent, and the
pairs HEAD won (ties count for neither side).  It then reports whether
every simulated metric (a unit starting ``sim-``) and the decision digest
matched in every pair.

Defaults: 10 pairs, seed 7, all four workloads, and the run length
``BENCHMARK.json`` sets.  Exit status 1 means a run failed or a
simulated result differed between the two sides.  Needs only the
standard library and git.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The timed end-to-end metrics and which direction is better.
TIMED = {"sim_tasks_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
DIGEST = re.compile(r"^\s*decision digest: (\S+)$", re.MULTILINE)


def _git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, check=True
    ).stdout


def export(root: Path, revision: str, dest: Path) -> str:
    """Extract ``revision``'s tree into ``dest``; returns its commit id."""
    commit = _git(
        "rev-parse", "--verify", f"{revision}^{{commit}}", cwd=root
    ).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit, cwd=root))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """One timed perfbench run in ``tree``: its metric values by name and
    its decision digest (None when it prints none).  Raises RuntimeError
    when the run fails."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    run = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if run.returncode != 0 or result is None or not result.get("correct"):
        tail = (run.stdout + run.stderr).strip().splitlines()[-3:]
        raise RuntimeError(
            f"{workload} in {tree.name}: exit {run.returncode}: " + " | ".join(tail)
        )
    found = DIGEST.findall(run.stdout)
    return {
        "metrics": result["metrics"],
        "failed": result["failed"],
        "digest": found[0] if len(found) == 1 else None,
    }


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """(median, interquartile range) of ``values``."""
    if len(values) < 2:
        return values[0], 0.0
    low, middle, high = statistics.quantiles(values, n=4, method="inclusive")
    return middle, high - low


def summarize(pairs: Sequence[Tuple[dict, dict]]) -> List[dict]:
    """One row per timed metric over ``(base, head)`` run pairs."""
    rows = []
    for name, better in TIMED.items():
        base = [run["metrics"][name]["value"] for run, _ in pairs]
        head = [run["metrics"][name]["value"] for _, run in pairs]
        base_median, base_iqr = _quartiles(base)
        head_median, head_iqr = _quartiles(head)
        sign = 1 if better == "higher" else -1
        rows.append({
            "metric": name,
            "base_median": base_median,
            "base_iqr": base_iqr,
            "head_median": head_median,
            "head_iqr": head_iqr,
            "change_pct": 100.0 * (head_median - base_median) / base_median,
            "head_won": sum(
                1 for b, h in zip(base, head) if sign * (h - b) > 0
            ),
            "pairs": len(pairs),
        })
    return rows


def mismatches(pairs: Sequence[Tuple[dict, dict]]) -> List[str]:
    """Each simulated metric, failure count or digest that differs within
    a pair, as ``pair k: name base -> head``."""
    found = []
    for index, (base, head) in enumerate(pairs):
        names = sorted(
            name for name, metric in {**base["metrics"], **head["metrics"]}.items()
            if metric["unit"].startswith("sim-")
        )
        compared = [
            (name, base["metrics"].get(name, {}).get("value"),
             head["metrics"].get(name, {}).get("value"))
            for name in names
        ]
        compared.append(("failed", base["failed"], head["failed"]))
        compared.append(("decision digest", base["digest"], head["digest"]))
        for name, old, new in compared:
            if old != new:
                found.append(f"pair {index}: {name} {old} -> {new}")
    return found


def report(workload: str, pairs: Sequence[Tuple[dict, dict]]) -> List[str]:
    """Print one workload's table; returns its mismatches."""
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<16} {'base median (IQR)':<22} {'head median (IQR)':<22}"
          f" {'change':>8}  head won")
    for row in summarize(pairs):
        base = f"{row['base_median']:.6g} ({row['base_iqr']:.3g})"
        head = f"{row['head_median']:.6g} ({row['head_iqr']:.3g})"
        print(f"  {row['metric']:<16} {base:<22} {head:<22}"
              f" {row['change_pct']:>+7.1f}%  {row['head_won']} of {row['pairs']}")
    found = mismatches(pairs)
    if found:
        print("  simulated results DIFFER:")
        for line in found:
            print(f"    {line}")
    else:
        print(f"  simulated metrics and decision digest: identical in all "
              f"{len(pairs)} pairs")
    return found


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # A terminated run still kills its perfbench child and removes the trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path(_git(
        "rev-parse", "--show-toplevel", cwd=Path(__file__).resolve().parent
    ).decode().strip())
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = {side: Path(workdir) / side for side in ("base", "head")}
        commits = {
            side: export(root, revision, trees[side])
            for side, revision in (("base", args.base), ("head", args.head))
        }
        benchmark = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
        print(f"base {commits['base'][:12]}  head {commits['head'][:12]}  "
              f"seed {args.seed}  {seconds:g} s per run  {args.pairs} pairs")
        failed = False
        for workload in workloads:
            pairs = []
            for index in range(args.pairs):
                order = ("base", "head") if index % 2 == 0 else ("head", "base")
                runs = {}
                for side in order:
                    try:
                        runs[side] = run_once(trees[side], workload, args.seed, seconds)
                    except RuntimeError as error:
                        print(f"FAILED {error}")
                        return 1
                pairs.append((runs["base"], runs["head"]))
                print(
                    f"  {workload} pair {index + 1}/{args.pairs} ({order[0]} first):"
                    " sim_tasks_per_s base "
                    f"{runs['base']['metrics']['sim_tasks_per_s']['value']:.6g}"
                    f", head {runs['head']['metrics']['sim_tasks_per_s']['value']:.6g}",
                    flush=True,
                )
            failed |= bool(report(workload, pairs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
