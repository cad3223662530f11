"""Check the committed benchmark's work counts against their baseline.

For each workload in ``benchmarks/baselines/perfbench_counts.json`` this
runs the traced pass ``perfbench/run.py --workload W --seed S --seconds 0
--trace 1`` and reads every per-layer row whose clock column says
``count`` or ``simulated``: events by kind, policy hook, ledger, backlog
and steal-scan calls, preemptions, DRAIN decisions, migrations,
admissions, spans, and the simulated quantities.  None of them depends
on the host, so each is checked exactly, with the value the pass prints
on its last (JSON) line.  It exits 1 and names each row that differs
(expected and got), is missing or is new, and each workload whose run
failed.

A count moves only with a change that explains it, like a decision
digest or a test pin; regenerate the file then, from :func:`counts_of`,
and say in the change log why each moved count moved.

Usage, from any directory::

    python3 benchmarks/check_perfbench_counts.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "perfbench_counts.json"
#: One per-layer table row: name, value, unit, better, clock.
ROW = re.compile(
    r"^\s+(\S+)\s+\S+\s+\S+\s+(?:lower|higher)\s+(count|simulated|host)$",
    re.MULTILINE,
)


def counts_of(workload: str, seed: int) -> Dict[str, float]:
    """Every ``count`` and ``simulated`` row of one traced pass, in print
    order; raises RuntimeError when the run fails."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", "1",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        last = (run.stdout + run.stderr).strip().splitlines()[-1:]
        raise RuntimeError(f"exit {run.returncode}: {' '.join(last)}")
    metrics = json.loads(lines[-1])["metrics"]
    return {
        name: metrics[name]["value"]
        for name, clock in ROW.findall(run.stdout)
        if clock != "host"
    }


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    seed = baseline["seed"]
    failures: List[str] = []
    for workload, expected in baseline["counts"].items():
        try:
            got = counts_of(workload, seed)
        except RuntimeError as error:
            failures.append(f"{workload}: run failed ({error})")
            continue
        moved = [
            f"{workload} {name}: expected {expected.get(name, 'no row')}, "
            f"got {got.get(name, 'no row')}"
            for name in {**expected, **got}
            if expected.get(name) != got.get(name)
        ]
        failures.extend(moved)
        if not moved:
            print(f"{workload} seed {seed}: {len(got)} counts ok")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
