"""Check the committed benchmark's decision digests against their baseline.

For each workload in ``benchmarks/baselines/perfbench_digests.json`` this
runs one pass of ``perfbench/run.py --workload W --seed S --seconds 0``
and reads its ``decision digest:`` note: a hash of every scheduling
decision of the pass.  It exits 1 and names each workload whose digest
differs (expected and got) or whose run failed.

A digest moves only when a decision moves, so the baseline file is
regenerated only alongside an intentional decision change, like the
test pins.

Usage, from any directory::

    python3 benchmarks/check_perfbench_digests.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "perfbench_digests.json"
DIGEST = re.compile(r"^\s*decision digest: (\S+)$", re.MULTILINE)


def digest_of(workload: str, seed: int) -> str:
    """The decision digest of one pass; raises RuntimeError when the run
    fails or prints no single digest."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    found = DIGEST.findall(run.stdout)
    if run.returncode != 0 or len(found) != 1:
        last = (run.stdout + run.stderr).strip().splitlines()[-1:]
        raise RuntimeError(f"exit {run.returncode}: {' '.join(last)}")
    return found[0]


def main() -> int:
    baseline = json.loads(BASELINE.read_text())
    seed = baseline["seed"]
    failures: List[str] = []
    for workload, expected in baseline["digests"].items():
        try:
            got = digest_of(workload, seed)
        except RuntimeError as error:
            failures.append(f"{workload}: run failed ({error})")
            continue
        if got != expected:
            failures.append(f"{workload}: expected {expected}, got {got}")
        else:
            print(f"{workload} seed {seed}: {got} ok")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
