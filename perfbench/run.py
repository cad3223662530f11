#!/usr/bin/env python3
"""Run one benchmark workload of the PREMA simulator and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_npu --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes the
separate traced run and prints every per-layer metric.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
exits with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_npu", "node_serving", "fleet_steal", "node_batching")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="input size factor (smoke tests only; metrics assume 1.0)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: simulator sources not found at {ROOT / 'src' / 'repro'}; "
            "run the benchmark from a full checkout",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import harness

    return harness.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
