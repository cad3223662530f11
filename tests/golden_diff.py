"""List the golden entries that differ between a git revision and the tree.

Usage::

    python tests/golden_diff.py REV [PATTERN]

For each golden file under ``tests/data``, prints every key whose entry
differs from the file at ``REV`` (compared as the files' own compact,
sorted-key JSON, so "unchanged" means byte-identical), plus added and
removed keys.  With ``PATTERN`` (an ``fnmatch`` glob over keys), exits 1
if any differing key falls outside it -- the check that an intentional
behavioral change moved exactly the entries it claims to.
"""

import fnmatch
import gzip
import json
import pathlib
import subprocess
import sys

DATA = pathlib.Path(__file__).parent / "data"
FILES = ("golden_hotpath.json.gz", "golden_cluster.json.gz")


def _runs(blob: bytes) -> dict:
    return json.loads(gzip.decompress(blob))["runs"]


def _entry(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def main(argv) -> int:
    if not argv or len(argv) > 2:
        print(__doc__)
        return 2
    rev, pattern = argv[0], argv[1] if len(argv) > 1 else None
    root = DATA.parent.parent
    stray = 0
    for name in FILES:
        old = _runs(
            subprocess.run(
                ["git", "show", f"{rev}:tests/data/{name}"],
                cwd=root, check=True, capture_output=True,
            ).stdout
        )
        new = _runs((DATA / name).read_bytes())
        changed = sorted(
            key for key in old.keys() & new.keys()
            if _entry(old[key]) != _entry(new[key])
        )
        added = sorted(new.keys() - old.keys())
        removed = sorted(old.keys() - new.keys())
        identical = len(old.keys() & new.keys()) - len(changed)
        print(
            f"{name}: {len(changed)} changed, {len(added)} added, "
            f"{len(removed)} removed, {identical} byte-identical"
        )
        for label, keys in (("changed", changed), ("added", added),
                            ("removed", removed)):
            for key in keys:
                outside = pattern is not None and not fnmatch.fnmatch(key, pattern)
                stray += outside
                print(f"  {label} {key}{'  (outside pattern)' if outside else ''}")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
