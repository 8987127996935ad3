"""Record the golden digest of every step any seed can draw.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_goldens.py [--workload NAME ...]

The goldens pin the program's simulated output: a change that moves a
single simulated number makes the affected steps fail in the benchmark.
Re-record only in a change that means to move simulated output, and say
why in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS, digest

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def record(name: str) -> dict[str, str]:
    workload = WORKLOADS[name]()
    workload.setup()
    goldens = {}
    for key in workload.universe():
        checked = workload.check(key, workload.run(key))
        if checked.problems:
            raise SystemExit(f"{name} {key} fails its own check: {checked.problems}")
        goldens[key] = digest(checked.canonical)
    return goldens


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    table = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        table[name] = record(name)
        print(f"{name}: {len(table[name])} goldens", file=sys.stderr)
    GOLDENS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
