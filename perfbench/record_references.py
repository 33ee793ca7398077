"""Record ``references.json``: each workload's reference quantities on its
default seed, as the current code computes them.

Run from the root of a checkout, only on code whose outputs are trusted::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCES, WORKLOADS


def main() -> int:
    refs = {}
    scratch = Path(__file__).parent / "out"
    scratch.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workdir = Path(tmp)
            result = workload.setup(workload.default_seed, workdir)()
            problems, quantities = workload.check(result, workload.default_seed, workdir)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        refs[name] = quantities
        print(f"{name}: {quantities}")
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
