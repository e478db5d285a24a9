"""Pin the golden output digests of the default workload seed.

    python3 perfbench/pin_goldens.py

Runs each distinct op of every workload's cycle at workload seed 0 (the
first ``LIMIT`` of them for larger cycles) and writes the sha256 of every
file it produced to ``perfbench/goldens.json``, with the numpy version
next to them. NEP 19 does not promise stable ``Generator`` streams across
numpy versions, so the worker only enforces goldens made under the numpy
it runs with and reports them as unpinned otherwise. Re-pin only on
purpose, when a change is meant to alter outputs, and say why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import SRC, program_env

# The worker's environment, set before numpy is imported; the stored run
# of waste-feedback is made by a child process that inherits it.
os.environ.update(program_env())
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
LIMIT = 32
GOLDENS = Path(__file__).with_name("goldens.json")


def main() -> None:
    root = SRC.parent / ".perfbench"
    root.mkdir(exist_ok=True)
    pinned = {}
    for name, cls in sorted(WORKLOADS.items()):
        workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=root))
        try:
            workload = cls(DEFAULT_SEED, workdir)
            workload.prepare()
            digests = {}
            for op in workload.cycle[:LIMIT]:
                outcome = workload.inspect(op, workload.execute(op), {})
                if outcome.problems:
                    raise SystemExit(f"{name} {op.key}: {outcome.problems}")
                digests[op.key] = outcome.digests
            pinned[name] = digests
            print(f"{name}: pinned {len(digests)} ops")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    doc = {"numpy": numpy.__version__, "workload_seed": DEFAULT_SEED, "workloads": pinned}
    GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
