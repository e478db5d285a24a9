"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs one op of every workload of BENCHMARK.json at the default seed,
untraced and then traced, and checks that each run names every metric
of BENCHMARK.json with its unit, fails no op and matches its goldens;
that the traced layer split holds (route learning leads waste-learn, the
solver leads alloc-milp, and no routing or classify span appears on
battery-study or alloc-milp); and that the benchmark refuses to run,
with no result line, in a directory holding only BENCHMARK.json and
perfbench/. Exits nonzero if any check failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LEADING_SELF_TIME = {"waste-learn": "routing.train_routing", "alloc-milp": "solver.solve_milp"}
NO_SPANS_FROM = {"battery-study": ("routing.", "classify."), "alloc-milp": ("routing.", "classify.")}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), "--max-ops", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} ops failed")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics/units differ from BENCHMARK.json: {set(got.items()) ^ set(wanted.items())}")
    record = json.loads((RESULTS / f"record-{workload}-seed0-trace{trace}.json").read_text())
    if not record["goldens"].startswith("checked"):
        problems.append(f"goldens: {record['goldens']}")
    if trace:
        self_s = record["self_s_by_layer"]
        lead = LEADING_SELF_TIME.get(workload)
        if lead and max(self_s, key=self_s.get) != lead:
            problems.append(f"largest self time is {max(self_s, key=self_s.get)}, not {lead}")
        prefixes = NO_SPANS_FROM.get(workload)
        stray = [n for n in self_s if prefixes and n.startswith(prefixes)]
        if stray:
            problems.append(f"unexpected spans {stray}")
    return problems


def check_bare_directory() -> list[str]:
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["ran without the program's sources"]
    return []


def main() -> int:
    failures = 0
    names = [w["name"] for w in SPEC["workloads"]]
    checks = [(f"{name} trace={t}", check, (name, t)) for name in names for t in (0, 1)]
    checks.append(("bare directory refused", check_bare_directory, ()))
    for label, fn, fn_args in checks:
        problems = fn(*fn_args)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for p in problems:
            print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
