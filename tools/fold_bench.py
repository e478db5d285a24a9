"""Fold paired perfbench records into a committed BENCH_<workload>.json.

    python tools/fold_bench.py --workload alloc-milp --parent PARENT --change CHANGE

PARENT and CHANGE are the roots of two checkouts, the parent commit and the
change, each of which has run ``perfbench/run.py --trace 0`` on the same
seeds. The tool reads their ``.perfbench/record-<workload>-seed<N>-trace0.json``
files; a seed recorded on both sides is one pair. It appends one entry to
``BENCH_<workload>.json`` at the root of this checkout (or ``--out``) with
the two commits, the seeds, the run length, the ops attempted and failed on
each side, and for each end-to-end metric in BENCHMARK.json each side's
median and quartiles and the pairs the change won (ties count for
neither). An entry for the same two commits is replaced, so a re-fold after
more pairs does not duplicate it.

It then prints one line per end-to-end metric: the pairs won out of n, the
change's median less the parent's (absolute and relative), the parent's
quartile spread (q3 - q1), and whether the change is worse than the parent
by no more than the metric's relative ``bound`` in BENCHMARK.json. These
verdicts are printed only; the entry holds the figures they come from.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_records(checkout: Path, workload: str) -> dict[int, dict]:
    """The checkout's untraced records of the workload, by seed."""
    records = {}
    for path in sorted((checkout / ".perfbench").glob(f"record-{workload}-seed*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        records[record["seed"]] = record
    return records


def only(values: set, what: str):
    """The one value all records share, or SystemExit naming the mix."""
    if len(values) != 1:
        raise SystemExit(f"records mix {what}: {sorted(map(str, values))}")
    return values.pop()


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles, interpolated between order statistics."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def fold(parent: dict[int, dict], change: dict[int, dict], metrics: list[dict]) -> dict:
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise SystemExit("no seed has a record on both sides")
    sides = {"parent": [parent[s] for s in seeds], "change": [change[s] for s in seeds]}
    entry = {
        f"{side}_commit": only({r["git_commit"] for r in recs}, f"{side} commits")
        for side, recs in sides.items()
    }
    entry["seeds"] = seeds
    entry["seconds"] = only({r["seconds"] for r in sides["parent"] + sides["change"]},
                            "run lengths")
    for side, recs in sides.items():
        entry[f"{side}_ops"] = {"attempted": sum(r["attempted"] for r in recs),
                                "failed": sum(r["failed"] for r in recs)}
    entry["metrics"] = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["end_to_end"][name] for r in recs] for side, recs in sides.items()}
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(values["parent"]),
            "change": summary(values["change"]),
            "pairs_won": won,
            "pairs": len(seeds),
        }
    return entry


def verdicts(entry: dict, metrics: list[dict]) -> list[str]:
    """One line per metric of the entry: pairs won, median delta, the
    parent's quartile spread, and whether the change stays within bound."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        m = entry["metrics"][name]
        parent, change = m["parent"]["median"], m["change"]["median"]
        delta = change - parent
        if parent:
            relative = delta / abs(parent)
        else:
            relative = 0.0 if delta == 0 else math.copysign(math.inf, delta)
        worse = relative if metric["better"] == "lower" else -relative
        within = "yes" if worse <= metric["bound"] else "NO"
        lines.append(
            f"{name}: won {m['pairs_won']}/{m['pairs']}, median {parent:.6g} -> "
            f"{change:.6g} ({delta:+.6g} {m['unit']}, {relative:+.1%}), parent "
            f"spread {m['parent']['q3'] - m['parent']['q1']:.6g}, within bound "
            f"{metric['bound']:.0%}: {within}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    entry = fold(read_records(args.parent, args.workload),
                 read_records(args.change, args.workload), benchmark["end_to_end"])

    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    entries = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    entries = [e for e in entries
               if (e["parent_commit"], e["change_commit"])
               != (entry["parent_commit"], entry["change_commit"])]
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{out.name}: {len(entry['seeds'])} pairs, {entry['parent_commit'][:7]} -> "
          f"{entry['change_commit'][:7]}")
    for line in verdicts(entry, benchmark["end_to_end"]):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
