"""One workload's client: issues ops one after another and checks each.

Run by ``run.py`` in a process of its own, so that process's peak RSS is
the workload's. It runs one untimed warm-up op, then one timed phase: at
least one whole cycle of the workload's ops, stopping at the first op
boundary after its time is up. With ``--trace 1`` every input of the
phase runs untraced and then traced. A timer samples the host speed
throughout the phase (``hostspeed.py``). The result goes to ``--result``
as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import numpy

import hostspeed
import tracing
from workloads import WORKLOADS, Op, Workload

GOLDENS = Path(__file__).with_name("goldens.json")
MAX_PROBLEMS = 20


class Checker:
    """Output checks shared by all ops of one worker.

    An op fails if it raises, exits nonzero, fails its workload's output
    check, differs from an earlier op with the same inputs, or differs
    from a golden digest pinned under the same numpy version.
    """

    def __init__(self, workload: Workload, speed: hostspeed.HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.first: dict[str, dict[str, str]] = {}
        doc = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.is_file() else {}
        self.golden_numpy = doc.get("numpy")
        self.goldens = doc.get("workloads", {}).get(workload.name, {})
        self.golden_checked = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, op: Op,
            tracer: tracing.Tracer | None) -> tuple[float, tuple[float, float], int]:
        """Execute, time and check one op.

        Returns its seconds (less the host speed probes that interrupted
        it), its (start, end) on the perf_counter clock and the bytes it
        wrote.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(index)
        probes_s = self.speed.spent_s
        start = time.perf_counter()
        try:
            result = self.workload.execute(op)
            error = None
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            error = traceback.format_exc(limit=3)
        finally:
            end = time.perf_counter()
            seconds = end - start - (self.speed.spent_s - probes_s)
            if tracer is not None:
                tracer.end_op()
        problems: list[str] = []
        written = 0
        if error is not None:
            problems.append(f"raised: {error}")
        else:
            try:
                outcome = self.workload.inspect(op, result, tracer.kept if tracer else {})
            except Exception:  # noqa: BLE001 - output that cannot be read back fails the op
                problems.append(f"output check raised: {traceback.format_exc(limit=3)}")
            else:
                problems = outcome.problems + self._compare(op, outcome.digests)
                written = outcome.bytes_written
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems += [f"{op.key}: {p}" for p in problems[:max(room, 0)]]
        return seconds, (start, end), written

    def _compare(self, op: Op, digests: dict[str, str]) -> list[str]:
        problems = []
        first = self.first.setdefault(op.key, digests)
        if digests != first:
            changed = sorted(k for k in digests if digests.get(k) != first.get(k))
            problems.append(f"repeat with the same inputs changed {changed}")
        pinned = self.goldens.get(op.key)
        if pinned is not None and self.golden_numpy == numpy.__version__:
            self.golden_checked += 1
            if digests != pinned:
                changed = sorted(k for k in pinned if digests.get(k) != pinned.get(k))
                problems.append(f"golden digest mismatch in {changed}")
        return problems

    def golden_status(self) -> str:
        if not self.goldens:
            return "none pinned for this workload"
        if self.golden_numpy != numpy.__version__:
            return f"unpinned: goldens made with numpy {self.golden_numpy}"
        if not self.golden_checked:
            return "no op of this seed is pinned"
        return f"checked {self.golden_checked} ops"


def run_phase(checker: Checker, cycle: list[Op], seconds: float, max_ops: int,
              tracer: tracing.Tracer | None = None) -> dict[str, dict[str, list]]:
    """Run ops until `seconds` have passed and at least one cycle is done.

    The host speed probe runs on its timer throughout, and once before
    the first op and after the last. With a tracer, each input runs twice
    in a row, untraced and then traced (wrappers installed for that op
    only), so the tracing overhead compares the same inputs under the
    same host conditions. Returns per-op seconds, probe seconds around
    the op and bytes written, for the "untraced" and, with a tracer, the
    "traced" ops.
    """
    speed = checker.speed
    passes = (None, tracer) if tracer else (None,)
    ops: list[tuple[bool, float, tuple[float, float], int]] = []
    speed.probe()
    speed.start()
    try:
        step = 0
        start = time.perf_counter()
        while step < len(cycle) or time.perf_counter() - start < seconds:
            if max_ops and step >= max_ops:
                break
            for t in passes:
                if t is not None:
                    t.install()
                try:
                    s, window, b = checker.run(step, cycle[step % len(cycle)], t)
                finally:
                    if t is not None:
                        t.uninstall()
                ops.append((t is not None, s, window, b))
            step += 1
    finally:
        speed.stop()
    speed.probe()
    return {
        ("traced" if traced else "untraced"): {
            "op_s": [s for t, s, _, _ in ops if t == traced],
            "ref_s": [speed.around(*w) for t, _, w, _ in ops if t == traced],
            "written": [b for t, _, _, b in ops if t == traced],
        }
        for traced in {t is not None for t in passes}
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-ops", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    speed = hostspeed.HostSpeed()
    args.workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    cycle = workload.cycle
    checker = Checker(workload, speed)
    t0 = time.perf_counter()
    checker.run(-1, cycle[0], None)
    warmup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.keep_returns = set(workload.keep_returns)
    phases = run_phase(checker, cycle, args.seconds, args.max_ops, tracer)
    untraced = phases["untraced"]
    first_cycle = min(len(cycle), len(untraced["written"]))
    result = {
        "warmup_s": warmup_s,
        "untraced": {"op_s": untraced["op_s"], "ref_s": untraced["ref_s"],
                     "bytes_written_per_op": sum(untraced["written"][:first_cycle]) / first_cycle},
    }
    if tracer is not None:
        traced = phases["traced"]
        ops = list(range(min(len(cycle), len(traced["op_s"]))))
        result["traced"] = {
            "op_s": traced["op_s"],
            "ref_s": traced["ref_s"],
            "layer_ops": len(ops),
            "layers": tracing.layer_metrics(tracer, ops),
            "self_by_layer": tracing.self_seconds_by_layer(tracer, ops),
            "missing_wrap_points": tracer.missing,
        }
        args.spans.write_text(json.dumps(tracer.span_dicts()), encoding="utf-8")
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        goldens=checker.golden_status(),
        sizes=workload.sizes,
        cycle_ops=len(cycle),
        numpy=numpy.__version__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
