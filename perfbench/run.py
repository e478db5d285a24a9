"""greenloop benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a greenloop checkout; the program is imported from
its ``src/``. BENCHMARK.json names the workloads; their rationale and the
per-layer predictions are in ``perfbench/predictions.json``. With
``--trace 0`` the last line of stdout is a JSON object carrying every
end-to-end metric; with ``--trace 1`` it carries every per-layer metric
instead. A run record with the host, versions, op counts, input sizes
and every raw time is written under ``.perfbench/`` in the checkout.

One worker process runs the workload's closed loop. ``setup_s`` is the
median time of fresh interpreters importing ``greenloop.cli``, which a
CLI user pays on every invocation, measured three times before the
worker and three times after it. Times in end-to-end metrics are
normalised to a nominal host speed (``hostspeed.py``); the raw wall
times are printed and recorded beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
WORKLOADS = ("waste-learn", "battery-study", "alloc-milp", "waste-feedback")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 3  # before the worker and again after it
SETUP_PROBES = 3  # host speed probes before and after each import
DEADLINE_S = 170.0


def program_env() -> dict[str, str]:
    """The program's environment: this checkout's src, one BLAS thread and
    a fixed hash seed, so that runs differ in their inputs and the host,
    not in the layout of the program's dicts and sets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], speed: hostspeed.HostSpeed,
                  runs: int) -> tuple[list[float], list[float]]:
    """Wall seconds of `runs` fresh interpreters importing greenloop.cli,
    and the median host speed probe seconds just before and after each."""
    cmd = [sys.executable, "-c", "import greenloop.cli"]
    times, refs = [], []
    for _ in range(runs):
        first = len(speed.seconds)
        for _ in range(SETUP_PROBES):
            speed.probe()
        t0 = time.perf_counter()
        # Pipes let run() return at the child's exit; without them a wait
        # with a timeout polls, in steps of up to 50 ms.
        subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
        for _ in range(SETUP_PROBES):
            speed.probe()
        refs.append(statistics.median(speed.seconds[first:]))
    return times, refs


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def normalised(phase: dict) -> list[float]:
    """Op times scaled to the nominal host speed (see hostspeed.py)."""
    return [s * hostspeed.NOMINAL_S / r for s, r in zip(phase["op_s"], phase["ref_s"])]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many inputs (harness self-check)")
    args = parser.parse_args()

    if not (SRC / "greenloop" / "cli.py").is_file():
        print(f"error: no greenloop sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = program_env()
    setup: list[float] = []
    setup_refs: list[float] = []
    speed = None
    if not args.trace:
        speed = hostspeed.HostSpeed()
        measure_setup(env, speed, 1)  # the first import also byte-compiles
        setup, setup_refs = measure_setup(env, speed, IMPORT_REPEATS)

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = RESULTS / f"result-{tag}.json"
    spans_path = RESULTS / f"spans-{tag}.json"
    result_path.unlink(missing_ok=True)
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--max-ops", str(args.max_ops),
           "--workdir", str(workdir),
           "--result", str(result_path), "--spans", str(spans_path)]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {done.returncode}\n{done.stderr}", file=sys.stderr)
        return 3
    w = json.loads(result_path.read_text(encoding="utf-8"))
    if speed is not None:
        after, after_refs = measure_setup(env, speed, IMPORT_REPEATS)
        setup += after
        setup_refs += after_refs

    op_s = w["untraced"]["op_s"]
    norm_s = normalised(w["untraced"])
    end_to_end = {
        "op_s_p50_norm": (statistics.median(norm_s), "s"),
        "op_s_p90_norm": (p90(norm_s), "s"),
        "ops_per_s_norm": (len(norm_s) / sum(norm_s), "1/s"),
        "setup_s": (statistics.median(normalised({"op_s": setup, "ref_s": setup_refs}))
                    if setup else None, "s"),
        "peak_rss_mb": (w["peak_rss_mb"], "MB"),
        "bytes_written_per_op": (w["untraced"]["bytes_written_per_op"], "bytes"),
    }
    raw = {"op_s_p50": statistics.median(op_s), "op_s_p90": p90(op_s),
           "ops_per_s": len(op_s) / sum(op_s),
           "setup_s": statistics.median(setup) if setup else None}
    per_layer = {}
    if args.trace:
        t = w["traced"]
        per_layer = dict(t["layers"])
        per_layer["trace_overhead_frac"] = (statistics.median(normalised(t))
                                            / statistics.median(norm_s) - 1)
        shown = {name: (value, tracing.unit(name)) for name, value in per_layer.items()}
    else:
        shown = end_to_end

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": w["numpy"],
        "blas_threads": {name: env[name] for name in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "input_sizes": w["sizes"],
        "ops": {"warmup": 1, "untraced": len(op_s),
                "traced": len(w["traced"]["op_s"]) if args.trace else 0,
                "cycle": w["cycle_ops"]},
        "warmup_s": w["warmup_s"],
        "untraced_op_s": op_s,
        "untraced_ref_s": w["untraced"]["ref_s"],
        "raw_wall": raw,
        "setup_runs_s": setup,
        "setup_ref_s": setup_refs,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "error_rate": w["failed"] / w["attempted"],
        "problems": w["problems"],
        "goldens": w["goldens"],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if args.trace:
        record["per_layer"] = per_layer
        record["per_layer_ops"] = w["traced"]["layer_ops"]
        record["self_s_by_layer"] = w["traced"]["self_by_layer"]
        record["missing_wrap_points"] = w["traced"]["missing_wrap_points"]
        record["spans_file"] = spans_path.name
    record_path = RESULTS / f"record-{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result_path.unlink()

    for problem in w["problems"]:
        print(f"FAILED {problem}")
    if args.trace and record["missing_wrap_points"]:
        print(f"missing wrap points: {', '.join(record['missing_wrap_points'])}")
    print(f"{args.workload} seed {args.seed}: {len(op_s)} untraced ops, "
          f"goldens {w['goldens']}, record {record_path.relative_to(ROOT)}")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print("  raw wall time: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items() if v))
    print(json.dumps({
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
