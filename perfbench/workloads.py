"""The benchmark's workloads: generated inputs, operations and output checks.

Every workload is a closed loop with one client. Its operations form a
fixed cycle that the worker repeats, so within one run the same inputs
come back and their outputs must come back byte for byte. The workload
seed picks the program's ``--seed`` values and generates the allocation
scenarios; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import greenloop.cli
from greenloop import classify, pipeline, routing, scenario, serialize, solver, twin

FIXTURES = Path(greenloop.cli.__file__).parent / "fixtures"
_RUN_LINE = re.compile(r"run ([0-9a-f]{16}) \((\w+), seed (\d+)\) -> (.+)\n")


@dataclass(frozen=True)
class Op:
    """One operation: a `greenloop run` invocation or a feedback round."""

    key: str  # identity of the op's inputs; equal keys must give equal bytes
    argv: tuple[str, ...] = ()
    mode: str = ""
    seed: int = 0


@dataclass
class Outcome:
    """What one op left behind, read back after its timer stopped."""

    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = greenloop.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _graph_legs(doc: dict) -> dict[tuple[str, str], float]:
    legs = {}
    for e in doc["collection_graph"]["edges"]:
        kg = e["distance_km"] * e["emission_rate_kg_per_km"]
        legs[(e["a"], e["b"])] = kg
        legs.setdefault((e["b"], e["a"]), kg)
    return legs


def route_problems(routes, districts, depot, legs, transport_kg=None) -> list[str]:
    """Each route must be a depot-to-depot tour over its district's bins."""
    if len(routes) != len(districts):
        return [f"{len(routes)} routes for {len(districts)} districts"]
    problems = []
    total = 0.0
    for i, (route, bins) in enumerate(zip(routes, districts)):
        if route[0] != depot or route[-1] != depot:
            problems.append(f"route {i} does not start and end at the depot")
        if sorted(route[1:-1]) != sorted(bins):
            problems.append(f"route {i} does not visit each district bin exactly once")
        kg = 0.0
        for a, b in zip(route, route[1:]):
            if (a, b) not in legs:
                problems.append(f"route {i} uses a missing edge {a}-{b}")
                continue
            kg += legs[(a, b)]
        total += kg
    if transport_kg is not None and not math.isclose(total, transport_kg, rel_tol=1e-9):
        problems.append(f"route emissions {total!r} != transport_emissions_kg {transport_kg!r}")
    return problems


class Workload:
    """Base: a cycle of `greenloop run` ops whose output is one run directory."""

    name = ""
    artifacts: frozenset[str] = frozenset()
    keep_returns: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cycle: list[Op] = []
        self.sizes: dict[str, Any] = {}

    def prepare(self) -> None:
        """Build inputs and the op cycle; untimed."""
        raise NotImplementedError

    def _run_op(self, scenario_arg: str, label: str, mode: str, seed: int) -> Op:
        argv = ("run", "--scenario", scenario_arg, "--mode", mode,
                "--seed", str(seed), "--out", str(self.out))
        return Op(key=f"{label}|{mode}|seed={seed}", argv=argv, mode=mode, seed=seed)

    def execute(self, op: Op) -> Any:
        """The timed part of an op."""
        return call_cli(op.argv)

    def inspect(self, op: Op, result: Any, kept: dict[str, list]) -> Outcome:
        """Read back and check what the op produced; untimed."""
        code, stdout, stderr = result
        outcome = Outcome()
        if code != 0:
            outcome.problems.append(f"exit {code}: {stderr.strip()}")
            return outcome
        m = _RUN_LINE.fullmatch(stdout)
        if not m or m.group(2) != op.mode or int(m.group(3)) != op.seed:
            outcome.problems.append(f"unexpected stdout {stdout!r}")
            return outcome
        run_dir = Path(m.group(4)).parent
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        files = manifest["artifacts"]
        if set(files) != self.artifacts:
            outcome.problems.append(f"artifacts {sorted(files)} != {sorted(self.artifacts)}")
            return outcome
        outcome.digests = {rel: sha256_file(run_dir / rel) for rel in sorted(files.values())}
        outcome.bytes_written = sum(p.stat().st_size for p in run_dir.iterdir())
        outcome.problems += self.check(op, run_dir, kept)
        return outcome

    def check(self, op: Op, run_dir: Path, kept: dict[str, list]) -> list[str]:
        return []


class BatteryStudy(Workload):
    name = "battery-study"
    artifacts = frozenset({"scenario", "metrics"})
    keep_returns = frozenset({"twin.simulate_recycling"})
    SEEDS = 4

    def prepare(self) -> None:
        for _ in range(self.SEEDS):
            seed = self.rng.randrange(2**31)
            for mode in ("baseline", "framework"):
                fixture = f"battery_{mode}.json"
                self.cycle.append(self._run_op(fixture, fixture, mode, seed))
        doc = json.loads((FIXTURES / "battery_framework.json").read_text(encoding="utf-8"))
        self.sizes = {"materials": len(doc["materials"]), "seeds": self.SEEDS,
                      "cycle_ops": len(self.cycle)}

    def check(self, op, run_dir, kept):
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        problems = []
        recovery = metrics["recovery"]
        if not recovery or not all(0.0 <= v <= 1.0 for v in recovery.values()):
            problems.append(f"recovery rates out of range: {recovery}")
        for trace in kept.get("twin.simulate_recycling", ()):
            problems += twin.check_mass_conservation(trace)
        return problems


class WasteLearn(Workload):
    name = "waste-learn"
    artifacts = frozenset({"scenario", "metrics", "classifier", "qtables", "routes"})
    FIXTURE = "waste_framework.json"
    SEEDS = 2

    def prepare(self) -> None:
        for _ in range(self.SEEDS):
            seed = self.rng.randrange(2**31)
            self.cycle.append(self._run_op(self.FIXTURE, self.FIXTURE, "framework", seed))
        doc = json.loads((FIXTURES / self.FIXTURE).read_text(encoding="utf-8"))
        self._set_graph(doc)

    def _set_graph(self, doc: dict) -> None:
        graph = scenario.parse_scenario(doc).collection_graph
        self.depot = graph.depot
        self.legs = _graph_legs(doc)
        self.districts = [d.bin_ids() for d in pipeline.partition_districts(graph)]
        self.sizes = {"bins": len(graph.bin_ids()), "districts": len(self.districts),
                      "cycle_ops": len(self.cycle)}

    def check(self, op, run_dir, kept):
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        routes = json.loads((run_dir / "routes.json").read_text(encoding="utf-8"))["routes"]
        return route_problems(routes, self.districts, self.depot, self.legs,
                              metrics["transport_emissions_kg"])


class WasteFeedback(WasteLearn):
    """Feedback rounds on one stored waste-learn run directory.

    A round reads the run back through the library's readers, calls
    `pipeline.feedback_update` with its defaults and persists the updated
    classifier, route tables and routes the way `greenloop run` writes
    them, into a directory of its own so every round starts from the same
    stored run.
    """

    name = "waste-feedback"
    artifacts = frozenset({"classifier.json", "qtables.json", "routes.json"})

    def prepare(self) -> None:
        seed = self.rng.randrange(2**31)
        # A separate interpreter makes the run, so its memory peak stays
        # out of this worker's peak RSS.
        argv = self._run_op(self.FIXTURE, self.FIXTURE, "framework", seed).argv
        done = subprocess.run([sys.executable, "-m", "greenloop.cli", *argv],
                              capture_output=True, text=True, timeout=120, check=False)
        m = _RUN_LINE.fullmatch(done.stdout)
        if done.returncode != 0 or not m:
            raise RuntimeError(f"could not produce the stored run: {done.stderr.strip()}")
        self.stored = Path(m.group(4)).parent
        self.feedback_out = self.workdir / "feedback"
        self.feedback_out.mkdir()
        self.cycle = [Op(key=f"{self.FIXTURE}|feedback|seed={seed}", mode="feedback", seed=seed)]
        self._set_graph(json.loads((self.stored / "scenario.json").read_text(encoding="utf-8")))
        self.sizes["stored_bytes"] = sum(p.stat().st_size for p in self.stored.iterdir())

    def execute(self, op: Op) -> Any:
        # Attribute lookups on the modules at call time, so the traced pass
        # sees these calls.
        s = scenario.parse_scenario(serialize.read_json(self.stored / "scenario.json"))
        qdoc = serialize.read_json(self.stored / "qtables.json")
        model = classify.model_from_dict(serialize.read_json(self.stored / "classifier.json"))
        routes = serialize.read_json(self.stored / "routes.json")["routes"]
        prior = pipeline.RunArtifacts(
            version=qdoc["version"],
            classifier=model,
            district_qtables=tuple(routing.qtable_from_dict(t) for t in qdoc["tables"]),
            district_routes=tuple(tuple(r) for r in routes),
        )
        updated, diagnostics = pipeline.feedback_update(s, prior)
        v = updated.version
        out = self.feedback_out
        serialize.write_json(out / "classifier.json", classify.model_to_dict(updated.classifier, v))
        serialize.write_json(out / "qtables.json", {
            "version": v, "tables": [routing.qtable_to_dict(q, v) for q in updated.district_qtables],
        })
        serialize.write_json(out / "routes.json", {
            "version": v, "routes": [list(r) for r in updated.district_routes],
        })
        return updated, diagnostics

    def inspect(self, op, result, kept):
        updated, _ = result
        outcome = Outcome()
        outcome.digests = {rel: sha256_file(self.feedback_out / rel) for rel in sorted(self.artifacts)}
        outcome.bytes_written = sum(p.stat().st_size for p in self.feedback_out.iterdir())
        if updated.version != 2:
            outcome.problems.append(f"artifact version {updated.version} after one round, not 2")
        outcome.problems += route_problems(
            updated.district_routes, self.districts, self.depot, self.legs)
        return outcome


class AllocMilp(Workload):
    """Framework runs on generated process-allocation scenarios.

    Sizes are stratified over 12-20 integer processes and 4-6 resource
    limits, so every run sees the same mix of sizes and only the
    instances within a size class vary with the seed.
    """

    name = "alloc-milp"
    artifacts = frozenset({"scenario", "metrics", "allocation"})
    PER_SIZE = 15
    PROCESSES = range(12, 21)
    LIMITS = range(4, 7)

    def prepare(self) -> None:
        scen_dir = self.workdir / "scenarios"
        scen_dir.mkdir()
        self.lps = {}
        for _ in range(self.PER_SIZE):
            for n in self.PROCESSES:
                for m in self.LIMITS:
                    doc = self._generate(n, m)
                    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
                    label = hashlib.sha256(text.encode()).hexdigest()[:16]
                    path = scen_dir / f"alloc-{len(self.cycle):04d}.json"
                    path.write_text(text, encoding="utf-8")
                    op = self._run_op(str(path), f"alloc-{label}", "framework",
                                      self.rng.randrange(2**31))
                    self.lps[op.key] = scenario.compile_to_lp(scenario.parse_scenario(doc))
                    self.cycle.append(op)
        self.sizes = {"scenarios": len(self.cycle),
                      "processes": f"{self.PROCESSES.start}-{self.PROCESSES.stop - 1}",
                      "limits": f"{self.LIMITS.start}-{self.LIMITS.stop - 1}",
                      "cycle_ops": len(self.cycle)}

    def _generate(self, n: int, m: int) -> dict:
        """A multi-dimensional integer knapsack: maximise value within limits."""
        rng = self.rng
        pids = [f"p{j:02d}" for j in range(n)]
        processes = [
            {"id": pid, "unit_cost": -round(rng.uniform(1.0, 10.0), 3),
             "energy_per_unit": round(rng.uniform(0.5, 3.0), 3),
             "emission_factor_id": f"ef{pid}"}
            for pid in pids
        ]
        factors = [
            {"id": f"ef{pid}", "process_id": pid, "e": round(rng.uniform(0.1, 3.0), 3),
             "stage": "processing"}
            for pid in pids
        ]
        consumption = [
            {pid: round(rng.uniform(0.5, 5.0), 3) for pid in pids if rng.random() < 0.5}
            for _ in range(m)
        ]
        for pid in pids:  # every integer process needs a limit that bounds it
            if not any(pid in row for row in consumption):
                consumption[rng.randrange(m)][pid] = round(rng.uniform(0.5, 5.0), 3)
        limits = [
            {"resource_id": f"r{i}", "consumption": row,
             "availability": round(sum(row.values()) * rng.uniform(0.1, 0.2), 3)}
            for i, row in enumerate(consumption)
        ]
        return {"rng_seed": rng.randrange(2**31), "materials": [], "processes": processes,
                "limits": limits, "emission_factors": factors, "integrality": pids}

    def check(self, op, run_dir, kept):
        lp = self.lps[op.key]
        levels = json.loads((run_dir / "allocation.json").read_text(encoding="utf-8"))["levels"]
        if set(levels) != set(lp.variable_names):
            return [f"allocation names {sorted(levels)} != processes"]
        values = tuple(float(levels[name]) for name in lp.variable_names)
        sol = solver.MilpSolution(solver.SolveStatus.OPTIMAL, values, math.nan)
        return [str(v) for v in solver.check_solution(lp, sol)]


WORKLOADS = {w.name: w for w in (WasteLearn, BatteryStudy, AllocMilp, WasteFeedback)}
