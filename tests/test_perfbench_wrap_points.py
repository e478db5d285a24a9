"""The benchmark's per-layer tracing still finds, calls and counts every
function it wraps.

perfbench/tracing.py measures a layer by replacing a module attribute
with a timing wrapper. A refactor that renames, moves or inlines one of
those functions would make its metric read as missing, and one that stops
calling it, or changes what its counter reads, would blank or break the
metric; these tests fail instead.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from greenloop import classify, cli, pipeline, routing, scenario, serialize

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The span names one op of each kind records; a refactor may add to them.
RUN_SPANS = {
    "cli.run", "scenario.load", "serialize.read_json", "scenario.to_dict",
    "serialize.content_hash", "serialize.write", "pipeline.run_full",
    "carbon.carbon_footprint",
}
LEARN_SPANS = {
    "twin.simulate_bins", "classify.train_on_records",
    "classify.evaluate_accuracy_records", "pipeline.partition_districts",
    "routing.train_routing", "routing.greedy_route", "routing.route_emissions",
    "classify.model_to_dict", "routing.qtable_to_dict",
}
EXPECTED_SPANS = {
    "waste": RUN_SPANS | LEARN_SPANS,
    "battery": RUN_SPANS | {"twin.simulate_recycling"},
    "alloc": RUN_SPANS | {"scenario.compile_to_lp", "solver.solve_milp"},
    "feedback": LEARN_SPANS | {
        "serialize.read_json", "scenario.load", "classify.model_from_dict",
        "routing.qtable_from_dict", "pipeline.feedback_update", "serialize.write",
    },
}


def _tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrap_point_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    assert tracing.WRAP_POINTS
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _span, _counters in tracing.WRAP_POINTS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def _scenario_file(tmp_path, fixture, cut=None):
    doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
    if cut:
        cut(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _small_waste(doc):
    """Cut the waste fixture's graph to the depot and its first three bins."""
    graph = doc["collection_graph"]
    graph["nodes"] = graph["nodes"][:4]
    kept = {node["id"] for node in graph["nodes"]}
    graph["edges"] = [e for e in graph["edges"] if e["a"] in kept and e["b"] in kept]


def _run(path, out):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["run", "--scenario", str(path), "--mode", "framework",
                         "--out", str(out)])
    assert code == 0
    return Path(stdout.getvalue().rsplit(" -> ", 1)[1].strip()).parent


def _feedback(stored, out):
    """One feedback round on a stored run, read and written as the
    benchmark's waste-feedback workload does."""
    s = scenario.parse_scenario(serialize.read_json(stored / "scenario.json"))
    qdoc = serialize.read_json(stored / "qtables.json")
    model = classify.model_from_dict(serialize.read_json(stored / "classifier.json"))
    routes = serialize.read_json(stored / "routes.json")["routes"]
    prior = pipeline.RunArtifacts(
        version=qdoc["version"],
        classifier=model,
        district_qtables=tuple(routing.qtable_from_dict(t) for t in qdoc["tables"]),
        district_routes=tuple(tuple(r) for r in routes),
    )
    updated, _ = pipeline.feedback_update(s, prior)
    v = updated.version
    out.mkdir()
    serialize.write_json(out / "classifier.json", classify.model_to_dict(updated.classifier, v))
    serialize.write_json(out / "qtables.json", {
        "version": v, "tables": [routing.qtable_to_dict(q, v) for q in updated.district_qtables],
    })


def test_every_wrap_point_is_called_and_counted(tmp_path, monkeypatch):
    tracing = _tracing(monkeypatch)
    waste = _scenario_file(tmp_path, "waste_framework.json", _small_waste)
    battery = _scenario_file(tmp_path, "battery_framework.json")
    alloc = _scenario_file(tmp_path, "alloc_small.json")
    results = {}
    calls = {
        "waste": lambda: _run(waste, tmp_path / "waste"),
        "battery": lambda: _run(battery, tmp_path / "battery"),
        "alloc": lambda: _run(alloc, tmp_path / "alloc"),
        "feedback": lambda: _feedback(results["waste"], tmp_path / "feedback"),
    }
    op = dict(zip(calls, range(len(calls))))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for kind, call in calls.items():
            tracer.begin_op(op[kind])
            try:
                results[kind] = call()
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()

    assert tracer.missing == []
    assert tracer.broken == set()
    for kind, expected in EXPECTED_SPANS.items():
        recorded = {s.name for s in tracer.spans if s is not None and s.op == op[kind]}
        assert expected <= recorded, (kind, sorted(expected - recorded))
    counts = {kind: {c: v for (o, c), v in tracer.counts.items() if o == op[kind]}
              for kind in calls}
    # three bins over BIN_HORIZON steps, 70% of them training records; a
    # feedback round draws two streams and trains on the split plus a batch
    assert counts["waste"]["twin.bin_events"] == 300
    assert counts["waste"]["classify.train_records"] == 210
    assert counts["feedback"]["twin.bin_events"] == 600
    assert counts["feedback"]["classify.train_records"] == 510
    assert counts["battery"]["twin.facility_steps"] > 0
    assert counts["alloc"]["solver.bb_nodes"] > 0
    assert counts["alloc"]["solver.simplex_iterations"] > 0
    assert counts["waste"]["routing.q_entries"] > 0
    assert counts["feedback"]["routing.episodes"] == pipeline.FEEDBACK_EPISODES
    assert counts["waste"]["serialize.bytes_written"] > 0
    assert counts["feedback"]["serialize.bytes_read"] > 0
