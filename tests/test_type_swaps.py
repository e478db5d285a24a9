"""A value of the wrong JSON type anywhere in a scenario exits 0 or 4, never 1.

Three small documents are swept: alloc_small.json, the battery framework
fixture cut to its first two materials, and the waste framework fixture
cut to a 4-node graph. Each of their values, containers included, is
replaced in turn by each of SWAPS. Every STRIDE-th swap goes through
`validate`, and for the alloc and battery documents through `run` too,
which refuses what `validate` would list before any stage runs.
"""

import copy
import json

import pytest

from greenloop import cli
from greenloop.cli import main

SWAPS = (None, 3, "x", [], {}, True, [1])
# Coprime with len(SWAPS), so the sample holds every kind of swap.
STRIDE = 2


def _fixture(name):
    return json.loads((cli._FIXTURES / name).read_text("utf-8"))


def _document(family):
    if family == "alloc":
        return _fixture("alloc_small.json")
    if family == "battery":
        doc = _fixture("battery_framework.json")
        doc["materials"] = doc["materials"][:2]
        return doc
    doc = _fixture("waste_framework.json")
    graph = doc["collection_graph"]
    graph["nodes"] = graph["nodes"][:4]
    kept = {node["id"] for node in graph["nodes"]}
    graph["edges"] = [e for e in graph["edges"] if e["a"] in kept and e["b"] in kept]
    return doc


def _paths(doc, prefix=()):
    """The key path of every value in doc, containers included."""
    for key in doc if isinstance(doc, dict) else range(len(doc)):
        yield prefix + (key,)
        if isinstance(doc[key], (dict, list)):
            yield from _paths(doc[key], prefix + (key,))


def _swapped_files(family, tmp_path):
    """(swap, scenario file) for every STRIDE-th swap of the family's document."""
    doc = _document(family)
    swaps = [(path, value) for path in _paths(doc) for value in SWAPS][::STRIDE]
    scenario = tmp_path / "swapped.json"
    for path, value in swaps:
        swapped = copy.deepcopy(doc)
        target = swapped
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario.write_text(json.dumps(swapped), "utf-8")
        yield (path, value), scenario


@pytest.mark.parametrize("family", ["alloc", "battery", "waste"])
def test_validate_exits_0_or_4(tmp_path, capsys, family):
    bad = []
    for swap, scenario in _swapped_files(family, tmp_path):
        code = main(["validate", "--scenario", str(scenario)])
        err = capsys.readouterr().err
        if code not in (0, 4):
            bad.append((swap, code, err))
    assert bad == []


@pytest.mark.parametrize("family", ["alloc", "battery"])
def test_run_exits_0_or_4(tmp_path, capsys, family):
    bad = []
    for i, (swap, scenario) in enumerate(_swapped_files(family, tmp_path)):
        out = tmp_path / f"out{i}"
        code = main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(out)])
        err = capsys.readouterr().err
        if code not in (0, 4) or (code == 4 and out.exists()):
            bad.append((swap, code, err))
    assert bad == []
