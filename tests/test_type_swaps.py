"""A value of the wrong JSON type anywhere in a scenario exits 0 or 4, never 1.

Three small documents are swept: alloc_small.json, the battery framework
fixture cut to its first two materials, and the waste framework fixture
cut to a 4-node graph. Each of their values, containers included, is
replaced in turn by each of SWAPS. Every STRIDE-th swap goes through
`validate`, and for the alloc and battery documents through `run` too,
which refuses what `validate` would list before any stage runs.

The same documents are also mutated without a type swap: each key is
dropped in turn, and each number is set to each of EDGE_NUMBERS. Every
such mutation goes through `validate`, and each one it passes through
`run --mode framework`, which may fail only with an error family's code.
Each list of records (limits, stations, graph nodes, ...) also gets its
last record repeated, which `validate` and `run` both refuse as a
duplicate.
"""

import copy
import json
import math

import numpy as np
import pytest

from reference_solver import enumerate_integer_optimum
from greenloop import cli
from greenloop.cli import main
from greenloop.scenario import compile_to_lp, load_scenario

SWAPS = (None, 3, "x", [], {}, True, [1])
# Numbers of the right JSON type that a reader or a stage may still refuse.
EDGE_NUMBERS = (math.nan, math.inf, -math.inf, -1.0, -0.0, 1e308, 10**400)
FAMILY_CODES = {code for _, code in cli._FAMILY_CODES}
DROP = object()  # the mutation that deletes a key
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


def _mutated_files(doc, mutations, tmp_path):
    """(mutation, scenario file) for each (path, value) of mutations: doc with
    the value at path replaced, or the key at path dropped when value is DROP."""
    scenario = tmp_path / "mutated.json"
    for path, value in mutations:
        mutated = copy.deepcopy(doc)
        target = mutated
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        scenario.write_text(json.dumps(mutated), "utf-8")
        yield (path, value), scenario


def _swapped_files(family, tmp_path):
    """(swap, scenario file) for every STRIDE-th swap of the family's document."""
    doc = _document(family)
    swaps = [(path, value) for path in _paths(doc) for value in SWAPS][::STRIDE]
    return _mutated_files(doc, swaps, tmp_path)


def _edge_files(family, tmp_path):
    """(mutation, scenario file) for every dropped key and every edge number."""
    doc = _document(family)
    mutations = []
    for path in _paths(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if isinstance(parent, dict):
            mutations.append((path, DROP))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            mutations += [(path, number) for number in EDGE_NUMBERS]
    return _mutated_files(doc, mutations, tmp_path)


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


# Every sweep runs under the suite's "error" filter, so a RuntimeWarning
# that leaves a stage exits 1.
@pytest.mark.parametrize("family", ["alloc", "battery", "waste"])
def test_dropped_keys_and_edge_numbers_never_exit_1(tmp_path, capsys, family):
    bad = []
    for i, (mutation, scenario) in enumerate(_edge_files(family, tmp_path)):
        code = main(["validate", "--scenario", str(scenario)])
        if code == 0:
            code = main(["run", "--scenario", str(scenario), "--mode", "framework",
                         "--out", str(tmp_path / f"out{i}")])
            allowed = FAMILY_CODES | {0}
        else:
            allowed = {4}
        err = capsys.readouterr().err
        if code not in allowed:
            bad.append((mutation, code, err))
    assert bad == []


def _record_lists(doc, prefix=()):
    """The key path of every list of records (dicts) in doc."""
    for path in _paths(doc, prefix):
        parent = doc
        for key in path:
            parent = parent[key]
        if isinstance(parent, list) and parent and isinstance(parent[0], dict):
            yield path


@pytest.mark.parametrize("family", ["alloc", "battery", "waste"])
def test_repeated_records_exit_4_as_duplicates(tmp_path, capsys, family):
    doc = _document(family)
    mutations = []
    for path in _record_lists(doc):
        records = doc
        for key in path:
            records = records[key]
        mutations.append((path, records + [records[-1]]))
    assert mutations
    bad = []
    for i, (mutation, scenario) in enumerate(_mutated_files(doc, mutations, tmp_path)):
        out = tmp_path / f"out{i}"
        codes = (
            main(["validate", "--scenario", str(scenario)]),
            main(["run", "--scenario", str(scenario), "--mode", "framework",
                  "--out", str(out)]),
        )
        captured = capsys.readouterr()
        if codes != (4, 4) or out.exists() or "duplicate" not in captured.out + captured.err:
            bad.append((mutation[0], codes, captured.err))
    assert bad == []


# At 1e308 the simplex's ratios and pivots overflow on the way to an
# allocation, which must then be the enumerated optimum; an answer that
# overflowed is refused with the solver's exit code.
@pytest.mark.parametrize("path", [
    pytest.param(("processes", 1, "unit_cost"), id="unit_cost"),
    pytest.param(("limits", 1, "consumption", "pB"), id="consumption"),
])
def test_huge_allocation_numbers_solve_to_the_optimum_or_exit_5(tmp_path, capsys, path):
    ((_, scenario),) = _mutated_files(_document("alloc"), [(path, 1e308)], tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(scenario), "--mode", "framework",
                 "--out", str(out)])
    capsys.readouterr()
    assert code in (0, 5)
    if code == 5:
        return
    (allocation,) = out.glob("*/allocation.json")
    levels = json.loads(allocation.read_text("utf-8"))["levels"]
    lp = compile_to_lp(load_scenario(scenario))
    with np.errstate(over="ignore", invalid="ignore"):
        _, optimum = enumerate_integer_optimum(lp)
    assert tuple(levels[name] for name in lp.variable_names) == optimum
