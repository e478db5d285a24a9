"""canonical_dumps and write_json against their oracle, the standard
library's indent encoder."""

import contextlib
import enum
import json
import os
import tempfile
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenloop import serialize
from greenloop.pipeline import partition_districts
from greenloop.routing import (
    QTable,
    RLConfig,
    qtable_from_dict,
    qtable_to_dict,
    qtable_to_records,
    train_routing,
)
from greenloop.scenario import parse_scenario
from greenloop.serialize import canonical_dumps, write_json


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def oracle_bytes(obj):
    return oracle(obj).encode("utf-8")


def outcome(encode, obj):
    try:
        return "ok", encode(obj)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return "raised", type(exc)


class SpyFile:
    """A file whose writes are logged."""

    def __init__(self, file, calls):
        self.file = file
        self.calls = calls

    def write(self, data):
        self.calls.append(("write", len(data)))
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)


@contextlib.contextmanager
def file_calls():
    """The opens and writes write_json makes, as a list of tuples."""
    calls = []

    def spy_open(path, mode):
        calls.append(("open", Path(path).name, mode))
        return SpyFile(open(path, mode), calls)

    with mock.patch.object(serialize, "open", spy_open, create=True):
        yield calls


@contextlib.contextmanager
def small_chunks(chars=64, items=3):
    with mock.patch.object(serialize, "CHUNK_CHARS", chars), \
            mock.patch.object(serialize, "ROW_SLICE", items):
        yield


def written(obj):
    """write_json's outcome: ("ok", the file's bytes) or ("raised", the error type).

    Asserts that a failed write leaves no file and a good one only its own.
    """
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "doc.json"
        try:
            write_json(path, obj)
        except Exception as exc:  # noqa: BLE001 - the exception type is compared
            assert os.listdir(folder) == []
            return "raised", type(exc)
        assert os.listdir(folder) == ["doc.json"]
        return "ok", path.read_bytes()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class DictSubclass(dict):
    """A dict subclass: the standard library writes it, the fast path declines."""


# Characters the encoder must escape or the record template must survive.
texts = st.text(
    alphabet=st.sampled_from('"\\%s/\n\t\x00\x1f\x7fé€ 😀a ') | st.characters(),
    max_size=6,
)
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.booleans(),
    st.none(),
)
odd_scalars = st.one_of(st.floats().map(np.float64), st.sampled_from(list(Level)))
keys = st.one_of(
    texts,
    texts,
    texts,
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


@st.composite
def record_lists(draw, values, depth=0, length=None, breaks=True):
    """Lists of dicts sharing one key set, sometimes with one row broken.

    Below depth, a column may hold dicts drawn the same way one level
    down: sharing a key set of their own, half the time never broken.
    """
    names = draw(st.lists(texts, max_size=5, unique=True))
    n = length or draw(st.integers(1, 5))
    columns = [
        draw(record_lists(values, depth - 1, n, draw(st.booleans())))
        if depth and draw(st.booleans())
        else [draw(values) for _ in range(n)]
        for _ in names
    ]
    rows = [dict(zip(names, cells)) for cells in zip(*columns)] or [{} for _ in range(n)]
    i = draw(st.integers(0, n - 1))
    change = "none"
    if breaks:
        change = draw(st.sampled_from(["none", "none", "drop", "add", "rename", "scalar"]))
    if change == "drop" and rows[i]:
        del rows[i][next(iter(rows[i]))]
    elif change == "add":
        rows[i][draw(texts)] = draw(values)
    elif change == "rename" and rows[i]:
        rows[i][draw(texts)] = rows[i].pop(next(iter(rows[i])))
    elif change == "scalar":
        rows[i] = draw(values)
    return rows


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        record_lists(scalars),
        record_lists(children),
    )


documents = st.recursive(scalars, containers, max_leaves=30)
odd_documents = st.recursive(
    scalars | odd_scalars,
    lambda children: containers(children) | st.dictionaries(keys, children, max_size=4),
    max_leaves=20,
)


class TestMatchesStdlib:
    @settings(deadline=None, max_examples=300)
    @given(doc=documents)
    def test_fast_path_documents(self, doc):
        assert canonical_dumps(doc) == oracle(doc)
        # a lone surrogate has text but no UTF-8 bytes: both raise alike
        assert written(doc) == outcome(oracle_bytes, doc)

    @settings(deadline=None, max_examples=200)
    @given(rows=record_lists(scalars))
    def test_record_lists(self, rows):
        assert outcome(canonical_dumps, rows) == outcome(oracle, rows)
        assert written(rows) == outcome(oracle_bytes, rows)

    @settings(deadline=None, max_examples=80)
    @given(rows=record_lists(scalars, depth=2))
    def test_nested_record_lists(self, rows):
        assert outcome(canonical_dumps, rows) == outcome(oracle, rows)
        assert written(rows) == outcome(oracle_bytes, rows)

    @settings(deadline=None, max_examples=200)
    @given(doc=odd_documents)
    def test_subclasses_and_non_str_keys(self, doc):
        assert outcome(canonical_dumps, doc) == outcome(oracle, doc)
        assert written(doc) == outcome(oracle_bytes, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            [{}, {}],
            [[], {}],
            "",
            0,
            True,
            None,
            [{"a%s": 1, "%(b)s": 2.5}, {"a%s": True, "%(b)s": None}],
            [{"v": True}, {"v": 1}, {"v": False}, {"v": 0}],
            {"t": (1, "x", ({"k": 1.0},))},
            # dict columns: written one margin deeper, or declined
            [{"c": {"x": 1.5}}, {"c": {"x": float("nan")}}, {"c": {"x": float("-inf")}}],
            [{"c": {"x": float("inf"), "y": 1}, "d": 0}, {"c": {"x": 2, "y": None}, "d": 1}],
            [{"c": {"%s": 1, "a%%": "%d"}}, {"c": {"%s": 2, "a%%": "%(x)s"}}],
            [{"c": {"d": {"%": 1}}}, {"c": {"d": {"%": [1]}}}],
            [{"c": {}, "d": 1}, {"c": {}, "d": 2}],
            [{"c": {"x": 1}, "d": 1}, {"c": {}, "d": 2}],
            [{"c": {"x": 1}}, {"c": {"y": 1}}],
            [{"c": {"x": 1}}, {"c": {"x": 1, "y": 2}}],
            [{"c": {"x": 1}}, {"c": DictSubclass(x=2)}],
            [{"c": DictSubclass(x=1)}, {"c": DictSubclass(x=2)}],
            [{"c": {1: "a"}}, {"c": {1: "b"}}],
            [{"c": {"x": 1}}, {"c": {1: "b"}}],
            [{"c": {True: "a"}}],
            [{"c": {"x": [1, {"y": 2}]}}, {"c": {"x": []}}],
            [{"c": {"x": {"y": {"z": -0.0}}}}, {"c": {"x": {"y": {"z": 10**30}}}}],
            [{"c": {"x": 1}}, {"c": 1}],
            [{"c": {"x": 1}}, {"c": (1,)}],
        ],
    )
    def test_edge_cases(self, doc):
        assert canonical_dumps(doc) == oracle(doc)
        assert written(doc) == ("ok", oracle_bytes(doc))


class TestErrors:
    @pytest.mark.parametrize(
        "doc",
        [
            object(),
            {"k": {1, 2}},
            [{"a": 1}, {"a": b"bytes"}],
            {"a": [1, 2j]},
            {(1, 2): "tuple key"},
            {1: "a", "b": 2},
        ],
    )
    def test_unserializable_raises_like_stdlib(self, doc):
        with pytest.raises(Exception) as expected:
            oracle(doc)
        with pytest.raises(expected.type):
            canonical_dumps(doc)
        assert written(doc) == ("raised", expected.type)

    @pytest.mark.parametrize("chars", [serialize.CHUNK_CHARS, 64])
    def test_lone_surrogate_has_text_but_no_file(self, chars):
        doc = {"a": LONG, "b": ring(6), "z": "\ud800"}
        assert canonical_dumps(doc) == oracle(doc)
        with small_chunks(chars=chars):
            assert written(doc) == ("raised", UnicodeEncodeError)

    def test_cyclic_list(self):
        doc = [1]
        doc.append(doc)
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_dumps(doc)

    def test_cyclic_record(self):
        row = {"a": 1}
        row["self"] = [row]
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_dumps([row, {"a": 2, "self": 3}])

    def test_cyclic_dict_cell(self):
        row = {"a": 1}
        row["self"] = row
        with pytest.raises(ValueError, match="Circular reference detected"):
            canonical_dumps([row])


def ring(n, start=0):
    """n record rows, each naming one row to its side (keys differ by cell type only)."""
    return [{"at": i, "next": f"r{i + 1}", "w": i / 7} for i in range(start, start + n)]


LONG = ["chunk filler " * 4] * 8  # well past 64 characters of text


class TestStreamedWrites:
    """write_json with CHUNK_CHARS and ROW_SLICE patched small, so every
    document spans many slices and chunks."""

    @settings(deadline=None, max_examples=150)
    @given(doc=documents)
    def test_documents(self, doc):
        with small_chunks():
            assert written(doc) == outcome(oracle_bytes, doc)

    @settings(deadline=None, max_examples=100)
    @given(rows=record_lists(scalars, depth=2))
    def test_record_lists(self, rows):
        with small_chunks(items=2):
            assert written(rows) == outcome(oracle_bytes, rows)

    @settings(deadline=None, max_examples=100)
    @given(doc=odd_documents)
    def test_subclasses_and_non_str_keys(self, doc):
        with small_chunks():
            assert written(doc) == outcome(oracle_bytes, doc)

    @pytest.mark.parametrize(
        "doc",
        [
            # the key set changes after the first slice: a slice of its own...
            ring(3) + [{"at": 3, "w": 0.5}, {"at": 4, "w": 1.5}, {"at": 5, "w": 2.5}],
            # ...or within one
            ring(4) + [{"at": 4, "v": 0.5}, {"at": 5, "w": 1.5}],
            # a cell type changes after the first slice
            ring(3) + [{"at": "3", "next": None, "w": True}] + ring(3, 4),
            ring(3) + [{"at": 3, "next": "r4", "w": [1]}] + ring(2, 4),
            # a nested dict column changes its keys, or stops being one
            [{"c": {"x": i}} for i in range(3)] + [{"c": {"y": i}} for i in range(3)],
            [{"c": {"x": i}} for i in range(4)] + [{"c": i} for i in range(2)],
            [{"c": i} for i in range(3)] + [{"c": {"x": i}} for i in range(3)],
            [{"c": {"d": {"e": i}}} for i in range(3)] + [{"c": {"d": {}}}],
            # the first slice declines and a later one takes the record path
            [{"a": 1}, {"b": 2}, {"a": 3}] + ring(3),
            {"big": {f"k{i:02d}": LONG for i in range(10)}, "rows": ring(10)},
        ],
    )
    def test_record_lists_that_change_after_the_first_slice(self, doc):
        with small_chunks():
            assert written(doc) == ("ok", oracle_bytes(doc))
            assert canonical_dumps(doc) == oracle(doc)

    def test_unsupported_value_after_the_first_chunk_rewrites_the_file(self):
        doc = {"a": LONG, "b": ring(6), "z": np.float64(0.1)}
        with small_chunks(), file_calls() as calls:
            assert written(doc) == ("ok", oracle_bytes(doc))
        # chunks were written before the fast path gave up
        assert calls[0] == ("open", "doc.json", "wb") and len(calls) > 3

    @pytest.mark.parametrize("late", ["set", "cycle"])
    def test_error_after_the_first_chunk_removes_the_file(self, late):
        doc = {"a": LONG, "b": ring(6)}
        if late == "set":
            doc["z"] = {1, 2}
        else:
            doc["z"] = [doc]
        with pytest.raises(Exception) as expected:
            oracle(doc)
        with small_chunks(), file_calls() as calls:
            assert written(doc) == ("raised", expected.type)
        assert calls[0] == ("open", "doc.json", "wb") and len(calls) > 2


class TestWriteJson:
    def test_short_document_is_one_open_and_one_write(self, tmp_path):
        doc = {"version": 1, "levels": {"p1": 2.5, "p2": 0.0}}
        path = tmp_path / "small.json"
        with file_calls() as calls:
            write_json(path, doc)
        data = oracle_bytes(doc)
        assert calls == [("open", "small.json", "wb"), ("write", len(data))]
        assert path.read_bytes() == data
        assert os.listdir(tmp_path) == ["small.json"]

    def test_long_document_is_written_in_chunks(self, tmp_path):
        doc = {"rows": ring(40_000)}
        path = tmp_path / "long.json"
        with file_calls() as calls:
            write_json(path, doc)
        data = oracle_bytes(doc)
        assert path.read_bytes() == data
        assert calls[0] == ("open", "long.json", "wb")
        writes = [size for _, size in calls[1:]]
        assert sum(writes) == len(data) and len(writes) > 1
        # a chunk is written once it holds CHUNK_CHARS, after one slice at most
        assert max(writes) < 2 * serialize.CHUNK_CHARS

    def test_unencodable_long_document_leaves_nothing(self, tmp_path):
        doc = {"rows": ring(40_000), "z": {1, 2}}
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError, match="not JSON serializable"), file_calls() as calls:
            write_json(path, doc)
        assert calls[0] == ("open", "doc.json", "wb") and len(calls) > 1
        assert os.listdir(tmp_path) == []

    def test_failed_short_document_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            write_json(path, {"z": {1, 2}})
        assert path.read_bytes() == b"old"

    def test_traced_peak_is_below_half_the_document(self, tmp_path):
        doc = {
            "version": 1,
            "tables": [
                {"version": 1, "entries": [
                    {"current": f"b{i % 50:02d}", "visited": i * 7919,
                     "action": f"b{i * 3 % 50:02d}", "value": i / 7}
                    for i in range(t * 20_000, (t + 1) * 20_000)
                ]}
                for t in range(4)
            ],
        }
        path = tmp_path / "qtables.json"
        tracemalloc.start()
        try:
            write_json(path, doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8_000_000
        assert peak < size / 2


def trained_tables():
    """Two fixture districts' tables, and the first again after warm-started training."""
    text = (resources.files("greenloop") / "fixtures" / "waste_framework.json").read_text("utf-8")
    districts = partition_districts(parse_scenario(json.loads(text)).collection_graph)
    cold = [train_routing(d, RLConfig(episodes=150, rng_seed=i)) for i, d in enumerate(districts[:2])]
    warm = train_routing(districts[0], RLConfig(episodes=50, rng_seed=7), initial=cold[0])
    return [*cold, warm]


ODD_VALUES = QTable({
    ("b0", 0, "b1"): float("nan"),
    ("b0", 0, "b2"): float("inf"),
    ("b0", 1, "b2"): float("-inf"),
    ("b1", 2**63, "b2"): -0.0,
    ("b1", 2**64 + 5, "b0"): 1e-300,
    ("bé\"%s", 3, "\U0001f600\n"): 2.5,
})
# current and action as qtable_from_dict reads them from other JSON types
NON_STR = qtable_from_dict({"entries": [
    {"current": 3, "visited": 0, "action": 7, "value": 1},
    {"current": 3, "visited": 1, "action": None, "value": -2.5},
    {"current": 3, "visited": 2, "action": True, "value": 0},
    {"current": 4, "visited": 0, "action": "b1", "value": 1e308},
    {"current": 4, "visited": 1, "action": 1.5, "value": 3},
]})


# tables whose columns the record path declines: tuple currents, a
# numpy.float64 value, a dict value holding a list
DECLINED = [
    QTable({(("b", 0), 0, "b1"): 1.0, (("b", 0), 1, "b2"): 2.0}),
    QTable({("b0", 0, "b1"): np.float64(0.1), ("b0", 1, "b2"): 2.0}),
    QTable({("b0", 0, "b1"): 1.0, ("b0", 1, "b2"): {"x": [1]}}),
]


def route_table_bytes(write, tables):
    """The bytes write(path, tables) leaves, asserting it leaves one file."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "qtables.json"
        write(path, tables)
        assert os.listdir(folder) == ["qtables.json"]
        return path.read_bytes()


def entry_dicts(path, tables, version=1):
    write_json(path, {"version": version, "tables": [qtable_to_dict(q, version) for q in tables]})


def run_tables(path, tables):
    """qtables.json as cmd_run writes it: write_json over the tables' columns."""
    write_json(path, {"version": 1, "tables": [qtable_to_records(q) for q in tables]})


@contextlib.contextmanager
def no_stdlib():
    """json.dumps patched to raise, so only the fast path can write."""

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to json.dumps")

    with mock.patch.object(serialize.json, "dumps", refuse):
        yield


class TestRouteTables:
    """qtables.json written from the Q tables' columns against write_json
    over qtable_to_dict's entry dicts."""

    @pytest.fixture(scope="class")
    def trained(self):
        return trained_tables()

    @pytest.mark.parametrize("chunks", [{}, {"chars": 64, "items": 3}, {"chars": 700, "items": 50}])
    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "case", ["trained", "none", "empty", "odd values", "non-str", "all"]
    )
    def test_columns_write_the_entry_dicts_bytes(self, trained, case, version, chunks):
        tables = {
            "trained": trained,
            "none": [],
            "empty": [QTable()],
            "odd values": [ODD_VALUES],
            "non-str": [NON_STR],
            "all": [QTable(), *trained, ODD_VALUES, NON_STR, QTable()],
        }[case]

        def columns(path, tables):
            doc = {"version": version, "tables": [qtable_to_records(q, version) for q in tables]}
            with no_stdlib():  # no column declines
                write_json(path, doc)

        doc = {"version": version, "tables": [qtable_to_dict(q, version) for q in tables]}
        with small_chunks(**chunks) if chunks else contextlib.nullcontext():
            want = route_table_bytes(lambda p, t: entry_dicts(p, t, version), tables)
            assert want == oracle_bytes(doc)
            assert route_table_bytes(columns, tables) == want
            if version == 1:
                assert route_table_bytes(run_tables, tables) == want

    @pytest.mark.parametrize("odd", DECLINED)
    def test_a_declined_column_falls_back_to_the_entry_dicts(self, trained, odd):
        tables = [*trained, odd]
        with small_chunks(), file_calls() as calls:
            want = route_table_bytes(entry_dicts, tables)
            calls.clear()
            assert route_table_bytes(run_tables, tables) == want
        # chunks were streamed from the columns before the odd table declined
        opens = [i for i, call in enumerate(calls) if call[0] == "open"]
        assert opens[0] == 0 and len(opens) > 1 and opens[1] > 2
        # the standard library's text, with each Records expanded to its entry dicts
        text = oracle({"version": 1, "tables": [qtable_to_dict(q) for q in tables]})
        assert want == text.encode("utf-8")
        doc = {"version": 1, "tables": [qtable_to_records(q) for q in tables]}
        assert canonical_dumps(doc) == text

    @pytest.mark.parametrize("beside", ["nothing", "declined", "streamed"])
    def test_an_unserializable_value_raises_the_stdlib_error(self, trained, beside, tmp_path):
        tables = {"nothing": [], "declined": DECLINED[:1], "streamed": trained[:1]}[beside]
        doc = {"tables": [qtable_to_dict(q) for q in tables], "z": {1, 2}}
        with pytest.raises(TypeError) as expected:
            oracle(doc)
        assert str(expected.value) == "Object of type set is not JSON serializable"
        doc["tables"] = [qtable_to_records(q) for q in tables]
        with pytest.raises(TypeError) as dumped:
            canonical_dumps(doc)
        with pytest.raises(TypeError) as wrote:
            write_json(tmp_path / "doc.json", doc)
        assert str(dumped.value) == str(wrote.value) == str(expected.value)
        assert os.listdir(tmp_path) == []

    def test_unorderable_keys_raise_before_any_file(self, trained, tmp_path):
        odd = QTable({("b0", 0, "b1"): 1.0, (1, 0, "b1"): 2.0})
        with pytest.raises(TypeError) as expected:
            qtable_to_dict(odd)
        path = tmp_path / "qtables.json"
        with small_chunks(), pytest.raises(expected.type, match=str(expected.value)):
            run_tables(path, [*trained, odd])
        assert os.listdir(tmp_path) == []

    def test_traced_peak_is_below_half_the_file(self, tmp_path):
        tables = [
            QTable({
                (f"b{i % 50:02d}", i * 7919, f"b{i * 3 % 50:02d}"): i / 7
                for i in range(t * 20_000, (t + 1) * 20_000)
            })
            for t in range(4)
        ]
        path = tmp_path / "qtables.json"
        tracemalloc.start()
        try:
            run_tables(path, tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 8_000_000
        assert peak < size / 2
