"""canonical_dumps against its oracle, the standard library's indent encoder."""

import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenloop.serialize import canonical_dumps


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def outcome(encode, obj):
    try:
        return "ok", encode(obj)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return "raised", type(exc)


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

    @settings(deadline=None, max_examples=200)
    @given(rows=record_lists(scalars))
    def test_record_lists(self, rows):
        assert outcome(canonical_dumps, rows) == outcome(oracle, rows)

    @settings(deadline=None, max_examples=80)
    @given(rows=record_lists(scalars, depth=2))
    def test_nested_record_lists(self, rows):
        assert outcome(canonical_dumps, rows) == outcome(oracle, rows)

    @settings(deadline=None, max_examples=200)
    @given(doc=odd_documents)
    def test_subclasses_and_non_str_keys(self, doc):
        assert outcome(canonical_dumps, doc) == outcome(oracle, doc)

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
