"""The parsers of outside input raise only LinturanError subclasses, never
a bare Python exception, whatever text or JSON they are given."""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from linturan.cli import load_config
from linturan.errors import LinturanError
from linturan.hgio import load_json, load_text, read_file
from linturan.hypergraph import make_hypergraph
from linturan.patterns import parse_pattern
from linturan.results import ResultRecord, ResultsStore

FUZZ = settings(max_examples=150, deadline=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-3, 12)
# a list of integer lists, now and then with a stray value of another type
edge_lists = st.lists(st.lists(small_ints | json_values, max_size=4), max_size=5) | json_values
hypergraph_objs = st.fixed_dictionaries(
    {"n": small_ints | json_values, "edges": edge_lists},
    optional={
        "r": st.none() | small_ints | json_values,
        "labels": st.lists(
            st.fixed_dictionaries({"kind": st.sampled_from(["plain", "axis", "x"]) | json_values},
                                  optional={"index": small_ints | json_values}),
            max_size=5,
        ) | json_values,
    },
)
# JSON texts, one now and then deeper than the decoder's recursion limit
json_texts = (
    json_values.map(json.dumps)
    | hypergraph_objs.map(json.dumps)
    | st.text(max_size=40)
    | st.just("[" * 100_000)
)


def _utf8(text):
    # a lone surrogate becomes a byte sequence that is not valid UTF-8
    return text.encode("utf-8", "surrogatepass")


def _only_package_errors(parse, *args):
    try:
        return parse(*args)
    except LinturanError:
        return None


host_texts = st.text(max_size=80) | st.lists(
    st.text(alphabet="nrmixed0123456789 -#.", max_size=12)
    | st.sampled_from(["n 5 r 3", "n 4 r mixed", "0 1 2", "2 1 0", "# c"])
    | st.integers(0, 6000).map(lambda k: "n " + "9" * k + " r 3"),
    max_size=6,
).map("\n".join)


@FUZZ
@given(host_texts)
def test_load_text(text):
    _only_package_errors(load_text, text)


@FUZZ
@given(host_texts.map(_utf8) | json_texts.map(_utf8) | st.binary(max_size=40))
def test_read_file(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "host.txt")
        with open(path, "wb") as fh:
            fh.write(blob)
        _only_package_errors(read_file, path)


@FUZZ
@given(json_texts)
def test_load_json(text):
    _only_package_errors(load_json, text)


@FUZZ
@given(
    st.text(max_size=30)
    | st.text(alphabet="PSC0123456789+*@r ", max_size=24)
    | st.integers(1, 6000).map(lambda k: "9" * k + "*P1@r3")
    | st.integers(1, 6000).map(lambda k: "S" + "9" * k + "@r3")
)
def test_parse_pattern(text):
    _only_package_errors(parse_pattern, text)


record_fields = {
    "n": small_ints | json_values,
    "r": small_ints | json_values,
    "pattern": st.sampled_from(["P2@r3", None]) | json_values,
    "host": st.sampled_from(["linear", "general"]) | json_values,
    "value": small_ints | json_values,
    "status": st.sampled_from(["exact", "interrupted"]) | json_values,
    "witness": hypergraph_objs | json_values,
    "nodes": small_ints | json_values,
    "elapsed": st.floats(0, 5) | json_values,
}


@FUZZ
@given(st.fixed_dictionaries({}, optional=record_fields) | json_values)
def test_result_record_from_obj(obj):
    rec = _only_package_errors(ResultRecord.from_obj, obj)
    if rec is not None:
        _only_package_errors(rec.witness_graph)


@FUZZ
@given(st.lists(st.fixed_dictionaries(record_fields).map(json.dumps) | json_texts, max_size=3))
def test_results_store(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        with open(path, "wb") as fh:
            fh.write(_utf8("\n".join(lines) + "\n"))
        store = _only_package_errors(ResultsStore, path)
        if store is not None:
            list(store.entries())


config_objs = st.fixed_dictionaries(
    {},
    optional={
        key: json_values | small_ints
        for key in ("node_limit", "time_limit", "prime_cap", "search_cap", "output_dir", "format")
    },
) | st.dictionaries(st.text(max_size=6), json_values, max_size=3)


@FUZZ
@given(config_objs.map(json.dumps).map(_utf8) | json_texts.map(_utf8) | st.binary(max_size=40))
def test_load_config(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "wb") as fh:
            fh.write(blob)
        _only_package_errors(load_config, path)


@FUZZ
@given(small_ints | scalars, st.lists(st.lists(small_ints | scalars, max_size=4), max_size=5),
       st.none() | small_ints | scalars)
def test_make_hypergraph(n, edges, r):
    # the library's own constructor takes sizes and vertices of any type:
    # anything but an int (a bool is not one) is a BadParameters
    _only_package_errors(make_hypergraph, n, edges, r)
