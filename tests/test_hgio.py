import json
import re

import naive_hgio
import pytest
from hypothesis import assume, given, settings, strategies as st

import linturan as lt
from linturan.errors import FormatError
from linturan.hgio import dump_json, dump_text, load_json, load_text


def test_text_round_trip(fano):
    assert load_text(dump_text(fano)) == fano
    assert dump_text(fano).splitlines()[0] == "n 7 r 3"


def test_text_drops_labels():
    lat = lt.integer_lattice(3, 2)
    assert load_text(dump_text(lat)) == lat


def test_json_keeps_labels():
    lat = lt.integer_lattice(3, 2)
    assert load_json(dump_json(lat)) == lat


def test_mixed_order_header():
    h = lt.make_hypergraph(5, [(0, 1, 2), (3, 4)])
    assert dump_text(h).splitlines()[0] == "n 5 r mixed"
    assert load_text(dump_text(h)) == h
    assert load_json(dump_json(h)) == h


def test_empty_graph_round_trip():
    e = lt.make_hypergraph(4, [], r=3)
    assert load_text(dump_text(e)).n == 4
    assert load_json(dump_json(e)).n == 4


HEADER = "'n <count> r <order|mixed>'"


TEXT_FAULTS = [
    ("", f"missing header line {HEADER}"),
    ("# only a comment\n\n", f"missing header line {HEADER}"),
    ("vertices 3", f"line 1: expected {HEADER}, got 'vertices 3'"),
    ("n 3 r\n0 1 2", f"line 1: expected {HEADER}, got 'n 3 r'"),
    ("  n 3  q 3 \n", f"line 1: expected {HEADER}, got 'n 3  q 3'"),
    ("n x r 3", "line 1: bad vertex count 'x'"),
    ("n 3 r three\n0 1 2", "line 1: bad order 'three'"),
    ("n 200001 r 3\n0 1 2", "line 1: vertex count 200001 exceeds the cap 200000"),
    ("n 3 r 3\n0 1 q", "line 2: non-integer vertex in '0 1 q'"),
    ("n 3 r 3\n0 1 2.0", "line 2: non-integer vertex in '0 1 2.0'"),
    ("n 3 r 3\n2 1 0", "line 2: edge (2, 1, 0) is not strictly ascending"),
    ("n 3 r 3\n0 1 1", "line 2: edge (0, 1, 1) is not strictly ascending"),
    ("n 5 r mixed\n0 1\n4 3 2", "line 3: edge (4, 3, 2) is not strictly ascending"),
    # the first faulty line is named, whichever fault comes later
    ("n 5 r 3\n0 1 2\n2 1 3\n0 1 x\n3 2 1", "line 3: edge (2, 1, 3) is not strictly ascending"),
    ("n 5 r 3\n0 1 2\n0 1 x\n2 1 3", "line 3: non-integer vertex in '0 1 x'"),
    # comment and blank lines count, before and after the header
    ("# host\n\nn 5 r x\n", "line 3: bad order 'x'"),
    ("# host\n\nn 5 r 3\n# edges\n0 1 2\n\n  \n1 3 2\n",
     "line 8: edge (1, 3, 2) is not strictly ascending"),
    # faults make_hypergraph finds carry no line number
    ("n 3 r 3\n0 1 3", "invalid hypergraph: vertex 3 in edge (0, 1, 3) not in range(0, 3)"),
    ("n 3 r 3\n-1 0 1", "invalid hypergraph: vertex -1 in edge (-1, 0, 1) not in range(0, 3)"),
    ("n 4 r 3\n0 1 2\n1 2 3\n0 1 2", "invalid hypergraph: edge (0, 1, 2) appears more than once"),
    ("n 4 r 3\n0 1 2\n0 3", "invalid hypergraph: edge (0, 3) has order 2, expected 3"),
    ("n 4 r 0\n", "invalid hypergraph: uniform order must be positive, got 0"),
    ("n -1 r 3\n", "invalid hypergraph: vertex count must be nonnegative, got -1"),
]


@pytest.mark.parametrize("text, message", TEXT_FAULTS, ids=[text for text, _ in TEXT_FAULTS])
def test_text_format_errors(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_text(text)


# Differential tests against the line-by-line reference loader.
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment", "#0 1 2"])


@st.composite
def hosts(draw):
    n = draw(st.integers(0, 9))
    r = draw(st.none() | st.integers(1, 4))
    if (r or 1) > n:
        return n, r, []
    sizes = st.integers(1, min(4, n)) if r is None else st.just(r)
    edge = sizes.flatmap(lambda k: st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    edges = draw(st.lists(edge.map(sorted).map(tuple), max_size=8, unique=True))
    return n, r, draw(st.permutations(edges))


@st.composite
def renderings(draw, n, r, rows):
    """Text lines of a host's rows with comments, blank lines and varied
    whitespace between and around the tokens."""
    lines = [draw(FILLER) for _ in range(draw(st.integers(0, 2)))]
    lines.append(f"n {n} r {'mixed' if r is None else r}")
    for row in rows:
        lines.extend(draw(FILLER) for _ in range(draw(st.integers(0, 1))))
        sep = draw(SEPARATORS)
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(row) + draw(st.sampled_from(["", " "])))
    return lines


def _join(draw, lines):
    end = draw(LINE_ENDS)
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(load, text):
    try:
        return load(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_valid_texts_match_the_reference(data):
    n, r, edges = data.draw(hosts())
    text = _join(data.draw, data.draw(renderings(n, r, [list(map(str, e)) for e in edges])))
    got = load_text(text)
    assert got == naive_hgio.load_text(text)
    assert got == lt.make_hypergraph(n, edges, r)


BAD_TOKENS = ["x", "3.0", "0x3", "1e2", "--1", "", "½", "+3", "1_0", "\u0663", "-1", "-0", "9", "12"]
BAD_HEADERS = [
    "n 5 r", "n 5 r 3 3", "m 5 r 3", "n five r 3", "n 5 q 3", "n 5 r x", "n 5 r 3.0",
    "n -1 r 3", "n 5 r 0", "n 5 r -2", "n 1_0 r 3", "n +9 r 3", "n \u0665 r mixed",
    "n 200001 r 3", "n 1000000000 r mixed", "N 5 R 3", "n 5r 3",
]


@st.composite
def broken_rows(draw):
    """A host's rows with one to three faults: bad or out-of-range tokens,
    swapped, repeated, dropped or extra vertices, duplicate rows (also in
    place of a repeat on a one-vertex row)."""
    n, r, edges = draw(hosts())
    rows = [list(map(str, e)) for e in edges] or [["0", "1", "2"]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if not row:
            continue
        j = draw(st.integers(0, len(row) - 1))
        kind = draw(st.sampled_from(["token", "swap", "repeat", "drop", "extra", "duplicate"]))
        if kind == "token":
            row[j] = draw(st.sampled_from(BAD_TOKENS))
        elif kind == "swap":
            k = max(j, 1)
            row[k - 1:k + 1] = row[k:k + 1] + row[k - 1:k]
        elif kind == "repeat" and len(row) > 1:
            row[max(j, 1)] = row[max(j, 1) - 1]
        elif kind == "drop":
            del row[j]
        elif kind == "extra":
            row.append(str(draw(st.integers(0, n + 2))))
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(row))
    return n, r, rows


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_malformed_texts_match_the_reference(data):
    n, r, rows = data.draw(broken_rows())
    lines = data.draw(renderings(n, r, rows))
    if data.draw(st.booleans()):
        header = next(i for i, line in enumerate(lines) if line.startswith("n "))
        lines[header] = data.draw(st.sampled_from(BAD_HEADERS))
    text = _join(data.draw, lines)
    expected = _outcome(naive_hgio.load_text, text)
    assume(isinstance(expected, str))
    assert _outcome(load_text, text) == expected


@pytest.mark.parametrize(
    "blob",
    [
        "{]",
        "{}",
        '{"n": 3}',
        '{"n": 7.5, "r": 3, "edges": []}',
        '{"n": true, "r": 3, "edges": []}',
        '{"n": 7, "r": "3", "edges": []}',
        '{"n": 7, "r": 3, "edges": 3}',
        '{"n": 7, "r": 3, "edges": [[0, 1, 2.0]]}',
        '{"n": 7, "r": 3, "edges": [7]}',
        '{"n": 7, "r": 3, "edges": [[0, 1, 2], [2, 1, 0]]}',
        '{"n": 7, "r": 3, "edges": [[0, 1, 7]]}',
        # dump_text would write an empty edge as a blank line
        '{"n": 3, "r": null, "edges": [[], [0, 1, 2]]}',
    ],
)
def test_json_format_errors(blob):
    with pytest.raises(FormatError):
        load_json(blob)


def test_old_labels_key_is_ignored():
    # host files once carried per-edge provenance labels; the key is read
    # like any other extra key, whatever it holds
    lat = lt.integer_lattice(3, 2)
    obj = json.loads(dump_json(lat))
    for labels in ([{"kind": "axis", "index": 0}] * lat.edge_count, 7):
        assert load_json(json.dumps(dict(obj, labels=labels))) == lat


def test_file_autodetect(tmp_path, fano):
    lat = lt.integer_lattice(3, 2)
    t = tmp_path / "a.txt"
    j = tmp_path / "b.json"
    lt.write_file(fano, str(t), "text")
    lt.write_file(lat, str(j), "json")
    assert lt.read_file(str(t)) == fano
    assert lt.read_file(str(j)) == lat


def test_json_is_read_from_any_path_by_its_leading_brace(tmp_path):
    lat = lt.integer_lattice(3, 2)
    path = tmp_path / "lattice.txt"
    path.write_text("\n  " + dump_json(lat))
    assert lt.read_file(str(path)) == lat


@pytest.mark.parametrize("suffix", [".txt", ".json"])
def test_bytes_that_are_not_utf8_are_a_format_error(tmp_path, suffix):
    path = tmp_path / ("bad" + suffix)
    path.write_bytes(b"n 3 r 3\n0 1 \xff\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not valid UTF-8 at byte 12: invalid start byte$"):
        lt.read_file(str(path))
    with open(path, encoding="utf-8") as fh, pytest.raises(FormatError, match="not valid UTF-8 at byte 12"):
        lt.read_file(fh)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_vertex_count_cap(fmt):
    # a host is allocated per declared vertex, so a count above the cap is
    # refused before anything is built; the cap itself is read
    cap = lt.hypergraph.DEFAULT_PRODUCT_CAP
    load = load_text if fmt == "text" else load_json

    def blob(n):
        if fmt == "text":
            return f"n {n} r 3\n0 1 2\n3 4 5\n"
        return f'{{"n": {n}, "r": 3, "edges": [[0, 1, 2], [3, 4, 5]]}}'

    assert load(blob(cap)).n == cap
    for n in (cap + 1, 10**9):
        with pytest.raises(FormatError, match="exceeds the cap"):
            load(blob(n))


def test_unknown_write_format_is_named(tmp_path):
    with pytest.raises(FormatError) as info:
        lt.write_file(lt.make_hypergraph(3, [(0, 1, 2)]), str(tmp_path / "h.xml"), fmt="xml")
    assert str(info.value) == "unknown format 'xml'"
    assert not (tmp_path / "h.xml").exists()
