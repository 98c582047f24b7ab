import pytest

import linturan as lt
from linturan.errors import FormatError
from linturan.hgio import dump_json, dump_text, load_json, load_text


def test_text_round_trip(fano):
    assert load_text(dump_text(fano)) == fano
    assert dump_text(fano).splitlines()[0] == "n 7 r 3"


def test_text_drops_labels():
    lat = lt.integer_lattice(3, 2)
    back = load_text(dump_text(lat))
    assert back.labels is None
    assert (back.n, back.r, back.edges) == (lat.n, lat.r, lat.edges)


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


@pytest.mark.parametrize(
    "text",
    ["", "n x r 3", "n 3 r 3\n0 1 q", "vertices 3"],
)
def test_text_format_errors(text):
    with pytest.raises(FormatError):
        load_text(text)


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
        '{"n": 7, "r": 3, "edges": [], "labels": 7}',
    ],
)
def test_json_format_errors(blob):
    with pytest.raises(FormatError):
        load_json(blob)


def test_file_autodetect(tmp_path, fano):
    lat = lt.integer_lattice(3, 2)
    t = tmp_path / "a.txt"
    j = tmp_path / "b.json"
    lt.write_file(fano, str(t), "text")
    lt.write_file(lat, str(j), "json")
    assert lt.read_file(str(t)) == fano
    assert lt.read_file(str(j)) == lat
