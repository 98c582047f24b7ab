import json

import pytest

import linturan as lt
from linturan.errors import FormatError
from linturan.results import ResultRecord


def record(value=2, status="exact", n=6, pattern="P2@r3", nodes=31):
    witness = {"n": n, "r": 3, "edges": [[0, 1, 2], [0, 3, 4]][: value or 0]}
    return ResultRecord(n, 3, pattern, "linear", value, status, witness, nodes, 0.01)


def test_round_trip_and_key():
    r = record()
    assert r.key == (6, 3, "P2@r3", "linear")
    assert ResultRecord.from_obj(r.to_obj()) == r
    assert r.witness_graph().edge_count == 2


def test_search_counters_round_trip_and_default_to_zero():
    r = ResultRecord(6, 3, "P2@r3", "linear", 2, "exact", record().witness, 3, 0.01, 10, 9, 1)
    assert ResultRecord.from_obj(r.to_obj()) == r
    # a record written before the store kept the counters
    old = {k: v for k, v in r.to_obj().items()
           if k not in ("admits_calls", "admits_rejects", "bound_cuts")}
    again = ResultRecord.from_obj(old)
    assert (again.admits_calls, again.admits_rejects, again.bound_cuts) == (0, 0, 0)
    assert again.nodes == 3


def test_from_obj_reports_missing_fields():
    with pytest.raises(FormatError) as exc:
        ResultRecord.from_obj({"n": 6})
    assert "missing" in str(exc.value)


def test_store_appends_one_line_per_record(tmp_path):
    path = tmp_path / "s.jsonl"
    store = lt.ResultsStore(path)
    store.add(record())
    store.add(record(n=7))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)


def test_store_reload_sees_all_records(tmp_path):
    path = tmp_path / "s.jsonl"
    lt.ResultsStore(path).add(record())
    again = lt.ResultsStore(path)
    assert again.best(6, 3, "P2@r3", "linear").value == 2


def test_bad_line_is_located(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"n": 1\n')
    with pytest.raises(FormatError) as exc:
        lt.ResultsStore(path)
    assert str(path) in str(exc.value)
    assert ":1:" in str(exc.value)


def test_torn_final_line_is_dropped_and_cut_by_the_next_add(tmp_path):
    path = tmp_path / "s.jsonl"
    lt.ResultsStore(path).add(record())
    line = json.dumps(record(n=7).to_obj(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line[:40])  # a writer stopped mid-line
    store = lt.ResultsStore(path)
    assert store.torn == 2
    assert len(store) == 1
    store.add(record(n=8))
    again = lt.ResultsStore(path)
    assert again.torn is None
    assert [rec.n for rec in again.entries()] == [6, 8]
    assert len(path.read_text().splitlines()) == 2


def test_unterminated_valid_last_line_is_kept(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(record().to_obj()))
    store = lt.ResultsStore(path)
    assert (store.torn, len(store)) == (None, 1)
    store.add(record(n=7))
    assert [rec.n for rec in lt.ResultsStore(path).entries()] == [6, 7]


def test_invalid_line_before_the_last_still_fails(tmp_path):
    path = tmp_path / "s.jsonl"
    good = json.dumps(record().to_obj())
    path.write_text(good[:40] + "\n" + good)
    with pytest.raises(FormatError) as exc:
        lt.ResultsStore(path)
    assert ":1:" in str(exc.value)


def test_best_prefers_exact_then_latest(tmp_path):
    store = lt.ResultsStore(tmp_path / "s.jsonl")
    store.add(record(value=1, status="interrupted", nodes=5))
    store.add(record(value=2, status="exact"))
    store.add(record(value=2, status="interrupted", nodes=9))
    best = store.best(6, 3, "P2@r3", "linear")
    assert (best.status, best.value) == ("exact", 2)
    assert store.best(9, 3, "P2@r3", "linear") is None


def test_latest_interrupted_wins_without_exact(tmp_path):
    store = lt.ResultsStore(tmp_path / "s.jsonl")
    store.add(record(value=1, status="interrupted", nodes=5))
    store.add(record(value=2, status="interrupted", nodes=9))
    assert store.best(6, 3, "P2@r3", "linear").nodes == 9


def test_entries_resolve_per_key_in_order(tmp_path):
    store = lt.ResultsStore(tmp_path / "s.jsonl")
    store.add(record(n=7))
    store.add(record(n=6, value=1, status="interrupted"))
    store.add(record(n=6, value=2, status="exact"))
    resolved = list(store.entries())
    assert [e.n for e in resolved] == [6, 7]
    assert resolved[0].status == "exact"


@pytest.mark.parametrize(
    "witness",
    [
        {"r": 3, "edges": []},
        {"n": 6, "r": 3},
        [6, []],
        {"n": 6, "r": 3, "edges": 3},
        {"n": 6.0, "r": 3, "edges": []},
        {"n": 6, "r": "3", "edges": []},
        {"n": 6, "r": 3, "edges": [[0, 1, "2"]]},
    ],
)
def test_malformed_witness_is_rejected_on_read(tmp_path, witness):
    obj = dict(record().to_obj(), witness=witness)
    with pytest.raises(FormatError) as exc:
        ResultRecord.from_obj(obj)
    assert "witness" in str(exc.value)
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(FormatError) as exc:
        lt.ResultsStore(path)
    assert ":1:" in str(exc.value)


@pytest.mark.parametrize(
    "field,value",
    [("n", "4"), ("r", None), ("pattern", 3), ("host", None), ("value", True),
     ("status", 1), ("nodes", 2.5), ("elapsed", "0.01"), ("admits_calls", 1.0),
     ("admits_rejects", "3"), ("bound_cuts", False)],
)
def test_field_of_wrong_type_is_rejected_on_read(tmp_path, field, value):
    obj = dict(record().to_obj(), **{field: value})
    with pytest.raises(FormatError) as exc:
        ResultRecord.from_obj(obj)
    assert field in str(exc.value)
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(record().to_obj()) + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(FormatError) as exc:
        lt.ResultsStore(path)
    assert ":2:" in str(exc.value)
