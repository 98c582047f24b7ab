import dataclasses
import json
import os
import random
import subprocess
import sys
import time

import pytest

import linturan as lt
from linturan.errors import FormatError
from linturan.results import ResultRecord, SearchStats

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def record(value=2, status="exact", n=6, pattern="P2@r3", nodes=31):
    witness = {"n": n, "r": 3, "edges": [[0, 1, 2], [0, 3, 4]][: value or 0]}
    return ResultRecord(n, 3, pattern, "linear", value, status, witness, SearchStats(nodes, 0.01))


def test_witness_with_an_empty_edge_is_a_format_error():
    witness = {"n": 3, "r": None, "edges": [[], [0, 1, 2]]}
    rec = dataclasses.replace(record(), witness=witness)
    with pytest.raises(FormatError, match=r"^invalid result record witness: edge \(\)"):
        rec.witness_graph()


def test_round_trip_and_key():
    r = record()
    assert r.key == (6, 3, "P2@r3", "linear")
    assert ResultRecord.from_obj(r.to_obj()) == r
    assert r.witness_graph().edge_count == 2


def test_search_counters_round_trip_and_default_to_zero():
    # every field but proof, the method's name, is a count
    counters = len(dataclasses.fields(SearchStats)) - 1
    stats = SearchStats(*range(3, 3 + counters), proof="degree-split")
    r = ResultRecord(6, 3, "P2@r3", "linear", 2, "exact", record().witness, stats)
    assert ResultRecord.from_obj(r.to_obj()) == r
    for field in dataclasses.fields(SearchStats):
        old = r.to_obj()
        del old[field.name]
        if field.name in ("nodes", "elapsed"):  # every record has carried these
            with pytest.raises(FormatError, match="missing"):
                ResultRecord.from_obj(old)
            continue
        # a record written before the store kept this counter
        again = ResultRecord.from_obj(old)
        assert again.stats == dataclasses.replace(stats, **{field.name: field.default})


def test_old_record_reads_its_proof_as_walk(tmp_path):
    # a line written before the store named the method, or kept the
    # later counters, is served as the walk's, and written back unchanged
    # but for the fields it lacked
    line = {"n": 8, "r": 3, "pattern": "P3@r3", "host": "linear", "value": 7,
            "status": "exact", "nodes": 253, "elapsed": 0.02,
            "witness": {"n": 8, "r": 3, "edges": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5],
                                                  [1, 4, 6], [2, 3, 6], [2, 4, 5]]}}
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(line) + "\n")
    store = lt.ResultsStore(path)
    (rec,) = store.entries()
    assert rec.stats == SearchStats(253, 0.02, proof="walk")
    (res,) = lt.ex_table([(8, 3, lt.parse_pattern("P3@r3"))], store=store)
    assert (res.status, res.value, res.stats.proof, res.stats.nodes) == ("exact", 7, "walk", 253)
    assert rec.to_obj() == {**line, "admits_calls": 0, "admits_rejects": 0, "bound_cuts": 0,
                            "proof": "walk"}


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


def test_two_stores_over_one_torn_line_keep_every_record(tmp_path):
    # both load the torn file; the second add must not cut at the offset
    # it saw, which by then holds the first add's record
    path = tmp_path / "s.jsonl"
    lt.ResultsStore(path).add(record())
    line = json.dumps(record(n=7).to_obj(), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line[:40])
    a, b = lt.ResultsStore(path), lt.ResultsStore(path)
    assert (a.torn, b.torn) == (2, 2)
    b.add(record(n=8))
    a.add(record(n=9))
    again = lt.ResultsStore(path)
    assert again.torn is None
    assert [rec.n for rec in again.entries()] == [6, 8, 9]
    assert len(path.read_text().splitlines()) == 3


_APPENDER = """
import sys, time
import linturan as lt
from linturan.results import ResultRecord, SearchStats
path, writer, count, start = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
store = lt.ResultsStore(path)
time.sleep(max(0.0, start - time.time()))
for i in range(count):
    n = 3 + 1000 * writer + i
    witness = {"n": n, "r": 3, "edges": []}
    store.add(ResultRecord(n, 3, None, "linear", 0, "exact", witness, SearchStats(1, 0.0)))
"""


def test_two_processes_append_to_one_store(tmp_path):
    path = tmp_path / "s.jsonl"
    count = 300
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [SRC, env.get("PYTHONPATH")] if p)
    start = time.time() + 0.5  # both start appending together
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _APPENDER, str(path), str(w), str(count), str(start)], env=env
        )
        for w in (1, 2)
    ]
    try:
        codes = [p.wait(timeout=60) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert codes == [0, 0]
    store = lt.ResultsStore(path)
    assert store.torn is None
    want = {3 + 1000 * w + i for w in (1, 2) for i in range(count)}
    assert {rec.n for rec in store.entries()} == want
    # one line per record; a writer that saw the other's line half written
    # starts on a fresh line, and the blank line that leaves is skipped
    assert len([line for line in path.read_text().splitlines() if line]) == 2 * count


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
    assert store.best(6, 3, "P2@r3", "linear").stats.nodes == 9


def test_entries_resolve_per_key_in_order(tmp_path):
    store = lt.ResultsStore(tmp_path / "s.jsonl")
    store.add(record(n=7))
    store.add(record(n=6, value=1, status="interrupted"))
    store.add(record(n=6, value=2, status="exact"))
    resolved = list(store.entries())
    assert [e.n for e in resolved] == [6, 7]
    assert resolved[0].status == "exact"


def _folded(history):
    """best, entries and len of the records in history, by a fold over
    all of them: exact beats interrupted, then the later record wins."""
    best = {}
    for rec in history:
        held = best.get(rec.key)
        if held is None or not (held.status == "exact" and rec.status != "exact"):
            best[rec.key] = rec
    order = sorted(best, key=lambda k: (k[0], k[1], str(k[2]), k[3]))
    return best, [best[k] for k in order], len(history)


@pytest.mark.parametrize("seed", range(6))
def test_store_matches_a_fold_over_every_record(tmp_path, seed):
    # random adds over few keys, both statuses, reloads, and torn final
    # lines that a reload drops and the next add cuts off
    rng = random.Random(seed)
    path = tmp_path / "s.jsonl"
    keys = [(n, pattern, host) for n in (3, 4, 5) for pattern in ("P2@r3", None)
            for host in ("linear", "general")]
    history = []
    store = lt.ResultsStore(path)
    for step in range(60):
        op = rng.random()
        if op < 0.7:
            n, pattern, host = rng.choice(keys)
            status = rng.choice(("exact", "interrupted"))
            rec = dataclasses.replace(record(value=rng.randrange(3), status=status, n=n,
                                             pattern=pattern, nodes=step), host=host)
            store.add(rec)
            history.append(rec)
        elif op < 0.85:
            store = lt.ResultsStore(path)
        else:
            line = json.dumps(record(n=9, nodes=step).to_obj())
            with open(path, "a") as fh:
                fh.write(line[: rng.randrange(1, len(line))])
            store = lt.ResultsStore(path)
            assert store.torn is not None
        best, entries, count = _folded(history)
        for n, pattern, host in keys + [(9, "P2@r3", "linear")]:
            assert store.best(n, 3, pattern, host) == best.get((n, 3, pattern, host))
        assert list(store.entries()) == entries
        assert len(store) == count
    assert list(lt.ResultsStore(path).entries()) == entries


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
     ("admits_rejects", "3"), ("bound_cuts", False),
     ("proof", 1),
     # right type, but a value outside the field's choices
     ("host", "Linear"), ("status", "Exact"), ("proof", "split")],
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
