import dataclasses
import json
import re
import shlex
import types
from itertools import count
from pathlib import Path

import pytest

import linturan as lt
from linturan import cli
from linturan.cli import EXIT_FAIL, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, main
from linturan.detect import edge_table
from linturan.endsets import _classify, _pairs
from linturan.results import SearchStats


@pytest.fixture
def fano_file(tmp_path, fano):
    path = tmp_path / "fano.json"
    lt.write_file(fano, str(path), "json")
    return str(path)


@pytest.fixture
def pendant_file(tmp_path, p3_plus_pendant):
    path = tmp_path / "pendant.txt"
    lt.write_file(p3_plus_pendant, str(path), "text")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_design_round_trip(self, capsys, tmp_path, fano):
        out = tmp_path / "d.json"
        code, text, _ = run(
            capsys, "build", "design", "--n", "7", "--r", "3",
            "--out", str(out), "--graph-format", "json",
        )
        assert code == EXIT_OK
        assert "7 blocks" in text
        assert lt.read_file(str(out)) == fano

    def test_inadmissible_design_fails(self, capsys):
        code, _, err = run(capsys, "build", "design", "--n", "6", "--r", "3")
        assert code == EXIT_FAIL
        assert "inadmissible" in err

    def test_design_search_through_config(self, capsys, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text('{"search_cap": 16}')
        code, text, _ = run(capsys, "build", "design", "--n", "16", "--r", "4",
                            "--config", str(cfg))
        first, graph = text.split("\n", 1)
        assert (code, first) == (EXIT_OK, "design on 16 points, block size 4, 20 blocks (search)")
        assert lt.verify_design(lt.hgio.load_text(graph))
        code, text, err = run(capsys, "build", "design", "--n", "16", "--r", "6",
                              "--config", str(cfg))
        assert (code, text) == (EXIT_FAIL, "")
        assert err == ("no design: search-exhausted: exhaustive search finds no design "
                       "for n=16, r=6\n")

    def test_path_build(self, capsys, tmp_path):
        out = tmp_path / "p.txt"
        code, _, _ = run(capsys, "build", "path", "--ell", "3", "--r", "3", "--out", str(out))
        assert code == EXIT_OK
        assert lt.read_file(str(out)) == lt.realize(lt.linear_path(3, 3))

    def test_forest_build(self, capsys, tmp_path):
        out = tmp_path / "f.txt"
        code, _, _ = run(
            capsys, "build", "forest", "--pattern", "P2+S2@r3", "--out", str(out)
        )
        assert code == EXIT_OK
        h = lt.read_file(str(out))
        assert (h.n, h.edge_count) == (10, 4)

    def test_lattice_and_product(self, capsys, tmp_path):
        left = tmp_path / "lat.json"
        code, _, _ = run(
            capsys, "build", "lattice", "--base", "4", "--dim", "2",
            "--out", str(left), "--graph-format", "json",
        )
        assert code == EXIT_OK
        out = tmp_path / "prod.json"
        code, _, _ = run(
            capsys, "build", "product", "--left", str(left), "--right", str(left),
            "--out", str(out), "--graph-format", "json",
        )
        assert code == EXIT_OK
        p = lt.read_file(str(out))
        assert p.n == 256
        assert p.edge_count == 8 * 16 + 16 * 8

    def test_thm47_report(self, capsys):
        code, text, _ = run(
            capsys, "build", "thm47", "--r", "3", "--ell", "4", "--k", "3",
            "--copies", "1",
        )
        assert code == EXIT_OK
        assert "59 vertices, 141 edges (nominal 451/3)" in text
        assert "fallback block count" in text

    @pytest.mark.parametrize("command", [("build", "thm47"),
                                         ("verify", "construction", "--which", "thm47")])
    def test_thm47_without_a_hub_design_is_a_usage_error(self, capsys, command):
        code, text, err = run(capsys, *command, "--r", "3", "--ell", "4", "--k", "12",
                              "--copies", "1")
        assert (code, text) == (EXIT_USAGE, "")
        assert err == ("error: --k 12 leaves no hub design: "
                       "no design for n=12, r=3: inadmissible\n")

    @pytest.mark.parametrize("command", [("build", "thm45"),
                                         ("verify", "construction", "--which", "thm45")])
    def test_thm45_with_too_few_vertices_is_a_usage_error(self, capsys, command):
        code, text, err = run(capsys, *command, "--r", "3", "--ell", "4", "--n", "2")
        assert (code, text) == (EXIT_USAGE, "")
        assert err == "error: --n 2 leaves no design: no design fits on 2 < 3 vertices\n"

    @pytest.mark.parametrize("argv, expected", [
        (("star", "--ell", "3", "--r", "3"), "n 7 r 3\n0 1 2\n0 3 4\n0 5 6\n"),
        (("cycle", "--ell", "5", "--r", "3"),
         "n 10 r 3\n0 1 2\n0 8 9\n2 3 4\n4 5 6\n6 7 8\n"),
    ])
    def test_star_and_cycle_text_is_pinned(self, capsys, argv, expected):
        assert run(capsys, "build", *argv) == (EXIT_OK, expected, "")

    def test_thm45_certify_flag(self, capsys):
        argv = ("build", "thm45", "--r", "3", "--ell", "4", "--n", "14")
        head = "thm45: 14 vertices, 14 edges (nominal 49/3)\n  free of P4@r3 (structural)\n"
        note = "  note: fallback block count: 7 points per block copy instead of 8\n"
        code, text, _ = run(capsys, *argv)
        assert (code, text) == (EXIT_OK, head + "  free of P4@r3 (detect)\n" + note)
        code, text, _ = run(capsys, *argv, "--no-certify")
        assert (code, text) == (EXIT_OK, head + note)

    def test_pattern_past_the_size_cap_is_refused(self, capsys, tmp_path):
        out = tmp_path / "p.txt"
        code, text, err = run(
            capsys, "build", "path", "--ell", "100000", "--r", "3", "--out", str(out)
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert err == "error: pattern would have 200001 vertices (cap 200000)\n"
        assert not out.exists()
        code, _, err = run(capsys, "build", "forest", "--pattern", "2*P50000@r3")
        assert code == EXIT_USAGE and err.startswith("error: pattern would have 200002")

    def test_lattice_past_the_size_cap_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "build", "lattice", "--base", "2", "--dim", "30")
        assert code == EXIT_USAGE
        assert err == "error: lattice would have 1073741824 vertices (cap 200000)\n"

    # each just past the cap, so that a missing check still ends in time
    @pytest.mark.parametrize(
        "argv,err",
        [
            (("design", "--n", "1101", "--r", "3"),
             "error: design would have 201850 blocks (cap 200000)\n"),
            (("thm45", "--r", "3", "--ell", "4", "--n", "200001", "--no-certify"),
             "error: thm45 host would have 200001 vertices (cap 200000)\n"),
            (("thm47", "--r", "3", "--ell", "4", "--k", "3", "--copies", "3572",
              "--no-certify"),
             "error: thm47 host would have 200035 vertices (cap 200000)\n"),
        ],
        ids=["design", "thm45", "thm47"],
    )
    def test_construction_past_the_size_cap_is_refused(self, capsys, tmp_path, argv, err):
        out = tmp_path / "h.txt"
        code, text, got = run(capsys, "build", *argv, "--out", str(out))
        assert (code, text, got) == (EXIT_USAGE, "", err)
        assert not out.exists()

    def test_cone_from_kernel_file(self, capsys, tmp_path, fano):
        kfile = tmp_path / "k.json"
        lt.write_file(fano, str(kfile), "json")
        code, text, _ = run(
            capsys, "build", "cone", "--n", "9", "--r", "3", "--k", "2",
            "--kernel", str(kfile),
        )
        assert code == EXIT_OK
        assert "56 edges" in text


    def test_output_dir_applies_to_a_relative_out(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "sub")}))
        (tmp_path / "sub").mkdir()
        code, text, _ = run(capsys, "build", "path", "--ell", "3", "--r", "3",
                            "--out", "p.txt", "--config", str(cfg))
        assert (code, text) == (EXIT_OK, "")
        assert lt.read_file(str(tmp_path / "sub" / "p.txt")) == lt.realize(lt.linear_path(3, 3))

    def test_thm47_out_writes_the_reports_host(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, text, _ = run(capsys, "build", "thm47", "--r", "3", "--ell", "4", "--k", "3",
                            "--copies", "1", "--out", "h.txt")
        report = lt.thm47_construction(3, 4, 3, 1)
        assert (code, text) == (EXIT_OK, str(report) + "\n")
        assert lt.read_file(str(tmp_path / "h.txt")) == report.result


class TestCheck:
    def test_linear_and_design_pass(self, capsys, fano_file):
        assert run(capsys, "check", "linear", "--in", fano_file)[0] == EXIT_OK
        assert run(capsys, "check", "design", "--in", fano_file)[0] == EXIT_OK

    def test_linear_failure_names_edges(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        lt.write_file(lt.make_hypergraph(4, [(0, 1, 2), (0, 1, 3)]), str(bad))
        code, text, _ = run(capsys, "check", "linear", "--in", str(bad))
        assert code == EXIT_FAIL
        assert "share" in text

    def test_free_exit_codes(self, capsys, fano_file):
        code, _, _ = run(
            capsys, "check", "free", "--in", fano_file, "--pattern", "P3@r3"
        )
        assert code == EXIT_OK
        code, text, _ = run(
            capsys, "check", "free", "--in", fano_file, "--pattern", "S3@r3"
        )
        assert code == EXIT_FAIL
        assert '"edge_map": [0, 1, 2]' in text

    def test_host_that_is_not_utf8_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n 3 r 3\n0 1 \xff\n")
        code, out, err = run(capsys, "check", "free", "--in", str(bad), "--pattern", "P1@r3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "not valid UTF-8 at byte 12" in err

    def test_host_with_an_empty_edge_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3, "r": null, "edges": [[], [0, 1, 2]]}')
        code, out, err = run(capsys, "check", "free", "--in", str(bad), "--pattern", "P1@r3")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: invalid hypergraph: edge () has no vertices\n"

    def test_malformed_host_names_its_first_faulty_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# host\r\nn 5 r 3\r\n2 1 3\r\n0 1 x\r\n")
        code, out, err = run(capsys, "check", "free", "--in", str(bad), "--pattern", "P1@r3")
        assert code == EXIT_USAGE
        assert err == "error: line 3: edge (2, 1, 3) is not strictly ascending\n"


    def test_design_failure(self, capsys, tmp_path, fano):
        six = tmp_path / "six.txt"
        lt.write_file(lt.make_hypergraph(7, fano.edges[:6], 3), str(six))
        assert run(capsys, "check", "design", "--in", str(six)) == (
            EXIT_FAIL, "not a design\n", ""
        )

class TestTuran:
    def test_prints_value(self, capsys):
        code, text, _ = run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3", "--linear"
        )
        assert code == EXIT_OK
        assert text.strip() == "2"

    def test_structured_output(self, capsys):
        code, text, _ = run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
            "--linear", "--report-format", "structured",
        )
        assert code == EXIT_OK
        obj = json.loads(text)
        assert (obj["value"], obj["status"]) == (2, "exact")
        stats = lt.max_edges(6, 3, lt.linear_path(2, 3)).stats
        counters = [f.name for f in dataclasses.fields(SearchStats) if f.name != "elapsed"]
        assert [obj[k] for k in counters] == [getattr(stats, k) for k in counters]
        assert "elapsed" not in obj

    @pytest.mark.parametrize(
        "flags,proof",
        [(("--r", "3", "--pattern", "P3@r3", "--linear"), "degree-split"),
         (("--r", "3", "--pattern", "S2@r3"), "walk"),
         (("--r", "3", "--pattern", "2*P1@r3", "--linear"), "degree-split"),
         (("--r", "3", "--linear"), "degree-split"),
         (("--r", "2", "--linear"), "degree-split"),
         (("--r", "2"), "degree-split")],
    )
    def test_structured_output_names_the_proof(self, capsys, flags, proof):
        code, text, _ = run(capsys, "turan", "--n", "7", *flags, "--report-format", "structured")
        assert (code, json.loads(text)["proof"]) == (EXIT_OK, proof)

    def test_witness_out(self, capsys, tmp_path):
        wfile = tmp_path / "w.json"
        code, _, _ = run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
            "--linear", "--witness-out", str(wfile), "--graph-format", "json",
        )
        assert code == EXIT_OK
        w = lt.read_file(str(wfile))
        assert w.edge_count == 2
        assert lt.is_free(w, lt.linear_path(2, 3))

    def test_node_limit_flag_interrupts(self, capsys):
        code, text, err = run(
            capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
            "--linear", "--node-limit", "2",
        )
        assert code == EXIT_INTERRUPTED
        assert "lower bound" in err
        assert int(text) <= 7

    def test_search_past_the_size_cap_is_refused(self, capsys):
        # just past the cap (C(75, 3) * 3 = 202575 vertices), so that a
        # missing check still ends in time
        code, text, err = run(
            capsys, "turan", "--n", "75", "--r", "3", "--pattern", "P3@r3",
            "--linear", "--node-limit", "10",
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert err == ("error: search on n=75, r=3 would have C(75, 3) candidate edges, "
                       "more than 200000 vertices in all (cap 200000)\n")

    def test_results_file_resumes(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        args = ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        assert run(capsys, *args)[0] == EXIT_OK
        # impossibly small budget still succeeds because the store answers
        code, text, _ = run(capsys, *args, "--node-limit", "1")
        assert code == EXIT_OK
        assert text.strip() == "2"

    def test_torn_results_file_warns_once(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        args = ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        assert run(capsys, *args)[0] == EXIT_OK
        with open(rfile, "a", encoding="utf-8") as fh:
            fh.write('{"n": 7, "r": 3, "pat')
        code, text, err = run(capsys, *args)
        assert (code, text.strip()) == (EXIT_OK, "2")
        assert err.count("warning") == 1
        assert f"{rfile}:2: dropped a torn final line" in err


    def test_mistyped_stored_witness_is_an_error(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        args = ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        assert run(capsys, *args)[0] == EXIT_OK
        rec = json.loads(rfile.read_text())
        rec["witness"]["edges"] = 3
        rfile.write_text(json.dumps(rec) + "\n")
        code, _, err = run(capsys, *args)
        assert code == EXIT_USAGE
        assert f"{rfile}:1:" in err and "edges" in err

    def test_stored_witness_that_fails_verification_is_a_store_error(self, capsys, tmp_path):
        # a well-formed record whose witness holds the pattern: the fault
        # is in the file passed with --results, not an internal error
        rfile = tmp_path / "r.jsonl"
        args = ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        assert run(capsys, *args)[0] == EXIT_OK
        rec = json.loads(rfile.read_text())
        rec["value"], rec["witness"]["edges"] = 2, [[0, 1, 2], [2, 3, 4]]
        rfile.write_text(json.dumps(rec) + "\n")
        code, text, err = run(capsys, *args)
        assert (code, text) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {rfile}: stored record n=6, r=3, pattern P2@r3")
        assert "internal" not in err


    @pytest.mark.parametrize(
        "edges, fault",
        [([[0, 1, 2], [2, 1, 0]], "appears more than once"), ([[0, 1, 6]], "not in range")],
        ids=["duplicate-edge", "out-of-range"],
    )
    def test_stored_witness_that_cannot_be_built_is_a_store_error(
        self, capsys, tmp_path, edges, fault
    ):
        rfile = tmp_path / "r.jsonl"
        args = ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        assert run(capsys, *args)[0] == EXIT_OK
        rec = json.loads(rfile.read_text())
        rec["witness"]["edges"] = edges
        rfile.write_text(json.dumps(rec) + "\n")
        code, text, err = run(capsys, *args)
        assert (code, text) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {rfile}: stored record n=6, r=3, pattern P2@r3")
        assert fault in err and "internal" not in err

    def test_time_budget_spent_before_the_root_is_interrupted(self, capsys, monkeypatch):
        # a clock that gains a second per reading: the root's reading is
        # already over the budget
        readings = count()
        clock = types.SimpleNamespace(monotonic=lambda: float(next(readings)))
        monkeypatch.setattr(lt.oracle, "time", clock)
        code, text, err = run(capsys, "turan", "--n", "8", "--r", "3", "--pattern",
                              "P3@r3", "--linear", "--time-limit", "0.5")
        assert (code, text) == (EXIT_INTERRUPTED, "0\n")
        assert "internal" not in err


class TestBound:
    def test_text_line(self, capsys):
        code, text, _ = run(
            capsys, "bound", "--theorem", "linear-path", "--r", "3", "--ell", "4",
            "--n", "100",
        )
        assert code == EXIT_OK
        assert text.strip() == "linear-path: upper 600"

    def test_structured_includes_caveats(self, capsys):
        code, text, _ = run(
            capsys, "bound", "--theorem", "path-turan", "--r", "3", "--ell", "5",
            "--n", "10", "--report-format", "structured",
        )
        assert code == EXIT_OK
        (obj,) = json.loads(text)
        assert obj["value"] == "64"
        assert obj["caveats"] == ["asymptotic regime not certified"]

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "bound", "--theorem", "linear-path", "--r", "3")
        assert code == EXIT_USAGE
        assert "--ell" in err or "--n" in err

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "bound", "--theorem", "nosuch", "--r", "3")
        assert code == EXIT_USAGE
        assert "unknown theorem id" in err

    def test_lengths_must_be_integers(self, capsys):
        code, _, err = run(
            capsys, "bound", "--theorem", "path-star-forest", "--r", "3", "--ell", "4",
            "--n", "10", "--lengths", "4,x",
        )
        assert (code, err) == (
            EXIT_USAGE, "error: --lengths must be comma-separated integers, got '4,x'\n"
        )

    def test_fraction_arguments(self, capsys):
        code, text, _ = run(
            capsys, "bound", "--theorem", "star-turan", "--r", "3", "--ell", "4",
            "--n", "10", "--c", "1/2",
        )
        assert code == EXIT_OK
        assert "60" in text
        assert run(capsys, "bound", "--theorem", "star-turan", "--r", "3", "--ell", "4",
                   "--n", "10", "--c", "0.5") == (code, text, "")

    @pytest.mark.parametrize(
        "argv,err",
        [
            (("star-turan", "--c", "1/0"), "zero denominator in '1/0'"),
            (("removal", "--k", "1", "--ex", "1/0"), "zero denominator in '1/0'"),
            (("star-turan", "--c", "1e5000"), "expected an integer, p/q or decimal"),
            (("star-turan", "--c", "1e99999999"), "expected an integer, p/q or decimal"),
        ],
        ids=["c-zero-denominator", "ex-zero-denominator", "c-exponent", "c-huge-exponent"],
    )
    def test_bad_numbers_are_usage_errors(self, capsys, argv, err):
        theorem, *flags = argv
        code, text, got = run(capsys, "bound", "--theorem", theorem, "--r", "3", "--ell",
                              "4", "--n", "10", *flags)
        assert (code, text) == (EXIT_USAGE, "")
        assert got.startswith("error: argument") and err in got

    def test_negative_path_free_maximum_is_refused(self, capsys):
        # it once printed "removal: upper -1/2" and exited 0
        assert run(capsys, "bound", "--theorem", "removal", "--r", "3", "--ell", "4",
                   "--k", "1", "--n", "10", "--ex", "-5") == (
            EXIT_USAGE, "", "error: path-free maximum must be nonnegative, got -5\n")

    def test_value_too_long_to_print_is_a_usage_error(self, capsys):
        code, text, err = run(capsys, "bound", "--theorem", "path-turan", "--r", "3",
                              "--ell", "4", "--n", "9" * 4000)
        assert (code, text, err) == (
            EXIT_USAGE, "", "error: a report value is too long to print\n"
        )

    def test_value_float_is_null_out_of_float_range(self, capsys):
        code, text, _ = run(capsys, "bound", "--theorem", "path-turan", "--r", "3",
                            "--ell", "4", "--n", "9" * 200, "--report-format", "structured")
        (obj,) = json.loads(text)
        assert code == EXIT_OK
        assert obj["value_float"] is None and len(obj["value"]) > 308


class TestVerify:
    def test_section2_pass(self, capsys, pendant_file):
        code, text, _ = run(capsys, "verify", "section2", "--in", pendant_file, "--ell", "4")
        assert code == EXIT_OK
        assert text.startswith("pass: 4 embeddings checked, 0 failures")

    def test_section2_sweeps_an_r4_host(self, capsys, tmp_path):
        # P5-free at r = 4, and two of its frames hold a traversing pair,
        # so the r >= 4 branch of the uncovered-ends check runs
        hfile = tmp_path / "r4.txt"
        hfile.write_text(
            "n 16 r 4\n0 1 2 6\n0 7 10 11\n1 4 14 15\n1 5 8 12\n"
            "3 10 12 15\n4 6 11 12\n4 8 9 13\n"
        )
        h = lt.read_file(str(hfile))
        assert lt.is_free(h, lt.linear_path(5, 4))
        pairs = 0
        table = edge_table(h.n, h.edges)
        for emb in lt.iter_embeddings(h, lt.linear_path(4, 4)):
            v = (-1,) + emb.vertex_map
            frame = _classify(table, h.incidence, 4, 5, v)
            pairs += len(_pairs(table, 4, 5, v, frame))
        assert pairs == 2
        code, text, _ = run(capsys, "verify", "section2", "--in", str(hfile), "--ell", "5")
        assert (code, text) == (EXIT_OK, "pass: 8 embeddings checked, 0 failures\n")

    def test_section2_path_present(self, capsys, tmp_path):
        hfile = tmp_path / "p4.txt"
        lt.write_file(lt.realize(lt.linear_path(4, 3)), str(hfile))
        code, text, _ = run(capsys, "verify", "section2", "--in", str(hfile), "--ell", "4")
        assert code == EXIT_FAIL
        assert "contains the forbidden path" in text

    def test_section2_refuses_a_mixed_host(self, capsys, tmp_path):
        hfile = tmp_path / "mixed.txt"
        hfile.write_text("n 9 r mixed\n0 1 2\n2 3 4\n4 5 6\n6 7 8\n")
        code, text, err = run(capsys, "verify", "section2", "--in", str(hfile), "--ell", "4")
        assert (code, text) == (EXIT_USAGE, "")
        assert err == f"error: verify section2 needs a uniform host; {hfile} is mixed\n"

    def test_section2_not_applicable_is_not_a_failure(self, capsys, fano_file):
        code, text, _ = run(capsys, "verify", "section2", "--in", fano_file, "--ell", "3")
        assert code == EXIT_OK
        assert text.startswith("not-applicable")

    def test_section2_renders_fabricated_failures(self, capsys, monkeypatch, fano_file):
        # a real failure would be a counterexample to the underlying
        # claims, so exercise the reporting path with a stub
        from linturan.endsets import CheckOutcome, FrameReport, SweepReport

        emb = lt.contains(lt.require_design(7, 3).graph, lt.linear_path(2, 3))
        rep = FrameReport(
            "fail", 4, 3, emb,
            (CheckOutcome("small-end-pair", False, "min 5, bound 2"),), 5,
        )
        monkeypatch.setattr(
            cli, "verify_frame_sweep",
            lambda *a, **k: SweepReport("fail", 4, 3, 1, (rep,)),
        )
        code, text, _ = run(capsys, "verify", "section2", "--in", fano_file, "--ell", "4")
        assert code == EXIT_FAIL
        assert "small-end-pair: min 5, bound 2" in text
        assert "embedding:" in text
        code, text, _ = run(
            capsys, "verify", "section2", "--in", fano_file, "--ell", "4",
            "--report-format", "structured",
        )
        assert code == EXIT_FAIL
        obj = json.loads(text)
        assert obj["failures"][0]["outcomes"][0]["name"] == "small-end-pair"

    def test_construction_param_validation(self, capsys):
        code, _, err = run(capsys, "verify", "construction", "--which", "thm47", "--r", "3")
        assert code == EXIT_USAGE
        assert "--ell" in err

    def test_construction_thm45(self, capsys):
        code, text, _ = run(
            capsys, "verify", "construction", "--which", "thm45", "--r", "3",
            "--ell", "4", "--n", "14",
        )
        assert code == EXIT_OK
        assert "14 edges" in text

    def test_construction_cone_with_and_without_pattern(self, capsys, fano_file):
        argv = ("verify", "construction", "--which", "cone", "--n", "9", "--r", "3",
                "--k", "2", "--kernel", fano_file)
        head = "cone: 9 vertices, 56 edges (nominal 56) [not linear]\n  note: result is not linear\n"
        assert run(capsys, *argv) == (EXIT_OK, head, "")
        code, text, _ = run(capsys, *argv, "--pattern", "P4@r3")
        assert (code, text) == (
            EXIT_OK, head + "  note: pattern P4@r3 present; no freeness certificate\n"
        )
        code, _, err = run(capsys, *argv[:-2])
        assert (code, err) == (
            EXIT_USAGE, "error: verify construction --which cone needs --kernel\n"
        )

    def test_construction_invariant_violation_exits_2(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise lt.InvariantViolation("copy 1 holds a P4")

        monkeypatch.setattr(cli, "thm45_construction", broken)
        argv = ("verify", "construction", "--which", "thm45", "--r", "3", "--ell", "4",
                "--n", "14")
        assert run(capsys, *argv) == (
            EXIT_FAIL, "verification failed: copy 1 holds a P4\n", ""
        )
        code, text, _ = run(capsys, *argv, "--report-format", "structured")
        assert code == EXIT_FAIL
        assert json.loads(text) == {"verified": False, "error": "copy 1 holds a P4"}

    def test_suite_all_pass(self, capsys):
        code, text, _ = run(capsys, "verify", "suite")
        assert code == EXIT_OK
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines
        assert all(l.startswith("PASS") for l in lines)


    def test_suite_reports_a_check_that_raises(self, capsys, monkeypatch):
        def broken():
            raise lt.BadParameters("no such row")

        monkeypatch.setattr(cli, "_suite_checks",
                            lambda: iter([("fine", lambda: True), ("boom", broken)]))
        assert run(capsys, "verify", "suite") == (
            EXIT_FAIL, "PASS  fine\nFAIL  boom (no such row)\n", ""
        )

class TestReport:
    def test_table_includes_path_cap(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        run(capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
            "--linear", "--results", str(rfile))
        code, text, _ = run(capsys, "report", "--results", str(rfile))
        assert code == EXIT_OK
        row = [l for l in text.splitlines() if "P2@r3" in l][0]
        assert "2" in row.split()


    def test_interrupted_records_are_left_out(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        code, _, _ = run(capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
                         "--linear", "--node-limit", "2", "--results", str(rfile))
        assert code == EXIT_INTERRUPTED
        assert json.loads(rfile.read_text())["status"] == "interrupted"
        code, text, _ = run(capsys, "report", "--results", str(rfile))
        assert code == EXIT_OK
        assert len(text.splitlines()) == 2  # header and rule only
        code, text, _ = run(capsys, "report", "--results", str(rfile),
                            "--report-format", "structured")
        assert (code, json.loads(text)) == (EXIT_OK, [])

    def test_structured_rows_match_the_table(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        for n, pattern in (("6", "P2@r3"), ("7", "P3@r3"), ("6", "S2@r3")):
            run(capsys, "turan", "--n", n, "--r", "3", "--pattern", pattern,
                "--linear", "--results", str(rfile))
        code, text, _ = run(capsys, "report", "--results", str(rfile))
        assert code == EXIT_OK
        table = [line.split() for line in text.splitlines()[2:]]
        code, text, _ = run(capsys, "report", "--results", str(rfile),
                            "--report-format", "structured")
        assert code == EXIT_OK
        rows = json.loads(text)
        assert len(rows) == 3
        assert table == [
            [str(row[key]) for key in ("n", "r", "pattern", "host", "value", "bound")]
            for row in rows
        ]

    def test_mistyped_stored_field_is_an_error(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        for n in ("6", "7"):
            run(capsys, "turan", "--n", n, "--r", "3", "--pattern", "P2@r3",
                "--linear", "--results", str(rfile))
        first, second = rfile.read_text().splitlines()
        rec = json.loads(second)
        rec["n"] = "4"
        rfile.write_text(first + "\n" + json.dumps(rec) + "\n")
        code, _, err = run(capsys, "report", "--results", str(rfile))
        assert code == EXIT_USAGE
        assert f"{rfile}:2:" in err


    def test_unparsable_stored_pattern_has_no_cap(self, capsys, tmp_path):
        rfile = tmp_path / "r.jsonl"
        rec = {"n": 6, "r": 3, "pattern": "P0@r3", "host": "linear", "value": 0,
               "status": "exact", "witness": {"n": 6, "r": 3, "edges": []},
               "nodes": 1, "elapsed": 0.0}
        rfile.write_text(json.dumps(rec) + "\n")
        code, text, _ = run(capsys, "report", "--results", str(rfile))
        assert code == EXIT_OK
        assert text.splitlines()[2].split() == ["6", "3", "P0@r3", "linear", "0", "-"]

class TestConfigAndUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "wat")[0] == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"wat": 1}')
        code, _, err = run(
            capsys, "bound", "--theorem", "linear-path", "--r", "3", "--ell", "4",
            "--n", "100", "--config", str(cfg),
        )
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    def test_config_value_of_wrong_type(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"node_limit": "5"}')
        code, _, err = run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
            "--linear", "--config", str(cfg),
        )
        assert code == EXIT_USAGE
        assert "node_limit" in err

    def test_null_prime_cap_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"prime_cap": null}')
        code, _, err = run(
            capsys, "build", "design", "--n", "13", "--r", "4", "--config", str(cfg)
        )
        assert code == EXIT_USAGE
        assert "prime_cap has the wrong type: None" in err

    @pytest.mark.parametrize("name", [cli.ENV_NODE_LIMIT, cli.ENV_TIME_LIMIT])
    def test_env_budget_not_a_number(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "abc")
        code, _, err = run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3", "--linear",
        )
        assert code == EXIT_USAGE
        assert name in err

    def test_config_budget_applies(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"node_limit": 2}')
        code, _, _ = run(
            capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
            "--linear", "--config", str(cfg),
        )
        assert code == EXIT_INTERRUPTED

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"node_limit": 2}')
        monkeypatch.setenv(cli.ENV_NODE_LIMIT, "1000000")
        code, text, _ = run(
            capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
            "--linear", "--config", str(cfg),
        )
        assert code == EXIT_OK
        assert text.strip() == "7"

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_NODE_LIMIT, "1000000")
        code, _, _ = run(
            capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
            "--linear", "--node-limit", "2",
        )
        assert code == EXIT_INTERRUPTED

    def test_flag_skips_a_malformed_env_budget(self, capsys, monkeypatch):
        # the environment is read only when the flag is absent
        monkeypatch.setenv(cli.ENV_NODE_LIMIT, "abc")
        assert run(
            capsys, "turan", "--n", "6", "--r", "3", "--pattern", "P2@r3",
            "--linear", "--node-limit", "50",
        ) == (EXIT_OK, "2\n", "")

    def test_config_format_must_be_text_or_structured(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": "json"}')
        code, text, err = run(capsys, "check", "linear", "--in", "x.txt", "--config", str(cfg))
        assert (code, text) == (EXIT_USAGE, "")
        assert err == f"error: {cfg}: format must be 'text' or 'structured'\n"

    def test_config_format_structured_applies(self, capsys, tmp_path, fano_file):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format": "structured"}')
        assert run(capsys, "check", "linear", "--in", fano_file, "--config", str(cfg)) == (
            EXIT_OK, '{"linear": true}\n', ""
        )

    @pytest.mark.parametrize("argv", [
        ("turan", "--n", "6", "--r", "3", "--pattern", "P2@r3", "--linear", "--seed", "42"),
        ("check", "linear", "--in", "x.txt", "--graph-format", "json"),
        ("verify", "suite", "--report-format", "structured"),
        ("verify", "suite", "--config", "c.json"),
        ("build", "path", "--ell", "3", "--r", "3", "--report-format", "structured"),
    ], ids=["seed", "check-graph-format", "suite-report-format", "suite-config",
            "path-report-format"])
    def test_options_a_command_does_not_read_are_rejected(self, capsys, argv):
        code, text, err = run(capsys, *argv)
        assert (code, text) == (EXIT_USAGE, "")
        assert err.startswith("error: unrecognized arguments: ")

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "check", "linear", "--in", "/nonexistent/x.txt")
        assert code == EXIT_USAGE
        assert "error" in err


def _readme_commands() -> list:
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("linturan ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) > 20
    parser = cli.build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_parser_is_built_once_and_survives_usage_errors(capsys, monkeypatch, fano_file):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    free = ("check", "free", "--in", fano_file, "--pattern", "P3@r3")
    first = run(capsys, *free)
    assert first[0] == EXIT_OK
    # a usage error in a subparser, then one at the top level
    code, _, err = run(capsys, "check", "free", "--in", fano_file, "--pattern")
    assert code == EXIT_USAGE and "--pattern" in err
    code, _, err = run(capsys, "turan", "--n", "x", "--r", "3")
    assert code == EXIT_USAGE and "--n" in err
    assert run(capsys, *free) == first
    assert run(capsys, "turan", "--n", "7", "--r", "3", "--pattern", "P3@r3",
               "--linear")[:2] == (EXIT_OK, "7\n")
    assert len(built) == 1
