"""Acceptance battery: one criterion per test, one verdict line each.

Each test prints a single "criterion N: PASS" line with its timing; a
failing criterion shows up as the test failure itself. Run with plain
pytest; the lines bypass capture.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations
from math import comb

import linturan as lt
from hostgen import random_host
from test_detect import _agreement

P2 = lt.linear_path(2, 3)
P3 = lt.linear_path(3, 3)
P4 = lt.linear_path(4, 3)


def test_criterion_01_matching_numbers(announce):
    t0 = time.perf_counter()
    values = [lt.max_edges(n, 3, P2).value for n in range(3, 9)]
    elapsed = time.perf_counter() - t0
    assert values == [1, 1, 1, 2, 2, 2]
    assert values == [n // 3 for n in range(3, 9)]
    assert elapsed < 30
    announce(
        f"criterion 1: PASS - two-edge-path extremal values {values} "
        f"match n//3 for n=3..8 ({elapsed:.2f}s)"
    )


def test_criterion_02_tight_instance(announce):
    t0 = time.perf_counter()
    res = lt.max_edges(7, 3, P3)
    elapsed = time.perf_counter() - t0
    assert res.exact
    assert res.value == 7
    assert lt.verify_design(res.witness)
    cap = lt.linear_path_upper(3, 3, 7)
    assert cap.value == F(7) == res.value
    assert elapsed < 600
    announce(
        "criterion 2: PASS - three-edge-path extremal value 7 on 7 vertices, "
        f"witness is a block design, matches the closed-form cap with equality ({elapsed:.2f}s)"
    )


def test_criterion_03_bound_dominance(announce):
    t0 = time.perf_counter()
    checked = 0
    violations = []
    for n in range(3, 9):
        exact = lt.max_edges(n, 3, P2).value
        cap = lt.linear_path_upper(3, 2, n).value
        checked += 1
        if exact > cap:
            violations.append(("P2", n, exact, cap))
    exact = lt.max_edges(7, 3, P3).value
    if exact > lt.linear_path_upper(3, 3, 7).value:
        violations.append(("P3", 7, exact, 7))
    checked += 1
    grid = []
    for n in range(3, 8):
        exact = lt.max_edges(n, 3, P4).value
        grid.append(exact)
        cap = lt.linear_path_upper(3, 4, n).value
        assert cap == 6 * n
        checked += 1
        if exact > cap:
            violations.append(("P4", n, exact, cap))
    elapsed = time.perf_counter() - t0
    assert grid == [1, 1, 2, 4, 7]
    assert violations == []
    announce(
        f"criterion 3: PASS - closed-form caps dominate all {checked} exact values, "
        f"zero violations ({elapsed:.2f}s)"
    )


def test_criterion_04_design_suite(announce):
    t0 = time.perf_counter()
    wanted = {(7, 3): 7, (9, 3): 12, (13, 3): 26, (15, 3): 35}
    for (n, r), blocks in wanted.items():
        d = lt.require_design(n, r)
        assert d.graph.edge_count == blocks
        assert lt.verify_design(d.graph)
    for n in (6, 8):
        out = lt.build_design(n, 3)
        assert out.design is None
        assert out.reason == "inadmissible"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    announce(
        "criterion 4: PASS - designs on 7,9,13,15 points have 7,12,26,35 blocks "
        f"and verify; 6 and 8 points inadmissible ({elapsed:.2f}s)"
    )


def test_criterion_05_end_set_sweep(announce):
    t0 = time.perf_counter()
    hosts = 0
    qualifying = 0
    embeddings = 0
    worst_pair = 0
    for n in range(3, 8):
        for h in lt.iter_free(n, 3, P4, "linear"):
            hosts += 1
            first = lt.contains(h, P3)
            if first is None:
                continue
            qualifying += 1
            sweep = lt.verify_frame_sweep(h, 4, 3)
            assert sweep.all_pass, (n, h.edges, sweep.failures)
            embeddings += sweep.embeddings_checked
            rep = lt.verify_frame(h, first, 4)
            assert rep.min_end_sum <= 2
            worst_pair = max(worst_pair, rep.min_end_sum)
    elapsed = time.perf_counter() - t0
    assert qualifying > 0
    assert elapsed < 1800
    announce(
        f"criterion 5: PASS - {hosts} linear four-edge-path-free hosts on <=7 vertices, "
        f"{qualifying} containing the three-edge path, {embeddings} embeddings all pass "
        f"the end-set battery; every host has an end pair summing to at most 2 "
        f"(largest minimum seen: {worst_pair}) ({elapsed:.1f}s)"
    )


def test_criterion_06_inserted_product_desk_instance(announce):
    t0 = time.perf_counter()
    rep = lt.thm47_construction(3, 4, 3, 1)
    elapsed = time.perf_counter() - t0
    assert rep.result.n == 59
    assert rep.actual == 141
    assert rep.linear
    assert rep.result.r == 3
    assert [c.method for c in rep.certificates] == ["structural", "detect"]
    assert all(lt.pattern_expr(c.pattern) == "P4+3*S4@r3" for c in rep.certificates)
    rest = lt.remove_vertices(rep.result, range(3))
    comps = lt.connected_components(rest)
    assert len(comps) == 8
    for comp in comps:
        block = lt.remove_vertices(rest, set(range(rest.n)) - comp)
        assert lt.verify_design(block)
    assert rep.nominal == F(451, 3)
    text = str(rep)
    assert "141 edges" in text and "nominal 451/3" in text
    assert any(c.startswith("fallback block count") for c in rep.caveats)
    assert elapsed < 300
    announce(
        "criterion 6: PASS - hub construction has 59 vertices and 141 edges, linear, "
        "3-uniform, certified pattern-free two ways; removing the hubs leaves 8 disjoint "
        f"block designs; nominal 451/3 displayed with the fallback caveat ({elapsed:.2f}s)"
    )


def test_criterion_07_cone_identity(announce):
    t0 = time.perf_counter()
    checked = 0
    for n in range(4, 13):
        for k in range(1, 4):
            if n - k < 1:
                continue
            kernel = lt.make_hypergraph(n - k, [], r=3)
            rep = lt.cone_construction(n, 3, k, kernel)
            apex = set(range(k))
            brute = sum(1 for e in combinations(range(n), 3) if set(e) & apex)
            assert rep.actual == brute == comb(n, 3) - comb(n - k, 3)
            checked += 1
    fano = lt.require_design(7, 3).graph
    rep = lt.cone_construction(9, 3, 2, fano)
    apex = {0, 1}
    brute = sum(1 for e in combinations(range(9), 3) if set(e) & apex) + 7
    assert rep.actual == brute
    checked += 1
    kernel = lt.max_edges(8, 3, lt.linear_star(4, 3)).witness
    assert kernel.edge_count == 8
    target = lt.parse_pattern("P4+S4@r3")
    rep = lt.cone_construction(9, 3, 1, kernel, free_pattern=target)
    assert [c.method for c in rep.certificates] == ["detect"]
    assert lt.is_free(rep.result, target)
    elapsed = time.perf_counter() - t0
    announce(
        f"criterion 7: PASS - cone edge counts match brute enumeration on {checked} "
        "grid instances; the 9-vertex cone over the extremal star-free kernel is "
        f"certified free of the forest target ({elapsed:.2f}s)"
    )


def test_criterion_08_products_and_lattices(announce):
    t0 = time.perf_counter()
    for d, shape in ((2, (16, 8)), (3, (64, 48))):
        lat = lt.integer_lattice(4, d)
        assert (lat.n, lat.edge_count) == shape
    fano = lt.require_design(7, 3).graph
    k2 = lt.make_hypergraph(2, [(0, 1)], 2)
    k3 = lt.make_hypergraph(3, [(0, 1, 2)], 3)
    factors = [
        (fano, k2),
        (fano, lt.integer_lattice(2, 2)),
        (lt.require_design(9, 3).graph, k2),
        (lt.integer_lattice(3, 2), k3),
        (lt.integer_lattice(4, 2), lt.integer_lattice(2, 2)),
        (lt.realize(P3), k2),
        (lt.realize(lt.linear_star(3, 3)), lt.realize(lt.linear_cycle(3, 2))),
        (lt.realize(lt.linear_cycle(4, 3)), k3),
        (lt.realize(P2), lt.realize(P2)),
        (k3, k3),
    ]
    assert len(factors) == 10
    for h, g in factors:
        p = lt.cartesian_product(h, g)
        assert p.edge_count == h.edge_count * g.n + h.n * g.edge_count
        assert lt.is_linear(h) and lt.is_linear(g)
        assert lt.is_linear(p)
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 8: PASS - lattice shapes (16,8) and (64,48); the product edge-count "
        f"identity and linearity hold on all 10 factor pairs ({elapsed:.2f}s)"
    )


def test_criterion_09_closed_form_spot_values(announce):
    t0 = time.perf_counter()
    caveat = "asymptotic regime not certified"

    def pick(reports, rule):
        (rep,) = [x for x in reports if x.rule == rule]
        return rep

    r1 = pick(lt.turan_formulas(3, 5, 10), "path-turan")
    r2 = pick(lt.turan_formulas(3, 4, 10), "path-turan")
    r3 = pick(lt.turan_formulas(3, 1, 10, k=2), "disjoint-paths-turan")
    assert (r1.value, r2.value, r3.value) == (F(64), F(43), F(64))
    for rep in (r1, r2, r3):
        assert caveat in rep.caveats
    elapsed = time.perf_counter() - t0
    announce(
        "criterion 9: PASS - closed forms give 64, 43, 64 at the three spot points, "
        f"each flagged '{caveat}' ({elapsed:.2f}s)"
    )


def test_criterion_10_detector_agreement(announce):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    hosts = 0
    linear_hosts = 0
    forests = 0
    for _ in range(500):
        h = random_host(rng)
        forests += _agreement(h)
        hosts += 1
        if lt.is_linear(h):
            linear_hosts += 1
    elapsed = time.perf_counter() - t0
    assert hosts == 500
    assert 0 < linear_hosts < 500
    assert forests > 0
    announce(
        f"criterion 10: PASS - detector agrees with the naive enumerator on {hosts} "
        f"random hosts ({linear_hosts} linear, {hosts - linear_hosts} not) across the "
        f"path/star/cycle/forest battery ({elapsed:.1f}s)"
    )
