import random
from dataclasses import replace
from itertools import islice

import pytest

import linturan as lt
import naive_endsets as naive
from hostgen import random_edges
from linturan.detect import edge_table
from linturan.endsets import _classify, _pairs, _split
from linturan.errors import (
    BadParameters,
    HostContainsPath,
    HostNotLinear,
    InvariantViolation,
    LinturanError,
    NotAPathEmbedding,
)

P3 = lt.linear_path(3, 3)


def identity_embedding(host, pattern):
    for emb in lt.iter_embeddings(host, pattern):
        if emb.vertex_map == tuple(range(len(emb.vertex_map))):
            return emb
    raise AssertionError("no identity embedding")


def test_frame_partition_of_bare_path():
    host = lt.realize(P3)
    emb = identity_embedding(host, P3)
    assert emb.vertex_map == tuple(range(7))
    left, right, interior = _split((-1,) + emb.vertex_map, 3)
    assert (left, right, interior) == ([0, 1], [5, 6], (2, 3, 4))


def test_pendant_edge_lands_in_a1(p3_plus_pendant):
    host = p3_plus_pendant
    emb = identity_embedding(host, P3)
    v = (-1,) + emb.vertex_map
    left, right, interior = _split(v, 3)
    # vertex 7 is off the path
    assert set(interior).union(left, right) == set(range(7))
    table = edge_table(host.n, host.edges)
    frame = _classify(table, host.incidence, 3, 4, v)
    a0, a1 = frame.a
    b5, b6 = frame.b
    assert [e.vertex for e in frame.a + frame.b] == [0, 1, 5, 6]
    # the added edge goes through left end 1 and interior vertex 3
    assert [host.edges[f] for f in a1.ones] == [(1, 3, 7)]
    assert a0.ones == b5.ones == b6.ones == []
    assert frame.reach_a == a1.reach == table.bits[a1.ones[0]]
    assert frame.reach_b == table.empty


def test_verify_frame_passes_on_pendant_host(p3_plus_pendant):
    emb = identity_embedding(p3_plus_pendant, P3)
    rep = lt.verify_frame(p3_plus_pendant, emb, 4)
    assert rep.status == "pass"
    assert rep.min_end_sum == 0
    assert [o.name for o in rep.outcomes] == [
        "no-shared-blocked-vertex",
        "no-disjoint-traversing-pair",
        "traversal-leaves-free-ends",
        "small-end-pair",
        "end-degree-bound",
    ]
    assert rep.failures == ()


def test_traversing_pair_is_found_and_intersects():
    # one A_1 edge through v_5 and one B_1 edge through v_4, glued at an
    # exterior vertex; gluing is forced, the disjoint variant has a P4
    host = lt.make_hypergraph(
        9, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 4, 8), (3, 5, 8)], 3
    )
    assert lt.is_free(host, lt.linear_path(4, 3))
    emb = identity_embedding(host, P3)
    v = (-1,) + emb.vertex_map
    table = edge_table(host.n, host.edges)
    frame = _classify(table, host.incidence, 3, 4, v)
    [(f1, f2, i, u, w)] = _pairs(table, 3, 4, v, frame)
    assert (i, u, w) == (2, 1, 5)
    assert set(host.edges[f1]) & set(host.edges[f2])
    assert lt.verify_frame(host, emb, 4).status == "pass"


def test_sweep_checks_every_embedding(p3_plus_pendant):
    rep = lt.verify_frame_sweep(p3_plus_pendant, 4, 3)
    assert rep.status == "pass"
    assert rep.embeddings_checked == 4
    assert rep.failures == ()


def test_sweep_checks_linearity_once(monkeypatch, p3_plus_pendant):
    # the sweep checks the host once, and each embedding is verified
    # exactly once, by the detector or by the sweep
    linear = []
    verified = []
    swept = []
    is_linear, verify = lt.endsets.is_linear, lt.detect.verify_embedding
    embeddings = lt.endsets.iter_embeddings
    monkeypatch.setattr(lt.endsets, "is_linear", lambda h: linear.append(h) or is_linear(h))
    for module in (lt.detect, lt.endsets):
        monkeypatch.setattr(
            module, "verify_embedding", lambda h, e: verified.append(e) or verify(h, e)
        )
    monkeypatch.setattr(
        lt.endsets, "iter_embeddings", lambda h, p: (swept.append(e) or e for e in embeddings(h, p))
    )
    rep = lt.verify_frame_sweep(p3_plus_pendant, 4, 3)
    assert rep.embeddings_checked == 4
    assert len(linear) == 1
    assert len(verified) == 4
    assert sorted(map(id, verified)) == sorted(map(id, swept))


def _sweep_hosts():
    """(host, ell): criterion-5 hosts holding the three-edge path (none on
    six vertices or fewer does), and seeded random linear hosts that hold
    the (ell-1)-edge path but not the ell-edge one, at r = 3 and 4."""
    p3, p4 = lt.linear_path(3, 3), lt.linear_path(4, 3)
    crit5 = (h for h in lt.iter_free(7, 3, p4, "linear") if not lt.is_free(h, p3))
    yield from ((h, 4) for h in islice(crit5, 0, None, 8))
    rng = random.Random(4400)
    for r, n, ell in [(3, 9, 4), (3, 11, 5), (4, 12, 4), (4, 14, 5)]:
        kept = 0
        while kept < 6:
            h = random_edges(rng, n, r, rng.randint(ell - 1, ell + 3), True)
            if lt.is_free(h, lt.linear_path(ell - 1, r)) or not lt.is_free(
                h, lt.linear_path(ell, r)
            ):
                continue
            kept += 1
            yield h, ell


def test_sweep_shares_classes_between_directions():
    # the sweep classifies a path's ends for one direction and reuses them
    # for the other, and builds a report only for a failing embedding; its
    # verdict on every directed embedding must be verify_frame's, which
    # builds the frame and its classes afresh
    frames = 0
    for host, ell in _sweep_hosts():
        sweep = lt.verify_frame_sweep(host, ell, host.r)
        failed = [rep.emb for rep in sweep.failures]
        embs = list(lt.iter_embeddings(host, lt.linear_path(ell - 1, host.r)))
        assert sweep.embeddings_checked == len(embs)
        for emb in embs:
            verdict = "fail" if emb in failed else "pass"
            assert verdict == lt.verify_frame(host, emb, ell).status, (host.edges, emb)
        assert sweep.status == ("fail" if failed else "pass")
        frames += len(embs)
    assert frames > 1000


def _relabelled(host):
    """host with vertex x renamed n-1-x on n = host.n + _MASK_LIMIT + 1
    vertices: every label lies past the mask limit, so the detector's
    table holds frozensets, and the reversal reorders edges and
    embeddings."""
    n = host.n + lt.detect._MASK_LIMIT + 1
    copy = lt.make_hypergraph(n, [tuple(n - 1 - x for x in e) for e in host.edges], host.r)
    assert edge_table(n, copy.edges).empty == frozenset()
    return copy


def _outcome(check, *args):
    """check(*args), or the InvariantViolation it raises, as a comparable
    (type, message) pair."""
    try:
        return check(*args)
    except InvariantViolation as exc:
        return InvariantViolation, str(exc)


@pytest.mark.parametrize("relabel", [False, True], ids=["masks", "frozensets"])
def test_frames_match_the_reference(relabel):
    # every report, field by field, equals the frozenset reference that
    # classifies each directed embedding afresh
    frames = 0
    for host, ell in _sweep_hosts():
        if relabel:
            host = _relabelled(host)
        r = host.r
        assert lt.verify_frame_sweep(host, ell, r) == naive.verify_frame_sweep(host, ell, r)
        for emb in lt.iter_embeddings(host, lt.linear_path(ell - 1, r)):
            assert lt.verify_frame(host, emb, ell) == naive.verify_frame(host, emb, ell)
            frames += 1
    assert frames > 1000


def _faulty_hosts():
    """(host, ell): seeded random linear hosts that hold the ell-edge path,
    where checks (a)-(d) fail, and random non-linear hosts, where the
    counting checks of the classification raise; a host whose left end 1
    has three A_1 edges, one more than the bound; and a P3 at r = 4 with
    a traversing pair, whose right ends all meet both vertices 4 and 5
    of the middle edge in B_1 edges, so whichever is v_5, the early
    blocked vertex, no right end avoids it."""
    rng = random.Random(2500)
    for r, n, ell, linear, lo, hi, hosts in [
        (3, 13, 4, True, 14, 20, 2),
        (3, 9, 4, True, 6, 12, 8),
        (3, 11, 5, True, 6, 10, 4),
        (4, 16, 4, True, 18, 22, 1),
        (3, 8, 4, False, 6, 12, 8),
        (4, 10, 4, False, 5, 9, 4),
    ]:
        for _ in range(hosts):
            yield random_edges(rng, n, r, rng.randint(lo, hi), linear), ell
    yield lt.make_hypergraph(
        10, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 2, 7), (1, 3, 8), (1, 4, 9)], 3
    ), 4
    yield lt.make_hypergraph(24, [
        (0, 1, 2, 3), (3, 4, 5, 6), (6, 7, 8, 9), (0, 6, 10, 11), (5, 7, 12, 13),
        (4, 7, 14, 15), (4, 8, 16, 17), (4, 9, 18, 19), (5, 8, 20, 21), (5, 9, 22, 23),
    ], 4), 4


@pytest.mark.parametrize("relabel", [False, True], ids=["masks", "frozensets"])
def test_failing_frames_match_the_reference(monkeypatch, relabel):
    # with the preconditions lifted, frames fail their checks and
    # classifications raise: every report, fault detail and message, and
    # the order of a sweep's failures, must be the reference's
    for name in ("_require_linear", "_require_path_free"):
        monkeypatch.setattr(lt.endsets, name, lambda *args: None)
    failed, details, raised = set(), set(), set()
    for host, ell in _faulty_hosts():
        if relabel:
            host = _relabelled(host)
        r = host.r
        sweep = _outcome(lt.verify_frame_sweep, host, ell, r)
        assert sweep == _outcome(naive.verify_frame_sweep, host, ell, r)
        for emb in lt.iter_embeddings(host, lt.linear_path(ell - 1, r)):
            frame = _outcome(lt.verify_frame, host, emb, ell)
            assert frame == _outcome(naive.verify_frame, host, emb, ell)
            if isinstance(frame, lt.FrameReport):
                failed.update(o.name for o in frame.failures)
                details.update(o.detail for o in frame.failures)
            else:
                raised.add(frame[1])
    # every check fails somewhere, each counting check raises, and the
    # r >= 4 reason of the uncovered-ends check is given
    assert failed == {name for name, _, _ in lt.endsets._CHECKS}
    assert any("early blocked" in detail for detail in details)
    for kind in ("exceeds (r-1)(ell-3)", "exceeds (r-1)(ell-1)", "-edges through"):
        assert any(kind in message for message in raised), kind


def test_sweep_reports_every_failing_embedding(monkeypatch):
    # no conforming host fails a check, so one check is made to fail on
    # every embedding, by putting every end one edge over its degree cap:
    # the sweep must report each, in its own order, with the report
    # verify_frame gives that embedding, naming the embedding's own left
    # ends as A ends
    classify = lt.endsets._classify

    def over_budget(*args):
        frame = classify(*args)
        a, b = (tuple(e._replace(cap=e.degree - 1) for e in side) for side in frame[:2])
        return frame._replace(a=a, b=b, over=True)

    monkeypatch.setattr(lt.endsets, "_classify", over_budget)
    hosts = {}  # the first host of each order and path length
    for host, ell in _sweep_hosts():
        hosts.setdefault((host.r, ell), host)
    assert sorted(hosts) == [(3, 4), (3, 5), (4, 4), (4, 5)]
    for (_, ell), host in hosts.items():
        sweep = lt.verify_frame_sweep(host, ell, host.r)
        embs = lt.iter_embeddings(host, lt.linear_path(ell - 1, host.r))
        reports = tuple(lt.verify_frame(host, emb, ell) for emb in embs)
        assert sweep.status == "fail"
        assert sweep.embeddings_checked == len(reports) > 0
        assert sweep.failures == reports
        r = host.r
        for rep in reports:
            [fault] = rep.failures
            v = rep.emb.vertex_map
            detail = "; ".join(
                f"end {u}: degree {len(host.incidence[u])} > sum|{tag}_k| + r-1 = "
                f"{len(host.incidence[u]) - 1}"
                for tag, ends in (("A", v[:r - 1]), ("B", v[-(r - 1):]))
                for u in sorted(ends)
            )
            assert (rep.status, fault.name, fault.detail) == ("fail", "end-degree-bound", detail)


def test_sweep_classifies_each_path_once(monkeypatch, p3_plus_pendant):
    # four directed embeddings of two undirected paths: one classification
    # per path, not one per direction
    classified = []
    classify = lt.endsets._classify
    monkeypatch.setattr(
        lt.endsets, "_classify", lambda *args: classified.append(args) or classify(*args)
    )
    rep = lt.verify_frame_sweep(p3_plus_pendant, 4, 3)
    assert rep.embeddings_checked == 4
    assert len(classified) == 2
    # the paths (0,1,2) (2,3,4) (4,5,6) and (4,5,6) (2,3,4) (1,3,7)
    path_vertices = {frozenset(v[1:]) for *_, v in classified}
    assert path_vertices == {frozenset(range(7)), frozenset(range(1, 8))}


def test_two_class_edges_sharing_a_path_vertex_raise():
    # (0,1,2) and (1,2,7) share the pair {1, 2}: both are class edges of
    # left end 1 (A_2 and A_1), and path vertex 2 lies in both.  verify_frame
    # rejects the non-linear host, so the ends are classified directly.
    host = lt.make_hypergraph(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 2, 7)], 3)
    with pytest.raises(InvariantViolation, match="path vertex 2 in two A-edges through 1"):
        _classify(edge_table(8, host.edges), host.incidence, 3, 4, tuple(range(-1, 7)))


def test_sweep_rejects_host_with_the_path():
    host = lt.realize(lt.linear_path(4, 3))
    with pytest.raises(HostContainsPath) as exc:
        lt.verify_frame_sweep(host, 4, 3)
    assert exc.value.witness.edge_map == (0, 1, 2, 3)


def _path_hosts(rng, r, ell, count):
    """count seeded random linear hosts holding the (ell-1)-edge path, of
    sizes where some hold the ell-edge path and some do not."""
    n = ell * (r - 1) + 1  # the ell-edge path's vertex count
    kept = 0
    while kept < count:
        h = random_edges(rng, rng.randint(n - 2, n + 1), r, rng.randint(ell - 1, ell + 4), True)
        if not lt.is_free(h, lt.linear_path(ell - 1, r)):
            kept += 1
            yield h


@pytest.mark.parametrize("relabel", [False, True], ids=["masks", "frozensets"])
def test_sweep_raises_exactly_when_the_host_holds_the_path(relabel):
    # the sweep reads path-freeness off its classification: it must raise
    # on the hosts the detector finds the ell-edge path in, with the
    # detector's witness, and on the others give the reference's report
    rng = random.Random(3200)
    for r, ell in [(3, 4), (3, 5), (4, 4), (4, 5)]:
        seen = set()
        for host in _path_hosts(rng, r, ell, 24):
            if relabel:
                host = _relabelled(host)
            witness = lt.contains(host, lt.linear_path(ell, r))
            seen.add(witness is None)
            if witness is None:
                assert lt.verify_frame_sweep(host, ell, r) == naive.verify_frame_sweep(host, ell, r)
                continue
            with pytest.raises(HostContainsPath) as exc:
                lt.verify_frame_sweep(host, ell, r)
            assert exc.value.witness == witness, host.edges
        assert seen == {True, False}, (r, ell)


def _extending_sides(host, emb):
    """'left' or 'right' for each host edge that meets the path of emb in
    one of its left or right ends alone."""
    r, vm = host.r, emb.vertex_map
    path = set(vm)
    sides = set()
    for e in host.edges:
        meet = path.intersection(e)
        if len(meet) == 1:
            (u,) = meet
            sides.update(side for side, ends in (("left", vm[:r - 1]), ("right", vm[-(r - 1):]))
                         if u in ends)
    return sides


# loose paths e1 e2 e3 e4 whose edge numbering makes the sweep classify
# each three-edge path e1 e2 e3 and e2 e3 e4 in the direction in which
# the fourth edge extends it at its left ends only, or at its right ends
# only: a side the classification missed would hide the path
EXTENDED_ONE_SIDE = {
    "left": [(2, 5, 6), (0, 1, 2), (1, 3, 4), (3, 7, 8)],
    "right": [(0, 5, 6), (4, 5, 7), (3, 7, 8), (1, 2, 3)],
}


@pytest.mark.parametrize("side", sorted(EXTENDED_ONE_SIDE))
def test_sweep_finds_an_extension_at_either_side(side):
    host = lt.make_hypergraph(9, EXTENDED_ONE_SIDE[side], 3)
    first = {}  # each path in the direction it comes first, so classified
    for emb in lt.iter_embeddings(host, P3):
        first.setdefault(frozenset(emb.edge_map), emb)
    assert len(first) == 2
    assert all(_extending_sides(host, emb) == {side} for emb in first.values())
    with pytest.raises(HostContainsPath) as exc:
        lt.verify_frame_sweep(host, 4, 3)
    assert exc.value.witness == lt.contains(host, lt.linear_path(4, 3))


def test_sweep_searches_for_the_path_only_outside_the_checks(monkeypatch, p3_plus_pendant, fano):
    # in range the classification proves the host free, so the detector is
    # never asked for the ell-edge path, and on a host holding it only
    # for the witness; for ell < 4 or r < 3 it is asked once, up front
    searched = []
    search = lt.endsets.contains
    monkeypatch.setattr(lt.endsets, "contains", lambda h, p: searched.append(p) or search(h, p))
    assert lt.verify_frame_sweep(p3_plus_pendant, 4, 3).status == "pass"
    assert searched == []
    with pytest.raises(HostContainsPath):
        lt.verify_frame_sweep(lt.realize(lt.linear_path(4, 3)), 4, 3)
    assert searched == [lt.linear_path(4, 3)]
    assert lt.verify_frame_sweep(fano, 3, 3).status == "not-applicable"
    assert searched[1:] == [lt.linear_path(3, 3)]
    graph = lt.make_hypergraph(4, [(0, 1), (1, 2), (2, 3)], 2)
    assert lt.verify_frame_sweep(graph, 4, 2).status == "not-applicable"
    assert searched[2:] == [lt.linear_path(4, 2)]


def test_nonlinear_host_rejected(p3_plus_pendant):
    bad = lt.make_hypergraph(
        8, list(lt.realize(P3).edges) + [(1, 2, 3)], 3
    )
    emb = identity_embedding(p3_plus_pendant, P3)
    with pytest.raises(HostNotLinear):
        lt.verify_frame(bad, emb, 4)
    with pytest.raises(HostNotLinear):
        lt.verify_frame_sweep(bad, 4, 3)


def test_host_of_another_order_rejected(p3_plus_pendant):
    # a 3-uniform host has no 4-uniform path to sweep: refused, not a
    # pass over no embeddings
    with pytest.raises(BadParameters, match="sweeps need a uniform host of order 4"):
        lt.verify_frame_sweep(p3_plus_pendant, 4, 4)
    # verify_frame takes its order from the embedding
    emb4 = lt.contains(lt.realize(lt.linear_path(3, 4)), lt.linear_path(3, 4))
    with pytest.raises(BadParameters, match="frames need a uniform host of order 4"):
        lt.verify_frame(p3_plus_pendant, emb4, 4)
    # a mixed host is refused even when every edge has the order
    mixed = lt.make_hypergraph(p3_plus_pendant.n, p3_plus_pendant.edges)
    emb = identity_embedding(p3_plus_pendant, P3)
    with pytest.raises(BadParameters, match="uniform host of order 3, got Hypergraph.*mixed"):
        lt.verify_frame(mixed, emb, 4)
    with pytest.raises(BadParameters, match="uniform host of order 3, got Hypergraph.*mixed"):
        lt.verify_frame_sweep(mixed, 4, 3)
    # the order is checked after ell and before linearity
    bad = lt.make_hypergraph(8, list(p3_plus_pendant.edges) + [(1, 2, 3)])
    with pytest.raises(BadParameters, match="ell >= 3"):
        lt.verify_frame_sweep(bad, 2, 3)
    with pytest.raises(BadParameters, match="uniform host of order 3, got Hypergraph.*mixed"):
        lt.verify_frame(bad, emb, 4)


def test_wrong_embedding_kind_rejected(fano):
    star_emb = lt.contains(fano, lt.linear_star(2, 3))
    with pytest.raises(NotAPathEmbedding):
        lt.verify_frame(fano, star_emb, 4)
    short_emb = lt.contains(fano, lt.linear_path(2, 3))
    with pytest.raises(NotAPathEmbedding):
        lt.verify_frame(fano, short_emb, 4)


def test_small_ell_reports_not_applicable(fano):
    emb = lt.contains(fano, lt.linear_path(2, 3))
    rep = lt.verify_frame(fano, emb, 3)
    assert rep.status == "not-applicable"
    assert rep.outcomes == ()
    sweep = lt.verify_frame_sweep(fano, 3, 3)
    assert sweep.status == "not-applicable"
    assert sweep.embeddings_checked > 0
    with pytest.raises(BadParameters):
        lt.verify_frame_sweep(fano, 2, 3)


def test_verify_frame_exception_precedence():
    # verify_frame checks ell, then linearity, then the embedding, and only
    # then whether the host holds the ell-edge path; an input failing two
    # checks raises the earlier one
    p4 = lt.realize(lt.linear_path(4, 3))  # holds P4 and every shorter path
    bad = lt.make_hypergraph(9, list(p4.edges) + [(1, 2, 3)], 3)  # not linear
    p3_emb = lt.contains(p4, P3)
    star_emb = lt.contains(p4, lt.linear_star(2, 3))
    vm = list(p3_emb.vertex_map)
    vm[0], vm[3] = vm[3], vm[0]  # moves a vertex between path edges
    unverified = replace(p3_emb, vertex_map=tuple(vm))
    cases = [
        (p4, p3_emb, 2, BadParameters),
        (bad, p3_emb, 2, BadParameters),
        (bad, p3_emb, 4, HostNotLinear),
        (bad, star_emb, 4, HostNotLinear),
        (p4, star_emb, 4, NotAPathEmbedding),
        (p4, p3_emb, 5, NotAPathEmbedding),  # a 3-edge path where 4 edges are wanted
        (p4, unverified, 4, NotAPathEmbedding),
        (p4, p3_emb, 4, HostContainsPath),
    ]
    for host, emb, ell, exc in cases:
        with pytest.raises(LinturanError) as raised:
            lt.verify_frame(host, emb, ell)
        assert type(raised.value) is exc, (ell, emb, raised.value)


def _passing_outcomes(pairs, bound):
    return (
        ("no-shared-blocked-vertex", True,
         "no vertex of the blocked ranges meets both A_1 and B_1"),
        ("no-disjoint-traversing-pair", True, f"{pairs} traversing pair(s), all intersecting"),
        ("traversal-leaves-free-ends", True, f"checked {pairs} traversing pair(s)"),
        ("small-end-pair", True, f"min |A_1(u)|+|B_1(w)| = 0, bound {bound}"),
        ("end-degree-bound", True, "every end degree within its class budget"),
    )


# the two section2 hosts the CI sweeps, as (host, ell, small-end-pair
# bound, {vertex map of each directed embedding: its traversing pairs})
PINNED_FRAMES = {
    "p3-pendant": (lt.make_hypergraph(8, [(0, 1, 2), (1, 3, 7), (2, 3, 4), (4, 5, 6)], 3), 4, 2, {
        (0, 1, 2, 3, 4, 5, 6): 0,
        (1, 7, 3, 2, 4, 5, 6): 0,
        (5, 6, 4, 3, 2, 0, 1): 0,
        (5, 6, 4, 2, 3, 1, 7): 0,
    }),
    "r4": (lt.make_hypergraph(16, [(0, 1, 2, 6), (0, 7, 10, 11), (1, 4, 14, 15), (1, 5, 8, 12),
                                   (3, 10, 12, 15), (4, 6, 11, 12), (4, 8, 9, 13)], 4), 5, 8, {
        (7, 10, 11, 0, 2, 6, 1, 14, 15, 4, 8, 9, 13): 0,
        (7, 10, 11, 0, 2, 6, 1, 5, 12, 8, 4, 9, 13): 0,
        (0, 7, 11, 10, 3, 12, 15, 1, 14, 4, 8, 9, 13): 0,
        (0, 7, 11, 10, 3, 15, 12, 1, 5, 8, 4, 9, 13): 0,
        (8, 9, 13, 4, 14, 15, 1, 2, 6, 0, 7, 10, 11): 1,
        (8, 9, 13, 4, 1, 14, 15, 3, 12, 10, 0, 7, 11): 0,
        (4, 9, 13, 8, 5, 12, 1, 2, 6, 0, 7, 10, 11): 1,
        (4, 9, 13, 8, 1, 5, 12, 3, 15, 10, 0, 7, 11): 0,
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_FRAMES))
def test_frame_reports_are_pinned(name):
    host, ell, bound, pinned = PINNED_FRAMES[name]
    r = host.r
    got = {}
    for emb in lt.iter_embeddings(host, lt.linear_path(ell - 1, r)):
        rep = lt.verify_frame(host, emb, ell)
        assert (rep.ell, rep.r, rep.emb) == (ell, r, emb)
        outcomes = tuple((o.name, o.passed, o.detail) for o in rep.outcomes)
        got[emb.vertex_map] = (rep.status, outcomes, rep.min_end_sum)
    assert got == {
        vm: ("pass", _passing_outcomes(pairs, bound), 0)
        for vm, pairs in pinned.items()
    }
