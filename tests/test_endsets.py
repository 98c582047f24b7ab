import random
from itertools import islice

import pytest

import linturan as lt
from hostgen import random_edges
from linturan.errors import (
    BadParameters,
    HostContainsPath,
    HostNotLinear,
    InvariantViolation,
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
    frame = lt.build_frame(host, identity_embedding(host, P3), 4)
    assert frame.left_ends == frozenset({0, 1})
    assert frame.interior == frozenset({2, 3, 4})
    assert frame.right_ends == frozenset({5, 6})
    assert frame.path_vertices == frozenset(range(7))
    assert frame.v[1:] == tuple(range(7))


def test_pendant_edge_lands_in_a1(p3_plus_pendant):
    emb = identity_embedding(p3_plus_pendant, P3)
    frame = lt.build_frame(p3_plus_pendant, emb, 4)
    # vertex 7 is off the path
    assert frame.path_vertices == frozenset(range(7))
    ends = lt.end_edge_sets(frame)
    # the added edge goes through left end 1 and interior vertex 3
    assert len(ends.a1(1)) == 1
    assert ends.a1(0) == frozenset()
    assert ends.b1(5) == frozenset()
    assert ends.b1(6) == frozenset()


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
    frame = lt.build_frame(host, emb, 4)
    ends = lt.end_edge_sets(frame)
    pairs = lt.traversing_pairs(frame, ends)
    assert len(pairs) == 1
    p = pairs[0]
    assert (p.i, p.u, p.w) == (2, 1, 5)
    assert set(host.edges[p.f1]) & set(host.edges[p.f2])
    assert lt.verify_frame(host, emb, 4).status == "pass"


def test_sweep_checks_every_embedding(p3_plus_pendant):
    rep = lt.verify_frame_sweep(p3_plus_pendant, 4, 3)
    assert rep.all_pass
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


def test_sweep_reports_every_failing_embedding(monkeypatch):
    # no conforming host fails a check, so one check is made to fail on
    # every embedding: the sweep must report each, in its own order, with
    # the report verify_frame gives that embedding
    monkeypatch.setattr(
        lt.endsets, "_end_degrees", lambda host, r, a, b: [(u, -1, "A", -2) for u in a]
    )
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
        assert all(rep.status == "fail" and rep.failures[0].name == "end-degree-bound"
                   for rep in reports)


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
    path_vertices = {interior.union(left, right) for *_, left, right, interior in classified}
    assert path_vertices == {frozenset(range(7)), frozenset(range(1, 8))}


def test_two_class_edges_sharing_a_path_vertex_raise():
    # (0,1,2) and (1,2,7) share the pair {1, 2}: both are class edges of
    # left end 1 (A_2 and A_1), and path vertex 2 lies in both.  build_frame
    # rejects the non-linear host, so the frame is built by hand.
    host = lt.make_hypergraph(8, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (1, 2, 7)], 3)
    emb = identity_embedding(host, P3)
    v = (-1,) + emb.vertex_map
    frame = lt.PathFrame(
        host, emb, 4, 3, v,
        left_ends=frozenset({0, 1}),
        right_ends=frozenset({5, 6}),
        interior=frozenset({2, 3, 4}),
    )
    assert frame.path_vertices == frozenset(range(7))
    with pytest.raises(InvariantViolation, match="path vertex 2 in two A-edges through 1"):
        lt.end_edge_sets(frame)


def test_sweep_rejects_host_with_the_path():
    host = lt.realize(lt.linear_path(4, 3))
    with pytest.raises(HostContainsPath) as exc:
        lt.verify_frame_sweep(host, 4, 3)
    assert exc.value.witness.edge_map == (0, 1, 2, 3)


def test_nonlinear_host_rejected(p3_plus_pendant):
    bad = lt.make_hypergraph(
        8, list(lt.realize(P3).edges) + [(1, 2, 3)], 3
    )
    emb = identity_embedding(p3_plus_pendant, P3)
    with pytest.raises(HostNotLinear):
        lt.build_frame(bad, emb, 4)
    with pytest.raises(HostNotLinear):
        lt.verify_frame_sweep(bad, 4, 3)


def test_wrong_embedding_kind_rejected(fano):
    star_emb = lt.contains(fano, lt.linear_star(2, 3))
    with pytest.raises(NotAPathEmbedding):
        lt.build_frame(fano, star_emb, 4)
    short_emb = lt.contains(fano, lt.linear_path(2, 3))
    with pytest.raises(NotAPathEmbedding):
        lt.build_frame(fano, short_emb, 4)


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


