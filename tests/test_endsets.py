import pytest

import linturan as lt
from linturan.errors import (
    BadParameters,
    HostContainsPath,
    HostNotLinear,
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
    assert frame.exterior == frozenset()
    assert frame.v[1:] == tuple(range(7))


def test_pendant_edge_lands_in_a1(p3_plus_pendant):
    emb = identity_embedding(p3_plus_pendant, P3)
    frame = lt.build_frame(p3_plus_pendant, emb, 4)
    assert frame.exterior == frozenset({7})
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
    # the sweep checks the host once, then verifies each embedding alone
    linear = []
    verified = []
    is_linear, verify = lt.endsets.is_linear, lt.endsets.verify_embedding
    monkeypatch.setattr(lt.endsets, "is_linear", lambda h: linear.append(h) or is_linear(h))
    monkeypatch.setattr(
        lt.endsets, "verify_embedding", lambda h, e: verified.append(e) or verify(h, e)
    )
    rep = lt.verify_frame_sweep(p3_plus_pendant, 4, 3)
    assert rep.embeddings_checked == 4
    assert len(linear) == 1
    assert len(verified) == 4


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


def test_partition_blocks(p3_plus_pendant):
    emb = identity_embedding(p3_plus_pendant, P3)
    frame = lt.build_frame(p3_plus_pendant, emb, 4)
    part = frame.partition()
    assert part["exterior"] == frozenset({7})
    assert part["interior"] == frozenset({2, 3, 4})
