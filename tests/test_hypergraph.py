import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import linturan as lt
from linturan.errors import (
    DuplicateEdge,
    NonUniformEdge,
    OutOfRangeVertex,
    ProductTooLarge,
    RepeatedVertexInEdge,
)


def test_edges_are_canonicalized():
    h = lt.make_hypergraph(4, [(2, 1, 0)])
    assert h.edges == ((0, 1, 2),)
    # uniformity is an assertion the caller opts into, never inferred
    assert h.r is None
    assert lt.make_hypergraph(4, [(2, 1, 0)], r=3).r == 3


def test_mixed_order_has_no_uniform_r():
    h = lt.make_hypergraph(5, [(0, 1, 2), (3, 4)])
    assert h.r is None
    assert h.edge_count == 2


def test_empty_graph():
    e = lt.make_hypergraph(4, [])
    assert e.r is None
    assert e.edge_count == 0
    assert e.degrees() == [0, 0, 0, 0]


def test_constructor_rejections():
    with pytest.raises(NonUniformEdge):
        lt.make_hypergraph(3, [(0, 1, 2)], r=4)
    with pytest.raises(RepeatedVertexInEdge):
        lt.make_hypergraph(3, [(0, 1, 1)])
    with pytest.raises(OutOfRangeVertex):
        lt.make_hypergraph(3, [(0, 1, 3)])
    with pytest.raises(DuplicateEdge):
        lt.make_hypergraph(4, [(0, 1, 2), (2, 1, 0)])


def test_linearity_violation_names_an_edge_pair():
    h = lt.make_hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    assert not lt.is_linear(h)
    # indices of two edges sharing >= 2 vertices
    assert lt.linearity_violation(h) == (0, 1)
    assert lt.linearity_violation(lt.make_hypergraph(4, [(0, 1, 2)])) is None


def test_connected_components_isolated_vertices():
    h = lt.make_hypergraph(5, [(0, 1, 2)])
    comps = lt.connected_components(h)
    assert comps == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4})]


def test_remove_vertices_relabels():
    h = lt.make_hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    g = lt.remove_vertices(h, [0])
    assert g.n == 4
    assert g.edges == ((1, 2, 3),)


def test_disjoint_union_and_copies():
    h = lt.make_hypergraph(4, [(0, 1, 2)])
    du = lt.disjoint_union([h, h])
    assert (du.n, du.edges) == (8, ((0, 1, 2), (4, 5, 6)))


def test_integer_lattice_shapes():
    for d, shape in ((2, (16, 8)), (3, (64, 48))):
        lat = lt.integer_lattice(4, d)
        assert (lat.n, lat.edge_count) == shape
        assert lat.r == 4
        assert lt.is_linear(lat)
        assert lat.degrees() == [d] * lat.n


def test_product_size_guard():
    # at most DEFAULT_PRODUCT_CAP vertices; a larger host is refused before
    # anything is allocated, so the refusals take under a byte per capped vertex
    cap = lt.hypergraph.DEFAULT_PRODUCT_CAP
    left = lt.make_hypergraph(cap // 500, [], r=3)
    assert lt.cartesian_product(left, lt.make_hypergraph(500, [], r=3)).n == cap
    big = lt.make_hypergraph(10**5, [], r=3)
    tracemalloc.start()
    try:
        with pytest.raises(ProductTooLarge):
            lt.cartesian_product(left, lt.make_hypergraph(501, [], r=3))
        with pytest.raises(ProductTooLarge):
            lt.cartesian_product(big, big)
        with pytest.raises(ProductTooLarge):
            lt.integer_lattice(100, 3)
        assert tracemalloc.get_traced_memory()[1] < cap
    finally:
        tracemalloc.stop()
    from linturan.errors import BadParameters

    with pytest.raises(BadParameters):
        lt.cartesian_product(lt.make_hypergraph(2, []), big)


@st.composite
def small_hypergraphs(draw, max_n=8, max_edges=6):
    n = draw(st.integers(min_value=3, max_value=max_n))
    r = draw(st.integers(min_value=2, max_value=min(4, n)))
    pool = list(combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_edges, unique=True))
    return lt.make_hypergraph(n, edges, r)


@given(small_hypergraphs())
def test_degree_sum_identity(h):
    assert sum(h.degrees()) == sum(len(e) for e in h.edges)
    assert h.max_degree() == (max(h.degrees()) if h.n else 0)


@given(small_hypergraphs())
def test_linearity_agrees_with_witness(h):
    pair = lt.linearity_violation(h)
    assert lt.is_linear(h) == (pair is None)
    if pair is not None:
        i, j = pair
        assert len(set(h.edges[i]) & set(h.edges[j])) >= 2


@given(small_hypergraphs(max_n=5, max_edges=4), small_hypergraphs(max_n=5, max_edges=4))
def test_product_edge_count_identity(h, g):
    p = lt.cartesian_product(h, g)
    assert p.n == h.n * g.n
    assert p.edge_count == h.edge_count * g.n + h.n * g.edge_count
    if lt.is_linear(h) and lt.is_linear(g):
        assert lt.is_linear(p)
