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
    # the text format would write an empty edge as a blank line, which
    # reads back as no edge
    with pytest.raises(lt.BadParameters, match=r"^edge \(\) has no vertices$"):
        lt.make_hypergraph(3, [[], [0, 1, 2]])


def test_linearity_violation_names_an_edge_pair():
    h = lt.make_hypergraph(4, [(0, 1, 2), (0, 1, 3)])
    assert not lt.is_linear(h)
    # indices of two edges sharing >= 2 vertices
    assert lt.linearity_violation(h) == (0, 1)
    assert lt.linearity_violation(lt.make_hypergraph(4, [(0, 1, 2)])) is None


@pytest.mark.parametrize("call,error,message", [
    (lambda: lt.integer_lattice(1, 2), lt.BadParameters,
     "lattice needs r >= 2 and d >= 1, got r=1, d=2"),
    (lambda: lt.integer_lattice(2.0, 2), lt.BadParameters, "r must be an int, got 2.0"),
    (lambda: lt.disjoint_union([]), lt.BadParameters,
     "disjoint_union needs at least one hypergraph"),
    (lambda: lt.remove_vertices(lt.make_hypergraph(5, [(0, 1, 2)]), [1, 5]),
     OutOfRangeVertex, "vertex 5 not in range(0, 5)"),
    # a float vertex or size would build a host that breaks the detector
    # with a TypeError; a bool is not an int here either
    (lambda: lt.make_hypergraph(3, [(0, 1.0, 2)], 3), lt.BadParameters,
     "vertex 1.0 in edge (0, 1.0, 2) is not an int"),
    (lambda: lt.make_hypergraph(3, [(0, True, 2)], 3), lt.BadParameters,
     "vertex True in edge (0, True, 2) is not an int"),
    (lambda: lt.make_hypergraph(3, [(0, "1", 2)]), lt.BadParameters,
     "vertex '1' in edge (0, '1', 2) is not an int"),
    (lambda: lt.make_hypergraph(3.5, [(0, 1, 2)], 3), lt.BadParameters,
     "vertex count must be an int, got 3.5"),
    (lambda: lt.make_hypergraph(True, []), lt.BadParameters,
     "vertex count must be an int, got True"),
    (lambda: lt.make_hypergraph(3, [(0, 1, 2)], 3.0), lt.BadParameters,
     "uniform order must be an int or None, got 3.0"),
], ids=["lattice", "float-lattice", "union", "remove", "float-vertex", "bool-vertex", "str-vertex",
        "float-n", "bool-n", "float-r"])
def test_rejected_arguments_are_named(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


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


E3 = lt.make_hypergraph(3, [(0, 1, 2)], 3)
E2 = lt.make_hypergraph(2, [(0, 1)], 2)
BARE3 = lt.make_hypergraph(2, [], 3)
BARE2 = lt.make_hypergraph(2, [], 2)


@pytest.mark.parametrize("h, g, r", [
    (E3, E3, 3), (E3, E2, None), (E2, E3, None), (E3, BARE2, 3), (BARE2, E3, 3),
    (BARE3, BARE3, 3), (BARE3, BARE2, None),
], ids=["equal", "unequal", "unequal-swapped", "bare-right", "bare-left", "bare-equal",
        "bare-unequal"])
def test_product_order(h, g, r):
    # the order of the factors that have edges, or of both when neither
    # has; mixed when those orders differ
    assert lt.cartesian_product(h, g).r == r


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


@given(small_hypergraphs())
def test_linearity_agrees_with_witness(h):
    pair = lt.linearity_violation(h)
    assert lt.is_linear(h) == (pair is None)
    if pair is not None:
        i, j = pair
        assert len(set(h.edges[i]) & set(h.edges[j])) >= 2


@st.composite
def scan_hosts(draw):
    """(host, last): uniform or mixed-order hosts of up to 60 edges.
    Linear ones, ones with a repeated pair anywhere, and, when last is set,
    linear ones followed by an edge that repeats a pair of the edge before
    it."""
    n = draw(st.integers(min_value=6, max_value=30), label="n")
    r = draw(st.sampled_from([None, 2, 3, 4]), label="r")
    kind = draw(st.sampled_from(["any", "linear", "last"]), label="kind")
    rng = draw(st.randoms(use_true_random=False), label="rng")
    # vertex n-1 is kept free for the last edge's raised top vertex
    pool = range(n - 1 if kind == "last" else n)
    drawn = {
        tuple(sorted(rng.sample(pool, r or rng.randint(2, 5))))
        for _ in range(draw(st.integers(min_value=0, max_value=60), label="m"))
    }
    edges = sorted(drawn, key=lambda e: rng.random())
    if kind != "any":
        kept: list[tuple[int, ...]] = []
        for e in edges:
            if all(len(set(e) & set(f)) <= 1 for f in kept):
                kept.append(e)
        edges = kept
    h = lt.make_hypergraph(n, edges, r)
    if kind == "last" and h.edges and len(h.edges[-1]) >= 3:
        # the last edge with its top vertex raised still sorts last, and
        # shares all its other vertices with the edge it came from
        last = h.edges[-1]
        top = draw(st.integers(last[-1] + 1, n - 1), label="top")
        h = lt.make_hypergraph(n, h.edges + (last[:-1] + (top,),), r)
        assert h.edges[-1][-1] == top
        return h, True
    return h, False


def edge_pair_scan(h):
    """(i, j) for the first edge j, and the first pair of j in combinations
    order, that an earlier edge holds, i the least such edge; None when h
    is linear.  Quadratic in the edges: for small hosts only."""
    for j, e in enumerate(h.edges):
        for pair in combinations(e, 2):
            for i in range(j):
                if set(pair) <= set(h.edges[i]):
                    return (i, j)
    return None


@given(scan_hosts())
def test_linearity_violation_matches_the_ordered_scan(case):
    h, last = case
    pair = edge_pair_scan(h)
    assert lt.linearity_violation(h) == pair
    if last:
        assert pair == (h.edge_count - 2, h.edge_count - 1)


@given(small_hypergraphs(max_n=5, max_edges=4), small_hypergraphs(max_n=5, max_edges=4))
def test_product_edge_count_identity(h, g):
    p = lt.cartesian_product(h, g)
    assert p.n == h.n * g.n
    assert p.edge_count == h.edge_count * g.n + h.n * g.edge_count
    if lt.is_linear(h) and lt.is_linear(g):
        assert lt.is_linear(p)
