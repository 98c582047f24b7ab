"""Finite hypergraphs with integer vertices and set edges.

Vertices of a hypergraph on n points are the integers 0..n-1.  An edge is
stored as a strictly ascending tuple of distinct vertices.  A hypergraph is
either uniform of some order r (every edge has exactly r vertices) or mixed.
Instances are immutable; every constructor normalises edge order and sorts
the edge list lexicographically, so equal hypergraphs compare equal.

A hypergraph is *linear* when any two edges share at most one vertex.
Linearity is a property, not an invariant: non-linear hypergraphs are
first-class values and operations that require linearity check it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    BadParameters,
    DuplicateEdge,
    NonUniformEdge,
    OutOfRangeVertex,
    ProductTooLarge,
    RepeatedVertexInEdge,
)

__all__ = [
    "Hypergraph",
    "make_hypergraph",
    "is_linear",
    "linearity_violation",
    "disjoint_union",
    "remove_vertices",
    "cartesian_product",
    "integer_lattice",
    "connected_components",
    "DEFAULT_PRODUCT_CAP",
]

# Size cap of every constructor that could otherwise exhaust memory: the
# vertex count of a product, lattice, realized pattern (in the CLI) or
# thm45/thm47 host, and the block count of a design.
DEFAULT_PRODUCT_CAP = 200_000


def _check_size(what: str, count: int, unit: str, cap: int = DEFAULT_PRODUCT_CAP) -> None:
    """The one size-cap refusal of the builders: ProductTooLarge when what
    would have more than cap of unit, raised before anything is built."""
    if count > cap:
        raise ProductTooLarge(f"{what} would have {count} {unit} (cap {cap})")


def _check_ints(**sizes: object) -> None:
    """Refuse the first of sizes, named by its keyword, that is not an
    int; a bool is not one."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise BadParameters(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph.  Build instances through make_hypergraph.

    n       number of vertices (vertices are 0..n-1; isolated vertices count)
    edges   lexicographically sorted tuple of ascending vertex tuples
    r       uniform order, or None for a mixed hypergraph
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    r: Optional[int] = None

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the indices of the edges containing it."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        return tuple(map(tuple, inc))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return [len(ds) for ds in self.incidence]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def __repr__(self) -> str:  # keep failure output short
        u = f"r={self.r}" if self.r is not None else "mixed"
        return f"Hypergraph(n={self.n}, m={self.edge_count}, {u})"


def make_hypergraph(
    n: int,
    edges: Iterable[Sequence[int]],
    r: Optional[int] = None,
) -> Hypergraph:
    """Validate, normalise, and freeze a hypergraph.

    Edges may arrive in any internal order; they are sorted ascending and the
    edge list is sorted lexicographically.
    Uniformity is explicit: r=None builds a mixed hypergraph even if all
    edges happen to share an order.

    An edge with no vertices is refused: the text format could not write
    it.

    n, r and every vertex must be ints; a bool is not one.

    Raises OutOfRangeVertex, RepeatedVertexInEdge, DuplicateEdge,
    NonUniformEdge, or BadParameters.
    """
    if type(n) is not int:
        raise BadParameters(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise BadParameters(f"vertex count must be nonnegative, got {n}")
    if r is not None and type(r) is not int:
        raise BadParameters(f"uniform order must be an int or None, got {r!r}")
    if r is not None and r < 1:
        raise BadParameters(f"uniform order must be positive, got {r}")
    norm: list[tuple[int, ...]] = []
    for e in map(tuple, edges):
        for v in e:
            if type(v) is not int or not 0 <= v < n:
                if type(v) is not int:
                    raise BadParameters(f"vertex {v!r} in edge {e} is not an int")
                raise OutOfRangeVertex(f"vertex {v} in edge {e} not in range(0, {n})")
        t = tuple(sorted(e))
        if len(set(t)) != len(t):
            raise RepeatedVertexInEdge(f"edge {e} repeats a vertex")
        if r is not None and len(t) != r:
            raise NonUniformEdge(f"edge {e} has order {len(t)}, expected {r}")
        if not t:
            raise BadParameters(f"edge {e} has no vertices")
        norm.append(t)
    if len(set(norm)) != len(norm):
        seen: set[tuple[int, ...]] = set()
        for t in norm:
            if t in seen:
                raise DuplicateEdge(f"edge {t} appears more than once")
            seen.add(t)
    return Hypergraph(n, tuple(sorted(norm)), r)


def linearity_violation(h: Hypergraph) -> Optional[tuple[int, int]]:
    """Indices of some edge pair sharing >= 2 vertices, or None if linear.

    Scans vertex pairs instead of edge pairs: h is linear iff no unordered
    vertex pair lies in two edges.
    """
    seen: dict[tuple[int, int], int] = {}
    for i, e in enumerate(h.edges):
        for p in itertools.combinations(e, 2):
            if p in seen:
                return (seen[p], i)
            seen[p] = i
    return None


def is_linear(h: Hypergraph) -> bool:
    """True when every two edges meet in at most one vertex."""
    return linearity_violation(h) is None


def disjoint_union(hs: Sequence[Hypergraph]) -> Hypergraph:
    """Disjoint union on relabelled vertices; blocks keep input order.

    The i-th input occupies vertices offset..offset+n_i-1.  Uniformity is
    preserved when shared by all inputs, otherwise the result is mixed.
    """
    if not hs:
        raise BadParameters("disjoint_union needs at least one hypergraph")
    rs = {h.r for h in hs}
    r = rs.pop() if len(rs) == 1 else None
    n = 0
    edges: list[tuple[int, ...]] = []
    for h in hs:
        edges.extend(tuple(v + n for v in e) for e in h.edges)
        n += h.n
    return make_hypergraph(n, edges, r)


def remove_vertices(h: Hypergraph, drop: Iterable[int]) -> Hypergraph:
    """Delete vertices and every edge meeting them; reindex order-preserving."""
    dropset = frozenset(drop)
    for v in dropset:
        if not 0 <= v < h.n:
            raise OutOfRangeVertex(f"vertex {v} not in range(0, {h.n})")
    keep = [v for v in range(h.n) if v not in dropset]
    newindex = {v: i for i, v in enumerate(keep)}
    edges = [tuple(newindex[v] for v in e) for e in h.edges if dropset.isdisjoint(e)]
    return make_hypergraph(len(keep), edges, h.r)


def product_edges(h: Hypergraph, g: Hypergraph) -> tuple[int, list[tuple[int, ...]]]:
    """The vertex count and edges of cartesian_product(h, g), unvalidated.

    Every edge is an ascending tuple; the list is not sorted.  Raises what
    cartesian_product raises on its factors.
    """
    if h.r is None or g.r is None:
        raise BadParameters("cartesian_product requires uniform factors")
    n = h.n * g.n
    _check_size("product", n, "vertices")
    edges = [tuple(a * g.n + u for a in e) for u in range(g.n) for e in h.edges]
    edges.extend(tuple(a * g.n + u for u in f) for a in range(h.n) for f in g.edges)
    return n, edges


def cartesian_product(h: Hypergraph, g: Hypergraph) -> Hypergraph:
    """Cartesian product: vertex (a, u) is encoded as a*|V(g)| + u.

    Edges are e x {u} for e in E(h) and {a} x f for f in E(g).  The edge
    count is |E(h)|*|V(g)| + |E(g)|*|V(h)|, and the product of linear
    factors is linear.

    Both factors must be uniform; raises ProductTooLarge past
    DEFAULT_PRODUCT_CAP vertices.  The product has the order of the
    factors that have edges, or of both when neither has, and is mixed
    when those orders differ.
    """
    n, edges = product_edges(h, g)
    orders = {f.r for f in (h, g) if f.edges} or {h.r, g.r}
    return make_hypergraph(n, edges, orders.pop() if len(orders) == 1 else None)


def integer_lattice(r: int, d: int) -> Hypergraph:
    """The d-dimensional integer lattice on {0..r-1}^d.

    Vertices are the r^d coordinate tuples, encoded big-endian row-major
    (tuple t maps to sum of t[i]*r^(d-1-i)).  For each axis there are
    r^(d-1) edges of order r, one per fixing of the other coordinates;
    each axis class is a perfect matching, every vertex has degree d,
    and the whole lattice is linear.  Raises ProductTooLarge past
    DEFAULT_PRODUCT_CAP vertices.
    """
    if r < 2 or d < 1:
        raise BadParameters(f"lattice needs r >= 2 and d >= 1, got r={r}, d={d}")
    n = r**d
    _check_size("lattice", n, "vertices")
    weights = [r ** (d - 1 - i) for i in range(d)]
    edges: list[tuple[int, ...]] = []
    for axis in range(d):
        others = [i for i in range(d) if i != axis]
        for rest in itertools.product(range(r), repeat=d - 1):
            base = sum(rest[j] * weights[others[j]] for j in range(d - 1))
            edges.append(tuple(base + t * weights[axis] for t in range(r)))
    return make_hypergraph(n, edges, r)


def connected_components(h: Hypergraph) -> list[frozenset[int]]:
    """Vertex sets of the components; isolated vertices are singletons."""
    return vertex_components(h.n, h.edges)


def vertex_components(n: int, edges: Iterable[Sequence[int]]) -> list[frozenset[int]]:
    """connected_components of the graph on vertices 0..n-1 with these
    edges, which are not validated, ordered by their smallest vertex."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        for v in e[1:]:
            ra, rb = find(e[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in sorted(groups.values(), key=min)]
