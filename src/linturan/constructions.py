"""Lower-bound witness constructions.

Three families: disjoint copies of a pairwise-balanced design, the
design-times-lattice product with hub vertices inserted into the thin
edges, and cones (all edges meeting a fresh vertex set over a kernel).
Each builder returns a ConstructionReport holding the graph, the nominal
formula value it chases, the achieved edge count, and freeness
certificates that were actually verified, never assumed.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import inserted_product_lower, packing_lower
from .designs import Design, build_design, require_design
from .detect import contains
from .errors import BadParameters, InvariantViolation, NoDesignAvailable
from .hypergraph import (
    Hypergraph,
    _check_ints,
    _check_size,
    integer_lattice,
    is_linear,
    make_hypergraph,
    product_edges,
    vertex_components,
)
from .patterns import (
    ForbiddenPattern,
    PatternComponent,
    forest,
    linear_path,
)

# the most edges a built host lists: C(n, r) for a cone host, and the
# copies times the design's blocks for a thm45 host
CONE_ENUMERATION_CAP = 2_000_000

FALLBACK_NOTE = "fallback block count"
PADDING_NOTE = "isolated padding vertices"
NOT_LINEAR_NOTE = "result is not linear"


@dataclass(frozen=True)
class FreenessCertificate:
    """A pattern verified absent from a construction, and how."""

    pattern: ForbiddenPattern
    method: str  # "detect" | "structural"

    def to_obj(self) -> dict:
        return {"pattern": str(self.pattern), "method": self.method}


@dataclass(frozen=True)
class ConstructionReport:
    name: str
    params: tuple[tuple[str, object], ...]
    result: Hypergraph
    nominal: Fraction
    actual: int
    linear: bool
    certificates: tuple[FreenessCertificate, ...]
    caveats: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "vertices": self.result.n,
            "nominal": str(self.nominal),
            "nominal_float": float(self.nominal),
            "actual": self.actual,
            "linear": self.linear,
            "certificates": [c.to_obj() for c in self.certificates],
            "caveats": list(self.caveats),
        }

    def __str__(self) -> str:
        lines = [
            f"{self.name}: {self.result.n} vertices, {self.actual} edges "
            f"(nominal {self.nominal}){'' if self.linear else ' [not linear]'}"
        ]
        for cert in self.certificates:
            lines.append(f"  free of {cert.pattern} ({cert.method})")
        for note in self.caveats:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _finish(name, params, result, nominal, linear, certificates, caveats) -> ConstructionReport:
    return ConstructionReport(
        name=name,
        params=tuple(params),
        result=result,
        nominal=nominal,
        actual=result.edge_count,
        linear=linear,
        certificates=tuple(certificates),
        caveats=tuple(caveats),
    )


def _certified(
    result: Hypergraph, pattern: ForbiddenPattern, certify: bool, fault: str
) -> list[FreenessCertificate]:
    """The structural certificate of pattern, plus the detect one when
    ``certify`` is set; a search that finds the pattern raises fault."""
    certificates = [FreenessCertificate(pattern, "structural")]
    if certify:
        if contains(result, pattern) is not None:
            raise InvariantViolation(fault)
        certificates.append(FreenessCertificate(pattern, "detect"))
    return certificates


def fallback_block_count(r: int, ell: int, limit: Optional[int] = None) -> Design:
    """Largest buildable design on at most ell*(r-1) points (and at most
    ``limit`` when given).  The ideal point count ell*(r-1) itself never
    passes the admissibility test for r >= 3, hence the fallback."""
    _check_ints(r=r, ell=ell)
    top = ell * (r - 1)
    if limit is not None:
        _check_ints(limit=limit)
        top = min(top, limit)
    for m in range(top, r - 1, -1):
        outcome = build_design(m, r)
        if outcome.ok:
            return outcome.design
    raise NoDesignAvailable(
        f"no design with at most {top} points exists for block size {r}"
    )


def thm45_construction(r: int, ell: int, n: int, certify: bool = True) -> ConstructionReport:
    """Disjoint design copies: a linear host with no loose ell-path.

    Fills n vertices with floor(n/m) copies of the fallback design on m
    points plus isolated padding.  Freeness is structural (every component
    has m <= ell*(r-1) vertices, one fewer than the path needs) and
    rechecked by search when ``certify`` is set.  Raises ProductTooLarge
    when n exceeds DEFAULT_PRODUCT_CAP, or when the copies would hold more
    than CONE_ENUMERATION_CAP edges; the second is checked after the
    design is chosen and before any copy is laid out.
    """
    _check_ints(r=r, ell=ell, n=n)
    if r < 3 or ell < 4:
        raise BadParameters(f"need r >= 3 and ell >= 4, got r={r}, ell={ell}")
    if n < r:
        raise NoDesignAvailable(f"no design fits on {n} < {r} vertices")
    _check_size("thm45 host", n, "vertices")
    design = fallback_block_count(r, ell, limit=n)
    m = design.n
    copies = n // m
    size = copies * len(design.graph.edges)
    _check_size("thm45 host", size, "edges", CONE_ENUMERATION_CAP)
    edges = []
    for c in range(copies):
        off = c * m
        edges.extend(tuple(v + off for v in e) for e in design.graph.edges)
    result = make_hypergraph(n, edges, r=r)

    caveats = []
    if m != ell * (r - 1):
        caveats.append(
            f"{FALLBACK_NOTE}: {m} points per block copy instead of {ell * (r - 1)}"
        )
    if n % m != 0:
        caveats.append(f"{PADDING_NOTE}: {n % m}")

    certificates = _certified(
        result, linear_path(ell, r), certify,
        "design copies too small for the path, yet one was found",
    )
    nominal = packing_lower(r, ell, n).value
    params = [("r", r), ("ell", ell), ("n", n), ("m", m), ("copies", copies)]
    # build_design returns only designs that verify_design passed, and
    # those are linear; vertex-disjoint copies of a linear host are linear
    return _finish("thm45", params, result, nominal, True, certificates, caveats)


def _hub_core(k: int, r: int) -> Hypergraph:
    # k = 1 is the empty design on one point: no pairs to cover
    if k == 1:
        return make_hypergraph(1, [], r=r)
    if k < r:
        raise NoDesignAvailable(f"no design on {k} points with block size {r}")
    return require_design(k, r).graph


def _structural_forest_premises(
    result: Hypergraph, k: int, ell: int, r: int, m: int, blocks: int
) -> None:
    """Check the facts behind the hub-counting freeness argument.

    Removing the k hubs must leave exactly ``blocks`` components, each a
    copy of the m-point design: too few vertices for the path and too low
    a degree for the star.  Then each of the k+1 forest components would
    need its own hub vertex.

    The hubs are vertices 0..k-1, so an edge misses them exactly when its
    smallest vertex is at least k, and those edges are the tail of
    ``result.edges`` from (k,) on.  The hubs are the first k components
    of the graph on all n vertices with those edges, each on its own.
    """
    rest = result.edges[bisect_left(result.edges, (k,)):]
    comps = vertex_components(result.n, rest)[k:]
    if len(comps) != blocks or any(len(c) != m for c in comps):
        raise InvariantViolation(
            f"hub removal left {[len(c) for c in comps]} instead of "
            f"{blocks} components of {m} vertices"
        )
    if any(len(c) >= ell * (r - 1) + 1 for c in comps):
        raise InvariantViolation("a component is large enough to hold the path")
    if rest and max(Counter(itertools.chain.from_iterable(rest)).values()) >= ell:
        raise InvariantViolation("a component is dense enough to hold the star")


def _hub_inserted_edges(r: int, k: int, copies: int, design: Hypergraph) -> list[tuple[int, ...]]:
    """The hub design's edges on vertices 0..k-1, then ``copies`` shifted
    copies of design x lattice with hub i added to each thin edge along
    axis i; unvalidated.  With no copies the hub design is all there is,
    and the lattice and product are not built."""
    edges = list(_hub_core(k, r).edges)
    if copies == 0:
        return edges
    block_n, product = product_edges(design, integer_lattice(r - 1, k))
    # The thin edges are the lattice's, of order r-1.  One along axis i is
    # {a} x {base + t*w : t < r-1} with w = (r-1)^(k-1-i), the axis weight,
    # so the step between its two smallest vertices is w and names i.
    # Hub i is below every shifted vertex, so it goes first.
    axis_of_step = {(r - 1) ** (k - 1 - i): i for i in range(k)}
    for c in range(copies):
        shift = (k + c * block_n).__add__
        for e in product:
            if len(e) == r - 1:
                edges.append((axis_of_step[e[1] - e[0]], *map(shift, e)))
            else:
                edges.append(tuple(map(shift, e)))
    return edges


def thm47_construction(
    r: int, ell: int, k: int, copies: int, certify: bool = True
) -> ConstructionReport:
    """Hub-inserted product: a linear host avoiding a path plus k stars.

    Builds a design on k hub vertices, then ``copies`` instances of
    (m-point design) x (k-dimensional lattice over r-1 points); every thin
    lattice edge in direction i absorbs hub i, restoring order r.  Each
    forbidden-forest component would need a hub of its own, and there are
    only k hubs against k+1 components.  Raises ProductTooLarge when the
    host would have more than DEFAULT_PRODUCT_CAP vertices, before the hub
    design is built.
    """
    _check_ints(r=r, ell=ell, k=k, copies=copies)
    if r < 3 or ell < 4 or k < 1 or copies < 0:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k >= 1, copies >= 0, "
            f"got r={r}, ell={ell}, k={k}, copies={copies}"
        )
    design = fallback_block_count(r, ell)
    m = design.n
    n = k + copies * m * (r - 1) ** k
    _check_size("thm47 host", n, "vertices")
    # the unvalidated edge lists die here, before the linearity scan's
    # pair dict, the peak of a large build, is grown
    result = make_hypergraph(n, _hub_inserted_edges(r, k, copies, design.graph), r=r)
    if not is_linear(result):
        raise InvariantViolation("hub insertion broke linearity")

    pattern = forest(
        [PatternComponent("path", ell)] + [PatternComponent("star", ell)] * k, r
    )
    blocks = copies * (r - 1) ** k
    _structural_forest_premises(result, k, ell, r, m, blocks)
    certificates = _certified(
        result, pattern, certify, "hub-counting argument holds, yet the forest was found"
    )

    caveats = []
    if m != ell * (r - 1):
        caveats.append(
            f"{FALLBACK_NOTE}: {m} points per design instance instead of {ell * (r - 1)}"
        )
    nominal = inserted_product_lower(r, ell, k, n).value
    params = [
        ("r", r), ("ell", ell), ("k", k), ("copies", copies), ("m", m), ("n", n),
    ]
    # linear: hub insertion was checked above
    return _finish("thm47", params, result, nominal, True, certificates, caveats)


def cone_construction(
    n: int,
    r: int,
    k: int,
    kernel: Hypergraph,
    free_pattern: Optional[ForbiddenPattern] = None,
) -> ConstructionReport:
    """All r-subsets meeting k fresh vertices, on top of a kernel.

    The hub set occupies vertices 0..k-1 and the kernel is shifted behind
    it; the edge count is C(n,r) - C(n-k,r) + |E(kernel)| exactly.  Not
    linear in general, and flagged when not.  When ``free_pattern`` is
    given, its absence is checked by search; presence becomes a caveat,
    not an error, since it only means the kernel lacked the assumed
    freeness.  Raises ProductTooLarge when the C(n, r) r-sets it lists
    would pass CONE_ENUMERATION_CAP.
    """
    _check_ints(n=n, r=r, k=k)
    if k < 1:
        raise BadParameters(f"need at least one cone vertex, got k={k}")
    if n < r:
        raise BadParameters(f"no edges of order {r} fit on {n} vertices")
    if kernel.n != n - k:
        raise BadParameters(
            f"kernel has {kernel.n} vertices, expected n - k = {n - k}"
        )
    if kernel.edge_count and kernel.r != r:
        raise BadParameters(
            f"kernel edges have order {kernel.r}, cone needs {r}"
        )
    _check_size(
        f"cone enumeration of C({n},{r})", math.comb(n, r), f"{r}-sets", CONE_ENUMERATION_CAP
    )

    edges = [e for e in itertools.combinations(range(n), r) if e[0] < k]
    edges.extend(tuple(v + k for v in e) for e in kernel.edges)
    result = make_hypergraph(n, edges, r=r)
    expected = math.comb(n, r) - math.comb(n - k, r) + kernel.edge_count
    if result.edge_count != expected:
        raise InvariantViolation(
            f"cone produced {result.edge_count} edges, formula says {expected}"
        )

    caveats = []
    certificates = []
    linear = is_linear(result)
    if not linear:
        caveats.append(NOT_LINEAR_NOTE)
    if free_pattern is not None:
        if contains(result, free_pattern) is None:
            certificates.append(FreenessCertificate(free_pattern, "detect"))
        else:
            caveats.append(f"pattern {free_pattern} present; no freeness certificate")

    nominal = Fraction(expected)
    params = [("n", n), ("r", r), ("k", k), ("kernel_edges", kernel.edge_count)]
    return _finish("cone", params, result, nominal, linear, certificates, caveats)


__all__ = [
    "ConstructionReport",
    "FreenessCertificate",
    "fallback_block_count",
    "thm45_construction",
    "thm47_construction",
    "cone_construction",
    "CONE_ENUMERATION_CAP",
]
