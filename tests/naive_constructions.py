"""Reference thm47 builder and linearity scan for differential tests.

This is thm47_construction as it was when every intermediate host went
through make_hypergraph: the product by cartesian_product, the host with
the hubs inserted, and the hub-free rest by remove_vertices, whose
components and degrees are read off a validated Hypergraph.  Linearity is
the ordered scan that names the first repeated vertex pair.  Only the
parts of the construction that are not under test are shared with the
library: the designs, the report type and the detector certificate.
"""

from __future__ import annotations

import itertools
from typing import Optional

from linturan.bounds import inserted_product_lower
from linturan.constructions import (
    FALLBACK_NOTE,
    _certified,
    _finish,
    _hub_core,
    fallback_block_count,
)
from linturan.errors import BadParameters, InvariantViolation, ProductTooLarge
from linturan.hypergraph import (
    DEFAULT_PRODUCT_CAP,
    Hypergraph,
    cartesian_product,
    connected_components,
    integer_lattice,
    make_hypergraph,
    remove_vertices,
)
from linturan.patterns import PatternComponent, forest


def linearity_violation(h: Hypergraph) -> Optional[tuple[int, int]]:
    """(i, j) for the first edge j holding a vertex pair of an earlier
    edge, i the first edge with that pair; None when h is linear."""
    seen: dict[tuple[int, int], int] = {}
    for i, e in enumerate(h.edges):
        for p in itertools.combinations(e, 2):
            if p in seen:
                return (seen[p], i)
            seen[p] = i
    return None


def structural_forest_premises(
    result: Hypergraph, k: int, ell: int, r: int, m: int, blocks: int
) -> None:
    rest = remove_vertices(result, range(k))
    comps = connected_components(rest)
    if len(comps) != blocks or any(len(c) != m for c in comps):
        raise InvariantViolation(
            f"hub removal left {[len(c) for c in comps]} instead of "
            f"{blocks} components of {m} vertices"
        )
    if any(len(c) >= ell * (r - 1) + 1 for c in comps):
        raise InvariantViolation("a component is large enough to hold the path")
    if max(map(len, rest.incidence), default=0) >= ell:
        raise InvariantViolation("a component is dense enough to hold the star")


def thm47_construction(r: int, ell: int, k: int, copies: int, certify: bool = True):
    if r < 3 or ell < 4 or k < 1 or copies < 0:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k >= 1, copies >= 0, "
            f"got r={r}, ell={ell}, k={k}, copies={copies}"
        )
    hub_core = _hub_core(k, r)
    design = fallback_block_count(r, ell)
    m = design.n
    n = k + copies * m * (r - 1) ** k
    if n > DEFAULT_PRODUCT_CAP:
        raise ProductTooLarge(f"thm47 host would have {n} vertices (cap {DEFAULT_PRODUCT_CAP})")
    lattice = integer_lattice(r - 1, k)
    product = cartesian_product(design.graph, lattice)
    block_n = product.n

    axis_of_step = {(r - 1) ** (k - 1 - i): i for i in range(k)}
    edges = list(hub_core.edges)
    for c in range(copies):
        off = k + c * block_n
        for e in product.edges:
            shifted = tuple(v + off for v in e)
            if len(e) == r - 1:
                shifted += (axis_of_step[e[1] - e[0]],)
            edges.append(shifted)
    result = make_hypergraph(n, edges, r=r)
    if linearity_violation(result) is not None:
        raise InvariantViolation("hub insertion broke linearity")

    pattern = forest(
        [PatternComponent("path", ell)] + [PatternComponent("star", ell)] * k, r
    )
    blocks = copies * (r - 1) ** k
    structural_forest_premises(result, k, ell, r, m, blocks)
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
    return _finish("thm47", params, result, nominal, True, certificates, caveats)
