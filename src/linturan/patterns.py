"""Forbidden pattern descriptions: loose paths, stars, cycles, and unions.

A pattern component is a shape with a length ell (its edge count):

  path  P<ell>   edges e_1..e_ell where consecutive edges share exactly one
                 vertex, non-consecutive edges are disjoint; ell >= 1
  star  S<ell>   ell edges pairwise meeting in the same single centre
                 vertex; ell >= 1
  cycle C<ell>   a path closed up: e_ell also shares exactly one vertex
                 with e_1, all other non-consecutive pairs disjoint, and
                 the two shared vertices on every edge are distinct;
                 ell >= 3

A ForbiddenPattern is an r-uniform vertex-disjoint union of components.
Components are kept in a canonical order (paths, then stars, then cycles,
longer first) so equal unions compare equal.  realize() builds the unique
minimum hypergraph of the pattern on consecutive integers.

Pattern text grammar (parse_pattern / pattern_expr):

  P4@r3        one loose path of 4 edges, 3-uniform
  2*P3+S2@r3   two disjoint P3's and one S2
  C5           uniformity taken from the default_r argument
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BadParameters
from .hypergraph import Hypergraph, disjoint_union, make_hypergraph

__all__ = [
    "PatternComponent",
    "ForbiddenPattern",
    "linear_path",
    "linear_star",
    "linear_cycle",
    "forest",
    "copies",
    "parse_pattern",
    "pattern_expr",
    "realize",
    "realize_component",
    "construction_edges",
]

_KIND_ORDER = {"path": 0, "star": 1, "cycle": 2}
_KIND_LETTER = {"path": "P", "star": "S", "cycle": "C"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


@dataclass(frozen=True, order=True)
class PatternComponent:
    kind: str
    length: int

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise BadParameters(f"unknown component kind {self.kind!r}")
        if self.length < 1:
            raise BadParameters(f"component length must be >= 1, got {self.length}")
        if self.kind == "cycle" and self.length < 3:
            raise BadParameters(f"cycle length must be >= 3, got {self.length}")

    def vertex_count(self, r: int) -> int:
        if self.kind == "cycle":
            return self.length * (r - 1)
        return self.length * (r - 1) + 1

    @property
    def edge_count(self) -> int:
        return self.length

    def __str__(self) -> str:
        return f"{_KIND_LETTER[self.kind]}{self.length}"


def _canonical(components: Sequence[PatternComponent]) -> tuple[PatternComponent, ...]:
    return tuple(sorted(components, key=lambda c: (_KIND_ORDER[c.kind], -c.length)))


@dataclass(frozen=True)
class ForbiddenPattern:
    """An r-uniform disjoint union of path/star/cycle components."""

    r: int
    components: tuple[PatternComponent, ...]

    def __post_init__(self):
        if self.r < 2:
            raise BadParameters(f"uniformity must be >= 2, got {self.r}")
        if not self.components:
            raise BadParameters("a pattern needs at least one component")
        object.__setattr__(self, "components", _canonical(self.components))

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def num_edges(self) -> int:
        return sum(c.edge_count for c in self.components)

    @property
    def num_vertices(self) -> int:
        return sum(c.vertex_count(self.r) for c in self.components)

    @property
    def is_single(self) -> bool:
        return len(self.components) == 1

    def single(self, kind: str) -> Optional[int]:
        """Length of the sole component when it has the given kind."""
        if self.is_single and self.components[0].kind == kind:
            return self.components[0].length
        return None

    def __str__(self) -> str:
        return pattern_expr(self)


def linear_path(length: int, r: int) -> ForbiddenPattern:
    return ForbiddenPattern(r, (PatternComponent("path", length),))


def linear_star(length: int, r: int) -> ForbiddenPattern:
    return ForbiddenPattern(r, (PatternComponent("star", length),))


def linear_cycle(length: int, r: int) -> ForbiddenPattern:
    return ForbiddenPattern(r, (PatternComponent("cycle", length),))


def forest(components: Sequence[PatternComponent], r: int) -> ForbiddenPattern:
    return ForbiddenPattern(r, tuple(components))


def copies(k: int, pattern: ForbiddenPattern) -> ForbiddenPattern:
    """k vertex-disjoint copies, flattened into one union pattern."""
    if k < 1:
        raise BadParameters(f"copy count must be >= 1, got {k}")
    return ForbiddenPattern(pattern.r, pattern.components * k)


def construction_edges(comp: PatternComponent, r: int) -> list[tuple[int, ...]]:
    """Edges of one component in construction order, each sorted ascending.

    Path edge i (1-based) covers (i-1)(r-1)..i(r-1); stars put the centre
    at 0 with ascending leaf groups; cycles close the path by replacing the
    last vertex with 0.  Construction order is the walk order (for stars,
    the group order); it differs from lexicographic order only for cycles,
    whose closing edge contains 0.
    """
    ell = comp.length
    if comp.kind == "path":
        return [tuple(range((i - 1) * (r - 1), i * (r - 1) + 1)) for i in range(1, ell + 1)]
    if comp.kind == "star":
        return [
            (0,) + tuple(range(i * (r - 1) + 1, (i + 1) * (r - 1) + 1))
            for i in range(ell)
        ]
    edges = [tuple(range((i - 1) * (r - 1), i * (r - 1) + 1)) for i in range(1, ell)]
    edges.append((0,) + tuple(range((ell - 1) * (r - 1), ell * (r - 1))))
    return edges


def realize_component(comp: PatternComponent, r: int) -> Hypergraph:
    """Minimum hypergraph of one component on vertices 0..v-1."""
    return make_hypergraph(comp.vertex_count(r), construction_edges(comp, r), r)


def realize(pattern: ForbiddenPattern) -> Hypergraph:
    """Minimum hypergraph of the pattern; components in canonical order."""
    return disjoint_union([realize_component(c, pattern.r) for c in pattern.components])


# at most nine digits keep int() inside its digit limit; a pattern stores
# one component per copy, so their number is capped as well
_TERM = re.compile(r"^(?:(\d{1,9})\*)?([PSC])(\d{1,9})$")
_SUFFIX = re.compile(r"^r(\d{1,9})$")
MAX_COMPONENTS = 100_000


def parse_pattern(text: str, default_r: Optional[int] = None) -> ForbiddenPattern:
    """Parse the pattern grammar.

    Terms are <kind><length> with an optional <k>* multiplier, joined by +,
    with an optional trailing @r<r>.  Without the suffix default_r is used.
    """
    body = text.strip().replace(" ", "")
    r = default_r
    if "@" in body:
        body, _, suffix = body.rpartition("@")
        m = _SUFFIX.match(suffix)
        if m is None:
            raise BadParameters(f"bad uniformity suffix {suffix!r} (expected r<int>)")
        r = int(m.group(1))
    if r is None:
        raise BadParameters(f"pattern {text!r} has no @r suffix and no default uniformity")
    components: list[PatternComponent] = []
    for term in body.split("+"):
        m = _TERM.match(term)
        if m is None:
            raise BadParameters(f"bad pattern term {term!r} (expected [k*]P|S|C<length>)")
        k = int(m.group(1)) if m.group(1) else 1
        if not 1 <= k <= MAX_COMPONENTS - len(components):
            raise BadParameters(f"term {term!r} needs 1 to {MAX_COMPONENTS - len(components)} copies")
        comp = PatternComponent(_LETTER_KIND[m.group(2)], int(m.group(3)))
        components.extend([comp] * k)
    return ForbiddenPattern(r, tuple(components))


def pattern_expr(pattern: ForbiddenPattern) -> str:
    """Canonical text for a pattern; parse_pattern inverts it."""
    terms: list[str] = []
    i = 0
    comps = pattern.components
    while i < len(comps):
        j = i
        while j < len(comps) and comps[j] == comps[i]:
            j += 1
        k = j - i
        terms.append(f"{k}*{comps[i]}" if k > 1 else str(comps[i]))
        i = j
    return "+".join(terms) + f"@r{pattern.r}"
