"""Pattern containment: search a host for loose paths, stars, cycles, and
vertex-disjoint unions of them.

contains(h, pattern) returns an Embedding witnessing the pattern inside the
host, or None when the host is pattern-free.  The search is exact in both
directions and deterministic: re-running it on equal inputs returns the
same witness (edge choices are explored in ascending index order, so the
witness is the first one in that canonical ordering).

An Embedding maps the pattern's minimum realization into the host.  The
pattern owns that realization and its edge numbering
(ForbiddenPattern.realization and edge_slots); this module only reads
them.  verify_embedding rechecks an embedding against the host from
scratch, on its edge tuples and none of the search's tables, so
witnesses are independently auditable.

Only host edges of exactly the pattern's order participate; a mixed host
is searched through the subset of its edge positions that hold order-r
edges, so every position the search reports is a host edge index.  The
host does not have to be linear.  Paths and cycles grow by one step rule
(_steps) in one walker (_walks), stars by one star rule (_stars);
contains and occurs_through share all three.  A walk or union placement
that recurses past Python's recursion limit raises BadParameters.

Vertex sets.  The search reads one table per host (EdgeTable, built by
edge_table): each edge's vertices as an ascending tuple, to scan, and as
a set, to test.  The set kind is chosen once, by the host's vertex
count.  A host on at most _MASK_LIMIT vertices gets Python ints, where
bit v stands for vertex v.  A larger host gets frozensets, which
edge_table builds too; nothing keeps a table past the search that asked
for it.  _steps, _walks, _stars and _Search are written once
against &, | and == on the table, and banned sets and a walk's vertex
set are of the same kind, so both kinds give the same answers in the
same order.  The limit is the same argument as
DEFAULT_PRODUCT_CAP's, which bounds what a host pays per declared
vertex: a mask is as wide as its largest vertex label, so on a host of
n declared vertices each edge's mask may cost n/8 bytes, and every mask
built along a walk as much again.  Under the limit that is at most
_MASK_LIMIT/8 bytes a set; a frozenset costs the same at any label.
Building a mask costs more than a frozenset, and the int test's cost
grows with the label width, so masks gain least on wide labels; they
still search faster up to about 4 000 vertices, where the two kinds
come out even (see _MASK_LIMIT).

Union patterns are embedded component by component.  Three sound prunes
cut the search:

- Each component type must exist individually.  A single-component
  pattern skips this prune, and the placement of components: its search
  is the presence check.
- When k components remain, deleting any k-1 vertices must leave at least
  one remaining type present (pigeonhole over vertex-disjoint copies), so
  if greedily deleting the k-1 busiest vertices kills every remaining
  type the branch is abandoned.
- Component room: a loose path, star or cycle is connected, so each
  occurrence lies inside one connected component of the order-r edges
  that avoid the banned vertices, and a component with fewer vertices
  than the pattern component holds none.  Start edges in such a component
  are skipped.  The room is exact for whatever banned set the search
  avoids: no banned vertices, the k-1 deleted vertices of the second
  prune, or the vertices of the components already placed.  A search
  keeps two rooms, the one for no banned vertices and the latest one for
  another banned set.  A room is built on first use, once the search has
  walked as many start edges as the pattern component has vertices, so a
  query answered among them, or a small host, pays no pass over the host.

occurs_through(table, incidence, q, pattern, also=None, edges=None) is
the yes/no query for callers that keep their own edge state (the search
oracle): does some occurrence of the pattern use edge q, and edge also
as well when it is given (one component only)?  The second anchor
narrows the search: a star's centre is the vertex the two share, a path
or cycle through two edges that meet is walked from their 2-edge chain,
and one through two disjoint edges must reach the second in the steps it
has left.  A union places the component through q by the same walkers
and the rest by the union search of contains, on the caller's edges.  It
reads the caller's edge table and per-vertex incidence as they are and
assembles no Embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge, nsmallest
from itertools import islice
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .errors import BadParameters, MalformedEmbedding
from .hypergraph import Hypergraph
from .patterns import ForbiddenPattern, PatternComponent

__all__ = [
    "Embedding",
    "EdgeTable",
    "contains",
    "edge_table",
    "iter_embeddings",
    "is_free",
    "occurs_through",
    "verify_embedding",
]

# Hosts on at most this many vertices get int-mask tables, larger ones
# frozensets (see the module docstring).  Under the limit a mask takes at
# most 560 bytes, against the 216 of a frozenset of up to four vertices;
# the two are even at about 1 400 vertices.  Set by measurement on the
# certify-large benchmark's hosts (CPython 3.11, 2-vCPU Xeon VM): every
# one of them, up to 4 000 vertices, is searched faster on masks.  The
# certificate search took 13.1 ms on frozensets and 7.0 ms on masks on
# thm47 (3, 4, 7, 2), 1 799 vertices, and 8.6 and 8.5 ms on thm45 at
# 4 000 vertices, where the two meet.
_MASK_LIMIT = 4000

# _steps scans a tail lazily once one of its vertices lies in more edges
# than this: eager lists win on small hosts, but at a hub of a thm47 host
# (thousands of edges) a presence check needs only the first few steps.
_HUB_DEGREE = 64


@dataclass(frozen=True)
class Embedding:
    """A certified occurrence of a pattern in a host.

    vertex_map[p] is the host vertex for vertex p of pattern.realization;
    edge_map[j] is the host edge index whose vertex set is the image of
    pattern.realization.edges[j] (the lexicographic edge numbering, which
    pattern.edge_slots maps construction edges to).
    """

    pattern: ForbiddenPattern
    edge_map: tuple[int, ...]
    vertex_map: tuple[int, ...]

    def to_obj(self) -> dict:
        return {
            "pattern": str(self.pattern),
            "edge_map": list(self.edge_map),
            "vertex_map": list(self.vertex_map),
        }


def verify_embedding(h: Hypergraph, emb: Embedding) -> bool:
    """Recheck an embedding against the host from first principles: each
    edge's image, sorted, must be the host edge it is mapped to.

    Every vertex of a realization lies in one of its edges, so a vertex
    map whose edge images are all host edges maps into the host's
    vertices: the vertices need no range test of their own.
    """
    ideal = emb.pattern.realization
    vertex_map, edge_map = emb.vertex_map, emb.edge_map
    if len(vertex_map) != ideal.n or len(edge_map) != ideal.edge_count:
        return False
    if len(set(vertex_map)) != ideal.n:
        return False
    if len(set(edge_map)) != ideal.edge_count:
        return False
    edges = h.edges
    m = len(edges)
    for j, host_idx in enumerate(edge_map):
        if not 0 <= host_idx < m:
            return False
        if tuple(sorted([vertex_map[p] for p in ideal.edges[j]])) != edges[host_idx]:
            return False
    return True


def _require_valid(h: Hypergraph, emb: Embedding) -> Embedding:
    if not verify_embedding(h, emb):
        raise MalformedEmbedding(f"search produced an invalid embedding {emb.to_obj()!r}")
    return emb


class EdgeTable(NamedTuple):
    """The vertex sets a search reads, of one kind per host (see the
    module docstring).

    verts[p] holds the vertices of position p as an ascending tuple and
    bits[p] the same vertices as a set; unit[v] is the set {v} and empty
    the empty set, of the same kind.
    """

    verts: Sequence[tuple[int, ...]]
    bits: Sequence[Any]
    unit: Any
    empty: Any


class _Units(dict):
    """unit of a frozenset table: {v} is built the first time v is asked
    for, so a host on many vertices pays only for those a search reaches."""

    def __missing__(self, v: int) -> frozenset[int]:
        unit = self[v] = frozenset((v,))
        return unit


def edge_table(n: int, edges: Sequence[tuple[int, ...]]) -> EdgeTable:
    """The table of edges, ascending vertex tuples on n vertices: int
    masks when n is at most _MASK_LIMIT, frozensets past it."""
    if n <= _MASK_LIMIT:
        unit = [1 << v for v in range(n)]
        bits = []
        for e in edges:
            mask = 0
            for v in e:
                mask |= unit[v]
            bits.append(mask)
        return EdgeTable(edges, bits, unit, 0)
    return EdgeTable(edges, [frozenset(e) for e in edges], _Units(), frozenset())


def _steps(table, incidence, tail, skip, used, floor=-1, banned=None, ends=None):
    """The loose-walk step rule: the edges above position floor, avoiding
    banned, through a vertex v of the tail that meet the walk's vertex set
    used in v alone, as a list of (edge, v) in ascending edge order.

    The tail is edge tail minus skip, the vertex it was entered by (-1 on
    a one-edge walk, which has none).  Each tail vertex's incidence is
    scanned, and an edge q through v is a step when
    bits[q] & used == unit[v].  The test is exact: v lies in q and, as a
    tail vertex, in used, so the meet holds v, and equality says it holds
    nothing else, which is what a path step asks (the new edge meets the
    walk only in its entry vertex).  An edge through two tail vertices is
    met through each, and each time its meet holds both, so it is
    rejected both times.  An accepted edge holds one tail vertex and is
    met once, so sorting the list puts each edge once, in edge order.  An
    edge already on the walk lies inside used, so it is never a path step
    (r >= 2).

    ends, when given, asks for a cycle's closing edge instead: (p, w0),
    the first edge of the walk minus w0, the second edge's entry vertex.
    A closing edge meets used in its entry vertex v and in one vertex w of
    ends, listed as (edge, v, w): the meet minus v must be unit[w].  The
    tail misses the first edge, so an edge through two tail vertices is
    rejected here too.  The only edge of the walk through the tail is the
    last one, which misses the first edge's vertices, so it never closes.

    A tail vertex in more than _HUB_DEGREE edges makes the scan lazy
    (_hub_steps): the same steps in the same order, each tested only when
    the walk asks for it.
    """
    verts, bits, unit, _ = table
    backs = None if ends is None else {unit[w]: w for w in verts[ends[0]] if w != ends[1]}
    found = []
    for v in verts[tail]:
        if v != skip:
            at_v = incidence[v]
            if len(at_v) > _HUB_DEGREE:
                return _hub_steps(table, incidence, tail, skip, used, floor, banned, backs)
            uv = unit[v]
            if backs is None:
                for q in at_v:
                    if q > floor:
                        eq = bits[q]
                        if eq & used == uv and not (banned and eq & banned):
                            found.append((q, v))
            else:
                for q in at_v:
                    if q > floor:
                        eq = bits[q]
                        w = backs.get((eq & used) ^ uv)
                        if w is not None and not (banned and eq & banned):
                            found.append((q, v, w))
    found.sort()
    return found


def _hub_steps(table, incidence, tail, skip, used, floor, banned, backs):
    """_steps' list, yielded one step at a time, for a tail that holds a
    hub.  A search that stops at its first occurrence then tests the
    hub's edges up to the one it takes, not all of them.  The candidates
    are the tail vertices' edges, deduplicated and sorted; each is tested
    against every tail vertex v by _steps' rule, and the meet holds one
    tail vertex at most for an edge that passes.  backs maps unit[w] to w
    for a closing edge's vertex w of the first edge, or is None.
    """
    verts, bits, unit, _ = table
    tails = [v for v in verts[tail] if v != skip]
    cand: set[int] = set()
    for v in tails:
        cand.update(incidence[v])
    for q in sorted(cand):
        if q <= floor:
            continue
        eq = bits[q]
        if banned and eq & banned:
            continue
        meet = eq & used
        for v in tails:
            if backs is None:
                if meet == unit[v]:
                    yield q, v
            else:
                w = backs.get(meet ^ unit[v])
                if w is not None:
                    yield q, v, w


def _walks(table, incidence, chain, conns, tail, skip, used, left, rest, closed, arm,
           goal=None, floor=-1, banned=None):
    """The loose-walk search: yields (chain, conns, back, used) for each
    way to grow the walk chain by `left` more edges by _steps, above
    position floor and avoiding banned.

    conns[i] is the vertex chain[i] and chain[i+1] share; the tail is edge
    tail minus skip, its entry vertex (-1: none), used the walk's vertex
    set, and rest, as a (position, vertex) pair, the first edge minus the
    second edge's entry vertex (None for a one-edge chain: its first step
    sets it).  back is None for a path, and for a cycle the vertex its
    closing edge shares with chain[0].

    - Cycle closing: a cycle's last edge meets the walk in its entry
      vertex and in one vertex of rest (the tail misses the first edge).
    - Second arm: once at most arm edges are left, a path may also grow
      them from rest, its other end, and then grows no third (arm 0).  A
      cycle never does: its closing edge needs rest.
    - Goal: an edge disjoint from chain[0] that each yielded walk holds,
      taken without the floor and banned tests.  A later edge meets the
      walk only in its entry vertex, at the tail, or in a vertex of the
      first edge (second arm, closing edge), which the goal misses.  So
      the goal meets the walk in the tail or nowhere: had it met an older
      tail, it would have been the forced step there.  A goal that meets
      the walk is the forced next step, one set test instead of a step
      enumeration, and fits only if it meets it in one vertex, a tail
      vertex v with meet == unit[v]; one that meets nothing is two steps
      away at least.  A cycle's closing edge holds a vertex of the first
      edge, so it comes after the goal.  A branch with fewer edges left
      than the goal needs is cut.
    """
    bits = table.bits
    if goal is not None:
        gs = bits[goal]
        meet = gs & used
        if left < (1 if meet else 2) + closed:
            return
        if meet:
            for v in table.verts[tail]:
                if v != skip and meet == table.unit[v]:
                    yield from _walks(table, incidence, chain + [goal], conns + [v], goal, v,
                                      used | gs, left - 1, rest, closed, arm, None, floor,
                                      banned)
            return
    if closed and left == 1:
        for q, v, w in _steps(table, incidence, tail, skip, used, floor, banned, rest):
            yield chain + [q], conns + [v], w, used | bits[q]
        return
    if left == 0:
        yield chain, conns, None, used
        return
    if left <= arm and not closed:
        yield from _walks(table, incidence, chain, conns, rest[0], rest[1], used, left, rest,
                          closed, 0, goal, floor, banned)
    for q, v in _steps(table, incidence, tail, skip, used, floor, banned):
        yield from _walks(table, incidence, chain + [q], conns + [v], q, v, used | bits[q],
                          left - 1, (tail, v) if rest is None else rest, closed, arm,
                          goal, floor, banned)


def _stars(table, incidence, centres, used, left, need, floor=-1, banned=None):
    """The star rule: (c, pick, span) for each c of centres in at least
    need edges and each pick (list) of `left` more edges at c, above
    position floor, that avoid banned and meet used, and each other, only
    in c; span is used and the pick's vertices, and c lies in used.  An
    edge at c holds c, so its meet with the span so far holds c, and a
    meet equal to unit[c] holds nothing else; an edge inside used (r >= 2)
    never fits.  One depth-first loop per centre over indices into c's
    incidence above floor, picks in its order; a branch with fewer edges
    left in the list than picks still to make is closed.
    """
    _, bits, unit, _ = table
    for c in centres:
        through = incidence[c]
        if len(through) < need:
            continue
        if not left:
            yield c, [], used
            continue
        if floor >= 0:
            through = [q for q in through if q > floor]
        centre = unit[c]
        picks: list[int] = []  # indices into through of the edges picked so far
        spans = [used]  # spans[j]: used and the first j picks
        i = 0
        while True:
            if len(through) - i < left - len(picks):
                if not picks:
                    break
                i = picks.pop() + 1
                spans.pop()
                continue
            es = bits[through[i]]
            if es & spans[-1] == centre and not (banned and es & banned):
                if len(picks) + 1 == left:
                    yield c, [through[j] for j in picks] + [through[i]], spans[-1] | es
                else:
                    picks.append(i)
                    spans.append(spans[-1] | es)
            i += 1


class _Search:
    """One containment query on edge state the caller owns.

    table holds the vertex sets of the positions (see EdgeTable); edges
    lists the positions that make up the host, so table may hold more,
    and incidence[v] lists exactly those of them through vertex v.  Only
    order-r edges may be listed.  Everything is read in place and never
    mutated.  Banned vertex sets are of the table's kind.  Occurrences
    come in canonical order when edges and the incidence lists ascend; in
    any other order none is missed.
    """

    def __init__(self, pattern: ForbiddenPattern, table: EdgeTable, incidence, edges):
        self.pattern = pattern
        self.n = len(incidence)
        self.table = table
        self.incidence: Sequence[Sequence[int]] = incidence
        self.edges: Sequence[int] = edges
        # component rooms, built on first use: the one for no banned
        # vertices, and the latest one for another banned set
        self._free_room: Optional[list[int]] = None
        self._last_room: Optional[tuple[Any, list[int]]] = None

    # -- component rooms --------------------------------------------------

    def _component_sizes(self, banned) -> list[int]:
        """sizes[pos]: how many vertices the component of edge pos has in
        the host of the order-r edges that avoid banned (0 when edge pos
        meets banned or is not a host edge).  One pass over the edges and
        their incidence."""
        verts, bits, _, _ = self.table
        incidence = self.incidence
        sizes = [0] * len(bits)
        seen = [False] * len(bits)
        if banned:
            for p in self.edges:
                seen[p] = bool(bits[p] & banned)
        for p in self.edges:
            if seen[p]:
                continue
            seen[p] = True
            members = [p]
            found: set[int] = set()
            for e in members:  # members grows while it is read
                for v in verts[e]:
                    if v not in found:
                        found.add(v)
                        for f in incidence[v]:
                            if not seen[f]:
                                seen[f] = True
                                members.append(f)
            size = len(found)
            for e in members:
                sizes[e] = size
        return sizes

    def _room(self, banned) -> list[int]:
        """Component sizes for start edges avoiding banned, exact for
        banned.  The room for no banned vertices is kept for the whole
        search, and the room of the latest nonempty banned set until
        another is asked for: the pigeonhole prune asks for one blocked
        set once per remaining component type."""
        if not banned:
            if self._free_room is None:
                self._free_room = self._component_sizes(banned)
            return self._free_room
        if self._last_room is None or self._last_room[0] != banned:
            self._last_room = (banned, self._component_sizes(banned))
        return self._last_room[1]

    def _starts(self, need: int, banned) -> Iterator[int]:
        """Ascending positions of the edges that avoid banned and lie in a
        component with at least need vertices (see _room).

        The first need such edges are yielded before any room is built, so
        a query that they answer, or a host with at most need of them,
        pays no pass over the host.  The prune is sound from whichever
        start edge it begins at.
        """
        bits = self.table.bits
        positions = (p for p in self.edges if not bits[p] & banned)
        yield from islice(positions, need)
        room = None
        for p in positions:
            if room is None:
                room = self._room(banned)
            if room[p] >= need:
                yield p

    # -- single-component generators ------------------------------------
    # Each yields (positions in construction order, vertex list in the
    # numbering of the component's block of the realization, used host
    # vertices).  Positions index the table: host edge indices for
    # iter_embeddings, candidate indices for the oracle.

    def iter_component(
        self, comp: PatternComponent, banned
    ) -> Iterator[tuple[list[int], list[int], Any]]:
        """Occurrences of comp avoiding banned."""
        starts = self._starts(comp.vertex_count(self.pattern.r), banned)
        if comp.kind == "star" and comp.length > 1:
            yield from self._iter_stars(comp.length, banned, starts)
        else:  # a one-edge star is a one-edge path
            yield from self._iter_chains(comp.length, banned, comp.kind == "cycle", starts)

    def _chain_map(self, chain, conns, back):
        """Vertex list of a loose path (back None) or cycle (back is the
        vertex the closing edge shares with chain[0]): each edge's free
        vertices in ascending order, preceded by the vertex it enters
        through; a cycle starts at back."""
        verts = self.table.verts
        ends = conns + [back]
        vm = [] if back is None else [back]
        for i, pos in enumerate(chain):
            if i:
                vm.append(conns[i - 1])
            a, b = ends[i - 1], ends[i]
            vm += [v for v in verts[pos] if v != a and v != b]
        return vm

    def _iter_chains(self, ell, banned, closed, starts):
        """Loose paths with ell edges or, when closed, loose cycles, walked
        by _walks from each start position of starts.  A cycle is walked
        from its minimum-index edge, so every later edge has a larger
        position."""
        table, incidence = self.table, self.incidence
        bits = table.bits
        for p0 in starts:
            walks = _walks(table, incidence, [p0], [], p0, -1, bits[p0], ell - 1, None, closed,
                           0, floor=p0 if closed else -1, banned=banned)
            for chain, conns, back, used in walks:
                yield chain, self._chain_map(chain, conns, back), used

    def _iter_stars(self, ell, banned, starts):
        """Loose stars with ell >= 2 edges whose lowest edge is a start
        position of starts, in ascending position order.

        A star's lowest edge p0 holds its centre c, and c lies in ell
        edges, so a p0 none of whose vertices has degree ell is skipped.
        _stars picks the other edges at each vertex c of p0, above p0, and
        the streams merge on the second edge: it meets p0 in c alone, so
        it is in one stream only, and the stars come in (p0, p1, ...)
        order.  A non-ascending incidence list misses no star and repeats
        none, as each is picked once, at its centre above its lowest edge,
        but the stars come in another order.
        """
        table, incidence = self.table, self.incidence
        verts, bits, _, _ = table
        for p0 in starts:
            if all(len(incidence[v]) < ell for v in verts[p0]):
                continue
            stars = merge(*(_stars(table, incidence, (c,), bits[p0], ell - 1, ell, p0, banned)
                            for c in verts[p0]), key=lambda star: star[1][0])
            for c, pick, used in stars:
                chosen = [p0] + pick
                vm = [c] + [v for pos in chosen for v in verts[pos] if v != c]
                yield chosen, vm, used

    # -- union search -----------------------------------------------------

    def component_present(self, comp: PatternComponent, banned) -> bool:
        return next(self.iter_component(comp, banned), None) is not None

    def _busiest_vertices(self, banned, k: int):
        """The k vertices of highest degree in the host of the edges that
        avoid banned, ties to the smaller vertex, and none of degree 0, as
        a set of the table's kind.  With nothing banned the degrees are
        the incidence lists' lengths, as incidence lists the host's
        edges; under a banned set they are counted."""
        verts, bits, unit, empty = self.table
        if banned:
            deg: dict[int, int] = {}
            for p in self.edges:
                if bits[p] & banned:
                    continue
                for v in verts[p]:
                    deg[v] = deg.get(v, 0) + 1
            ranked = sorted(deg, key=lambda v: (-deg[v], v))[:k]
        else:
            incidence = self.incidence
            ranked = nsmallest(k, (v for v in range(self.n) if incidence[v]),
                               key=lambda v: (-len(incidence[v]), v))
        peel = empty
        for v in ranked:
            peel = peel | unit[v]
        return peel

    def _prune_disjoint(self, comps, idx, banned) -> bool:
        """True when the remaining components provably cannot all embed.

        If the remaining k components had disjoint embeddings avoiding
        banned, any k-1 deleted vertices would miss one of them entirely.
        """
        need = len(comps) - idx
        if need < 2:
            return False
        peel = self._busiest_vertices(banned, need - 1)
        blocked = banned | peel
        for comp in dict.fromkeys(comps[idx:]):
            if self.component_present(comp, blocked):
                return False
        return True

    def iter_all(self) -> Iterator[list[tuple[list[int], list[int]]]]:
        """Every occurrence of the pattern, in canonical search order, as
        a list of (positions, vertex list) pairs, one per component.

        Copies of identical components are listed once (assigned in order
        of their smallest host-edge index), not once per permutation.  A
        single component is listed as iter_component yields it, with no
        placement.
        """
        comps = self.pattern.components
        if self.pattern.num_vertices > self.n or self.pattern.num_edges > len(self.edges):
            return iter([])
        empty = self.table.empty
        if self.pattern.is_single:  # one component: the walk is the check
            return ([(positions, vmap)]
                    for positions, vmap, _ in self.iter_component(comps[0], empty))
        for comp in dict.fromkeys(comps):
            if not self.component_present(comp, empty):
                return iter([])
        return self.place(comps, 0, empty, [])

    def place(self, comps, idx, banned, chosen) -> Iterator[list[tuple[list[int], list[int]]]]:
        """Ways to place comps[idx:] vertex-disjointly, avoiding banned,
        after the (positions, vertex list) pairs of comps[:idx] in chosen.
        Each completed placement is yielded as chosen, which the search
        goes on changing; copy it to keep it."""
        if idx == len(comps):
            yield chosen
            return
        if self._prune_disjoint(comps, idx, banned):
            return
        floor = -1
        if idx > 0 and comps[idx - 1] == comps[idx]:
            floor = min(chosen[idx - 1][0])
        for positions, vmap, used in self.iter_component(comps[idx], banned):
            if min(positions) <= floor:
                continue
            chosen.append((positions, vmap))
            yield from self.place(comps, idx + 1, banned | used, chosen)
            chosen.pop()


def iter_embeddings(h: Hypergraph, pattern: ForbiddenPattern) -> Iterator[Embedding]:
    """All occurrences of the pattern in the host.

    Paths and cycles appear once per traversal direction; identical union
    components are not permuted among themselves.

    The search runs on the host's edge table and its order-r edges.  On a
    host of uniform order r those are all its edges, so it reads the
    host's own incidence, and a host queried again reuses it.  A mixed
    host is searched through the positions of its order-r edges, with an
    incidence that lists only those; positions are host edge indices
    either way.
    """
    table = edge_table(h.n, h.edges)
    edges: Sequence[int] = range(len(h.edges))
    incidence: Sequence[Sequence[int]] = h.incidence
    if h.r != pattern.r:
        edges = [i for i, e in enumerate(h.edges) if len(e) == pattern.r]
        incidence = [[] for _ in range(h.n)]
        for i in edges:
            for v in h.edges[i]:
                incidence[v].append(i)
    search = _Search(pattern, table, incidence, edges)
    slots = None
    try:
        for chosen in search.iter_all():
            if slots is None:
                # read at the first occurrence, not before: edge_slots builds
                # the pattern's realization, which a free host never needs
                size, slots = pattern.num_edges, pattern.edge_slots
            # each component's host edges go into the pattern's edge slots;
            # the vertex lists, in component order, are the vertex map
            edge_map = [0] * size
            vertex_map: list[int] = []
            for (positions, vmap), at in zip(chosen, slots):
                for pos, j in zip(positions, at):
                    edge_map[j] = pos
                vertex_map += vmap
            yield _require_valid(h, Embedding(pattern, tuple(edge_map), tuple(vertex_map)))
    except RecursionError:
        raise BadParameters(f"{pattern} is too deep for the recursion limit") from None


def contains(h: Hypergraph, pattern: ForbiddenPattern) -> Optional[Embedding]:
    """Witness of the pattern inside the host, or None when free."""
    return next(iter_embeddings(h, pattern), None)


def is_free(h: Hypergraph, pattern: ForbiddenPattern) -> bool:
    """True when the host has no occurrence of the pattern."""
    return contains(h, pattern) is None


def occurs_through(
    table: EdgeTable,
    incidence,
    q: int,
    pattern: ForbiddenPattern,
    also: Optional[int] = None,
    edges: Optional[Sequence[int]] = None,
) -> bool:
    """Yes/no: does some occurrence of the pattern use edge q, and edge
    `also` as well when it is given?

    The host is given by edge state the caller keeps and updates in
    place: table holds the vertex sets of edges (edge_table), incidence[v]
    lists the host edges through vertex v, q and also among them, in any
    order, and edges lists the host's edges (None: every position of
    table).  Edges of any other order must not be listed.  No Hypergraph
    and no Embedding is built.

    One component: _through searches its occurrences through q (and
    also), with no whole-host pass; edges is not read.  The answer is
    exact for any two distinct edges.

    A union: its components are vertex-disjoint, so an occurrence that
    uses q holds it in exactly one component copy, of some type C.  That
    copy is an occurrence of C through q, and the other components form
    an occurrence of the rest (the pattern minus one C) that avoids the
    copy's vertices; conversely such a pair is an occurrence through q.
    So for each distinct C and each vertex set U of an occurrence of C
    through q (the last item _through yields for it), the rest is placed
    by _Search.place with U banned, which brings the pigeonhole and room
    prunes of a whole-host search; the rest may lie anywhere in the host,
    so it starts from the edges listed.  also is for one component only
    (q and also may lie in different components of a union) and raises
    BadParameters with a union.
    """
    comps = pattern.components
    try:
        if len(comps) == 1:
            return next(_through(table, incidence, q, comps[0], also), None) is not None
        if also is not None:
            raise BadParameters(f"a second anchor needs a one-component pattern, not {pattern}")
        search = _Search(pattern, table, incidence,
                         range(len(table.bits)) if edges is None else edges)
        for i, comp in enumerate(comps):
            if i and comps[i - 1] == comp:
                continue  # each distinct type once
            rest = comps[:i] + comps[i + 1:]
            tried = set()  # a path comes once per direction
            for occurrence in _through(table, incidence, q, comp):
                used = occurrence[-1]
                if used not in tried:
                    tried.add(used)
                    if next(search.place(rest, 0, used, []), None) is not None:
                        return True
        return False
    except RecursionError:
        raise BadParameters(f"{pattern} is too deep for the recursion limit") from None


def _through(table, incidence, q, comp: PatternComponent, also=None) -> Iterator:
    """The occurrences of one component that use edge q, and edge also as
    well when it is given (an occurrence may repeat), each ending with its
    vertex set.  Paths and cycles are the walks of _walks, (chain, conns,
    back, used), read as they come; a star is (c, pick, span) as _stars
    yields it, pick its edges besides q and also, and a single edge is
    ([], its vertex set).  Each rule below only drops branches that hold
    no occurrence through both anchors.

    - One edge: q alone is an occurrence, and no single edge holds two.
    - Shared pair: two edges of a loose path, cycle or star share at most
      one vertex, so when q and also share two or more, no occurrence
      holds both (only a general host has such a pair).
    - Stars: a star through q has its centre c in q and ell edges at c:
      _stars searches each c in q of degree ell or more, and on a
      linear host its first pick succeeds.  Two edges of a star meet only
      in the centre, so with also, c is the single vertex q and also share
      and ell-2 more edges at c avoid both.
    - Paths and cycles, anchors meeting in one vertex: in a loose path or
      cycle only consecutive edges meet, and in the vertex that joins
      them, so the walk starts from the 2-edge chain also, q, and a path
      may grow its second arm from also at once.
    - Paths and cycles, disjoint anchors: the walk starts at q with also
      as its goal.  A path is walked in both directions from q, so its
      second arm is at most as long as its first.
    """
    verts, bits, _, _ = table
    eq = bits[q]
    ell = comp.length
    if ell == 1:
        return iter([([], eq)] if also is None else [])
    if also is None:
        centres, used = verts[q], eq
    else:
        vb = verts[also]
        centres, used = [v for v in verts[q] if v in vb], eq | bits[also]
        if len(centres) > 1:
            return iter([])
    if comp.kind == "star":
        return _stars(table, incidence, centres, used, ell - 1 if also is None else ell - 2, ell)
    closed = comp.kind == "cycle"
    if also is not None and centres:
        (c,) = centres
        return _walks(table, incidence, [also, q], [c], q, c, used, ell - 2, (also, c), closed,
                      ell - 2)
    return _walks(table, incidence, [q], [], q, -1, eq, ell - 1, None, closed, (ell - 1) // 2,
                  also)
