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
scratch, so witnesses are independently auditable.

Only host edges of exactly the pattern's order participate; a mixed host
is searched through its order-r edges.  The host does not have to be
linear.  Paths and cycles grow by one step rule (_steps) in one walker
(_walks), stars by one star rule (_star_leaves); contains and
occurs_through share all three.  Union
patterns are embedded component by component.  Three sound prunes cut the
search:

- Each component type must exist individually.  A single-component
  pattern skips this prune: its search is the presence check.
- When k components remain, deleting any k-1 vertices must leave at least
  one remaining type present (pigeonhole over vertex-disjoint copies), so
  if greedily deleting the k-1 busiest vertices kills every remaining
  type the branch is abandoned.
- Component room: a loose path, star or cycle is connected, so each
  occurrence lies inside one connected component of the order-r edges
  that avoid the banned vertices, and a component with fewer vertices
  than the pattern component holds none.  Start edges in such a component
  are skipped.  The room is exact for no banned vertices and for the
  k-1 deleted vertices of the second prune.  Under any other banned set
  the room for no banned vertices is used, an upper bound, since removing
  vertices only splits components.  The room is built on first use, once
  the search has walked as many start edges as the pattern component has
  vertices, so a query answered among them, or a small host, pays no
  pass over the host.

occurs_through(sets, incidence, q, pattern, also=None, edges=None) is
the yes/no query for callers that keep their own edge state (the search
oracle): does some occurrence of the pattern use edge q, and edge also
as well when it is given (one component only)?  The second anchor
narrows the search: a star's centre is the vertex the two share, a path
or cycle through two edges that meet is walked from their 2-edge chain,
and one through two disjoint edges must reach the second in the steps it
has left.  A union places the component through q by the same walkers
and the rest by the union search of contains, on the caller's edges.  It
reads the caller's edge sets and per-vertex incidence as they are and
assembles no Embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from .errors import BadParameters, MalformedEmbedding
from .hypergraph import Hypergraph
from .patterns import ForbiddenPattern, PatternComponent

__all__ = [
    "Embedding",
    "contains",
    "iter_embeddings",
    "is_free",
    "occurs_through",
    "verify_embedding",
]


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
    """Recheck an embedding against the host from first principles."""
    ideal = emb.pattern.realization
    vertex_map, edge_map = emb.vertex_map, emb.edge_map
    if len(vertex_map) != ideal.n or len(edge_map) != ideal.edge_count:
        return False
    if len(set(vertex_map)) != ideal.n:
        return False
    if len(set(edge_map)) != ideal.edge_count:
        return False
    n, m = h.n, len(h.edges)
    for v in vertex_map:
        if not 0 <= v < n:
            return False
    edge_sets = h.edge_sets
    for j, host_idx in enumerate(edge_map):
        if not 0 <= host_idx < m:
            return False
        if {vertex_map[p] for p in ideal.edges[j]} != edge_sets[host_idx]:
            return False
    return True


def _require_valid(h: Hypergraph, emb: Embedding) -> Embedding:
    if not verify_embedding(h, emb):
        raise MalformedEmbedding(f"search produced an invalid embedding {emb.to_obj()!r}")
    return emb


def _steps(sets, incidence, tail, used, meets, floor=-1, banned=None):
    """The loose-walk step rule: ascending (edge, meet) pairs for the edges
    above position floor, through a vertex of tail and avoiding banned,
    that share exactly `meets` vertices (meet) with the walk's vertex set
    used.

    tail is the last edge of the walk minus the vertex it was entered by.
    A path step asks for meets == 1: the new edge meets the walk only in
    its entry vertex, which is then the tail vertex it was found through.
    A cycle's closing edge asks for meets == 2: its entry vertex and the
    vertex where the cycle started, which the caller checks.  An edge
    already on the walk lies inside used, so it is never a path step
    (r >= 2); the only one through tail is the last edge, whose meet holds
    no start vertex, so the caller's check rejects it as a closing edge.
    """
    cand: set[int] = set()
    for v in tail:
        cand.update(incidence[v])
    for q in sorted(cand):
        if q <= floor:
            continue
        eq = sets[q]
        if banned and eq & banned:
            continue
        meet = eq & used
        if len(meet) == meets:
            yield q, meet


def _walks(sets, incidence, chain, conns, tail, used, left, rest, closed, arm,
           goal=None, floor=-1, banned=None):
    """The loose-walk search: yields (chain, conns, back, used) for each
    way to grow the walk chain by `left` more edges by _steps, above
    position floor and avoiding banned.

    conns[i] is the vertex chain[i] and chain[i+1] share; tail is the last
    edge minus its entry vertex, used the walk's vertices, and rest the
    first edge minus the second edge's entry vertex (None for a one-edge
    chain: its first step sets it).  back is None for a path, and for a
    cycle the vertex its closing edge shares with chain[0].

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
      enumeration, and fits only if it meets it in one vertex; one that
      meets nothing is two steps away at least.  A cycle's closing edge
      holds a vertex of the first edge, so it comes after the goal.  A
      branch with fewer edges left than the goal needs is cut.
    """
    if goal is not None:
        gs = sets[goal]
        meet = gs & used
        if left < (1 if meet else 2) + closed:
            return
        if meet:
            if len(meet) == 1:
                yield from _walks(sets, incidence, chain + [goal], conns + list(meet), gs - meet,
                                  used | gs, left - 1, rest, closed, arm, None, floor, banned)
            return
    if closed and left == 1:
        for q, meet in _steps(sets, incidence, tail, used, 2, floor, banned):
            back = meet & rest
            if back:
                (va,) = meet - back
                (vb,) = back
                yield chain + [q], conns + [va], vb, used | sets[q]
        return
    if left == 0:
        yield chain, conns, None, used
        return
    if left <= arm and not closed:
        yield from _walks(sets, incidence, chain, conns, rest, used, left, rest, closed, 0,
                          goal, floor, banned)
    for q, meet in _steps(sets, incidence, tail, used, 1, floor, banned):
        es = sets[q]
        (v,) = meet
        yield from _walks(sets, incidence, chain + [q], conns + [v], es - meet, used | es,
                          left - 1, tail - meet if rest is None else rest, closed, arm,
                          goal, floor, banned)


def _star_leaves(sets, through, used, left, banned=None):
    """The star step rule: ascending picks (lists) of `left` more edges
    from through, the edges at a centre c, that avoid banned and meet
    used, and each other, only in c.  Each edge of through holds c, so a
    single shared vertex is c, and an edge inside used (r >= 2) never fits.

    One depth-first loop over a stack of indices into through.  A branch
    with fewer edges of through left than picks still to make is closed:
    it can yield nothing.
    """
    if left == 0:
        yield []
        return
    picks: list[int] = []  # indices into through of the edges picked so far
    spans = [used]  # spans[j]: used and the first j picks
    i = 0
    while True:
        if len(through) - i < left - len(picks):
            if not picks:
                return
            i = picks.pop() + 1
            spans.pop()
            continue
        es = sets[through[i]]
        if len(es & spans[-1]) == 1 and not (banned and es & banned):
            if len(picks) + 1 == left:
                yield [through[j] for j in picks] + [through[i]]
            else:
                picks.append(i)
                spans.append(spans[-1] | es)
        i += 1


class _Search:
    """One containment query on edge state the caller owns.

    sets[p] is the vertex set of position p and incidence[v] lists the
    positions through vertex v (n vertices); edges lists the positions
    that make up the host, so sets may hold more.  Only order-r edges
    may be listed.  Everything is read in place and never mutated.
    Occurrences come in canonical order when edges and the incidence
    lists ascend; in any other order none is missed.
    """

    def __init__(self, pattern: ForbiddenPattern, n: int, sets, incidence, edges):
        self.pattern = pattern
        self.n = n
        self.sets: Sequence[frozenset[int]] = sets
        self.incidence: Sequence[Sequence[int]] = incidence
        self.edges: Sequence[int] = edges
        # component rooms, built on first use: the one for no banned
        # vertices, and the latest one for another banned set
        self._free_room: Optional[list[int]] = None
        self._last_room: Optional[tuple[frozenset[int], list[int]]] = None

    # -- component rooms --------------------------------------------------

    def _component_sizes(self, banned: frozenset[int]) -> list[int]:
        """sizes[pos]: how many vertices the component of edge pos has in
        the host of the order-r edges that avoid banned (0 when edge pos
        meets banned or is not a host edge).  One pass over the edges and
        their incidence."""
        sets, incidence = self.sets, self.incidence
        sizes = [0] * len(sets)
        seen = [False] * len(sets)
        if banned:
            for p in self.edges:
                seen[p] = bool(sets[p] & banned)
        for p in self.edges:
            if seen[p]:
                continue
            seen[p] = True
            members = [p]
            verts: set[int] = set()
            for e in members:  # members grows while it is read
                for v in sets[e]:
                    if v not in verts:
                        verts.add(v)
                        for f in incidence[v]:
                            if not seen[f]:
                                seen[f] = True
                                members.append(f)
            size = len(verts)
            for e in members:
                sizes[e] = size
        return sizes

    def _room(self, banned: frozenset[int], exact: bool) -> list[int]:
        """Component sizes for start edges avoiding banned: exact for
        banned when exact is set or banned is empty, else the sizes for no
        banned vertices, an upper bound (removing vertices only splits
        components)."""
        if exact and banned:
            if self._last_room is None or self._last_room[0] != banned:
                self._last_room = (banned, self._component_sizes(banned))
            return self._last_room[1]
        if self._free_room is None:
            self._free_room = self._component_sizes(frozenset())
        return self._free_room

    def _starts(self, need: int, banned: frozenset[int], exact: bool) -> Iterator[int]:
        """Ascending positions of the edges that avoid banned and lie in a
        component with at least need vertices (see _room).

        The first need such edges are yielded before any room is built, so
        a query that they answer, or a host with at most need of them,
        pays no pass over the host.  The prune is sound from whichever
        start edge it begins at.
        """
        sets = self.sets
        positions = (p for p in self.edges if not sets[p] & banned)
        yield from islice(positions, need)
        room = None
        for p in positions:
            if room is None:
                room = self._room(banned, exact)
            if room[p] >= need:
                yield p

    # -- single-component generators ------------------------------------
    # Each yields (positions in construction order, vertex list in the
    # numbering of the component's block of the realization, used host
    # vertices).  Positions are live positions, not host indices.

    def iter_component(
        self, comp: PatternComponent, banned: frozenset[int], exact: bool = False
    ) -> Iterator[tuple[list[int], list[int], frozenset[int]]]:
        """Occurrences of comp avoiding banned; exact asks for the room of
        banned itself, not its upper bound (see _room)."""
        starts = self._starts(comp.vertex_count(self.pattern.r), banned, exact)
        if comp.kind == "star" and comp.length > 1:
            yield from self._iter_stars(comp.length, banned, starts)
        else:  # a one-edge star is a one-edge path
            yield from self._iter_chains(comp.length, banned, comp.kind == "cycle", starts)

    def _chain_map(self, chain, conns, back):
        """Vertex list of a loose path (back None) or cycle (back is the
        vertex the closing edge shares with chain[0]): each edge's free
        vertices in ascending order, preceded by the vertex it enters
        through; a cycle starts at back."""
        ends = conns + [back]
        vm = [] if back is None else [back]
        for i, pos in enumerate(chain):
            if i:
                vm.append(conns[i - 1])
            vm += sorted(self.sets[pos] - {ends[i - 1], ends[i]})
        return vm

    def _iter_chains(self, ell, banned, closed, starts):
        """Loose paths with ell edges or, when closed, loose cycles, walked
        by _walks from each start position of starts.  A cycle is walked
        from its minimum-index edge, so every later edge has a larger
        position."""
        sets, incidence = self.sets, self.incidence
        for p0 in starts:
            e0 = sets[p0]
            walks = _walks(sets, incidence, [p0], [], e0, e0, ell - 1, None, closed, 0,
                           floor=p0 if closed else -1, banned=banned)
            for chain, conns, back, used in walks:
                yield chain, self._chain_map(chain, conns, back), used

    def _iter_stars(self, ell, banned, starts):
        """Loose stars with ell >= 2 edges whose lowest edge is a start
        position of starts, in ascending position order.

        A star's lowest edge p0 holds its centre c, and c lies in ell
        edges, so a p0 none of whose vertices has degree ell is skipped.
        The second edge is a path step from p0, whose single meet is c;
        a c of degree below ell is skipped, and the other edges are
        picked from c's incidence after the second edge.  An incidence
        list in another order than ascending misses no star: taking as
        the second edge the star edge above p0 that comes first in c's
        list leaves the others after it.  Such a star may then come more
        than once, and out of position order.
        """
        sets, incidence = self.sets, self.incidence
        for p0 in starts:
            e0 = sets[p0]
            if all(len(incidence[v]) < ell for v in e0):
                continue
            for p1, (c,) in _steps(sets, incidence, e0, e0, 1, p0, banned):
                at_c = incidence[c]
                if len(at_c) < ell:
                    continue
                used = e0 | sets[p1]
                above = at_c[at_c.index(p1) + 1 :]
                for pick in _star_leaves(sets, above, used, ell - 2, banned):
                    chosen = [p0, p1] + pick
                    vm = [c] + [v for pos in chosen for v in sorted(sets[pos] - {c})]
                    yield chosen, vm, used.union(*(sets[pos] for pos in pick))

    # -- union search -----------------------------------------------------

    def component_present(self, comp: PatternComponent, banned: frozenset[int]) -> bool:
        for _ in self.iter_component(comp, banned, exact=True):
            return True
        return False

    def _busiest_vertices(self, banned: frozenset[int], k: int) -> frozenset[int]:
        deg: dict[int, int] = {}
        for p in self.edges:
            es = self.sets[p]
            if es & banned:
                continue
            for v in es:
                deg[v] = deg.get(v, 0) + 1
        ranked = sorted(deg, key=lambda v: (-deg[v], v))
        return frozenset(ranked[:k])

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
        for comp in set(comps[idx:]):
            if self.component_present(comp, blocked):
                return False
        return True

    def iter_all(self) -> Iterator[list[tuple[list[int], list[int]]]]:
        """Every occurrence of the pattern, in canonical search order, as
        place yields it.

        Copies of identical components are listed once (assigned in order
        of their smallest host-edge index), not once per permutation.
        """
        comps = self.pattern.components
        if self.pattern.num_vertices > self.n or self.pattern.num_edges > len(self.edges):
            return iter([])
        if not self.pattern.is_single:  # one component: the DFS is the check
            for comp in set(comps):
                if not self.component_present(comp, frozenset()):
                    return iter([])
        return self.place(comps, 0, frozenset(), [])

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

    The search runs on the host's order-r edges.  On a host of uniform
    order r those are all its edges, so it reads the host's own edge_sets
    and incidence, and a host queried again reuses them.  A mixed host
    gets a filtered copy, whose positions orig_index maps back.
    """
    if h.r == pattern.r:
        orig_index: Sequence[int] = range(len(h.edges))
        sets: Sequence[frozenset[int]] = h.edge_sets
        incidence: Sequence[Sequence[int]] = h.incidence
    else:
        orig_index = [i for i, e in enumerate(h.edges) if len(e) == pattern.r]
        sets = [h.edge_sets[i] for i in orig_index]
        incidence = [[] for _ in range(h.n)]
        for pos, es in enumerate(sets):
            for v in es:
                incidence[v].append(pos)
    search = _Search(pattern, h.n, sets, incidence, range(len(sets)))
    for chosen in search.iter_all():
        # each component's host edges go into the pattern's edge slots;
        # the vertex lists, in component order, are the vertex map
        edge_map = [0] * pattern.num_edges
        for (positions, _), slots in zip(chosen, pattern.edge_slots):
            for pos, j in zip(positions, slots):
                edge_map[j] = orig_index[pos]
        vertex_map = tuple(v for _, vmap in chosen for v in vmap)
        yield _require_valid(h, Embedding(pattern, tuple(edge_map), vertex_map))


def contains(h: Hypergraph, pattern: ForbiddenPattern) -> Optional[Embedding]:
    """Witness of the pattern inside the host, or None when free."""
    return next(iter_embeddings(h, pattern), None)


def is_free(h: Hypergraph, pattern: ForbiddenPattern) -> bool:
    """True when the host has no occurrence of the pattern."""
    return contains(h, pattern) is None


def occurs_through(
    sets,
    incidence,
    q: int,
    pattern: ForbiddenPattern,
    also: Optional[int] = None,
    edges: Optional[Sequence[int]] = None,
) -> bool:
    """Yes/no: does some occurrence of the pattern use edge q, and edge
    `also` as well when it is given?

    The host is given by edge state the caller keeps and updates in
    place: sets[i] is the vertex set of edge i, incidence[v] lists the
    host edges through vertex v, q and also among them, in any order, and
    edges lists the host's edges (None: every position of sets).  Edges
    of any other order must not be listed.  No Hypergraph and no
    Embedding is built.

    One component: _through searches its occurrences through q (and
    also), with no whole-host pass; edges is not read.  The answer is
    exact for any two distinct edges.

    A union: its components are vertex-disjoint, so an occurrence that
    uses q holds it in exactly one component copy, of some type C.  That
    copy is an occurrence of C through q, and the other components form
    an occurrence of the rest (the pattern minus one C) that avoids the
    copy's vertices; conversely such a pair is an occurrence through q.
    So for each distinct C and each vertex set U that _spans_through
    yields, the rest is placed by _Search.place with U banned, which
    brings the pigeonhole and room prunes of a whole-host search; the rest
    may lie anywhere in the host, so it starts from the edges listed.
    also is for one component only (q and also may lie in different
    components of a union) and raises BadParameters with a union.
    """
    comps = pattern.components
    if len(comps) == 1:
        return next(_through(sets, incidence, q, comps[0], also), None) is not None
    if also is not None:
        raise BadParameters(f"a second anchor needs a one-component pattern, not {pattern}")
    search = _Search(pattern, len(incidence), sets, incidence,
                     range(len(sets)) if edges is None else edges)
    for i, comp in enumerate(comps):
        if i and comps[i - 1] == comp:
            continue  # each distinct type once
        rest = comps[:i] + comps[i + 1:]
        tried: set[frozenset[int]] = set()  # a path comes once per direction
        for used in _spans_through(sets, incidence, q, comp):
            if used not in tried:
                tried.add(used)
                if next(search.place(rest, 0, used, []), None) is not None:
                    return True
    return False


def _spans_through(sets, incidence, q, comp: PatternComponent) -> Iterator[frozenset[int]]:
    """The vertex set of each occurrence of one component through q, as
    _through yields them: a walk carries its own, a star or single edge is
    q and the edges it lists."""
    occurrences = _through(sets, incidence, q, comp)
    if comp.kind == "star" or comp.length == 1:
        eq = sets[q]
        return (eq.union(*(sets[p] for p in pick)) for pick in occurrences)
    return (walk[-1] for walk in occurrences)


def _through(sets, incidence, q, comp: PatternComponent, also=None) -> Iterator:
    """The occurrences of one component that use edge q, and edge also as
    well when it is given (an occurrence may repeat).  Paths and cycles
    are the walks of _walks, (chain, conns, back, used), read as they
    come; a star or a single edge is the list of its edges besides q and
    also, and stars are searched by _star_leaves.  Only _spans_through
    builds vertex sets, for the union search that reads them.
    Each rule below only drops branches that hold no occurrence through
    both anchors.

    - One edge: q alone is an occurrence, and no single edge holds two.
    - Shared pair: two edges of a loose path, cycle or star share at most
      one vertex, so when q and also share two or more, no occurrence
      holds both (only a general host has such a pair).
    - Stars: a star through q has its centre c in q and ell edges at c:
      the star rule searches each c in q of degree ell or more, and on a
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
    eq = sets[q]
    ell = comp.length
    if ell == 1:
        return iter([[]] if also is None else [])
    if also is None:
        centres, used = eq, eq
    else:
        eb = sets[also]
        centres, used = eq & eb, eq | eb
        if len(centres) > 1:
            return iter([])
    if comp.kind == "star":
        picks = ell - 1 if also is None else ell - 2
        return (
            pick
            for c in centres
            if len(incidence[c]) >= ell
            for pick in _star_leaves(sets, incidence[c], used, picks)
        )
    closed = comp.kind == "cycle"
    if also is not None and centres:
        return _walks(sets, incidence, [also, q], list(centres), eq - centres, used, ell - 2,
                      eb - centres, closed, ell - 2)
    return _walks(sets, incidence, [q], [], eq, eq, ell - 1, None, closed, (ell - 1) // 2, also)
