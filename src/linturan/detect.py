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
linear.  Paths and cycles grow by one step rule (_steps), stars by one
star rule (_star_leaves); contains and occurs_through share both.  Union
patterns are embedded component by component with two sound prunes: each
component type must exist individually, and when k components remain,
deleting any k-1 vertices must leave at least one remaining type present
(pigeonhole over vertex-disjoint copies), so if greedily deleting the k-1
busiest vertices kills every remaining type the branch is abandoned.  A
single-component pattern skips that first prune: its search is the
presence check.

occurs_through(sets, incidence, q, component, also=None) is the yes/no
query for callers that keep their own edge state (the search oracle):
does some occurrence of one path, star or cycle use edge q, and edge
also as well when it is given?  The second anchor narrows the search: a
star's centre is the vertex the two share, a path or cycle through two
edges that meet is walked from their 2-edge chain, and one through two
disjoint edges must reach the second in the steps it has left.  It reads
the caller's edge sets and per-vertex incidence as they are, builds
nothing and assembles no Embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import MalformedEmbedding
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
    if len(emb.vertex_map) != ideal.n or len(emb.edge_map) != ideal.edge_count:
        return False
    if len(set(emb.vertex_map)) != ideal.n:
        return False
    if len(set(emb.edge_map)) != ideal.edge_count:
        return False
    for v in emb.vertex_map:
        if not 0 <= v < h.n:
            return False
    for j, host_idx in enumerate(emb.edge_map):
        if not 0 <= host_idx < h.edge_count:
            return False
        image = {emb.vertex_map[p] for p in ideal.edges[j]}
        if image != set(h.edges[host_idx]):
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
    """One containment query; holds the host's order-r view."""

    def __init__(self, h: Hypergraph, pattern: ForbiddenPattern):
        self.h = h
        self.pattern = pattern
        # live positions index only the order-r edges of the host
        self.orig_index: list[int] = [
            i for i, e in enumerate(h.edges) if len(e) == pattern.r
        ]
        self.sets: list[frozenset[int]] = [h.edge_sets[i] for i in self.orig_index]
        self.incidence: dict[int, list[int]] = {}
        for pos, es in enumerate(self.sets):
            for v in es:
                self.incidence.setdefault(v, []).append(pos)

    # -- single-component generators ------------------------------------
    # Each yields (positions in construction order, vertex list in the
    # numbering of the component's block of the realization, used host
    # vertices).  Positions are live positions, not host indices.

    def iter_component(
        self, comp: PatternComponent, banned: frozenset[int]
    ) -> Iterator[tuple[list[int], list[int], frozenset[int]]]:
        if comp.kind == "star" and comp.length > 1:
            yield from self._iter_stars(comp.length, banned)
        else:  # a one-edge star is a one-edge path
            yield from self._iter_chains(comp.length, banned, comp.kind == "cycle")

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

    def _iter_chains(self, ell, banned, closed):
        """Loose paths with ell edges or, when closed, loose cycles.

        The walk grows by _steps.  A cycle is walked as a path of ell-1
        edges from its minimum-index edge, so every later edge has a
        larger position, and is closed by an edge q that meets the walk
        in its entry vertex and in one free vertex of the first edge.
        """
        sets = self.sets
        incidence = self.incidence

        def extend(chain, used, conns):
            if len(chain) == ell:
                yield chain, self._chain_map(chain, conns, None), frozenset(used)
                return
            tail = sets[chain[-1]] - {conns[-1] if conns else None}
            if closed and len(chain) == ell - 1:
                start = sets[chain[0]] - {conns[0]}
                for q, meet in _steps(sets, incidence, tail, used, 2, chain[0], banned):
                    back = meet & start
                    if len(back) != 1:
                        continue
                    (va,) = meet - back
                    (vb,) = back
                    cycle = chain + [q]
                    vmap = self._chain_map(cycle, conns + [va], vb)
                    yield cycle, vmap, frozenset(used | sets[q])
                return
            floor = chain[0] if closed else -1
            for q, meet in _steps(sets, incidence, tail, used, 1, floor, banned):
                (v,) = meet
                yield from extend(chain + [q], used | sets[q], conns + [v])

        for p0 in range(len(sets)):
            e0 = sets[p0]
            if e0 & banned:
                continue
            yield from extend([p0], set(e0), [])

    def _iter_stars(self, ell, banned):
        """Loose stars with ell >= 2 edges, in ascending position order.

        A star's lowest edge p0 holds its centre c, and c lies in ell
        edges, so a p0 none of whose vertices has degree ell is skipped.
        The second edge is a path step from p0, whose single meet is c;
        a c of degree below ell is skipped, and the other edges are
        picked from c's incidence above the second edge.
        """
        sets, incidence = self.sets, self.incidence
        for p0, e0 in enumerate(sets):
            if e0 & banned or all(len(incidence[v]) < ell for v in e0):
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
        for _ in self.iter_component(comp, banned):
            return True
        return False

    def _busiest_vertices(self, banned: frozenset[int], k: int) -> frozenset[int]:
        deg: dict[int, int] = {}
        for es in self.sets:
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

    def iter_all(self) -> Iterator[Embedding]:
        """Every occurrence of the pattern, in canonical search order.

        Copies of identical components are listed once (assigned in order
        of their smallest host-edge index), not once per permutation.
        """
        comps = self.pattern.components
        if self.pattern.num_vertices > self.h.n:
            return
        if self.pattern.num_edges > len(self.sets):
            return
        if not self.pattern.is_single:  # one component: the DFS is the check
            for comp in set(comps):
                if not self.component_present(comp, frozenset()):
                    return

        chosen: list[tuple[list[int], list[int]]] = []

        def dfs(idx: int, banned: frozenset[int]) -> Iterator[Embedding]:
            if idx == len(comps):
                yield self._assemble(chosen)
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
                yield from dfs(idx + 1, banned | used)
                chosen.pop()

        yield from dfs(0, frozenset())

    def _assemble(self, chosen) -> Embedding:
        """Write each component's host edges into the pattern's edge slots;
        the vertex lists, in component order, are the vertex map."""
        edge_map = [0] * self.pattern.num_edges
        for (positions, _), slots in zip(chosen, self.pattern.edge_slots):
            for pos, j in zip(positions, slots):
                edge_map[j] = self.orig_index[pos]
        vertex_map = tuple(v for _, vmap in chosen for v in vmap)
        return _require_valid(self.h, Embedding(self.pattern, tuple(edge_map), vertex_map))


def contains(h: Hypergraph, pattern: ForbiddenPattern) -> Optional[Embedding]:
    """Witness of the pattern inside the host, or None when free."""
    return next(_Search(h, pattern).iter_all(), None)


def iter_embeddings(h: Hypergraph, pattern: ForbiddenPattern) -> Iterator[Embedding]:
    """All occurrences of the pattern in the host.

    Paths and cycles appear once per traversal direction; identical union
    components are not permuted among themselves.
    """
    return _Search(h, pattern).iter_all()


def is_free(h: Hypergraph, pattern: ForbiddenPattern) -> bool:
    """True when the host has no occurrence of the pattern."""
    return contains(h, pattern) is None


def occurs_through(
    sets, incidence, q: int, comp: PatternComponent, also: Optional[int] = None
) -> bool:
    """Yes/no: does some occurrence of the component use edge q, and edge
    `also` as well when it is given?

    The host is given by edge state the caller keeps and updates in
    place: sets[i] is the vertex set of edge i, and incidence[v] lists the
    host edges through vertex v, q and also among them.  Edges of any
    other order must not be listed.  Nothing is built: no Hypergraph, no
    Embedding and no whole-host pass.  Paths and cycles grow outward by
    the same step rule as contains, stars by its star rule.  The answer is
    exact for any two distinct edges; each rule below only drops branches
    that hold no occurrence through both.

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
      them, so the walk starts from the 2-edge chain q, also.
    - Paths and cycles, disjoint anchors: the walk starts at q, and also
      is its goal until a step takes it.  A later edge of a loose walk
      meets the walk so far only in its entry vertex, at the tail, or (a
      path's second arm, a cycle's closing edge) in a vertex of q, which
      the goal misses.  So the goal meets the walk in the newest edge's
      tail or nowhere: had it met an older tail, it would have been the
      forced step there.  A goal that meets the walk is the forced next
      step, one set test instead of a step enumeration, and fits only if
      it meets it in one vertex.  A goal that meets nothing is two steps
      away at least.  A cycle's closing edge holds a vertex of q, so it
      is not the goal and comes after it.  A branch with fewer edges left
      than the goal needs is cut.
    """
    eq = sets[q]
    ell = comp.length
    if ell == 1:
        return also is None
    if also is None:
        centres, used = eq, eq
    else:
        eb = sets[also]
        centres, used = eq & eb, eq | eb
        if len(centres) > 1:
            return False
    if comp.kind == "star":
        picks = ell - 1 if also is None else ell - 2
        for c in centres:
            if len(incidence[c]) >= ell:
                for _ in _star_leaves(sets, incidence[c], used, picks):
                    return True
        return False
    closed = comp.kind == "cycle"

    def walk(tail, used, left, rest, goal):
        # tail: the vertices the next step may enter by; left: edges still
        # to add; rest: the vertices of the walk's other end (a path's
        # second arm starts there, a cycle's closing edge holds one of
        # them), None once the second arm has started; goal: also, while
        # it is off the walk
        if goal is not None:
            # the goal meets the walk in tail or not at all, so it is the
            # next step or two steps off, and a cycle closes after it
            gs = sets[goal]
            meet = gs & used
            if left < (1 if meet else 2) + closed:
                return False
            if meet:
                return len(meet) == 1 and walk(gs - meet, used | gs, left - 1, rest, None)
        if closed and left == 1:
            # meet is the entry vertex plus one more, which must be in rest
            return any(meet & rest for _, meet in _steps(sets, incidence, tail, used, 2))
        if left == 0:
            return True
        # a path's second arm may start once the first is at least as long
        # (both orientations of a path through q are walked), or anywhere
        # when the first edges are the fixed chain q, also
        if not closed and rest is not None and left <= longest_second_arm:
            if walk(rest, used, left, None, goal):
                return True
        for e, meet in _steps(sets, incidence, tail, used, 1):
            es = sets[e]
            if walk(es - meet, used | es, left - 1, rest, goal):
                return True
        return False

    # the walk starts from a 2-edge chain, so ell-2 edges are left
    if also is not None and centres:  # the chain q, also through their vertex
        longest_second_arm = ell - 2
        return walk(eq - centres, used, ell - 2, eb - centres, None)
    # the chain q, e for each first step e: q minus its entry vertex is
    # the other end
    longest_second_arm = (ell - 1) // 2
    return any(
        walk(sets[e] - meet, eq | sets[e], ell - 2, eq - meet, also)
        for e, meet in _steps(sets, incidence, eq, eq, 1)
    )
