"""Exhaustive computation of extremal edge counts on small hosts.

max_edges finds, by branch and bound over lexicographically ordered edge
sets, the maximum number of edges of a pattern-free host on n vertices,
optionally restricted to linear hosts.  It is the ground-truth generator
for everything else in the package: witnesses are re-verified through
detect and is_linear before being returned, never trusted from search
state.

Both max_edges and the enumerators consume the same depth-first walk
(_Searcher.walk); they differ in the size bar below which a branch is
cut, in the size at which it stops growing, and in the root rule, which
only max_edges takes.  On a linear host, and every 2-uniform host is
one, max_edges proves its value by the max-degree split (split_hosts):
walks rooted at a fixed star at vertex 0 under a degree cap show that no
host has one edge more, and a last walk recovers the lex-least witness;
its soundness argument is in split_hosts' docstring.  Budgets turn an
over-long search into an explicit interrupted result (or InterruptedSearch
for the enumerators, which have no partial answer worth returning).
Exploration is serial, so values never depend on scheduling.

The walk is forward-checked.  Each node tests every later candidate edge
once and keeps the ones it admits in a live list; its children draw
their candidates only from that list, since a host that contains the
pattern keeps containing it as edges are added.  Three prunes ride on
this, each argued in walk's or gain's docstring: the live list bounds
how many edges a subtree can still gain (vertex by vertex on a linear
host, under a degree cap), a walk ends once its bar passes the host's
edge cap, and max_edges fixes the first edge to {0, ..., r-1}, and a
split walk its first edge after the star up to the star's symmetries
(the root rule).
Searches whose candidate edges would list more than DEFAULT_PRODUCT_CAP
vertices are refused before anything is built.

Admissibility is anchored.  The walk grows every host one admitted edge
at a time from the empty host, so when it tries a new edge q, the host
without q is pattern-free.  Any occurrence of the pattern in the host
with q must therefore use q, and the check asks only that: does an
occurrence go through q?  (detect.occurs_through, on edge sets and a
per-vertex incidence that the walk updates in place.)  Its answer equals
a whole-host check; for one component it reads only the walks out of q,
and a union places its other components on the walk's own edges.  Below
the root it has a second anchor: the node's own last edge q was admitted
with the same parent host as every candidate q' it tests, so an
occurrence with q' must use q too, and the check asks for one through
both (see live); a union pattern takes only the first anchor.  No value
rests on the anchored answer alone: every witness is re-checked by the
full detector.  A Hypergraph is built only for a witness and for
iter_free's output.
Vertex pairs are int bitmasks, so the linear-host tests allocate nothing.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .bounds import BoundReport, linear_path_upper
from .detect import is_free, occurs_through
from .errors import (
    BadParameters,
    FormatError,
    InterruptedSearch,
    InvariantViolation,
    ProductTooLarge,
)
from .hgio import graph_to_obj
from .hypergraph import DEFAULT_PRODUCT_CAP, Hypergraph, is_linear, make_hypergraph
from .patterns import ForbiddenPattern, pattern_expr
from .results import ResultRecord, ResultsStore, SearchStats

__all__ = [
    "SearchBudget",
    "SearchStats",
    "OracleResult",
    "max_edges",
    "path_cap",
    "iter_free",
    "ex_table",
]

HOSTS = ("linear", "general")


@dataclass(frozen=True)
class SearchBudget:
    node_limit: Optional[int] = None
    time_limit: Optional[float] = None  # seconds

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit <= 0:
            raise BadParameters(f"node limit must be positive, got {self.node_limit}")
        if self.time_limit is not None and not self.time_limit > 0:  # NaN too
            raise BadParameters(f"time limit must be positive, got {self.time_limit}")


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: Hypergraph
    status: str  # "exact" | "interrupted"
    stats: SearchStats

    @property
    def exact(self) -> bool:
        return self.status == "exact"


class _Stop(Exception):
    """Internal unwind when a budget limit is reached."""


def _one_orbit(q: int) -> int:
    """walk's root rule on the empty root: one orbit, since all one-edge
    hosts are isomorphic."""
    return 0


def _check_search_size(n: int, r: int) -> None:
    """Refuse a search whose candidate edges would list more than
    DEFAULT_PRODUCT_CAP vertices in all, before anything is allocated.

    C(n, r) is built up one factor at a time, C(n, 1), C(n, 2), ..., up to
    C(n, min(r, n - r)); that run increases, so it stops at the first value
    past the cap instead of computing a huge binomial.
    """
    count = 1
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count * r > DEFAULT_PRODUCT_CAP:
            break
    if count * r > DEFAULT_PRODUCT_CAP:
        raise ProductTooLarge(
            f"search on n={n}, r={r} would have C({n}, {r}) candidate edges, "
            f"more than {DEFAULT_PRODUCT_CAP} vertices in all (cap {DEFAULT_PRODUCT_CAP})"
        )


class _Searcher:
    def __init__(
        self,
        n: int,
        r: int,
        pattern: Optional[ForbiddenPattern],
        host: str,
        budget: SearchBudget,
    ):
        if r < 2:
            raise BadParameters(f"edge order must be at least 2, got {r}")
        if n < r:
            raise BadParameters(f"need n >= r, got n={n}, r={r}")
        if host not in HOSTS:
            raise BadParameters(f"host must be one of {HOSTS}, got {host!r}")
        if pattern is not None and pattern.r != r:
            raise BadParameters(
                f"pattern is {pattern.r}-uniform but the host order is {r}"
            )
        _check_search_size(n, r)
        self.n = n
        self.r = r
        self.pattern = pattern
        self.budget = budget
        self.cands: list[tuple[int, ...]] = list(
            itertools.combinations(range(n), r)
        )
        self.sets: list[frozenset[int]] = [frozenset(e) for e in self.cands]
        # bit a*n+b stands for the pair {a, b}, a < b, and through[v] holds
        # every pair {v, x}.  A general host's masks stay empty; two 2-edges
        # never share a pair, so every 2-uniform host is linear.
        self.linear = host == "linear" or r == 2
        self.pair_masks: list[int] = [0] * len(self.cands)
        self.through: list[int] = []
        if self.linear:
            self.through = [0] * n
            for a, b in itertools.combinations(range(n), 2):
                bit = 1 << (a * n + b)
                self.through[a] |= bit
                self.through[b] |= bit
            self.pair_masks = [
                sum(1 << (a * n + b) for a, b in itertools.combinations(e, 2))
                for e in self.cands
            ]
        # incidence[v]: the chosen edges through v, kept by walk
        self.incidence: list[list[int]] = [[] for _ in range(n)]
        # a host with fewer edges than the pattern is free; min_edges is
        # None when every host is (no pattern, or one wider than n)
        fits = pattern is not None and pattern.num_vertices <= n
        self.min_edges = pattern.num_edges if fits else None
        self.degree_cap = (n - 1) // (r - 1)
        self.edge_cap = n * self.degree_cap // r if self.linear else len(self.cands)
        self.stats = SearchStats()
        self.start = time.monotonic()

    def tick(self) -> None:
        self.stats.nodes += 1
        b = self.budget
        if b.node_limit is not None and self.stats.nodes > b.node_limit:
            raise _Stop()
        if b.time_limit is not None and time.monotonic() - self.start > b.time_limit:
            raise _Stop()

    def finish(self) -> None:
        self.stats.elapsed = time.monotonic() - self.start

    def graph(self, chosen: Sequence[int]) -> Hypergraph:
        return make_hypergraph(self.n, [self.cands[i] for i in chosen], self.r)

    def admits(self, chosen: list[int], also: Optional[int] = None) -> bool:
        """True when the host of the chosen edges is pattern-free.

        Sound only for walk's hosts: chosen[:-1] was admitted before, so it
        is free, and every occurrence in the host must use the newest edge
        q = chosen[-1].  Asking whether one goes through q (incidence
        already lists q) is then exact.  also, when given, is an edge of
        chosen[:-1] whose removal leaves a free host: chosen minus also is
        free too, so every occurrence uses also as well, and the question
        becomes whether one goes through both.  The caller must know that
        (live does); it is not derived here, since a host grown in another
        order need not have it.  With fewer edges or vertices than the
        pattern needs, no occurrence exists at all.
        """
        return (
            self.min_edges is None
            or len(chosen) < self.min_edges
            or not occurs_through(
                self.sets, self.incidence, chosen[-1], self.pattern, also=also, edges=chosen
            )
        )

    def live(
        self,
        chosen: list[int],
        tail: Sequence[int],
        used_pairs: int,
        orbit: Optional[Callable[[int], int]] = None,
        root: int = 0,
    ) -> list[int]:
        """The candidates of tail that extend the host of chosen: the ones
        whose pairs are unused and that admits() accepts, in tail's order.

        Each is tested once here, with incidence listing chosen.  When the
        host plus one edge is still too small for the pattern, admits could
        only say True, so neither it nor the incidence push runs.

        orbit, given at a walk's root only (see walk), keys the candidates
        so that two with one key lie in one orbit of the stabiliser of the
        host of chosen and of the walk's side conditions.  Such a
        relabelling takes the host plus one of them to the host plus the
        other, and freeness does not depend on labels, so the first
        candidate of each key that fits is tested and its verdict serves
        the rest of its key.

        The second anchor: below the root, which holds root edges, chosen
        is H plus its last edge q, and tail comes from H's live list, so
        H+q' is free for every q' of tail (admitted with H, or too small
        for the pattern), and so is H+q.  Every occurrence in H+q+q' then
        uses both q' and q, and q is passed to admits as also, for a
        one-component pattern only: a union's occurrence may hold q' and q
        in different components.  At the root itself tail was never
        admitted with anything, so its candidates take the first anchor
        only.
        """
        masks = self.pair_masks
        fits = [q for q in tail if not masks[q] & used_pairs]
        if self.min_edges is None or len(chosen) + 1 < self.min_edges:
            return fits
        stats, cands, incidence, admits = self.stats, self.cands, self.incidence, self.admits
        also = chosen[-1] if len(chosen) > root and self.pattern.is_single else None

        def test(q: int) -> bool:
            chosen.append(q)
            for v in cands[q]:
                incidence[v].append(q)
            stats.admits_calls += 1
            free = admits(chosen, also)
            if not free:
                stats.admits_rejects += 1
            for v in cands[q]:
                incidence[v].pop()
            chosen.pop()
            return free

        if orbit is None:
            return [q for q in fits if test(q)]
        firsts: dict[int, int] = {}
        for q in fits:
            firsts.setdefault(orbit(q), q)
        verdicts = {key: test(q) for key, q in firsts.items()}
        return [q for q in fits if verdicts[orbit(q)]]

    def gain(self, children: list[int], cap: int) -> int:
        """Most edges a host in the subtree of a node with live list
        children = L can add under walk's degree cap cap.

        Every added edge comes from L: on a general host the bound is |L|.
        On a linear one it is floor(sum over v of
        min(floor((|N_L(v)|-1)/(r-1)), cap - deg v) / r), with N_L(v) the
        vertices of the edges L_v of L through v, v included, so |N_L(v)|-1
        counts the pairs {v, x} their masks cover (near[v] & through[v]): the
        edges added through v meet only in v, each takes r-1 of those x, they
        lift v's degree to at most cap, and each counts at r vertices.  A
        term |L_v| would be dominated, as L_v covers at most (r-1)|L_v|
        pairs {v, x}; so each term is at most |L_v|, the |L_v| sum to r|L|,
        and the bound is at most |L|.  For fewer than two live edges it is |L|,
        returned at once.  No pair-capacity term is needed: N_L(v) minus v
        lies among the x with {v, x} free, so F free pairs cap the bound at
        floor(F / C(r, 2)).
        """
        if not self.through or len(children) < 2:
            return len(children)
        cands, masks = self.cands, self.pair_masks
        near = [0] * self.n
        for q in children:
            mask = masks[q]
            for v in cands[q]:
                near[v] |= mask
        step = self.r - 1
        total = 0
        for mask, pairs, edges in zip(near, self.through, self.incidence):
            if mask:
                total += min((mask & pairs).bit_count() // step, cap - len(edges))
        return total // self.r

    def grow_star(self) -> list[int]:
        """The longest free star s_0, s_1, ... at vertex 0, s_j = {0} and
        the (r-1) vertices from 1 + (r-1)*j on, with at most
        floor((n-1)/(r-1)) edges.  Each edge is checked by admits with the
        star before it, which is free, so the first anchor is exact; a
        star that holds the pattern stays non-free with more edges.  With
        min_edges None every star is free, and nothing is checked.
        """
        r, stats, cands, incidence = self.r, self.stats, self.cands, self.incidence
        star: list[int] = []
        for edges in incidence:
            edges.clear()
        for j in range(self.degree_cap):
            q = cands.index((0, *range(1 + (r - 1) * j, 1 + (r - 1) * (j + 1))))
            star.append(q)
            for v in cands[q]:
                incidence[v].append(q)
            if self.min_edges is not None and len(star) >= self.min_edges:
                stats.admits_calls += 1
                if not self.admits(star):
                    stats.admits_rejects += 1
                    star.pop()
                    break
        return star

    def walk(
        self,
        need: Callable[[], int],
        stop_at: Optional[int] = None,
        orbit: Optional[Callable[[int], int]] = None,
        root: Sequence[int] = (),
        cap: Optional[int] = None,
    ) -> Iterator[list[int]]:
        """Admitted edge lists, depth first in lexicographic order.

        Each node ticks the budget once and is yielded (as the list of chosen
        edges, which the walk goes on changing; copy it to keep it) before
        its children are explored.  need is re-read before every node and
        child is expanded, so a consumer may raise the bar between yields;
        it never lowers it.  The walk is one loop over an explicit stack of
        open nodes.

        Forward checking: a node's children are its live list L, the
        candidates after its last edge that it admits (see live).  Child
        i, which adds L[i], draws its own candidates only from L[i+1:].
        Sound because containing the pattern is monotone in the edge set:
        a candidate a node rejects stays rejected in its whole subtree.  So
        the tree is the full tree of admitted hosts, and every admissibility
        test runs once per (node, candidate) pair that is still open.

        The degree cap: on a linear host an edge that lifts a vertex v to
        cap edges marks every pair {v, x} (through[v]) used from its node
        down, so no candidate through v fits; degrees only grow down the
        tree, so forward checking holds.  Omitted, cap is
        degree_cap = floor((n-1)/(r-1)), which linearity imposes anyway: a
        vertex's edges meet only in it, each taking r-1 other vertices.

        A node with size < need() is cut (not expanded) when gain(L), the
        most edges a host in its subtree can add, cannot lift it to need(),
        and child i is not entered when |L| - i cannot (its edges come from
        L[i+1:]).  A cut subtree holds no host of need() edges, and a node
        with stop_at edges is not expanded either.  The walk ends once
        need() exceeds edge_cap, the most edges of any host: C(n, r), or on
        a linear host floor(n * degree_cap / r), as its degrees sum to r
        times its size (Schoenheim; Johnson); the bar never falls.

        orbit, the root rule, keys the root's candidates so that two with
        one key lie in one orbit of the stabiliser of the root host and the
        cap.  live takes one verdict per key, and only the first child of
        each key is expanded; each still draws from all of L[i+1:], so a
        skipped child stays available as a later edge.  split_hosts argues
        the rule for the split's root, the host of root's edges (its
        candidates are every edge).  The plain walk's root is the empty
        host, and its one key, _one_orbit, keeps the hosts whose first edge
        is candidate 0, {0, ..., r-1}: all one-edge hosts are isomorphic,
        so the root admits every candidate or none.  A vertex relabelling
        keeps a host free and linear, and every nonempty host relabels to
        one that holds candidate 0, so every size is still reached; a
        sorted edge list that starts with 0 is lex-smaller than any that
        does not, so the lex-least host of each size is among them too.
        Only max_edges may use the rule: counting labelled hosts needs the
        whole tree.  The empty root is still a node, so a pattern that
        forbids every edge gives 0.  The walk starts by resetting the
        incidence, so a walk left unfinished does not disturb the next.
        """
        stats, masks, cands = self.stats, self.pair_masks, self.cands
        incidence, through = self.incidence, self.through
        if cap is None:
            cap = self.degree_cap
        chosen: list[int] = []

        def push(q: int, used: int) -> int:  # the pairs used below q
            chosen.append(q)
            for v in cands[q]:
                incidence[v].append(q)
            used |= masks[q]
            if through:
                for v in cands[q]:
                    if len(incidence[v]) == cap:
                        used |= through[v]
            return used

        for edges in incidence:
            edges.clear()
        used = 0
        for q in root:
            used = push(q, used)
        tail: Sequence[int] = range(len(masks))
        # one frame per open node: [live list, indices of the children
        # taken, next of those, pairs used]
        stack: list[list] = []
        while True:
            self.tick()
            yield chosen
            size = len(chosen)
            bar = need()
            if bar > self.edge_cap:
                return
            children: list[int] = []
            if size != stop_at:
                children = self.live(chosen, tail, used, orbit, len(root))
                if bar > size and size + self.gain(children, cap) < bar:
                    stats.bound_cuts += 1
                    children = []
            if orbit is None:
                taken: Sequence[int] = range(len(children))
            else:
                firsts: dict[int, int] = {}
                for i, q in enumerate(children):
                    firsts.setdefault(orbit(q), i)
                taken = list(firsts.values())
                orbit = None  # the root's children only
            stack.append([children, taken, 0, used])
            # descend into the next child that can still reach the bar,
            # closing exhausted nodes on the way up
            while True:
                frame = stack[-1]
                children, taken, k, used = frame
                if k < len(taken):
                    i = taken[k]
                    if len(chosen) + len(children) - i >= need():
                        break
                    stats.bound_cuts += 1
                stack.pop()
                if not stack:
                    return
                for v in cands[chosen.pop()]:
                    incidence[v].pop()
            frame[2] = k + 1
            tail = children[i + 1:]
            used = push(children[i], used)

    def split_host(self, m: int, star: list[int]) -> Optional[tuple[tuple[int, ...], int]]:
        """A free linear host with m edges and the D whose split walk found
        it, trying D from min(len(star), m) down to ceil(rm/n), or None
        when none exists; star is the longest free star (see split_hosts).
        A walk's root orbit is a candidate's number of petal vertices: a
        fitting one avoids 0, so those are its vertices up to (r-1)D.  Any
        order of D finds a host, and a refutation runs every D; the largest
        first, which split_hosts' witness cap relies on, finds one soonest
        on the rows measured (n=14 P3: 279 nodes, 48 922 smallest first)."""
        cands = self.cands
        for d in range(min(len(star), m), -(-self.r * m // self.n) - 1, -1):
            def orbit(q: int, top: int = (self.r - 1) * d) -> int:
                return bisect_right(cands[q], top)

            for chosen in self.walk(lambda: m, m, orbit, star[:d], d):
                if len(chosen) == m:
                    return tuple(sorted(chosen)), d
        return None

    def split_hosts(self) -> Iterator[tuple[int, ...]]:
        """max_edges by the max-degree split, for a linear host: each
        better free host found, as its edge list, and last the lex-least
        host of the maximum size.  Three phases, each ticking one budget.

        1. Lower bound: the walk's first descent under the root rule, its
           path of first children down to a leaf, with L edges.
        2. Existence: for m = L+1, L+2, ..., search for a free linear host with
           m edges; the value is m-1 for the first m without one.  For each D
           from floor((n-1)/(r-1)) down to ceil(rm/n) (at most the longest free
           star and m), a walk rooted at the star's first D edges under the
           degree cap D searches the hosts that hold the star s_0..s_{D-1} at
           vertex 0 and no other edge through 0, with every degree at most D.
           At its root it tests one candidate per orbit and expands one child
           per orbit (the orbit rules below).
        3. Witness: the walk with the bar and the stop fixed at the value,
           under the root rule and the degree cap D at which phase 2 found
           its last host.  Phase 2 tries D from the largest down, so every
           larger D was refuted at m = value, and (argued below) no free
           host of that size has a degree above D; the walk's first host is
           the lex-least (walk's root-rule argument).  When the value is L,
           phase 1's leaf is that host: the first of its size in the walk.

        Why phase 2 is sound: take a free linear host with m edges and a
        vertex of maximum degree D.  The degrees sum to rm, so D >= rm/n,
        and a vertex meets at most (n-1)/(r-1) edges of a linear host.  Its
        D edges meet pairwise only in that vertex, so a vertex relabelling
        takes it to 0 and its edges to s_0..s_{D-1}; relabelling keeps the
        host free, linear and of size m, and every degree stays at most D.
        That host holds the free star s_0..s_{D-1}, so its D is tried, and
        it is a host of that walk.  Conversely every host a split walk
        finds is a free linear host with m edges.  A host with more than m
        edges has one with m (drop edges), so the first m without one
        bounds every size.

        The orbit rules at the split's root.  Let F be the hosts a split
        walk for D searches, and G the vertex relabellings that fix 0 and
        permute the petals {1 + (r-1)j, ..., (r-1)(j+1)} as blocks, the
        vertices inside each petal, and the n-1-(r-1)D untouched vertices
        above the petals.  G maps the star to itself, so it keeps the used
        pairs, every degree and every condition of F: it maps F onto F.  A
        root candidate that fits avoids 0, whose degree is D already, and
        meets each petal in at most one vertex, since two would be a pair
        of a star edge.  So two fitting candidates with the same number k
        of petal vertices are one orbit of G: a relabelling in G takes the
        k petals of one to those of the other, its petal vertices to the
        other's, and its r-k untouched vertices to the other's.  There are
        at most r+1 orbits, keyed by k (split_host's key).  At r = 2 each
        petal is one vertex, and k still counts petal vertices.
        (a) One admissibility check per orbit: a relabelling in G takes the
            star plus one candidate to the star plus the other, so both are
            free or neither, and the root's live list is the same list.
        (b) One subtree per orbit: take a host H of F, and e its least edge
            outside the star, a root child.  If e is not the first root
            child c of its orbit, then c < e and some g in G takes e to c;
            g(H) is in F and holds c, so its least edge outside the star is
            at most c, less than e.  The least edge can fall only finitely
            often, so some host of F has as its least edge outside the star
            the first child of its orbit, and that child's subtree, which
            draws from every later root child, holds it.  So the walk finds
            a host of F whenever F has one.  Phase 2 needs only that; which
            host it finds may change, and phase 3 recovers the lex-least
            one with the plain walk.
        Phase 2's argument and both rules use only that freeness survives
        a vertex relabelling and the removal of edges, so they hold for
        every pattern: a union, one wider than n, or none.
        """
        best: tuple[int, ...] = ()
        for chosen in self.walk(lambda: len(best) + 1, orbit=_one_orbit):
            if chosen and len(chosen) <= len(best):
                break  # back from the leaf
            best = tuple(chosen)
            yield best
        lower = len(best)
        star = self.grow_star()
        while (found := self.split_host(len(best) + 1, star)) is not None:
            best, cap = found
            yield best
        if len(best) > lower:
            value = len(best)
            for chosen in self.walk(lambda: value, value, orbit=_one_orbit, cap=cap):
                if len(chosen) == value:
                    yield tuple(chosen)
                    break


def path_cap(
    n: int, r: int, pattern: Optional[ForbiddenPattern], host: str
) -> Optional[BoundReport]:
    """linear_path_upper for a linear host, a single loose path of two or
    more edges and r >= 3; None for every other instance.

    The cap holds for every n, so an exact max_edges value may never
    exceed it; a value that does is a searcher bug.
    """
    ell = pattern.single("path") if pattern is not None else None
    if host != "linear" or ell is None or ell < 2 or r < 3:
        return None
    return linear_path_upper(r, ell, n)


def max_edges(
    n: int,
    r: int,
    pattern: Optional[ForbiddenPattern],
    host: str = "linear",
    budget: Optional[SearchBudget] = None,
) -> OracleResult:
    """Exact maximum edge count of a pattern-free host, with witness.

    pattern None means unconstrained (pure packing; only meaningful for
    linear hosts).  The witness is the lexicographically least extremal
    edge set, because the search explores candidates in ascending order
    and only strict improvements replace the incumbent.

    A linear host, and so every 2-uniform one, takes the max-degree split
    (_Searcher.split_hosts, stats.proof "degree-split").  A general host
    with r >= 3 has no pair masks to enforce the split's degree cap
    (through is empty), so its search is the walk alone.  A budget cut
    returns the best host found so far, re-verified, as interrupted.
    """
    budget = budget or SearchBudget()
    s = _Searcher(n, r, pattern, host, budget)
    if s.linear:
        s.stats.proof = "degree-split"

    # the empty host, always free and linear, is the first incumbent
    best: tuple[int, ...] = ()
    interrupted = False
    try:
        if s.linear:
            for best in s.split_hosts():
                pass  # each host is better than the last, or the witness
        else:
            for chosen in s.walk(lambda: len(best) + 1, orbit=_one_orbit):
                if len(chosen) > len(best):
                    best = tuple(chosen)
    except _Stop:
        interrupted = True
    s.finish()

    best_value = len(best)
    witness = s.graph(best)
    _verify_witness(witness, n, r, pattern, host, best_value)
    cap = None if interrupted else path_cap(n, r, pattern, host)
    if cap is not None and best_value > cap.value:
        raise InvariantViolation(f"search value {best_value} exceeds the proven cap {cap.value}")
    return OracleResult(
        value=best_value,
        witness=witness,
        status="interrupted" if interrupted else "exact",
        stats=s.stats,
    )


def _verify_witness(
    witness: Hypergraph,
    n: int,
    r: int,
    pattern: Optional[ForbiddenPattern],
    host: str,
    value: int,
) -> None:
    if witness.n != n or witness.r != r:
        raise InvariantViolation(
            f"witness has {witness.n} vertices and order {witness.r}, not the row's n={n}, r={r}"
        )
    if witness.edge_count != value:
        raise InvariantViolation(
            f"witness has {witness.edge_count} edges, claimed {value}"
        )
    if host == "linear" and not is_linear(witness):
        raise InvariantViolation("witness is not linear")
    if pattern is not None and not is_free(witness, pattern):
        raise InvariantViolation("witness contains the forbidden pattern")


def iter_free(
    n: int,
    r: int,
    pattern: Optional[ForbiddenPattern],
    host: str = "linear",
    edge_count: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> Iterator[Hypergraph]:
    """Every pattern-free host on n labeled vertices, raw (no isomorph
    reduction), in lexicographic edge-set order.

    edge_count restricts to hosts with exactly that many edges; None
    yields every size including the empty host.  Budget overruns raise
    InterruptedSearch: a truncated enumeration has no honest summary.
    """
    budget = budget or SearchBudget()
    s = _Searcher(n, r, pattern, host, budget)
    if edge_count is not None and edge_count < 0:
        raise BadParameters(f"edge count must be nonnegative, got {edge_count}")

    try:
        for chosen in s.walk(lambda: edge_count or 0, edge_count):
            if edge_count is None or len(chosen) == edge_count:
                yield s.graph(chosen)
    except _Stop:
        s.finish()
        raise InterruptedSearch(
            f"enumeration exceeded its budget after {s.stats.nodes} nodes"
        ) from None
    s.finish()


def ex_table(
    rows: Sequence[tuple[int, int, Optional[ForbiddenPattern]]],
    host: str = "linear",
    budget: Optional[SearchBudget] = None,
    store: Optional[ResultsStore] = None,
) -> list[OracleResult]:
    """max_edges over a parameter grid of (n, r, pattern) rows.

    With a store, exact results already on file are reused (their
    witnesses re-verified, not trusted) and fresh results are appended.
    A stored witness that cannot be built or fails re-verification
    raises FormatError: the fault is in the store file.
    A row whose stored record is only interrupted is searched again from
    scratch.
    """
    out: list[OracleResult] = []
    for n, r, pattern in rows:
        expr = pattern_expr(pattern) if pattern is not None else None
        if store is not None:
            rec = store.best(n, r, expr, host)
            if rec is not None and rec.status == "exact":
                try:
                    witness = rec.witness_graph()
                    _verify_witness(witness, n, r, pattern, host, rec.value)
                except (FormatError, InvariantViolation) as exc:
                    raise FormatError(
                        f"{store.path}: stored record n={n}, r={r}, pattern {expr}, "
                        f"host {host}: {exc}"
                    ) from exc
                out.append(OracleResult(rec.value, witness, "exact", rec.stats))
                continue
        result = max_edges(n, r, pattern, host, budget)
        if store is not None:
            witness = graph_to_obj(result.witness)
            store.add(
                ResultRecord(n, r, expr, host, result.value, result.status, witness, result.stats)
            )
        out.append(result)
    return out
