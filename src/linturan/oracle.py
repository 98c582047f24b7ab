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
only max_edges takes.  max_edges reads one stream of ever better hosts,
_Searcher.hosts, from one proof per host kind.  A general host is proved
by the plain walk under the root rule.  A linear host, and every
2-uniform host is one, is proved by the max-degree split alone: one walk
per degree D, rooted at the star of D edges at vertex 0 under the degree
cap D and raising its bar as it finds better hosts, shows that no host
has one edge more, and the host at which the bar last rose is the
lex-least witness; hosts' docstring argues both.  Budgets turn an
over-long search into an explicit interrupted result (or
InterruptedSearch for the enumerators, which have no partial answer
worth returning).
Exploration is serial, so values never depend on scheduling.

The walk is forward-checked.  Each node tests every later candidate edge
once and keeps the ones it admits in a live list; its children draw
their candidates only from that list, since a host that contains the
pattern keeps containing it as edges are added.  Three prunes ride on
this, each argued in walk's or gain's docstring: the live list bounds
how many edges a subtree can still gain (vertex by vertex on a linear
host, under a degree cap), a walk ends once its bar passes the most
edges its degree cap allows, and the root rule skips relabelled copies:
max_edges fixes the first edge to s_0 = {0, ..., r-1} and, on a general
host, the second up to the relabellings that fix s_0, one per overlap
with s_0; a split walk fixes its first edge after the star up to the
star's symmetries.
Searches whose candidate edges would list more than DEFAULT_PRODUCT_CAP
vertices are refused before anything is built.

Admissibility is anchored.  The walk grows every host one admitted edge
at a time from the empty host, so when it tries a new edge q, the host
without q is pattern-free.  Any occurrence of the pattern in the host
with q must therefore use q, and the check asks only that: does an
occurrence go through q?  (detect.occurs_through, on the candidates'
edge table, built once per search, and a per-vertex incidence that the
walk updates in place.)  Its answer equals
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
from .detect import edge_table, is_free, occurs_through
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
        # a bool is an int to isinstance, but no limit
        if self.node_limit is not None:
            if type(self.node_limit) is not int:
                raise BadParameters(f"node limit must be an int, got {self.node_limit!r}")
            if self.node_limit <= 0:
                raise BadParameters(f"node limit must be positive, got {self.node_limit}")
        if self.time_limit is not None:
            if type(self.time_limit) not in (int, float):
                raise BadParameters(
                    f"time limit must be an int or a float, got {self.time_limit!r}"
                )
            if not self.time_limit > 0:  # NaN too
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
        if type(n) is not int or type(r) is not int:
            raise BadParameters(f"n and r must be ints, got n={n!r}, r={r!r}")
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
        self.table = edge_table(n, self.cands)
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

    def admits(self, chosen: list[int], q: int, also: Optional[int] = None) -> bool:
        """True when the host of chosen plus q is pattern-free: the one
        trial of a candidate edge, counted in admits_calls and, when it
        fails, admits_rejects.  chosen and incidence are left as found.

        Sound only for walk's hosts: chosen was admitted before, so it is
        free, and every occurrence in the host with q must use q.  Asking
        whether one goes through q, with q pushed onto chosen and the
        incidence, is then exact.  also, when given, is an edge of chosen
        whose removal leaves a free host: chosen plus q minus also is free
        too, so every occurrence uses also as well, and the question
        becomes whether one goes through both.  The caller must know that
        (live does); it is not derived here, since a host grown in another
        order need not have it.  Callers skip the trial while the host
        plus q has fewer edges or vertices than the pattern needs, as no
        occurrence exists at all.
        """
        stats, incidence, verts = self.stats, self.incidence, self.cands[q]
        chosen.append(q)
        for v in verts:
            incidence[v].append(q)
        stats.admits_calls += 1
        free = not occurs_through(self.table, incidence, q, self.pattern, also=also, edges=chosen)
        if not free:
            stats.admits_rejects += 1
        for v in verts:
            incidence[v].pop()
        chosen.pop()
        return free

    def live(
        self,
        chosen: list[int],
        tail: Sequence[int],
        used_pairs: int,
        orbit: Optional[Callable[[int], int]] = None,
        root: int = 0,
    ) -> tuple[list[int], Sequence[int]]:
        """The candidates of tail that extend the host of chosen, the ones
        whose pairs are unused and that admits() accepts, in tail's order;
        and the indices in that list of the children walk expands.

        Each is tested once here, with incidence listing chosen.  When the
        host plus one edge is still too small for the pattern, admits could
        only say True, so it does not run.

        orbit, the root rule's key at this node's depth (see walk), keys
        the candidates so that two with one key lie in one orbit of the
        stabiliser of the host of chosen and of the walk's side conditions.
        Such a relabelling takes the host plus one of them to the host plus
        the other, and freeness does not depend on labels, so the first
        candidate of each key that fits is tested and its verdict serves
        the rest of its key; only that first one is expanded.  Without
        orbit every child is.

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
        admits = self.admits
        check = self.min_edges is not None and len(chosen) + 1 >= self.min_edges
        also = chosen[-1] if check and len(chosen) > root and self.pattern.is_single else None
        if orbit is None:
            children = [q for q in fits if admits(chosen, q, also)] if check else fits
            return children, range(len(children))
        verdicts: dict[int, bool] = {}
        children, taken = [], []
        for q in fits:
            key = orbit(q)
            if key not in verdicts:
                verdicts[key] = not check or admits(chosen, q, also)
                if verdicts[key]:
                    taken.append(len(children))
            if verdicts[key]:
                children.append(q)
        return children, taken

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
        floor((n-1)/(r-1)) edges.  Each edge is tried by admits on the star
        before it, which is free, so the first anchor is exact; a star that
        holds the pattern stays non-free with more edges.  As in live, no
        trial runs while the star plus one edge is smaller than the pattern,
        nor at all with min_edges None.
        """
        r, cands, incidence, least = self.r, self.cands, self.incidence, self.min_edges
        star: list[int] = []
        for edges in incidence:
            edges.clear()
        for j in range(self.degree_cap):
            q = cands.index((0, *range(1 + (r - 1) * j, 1 + (r - 1) * (j + 1))))
            if least is not None and len(star) + 1 >= least and not self.admits(star, q):
                break
            star.append(q)
            for v in cands[q]:
                incidence[v].append(q)
        return star

    def walk(
        self,
        need: Callable[[], int],
        stop_at: Optional[int] = None,
        orbits: Sequence[Callable[[int], int]] = (),
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

        A node's reach is size + gain(L), the most edges a host in its
        subtree can have, if it was expanded below the bar, else
        size + |L|.  It is cut (not expanded) when its reach is below
        need(), and child i is entered only while its reach and
        size + |L| - i (the child's edges come from L[i+1:]) are both at
        least need(), re-read as the bar rises.  A cut subtree holds no
        host of need() edges, and a node with stop_at edges is not
        expanded either.  The walk ends once need() exceeds the most
        edges of a host it can reach: C(n, r), or on a linear host
        floor(n * cap / r), as its degrees, each at most cap, sum to r
        times its size (Schoenheim; Johnson); the bar never falls.

        orbits, the root rule, holds one key per depth below root: orbits[j]
        keys the candidates of every node j edges below root that the walk
        expands, so that two with one key lie in one orbit of the
        stabiliser of that node's host and the cap.  live takes one verdict
        per key and expands only the first child of each; each still draws
        from all of L[i+1:], so a skipped child stays available as a later
        edge.  Deeper nodes take no key.  hosts argues the rule for the
        split's root, the host of root's edges (its candidates are every
        edge), and for the plain walk's two levels:
        - The plain walk's root is the empty host, and its key,
          _one_orbit, keeps the hosts whose first edge is candidate 0,
          s_0 = {0, ..., r-1}: all one-edge hosts are isomorphic, so the
          root admits every candidate or none.  A vertex relabelling
          keeps a host free and linear, and every nonempty host relabels
          to one that holds s_0, so every size is still reached; a
          sorted edge list that starts with s_0 is lex-smaller than any
          that does not, so the lex-least host of each size is among
          them too.
        - Its one expanded child is the host {s_0}, whose candidates the
          second key, petals(1), sorts by their overlap k = |q & s_0|
          with it (hosts).
        Only max_edges may use the rule: counting labelled hosts needs the
        whole tree.  The empty root is still a node, so a pattern that
        forbids every edge gives 0.  The walk starts by resetting the
        incidence, so a walk left unfinished does not disturb the next.
        """
        stats, masks, cands = self.stats, self.pair_masks, self.cands
        incidence, through = self.incidence, self.through
        if cap is None:
            cap = self.degree_cap
        edge_cap = self.n * cap // self.r if through else len(cands)
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
        # taken, next of those, pairs used, reach]
        stack: list[list] = []
        while True:
            self.tick()
            yield chosen
            size = len(chosen)
            bar = need()
            if bar > edge_cap:
                return
            children, taken = [], ()
            if size != stop_at:
                depth = size - len(root)
                orbit = orbits[depth] if depth < len(orbits) else None
                children, taken = self.live(chosen, tail, used, orbit, len(root))
            reach = size + (self.gain(children, cap) if bar > size else len(children))
            if reach < bar:
                stats.bound_cuts += 1
                taken = ()
            stack.append([children, taken, 0, used, reach])
            # descend into the next child that can still reach the bar,
            # closing exhausted nodes on the way up
            while True:
                frame = stack[-1]
                children, taken, k, used, reach = frame
                if k < len(taken):
                    i = taken[k]
                    if min(reach, len(chosen) + len(children) - i) >= need():
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

    def petals(self, d: int) -> Callable[[int], int]:
        """The root orbit key of the split walk for D = d: a candidate's
        number of petal vertices, those up to (r-1)d, as a fitting one
        avoids 0 (see hosts).  petals(1) counts the vertices up to r-1,
        which is also a candidate's overlap with s_0 = {0, ..., r-1}, the
        plain walk's key one edge below its root."""
        cands, top = self.cands, (self.r - 1) * d
        return lambda q: bisect_right(cands[q], top)

    def hosts(self) -> Iterator[tuple[int, ...]]:
        """max_edges' search: each free host found that beats the best so
        far, which starts as the empty host, as its edge list; the last is
        the lex-least host of the maximum size.  Every walk of the proof
        ticks one budget and keeps its bar one above the best host so far.

        A general host with r >= 3 has no pair masks to enforce a degree
        cap (through is empty), so its proof is the plain walk under the
        root rule: it proves the value, and the first host it reaches of
        the largest size is the lex-least of that size (walk's root-rule
        argument and the second-edge rule below).  A linear host, and so
        every 2-uniform one, is proved by the max-degree split alone: for
        D from the longest free star s_0, s_1, ... at vertex 0 down, while
        D * n >= r * (|best| + 1), one walk rooted at s_0..s_{D-1} under the
        degree cap D takes every better host it yields; top is the D at
        which best last rose.  D's family is the hosts that hold that star
        and no other edge through 0, with every degree at most D.  A
        pattern that forbids every edge leaves no free star, so no walk
        runs and the value is 0.

        Why the split is sound: take a free linear host with m edges and a
        vertex of maximum degree D.  The degrees sum to rm, so D * n >= rm.
        Its D edges meet pairwise only in that vertex, so a relabelling
        takes it to 0 and its edges to s_0..s_{D-1}, keeping the host free,
        linear, of size m and of maximum degree D: the star is free, and
        the host is in D's family.  By orbit rule (b) and gain's bound, a D
        walk under the rising bar finds the largest host of its family: a
        host of the family with more edges than best lies in an expanded
        root child's subtree, and no cut or stop (walk) removes it while
        the bar is at most its size.  A host with one edge more than the
        value would have been found: its star is free, so its D is at most
        the longest, and D * n >= r * (value + 1), so the loop reaches D.

        Why the host at which best last rose is the lex-least extremal
        host W:
        1. Every extremal host has maximum degree at most top: every D
           above top up to the longest free star was walked to the end with
           a bar at most the value and found no host of that size.
        2. Relabel an extremal host whose maximum degree is top so that its
           star is s_0..s_{top-1}.  Each s_j is the least r-set that meets
           s_0..s_{j-1} in at most one vertex, so W, no greater than that
           host, starts with the same star; it has degree exactly top at 0
           and lies in top's family.
        3. W's least edge outside the star is the first fitting candidate
           of its petal orbit: otherwise a relabelling in G (below) takes
           it to an earlier one, and W to a lex-smaller extremal host.  So
           rule (b) expands W's subtree.
        4. The walk meets hosts in lexicographic order, and no cut removes
           W while the bar is at most the value.  Any host of that size met
           earlier would be a lex-smaller host of the family, so W is where
           best reaches the value.

        The orbit rules at the split's root.  Let F be the hosts of one
        size in D's family, and G the vertex relabellings that fix 0 and
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
        at most r+1 orbits, keyed by k (petals).  At r = 2 each petal is
        one vertex, and k still counts petal vertices.
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
            a host of F whenever F has one.
        The second-edge rule on a general host.  The plain walk's one
        expanded root child is the host {s_0}, s_0 = {0, ..., r-1}, and
        petals(1) keys its candidates by their overlap k = |q & s_0|, at
        most r-1, so that node makes at most r admits calls and expands at
        most r children, the first candidate of each k, c_k =
        {0..k-1} | {r..2r-1-k}.  Let G be Sym(s_0) x Sym(the other n-r
        vertices), the relabellings that fix s_0 as a set.
        - G takes any candidate with overlap k to any other: it maps the k
          shared vertices of one onto those of the other, and its r-k
          outside vertices onto the other's.  G keeps freeness, and s_0
          stays the least edge of every host that holds it.  A general
          host has no degree cap and no pair masks, so nothing else needs
          to be kept, and rule (a) above holds here as well: one verdict
          per k.
        - A host H that holds s_0 and whose second edge e is not the first
          candidate c of its class: some g in G takes e to c < e, and
          g(H) holds s_0 and c, so its second edge is less than e.  This
          can happen only finitely often, so some host of H's size has a
          class head as its second edge; that head's subtree draws from
          every later candidate and holds it.  So every size is reached.
        - The lex-least extremal host W holds s_0 (walk), and its second
          edge heads its class: otherwise the g above takes W to a
          lex-smaller extremal host.  The walk meets hosts in
          lexicographic order, so W is still the first host of its size
          it reaches.

        The split's argument and all these rules use only that freeness
        survives a vertex relabelling and the removal of edges, so they
        hold for every pattern: a union, one wider than n, or none.
        """
        best: tuple[int, ...] = ()

        def need() -> int:
            return len(best) + 1

        if self.linear:
            star = self.grow_star()
            walks = (self.walk(need, root=star[:d], cap=d, orbits=(self.petals(d),))
                     for d in range(len(star), 0, -1) if d * self.n >= self.r * need())
        else:
            walks = [self.walk(need, orbits=(_one_orbit, self.petals(1)))]
        for walk in walks:
            for chosen in walk:
                if len(chosen) > len(best):
                    best = tuple(chosen)
                    yield best


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

    The hosts come from _Searcher.hosts.  A linear host, and so every
    2-uniform one, takes the max-degree split (stats.proof
    "degree-split"), whose first node, if any, is its widest root star;
    a general host with r >= 3 is proved by the plain walk, whose first
    node is the empty host.  A budget cut returns the best host found so
    far, re-verified, as interrupted.
    """
    budget = budget or SearchBudget()
    s = _Searcher(n, r, pattern, host, budget)
    if s.linear:
        s.stats.proof = "degree-split"

    # the empty host, always free and linear, is the first incumbent
    best: tuple[int, ...] = ()
    interrupted = False
    try:
        for best in s.hosts():
            pass  # each host is better than the last
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
    if edge_count is not None:
        if type(edge_count) is not int:
            raise BadParameters(f"edge count must be an int, got {edge_count!r}")
        if edge_count < 0:
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
