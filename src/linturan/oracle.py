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
only max_edges takes.  Budgets turn an over-long search into an explicit
interrupted result (or InterruptedSearch for the enumerators, which have
no partial answer worth returning).  Exploration is serial, so values
never depend on scheduling.

The walk is forward-checked.  Each node tests every later candidate edge
once and keeps the ones it admits in a live list; its children draw
their candidates only from that list, since a host that contains the
pattern keeps containing it as edges are added.  Three prunes ride on
this, each with its soundness argument in walk's docstring: the live
list bounds how many edges a subtree can still gain, linear hosts are
also capped by pair capacity and vertex degrees (Schoenheim/Johnson),
and max_edges fixes the first edge to {0, ..., r-1} (the root rule).
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
    "enumerate_free",
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
        # bit a*n+b stands for the pair {a, b}, a < b.  A general host
        # shares pairs freely, and two distinct 2-edges never share a
        # pair, so their masks are empty and never conflict.
        self.linear = host == "linear"
        self.pair_masks: list[int] = [
            sum(1 << (a * n + b) for a, b in itertools.combinations(e, 2))
            if self.linear and r > 2
            else 0
            for e in self.cands
        ]
        # incidence[v]: the chosen edges through v, kept by walk;
        # slots[q]: the incidence lists of q's vertices
        self.incidence: list[list[int]] = [[] for _ in range(n)]
        self.slots = [[self.incidence[v] for v in e] for e in self.cands]
        # a host with fewer edges than the pattern is free; min_edges is
        # None when every host is (no pattern, or one wider than n)
        fits = pattern is not None and pattern.num_vertices <= n
        self.min_edges = pattern.num_edges if fits else None
        # for room(): pair capacity and the Schoenheim/Johnson edge cap
        self.pairs_per_edge = r * (r - 1) // 2
        self.total_pairs = n * (n - 1) // 2
        self.most_edges = n * ((n - 1) // (r - 1)) // r
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

    def live(self, chosen: list[int], tail: Sequence[int], used_pairs: int) -> list[int]:
        """The candidates of tail that extend the host of chosen: the ones
        whose pairs are unused and that admits() accepts, in tail's order.

        Each is tested once here, with incidence listing chosen.  When the
        host plus one edge is still too small for the pattern, admits could
        only say True, so neither it nor the incidence push runs.

        The second anchor: below the root, chosen is H plus its last edge
        q, and tail comes from H's live list, so H+q' is free for every q'
        of tail (admitted with H, or too small for the pattern), and so is
        H+q.  Every occurrence in H+q+q' then uses both q' and q, and q is
        passed to admits as also, for a one-component pattern only: a
        union's occurrence may hold q' and q in different components.
        """
        masks = self.pair_masks
        fits = [q for q in tail if not masks[q] & used_pairs]
        if self.min_edges is None or len(chosen) + 1 < self.min_edges:
            return fits
        stats, slots, admits = self.stats, self.slots, self.admits
        also = chosen[-1] if chosen and self.pattern.is_single else None
        admitted = []
        for q in fits:
            chosen.append(q)
            for edges in slots[q]:
                edges.append(q)
            stats.admits_calls += 1
            if admits(chosen, also):
                admitted.append(q)
            else:
                stats.admits_rejects += 1
            for edges in slots[q]:
                edges.pop()
            chosen.pop()
        return admitted

    def room(self, size: int, used_pairs: int) -> int:
        """Most edges a host of size edges using used_pairs can gain.

        Pair capacity: every new edge takes pairs_per_edge unused pairs.
        Vertex degree (Schoenheim/Johnson): in a linear host a vertex v of
        degree d meets (r-1)*d of the other n-1 vertices, so it lies in at
        most floor((n-1)/(r-1)) - d more edges, and a new edge counts at r
        vertices.  Summed over v and divided by r, that is most_edges -
        size, with most_edges = floor(n * floor((n-1)/(r-1)) / r): the cap
        needs no pass over the degrees.  A general host has neither cap,
        only the candidates left.
        """
        if not self.linear:
            return len(self.cands) - size
        free_pairs = self.total_pairs - used_pairs.bit_count()
        return min(free_pairs // self.pairs_per_edge, self.most_edges - size)

    def walk(
        self,
        need: Callable[[], int],
        stop_at: Optional[int] = None,
        first_edge_only: bool = False,
    ) -> Iterator[list[int]]:
        """Admitted edge lists, depth first in lexicographic order.

        Each node ticks the budget once and is yielded (as the list of chosen
        edges, which the walk goes on changing; copy it to keep it) before
        its children are explored.  need is re-read before every node and
        child is expanded, so a consumer may raise the bar between yields.
        The walk is one loop over an explicit stack of open nodes.

        Forward checking: a node's children are its live list L, the
        candidates after its last edge that it admits (see live).  Child
        i, which adds L[i], draws its own candidates only from L[i+1:].
        Sound because containing the pattern is monotone in the edge set:
        a candidate a node rejects stays rejected in its whole subtree.  So
        the tree is the full tree of admitted hosts, and every admissibility
        test runs once per (node, candidate) pair that is still open.

        A node with size < need() is cut (not expanded) by three bounds,
        each an upper limit on the edges any host in its subtree can add:
        room() (pair capacity and vertex degrees, for linear hosts), |L|
        (every added edge comes from L), and, for child i, |L| - i (its
        edges come from L[i+1:]).  A cut subtree holds no host of need()
        edges.  A node with stop_at edges is not expanded either.

        first_edge_only, the root rule, keeps only the first child of the
        root: hosts whose first edge is candidate 0, {0, ..., r-1}.  All
        one-edge hosts are isomorphic, so the root admits either every
        candidate or none, and its first child is candidate 0 when it has
        one.  A vertex relabelling keeps a host free and linear, and every
        nonempty host relabels to one that contains candidate 0, so every
        size is still reached; a sorted edge list that starts with 0 is
        lex-smaller than any that does not, so the lex-least host of each
        size is among them too.  Only max_edges may use the rule: counting
        labelled hosts needs the whole tree.  The empty root is still a
        node, so a pattern that forbids every edge gives 0.
        """
        chosen: list[int] = []
        stats, masks, slots = self.stats, self.pair_masks, self.slots
        tail: Sequence[int] = range(len(masks))
        used = 0
        # one frame per open node: [live list, next child, end of the
        # children taken, pairs used]
        stack: list[list] = []
        while True:
            self.tick()
            yield chosen
            size = len(chosen)
            children: list[int] = []
            if size != stop_at:
                bar = need()
                if bar > size and size + self.room(size, used) < bar:
                    stats.bound_cuts += 1
                else:
                    children = self.live(chosen, tail, used)
                    if bar > size and size + len(children) < bar:
                        stats.bound_cuts += 1
                        children = []
            end = min(len(children), 1) if first_edge_only and not size else len(children)
            stack.append([children, 0, end, used])
            # descend into the next child that can still reach the bar,
            # closing exhausted nodes on the way up
            while True:
                frame = stack[-1]
                children, i, end, used = frame
                if i < end:
                    if len(chosen) + len(children) - i >= need():
                        break
                    stats.bound_cuts += 1
                stack.pop()
                if not stack:
                    return
                for edges in slots[chosen.pop()]:
                    edges.pop()
            frame[1] = i + 1
            q = children[i]
            chosen.append(q)
            for edges in slots[q]:
                edges.append(q)
            tail = children[i + 1:]
            used |= masks[q]


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
    """
    budget = budget or SearchBudget()
    s = _Searcher(n, r, pattern, host, budget)

    # the empty host, always free and linear, is the first incumbent
    best_value = 0
    best_edges: tuple[int, ...] = ()
    interrupted = False
    try:
        for chosen in s.walk(lambda: best_value + 1, first_edge_only=True):
            if len(chosen) > best_value:
                best_value = len(chosen)
                best_edges = tuple(chosen)
    except _Stop:
        interrupted = True
    s.finish()

    witness = s.graph(best_edges)
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


def enumerate_free(
    n: int,
    r: int,
    pattern: Optional[ForbiddenPattern],
    host: str = "linear",
    edge_count: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> int:
    """Count of pattern-free hosts; see iter_free for conventions."""
    return sum(1 for _ in iter_free(n, r, pattern, host, edge_count, budget))


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
