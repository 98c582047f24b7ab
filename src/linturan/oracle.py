"""Exhaustive computation of extremal edge counts on small hosts.

max_edges finds, by branch and bound over lexicographically ordered edge
sets, the maximum number of edges of a pattern-free host on n vertices,
optionally restricted to linear hosts.  It is the ground-truth generator
for everything else in the package: witnesses are re-verified through
detect and is_linear before being returned, never trusted from search
state.

Both max_edges and the enumerators consume the same depth-first walk
(_Searcher.walk); they differ only in the size bar below which a branch is
cut and in the size at which it stops growing.  Budgets turn an over-long
search into an explicit interrupted result (or InterruptedSearch for the
enumerators, which have no partial answer worth returning).  Exploration
is serial, so values never depend on scheduling.

Admissibility is anchored.  The walk grows every host one admitted edge
at a time from the empty host, so when it tries a new edge q, the host
without q is pattern-free.  Any occurrence of the pattern in the host
with q must therefore use q, and the check asks only that: does an
occurrence go through q?  (detect.occurs_through, on edge sets and a
per-vertex incidence that the walk updates in place.)  Its answer equals
a whole-host check without looking at the rest of the host.  Union
patterns still take the whole-host check.  No value rests on the
anchored answer alone: every witness is re-checked by the full detector.
Vertex pairs are int bitmasks, so the linear-host tests allocate nothing.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .bounds import linear_path_upper
from .detect import is_free, occurs_through
from .errors import BadParameters, InterruptedSearch, InvariantViolation
from .hgio import dump_json
from .hypergraph import Hypergraph, is_linear, make_hypergraph
from .patterns import ForbiddenPattern, pattern_expr
from .results import ResultRecord, ResultsStore

__all__ = [
    "SearchBudget",
    "SearchStats",
    "OracleResult",
    "max_edges",
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


@dataclass
class SearchStats:
    """What a search did.  Every count is deterministic.

    admits_calls counts admissibility checks of a candidate edge and
    admits_rejects those that found the pattern; bound_cuts counts nodes
    not expanded because the headroom bound could not reach the bar.
    """

    nodes: int = 0
    elapsed: float = 0.0
    admits_calls: int = 0
    admits_rejects: int = 0
    bound_cuts: int = 0


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
        self.n = n
        self.r = r
        self.pattern = pattern
        self.host = host
        self.budget = budget
        self.cands: list[tuple[int, ...]] = list(
            itertools.combinations(range(n), r)
        )
        self.sets: list[frozenset[int]] = [frozenset(e) for e in self.cands]
        # bit a*n+b stands for the pair {a, b}, a < b; a general host
        # shares pairs freely, so its masks are empty and never conflict
        self.pair_masks: list[int] = [
            sum(1 << (a * n + b) for a, b in itertools.combinations(e, 2))
            if host == "linear"
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
        self.pairs_per_edge = r * (r - 1) // 2
        self.total_pairs = n * (n - 1) // 2
        self.stats = SearchStats()
        self.start = time.monotonic()

    def tick(self) -> None:
        self.stats.nodes += 1
        b = self.budget
        if b.node_limit is not None and self.stats.nodes > b.node_limit:
            raise _Stop()
        if b.time_limit is not None and self.stats.nodes % 256 == 0:
            if time.monotonic() - self.start > b.time_limit:
                raise _Stop()

    def finish(self) -> None:
        self.stats.elapsed = time.monotonic() - self.start

    def graph(self, chosen: Sequence[int]) -> Hypergraph:
        return make_hypergraph(self.n, [self.cands[i] for i in chosen], self.r)

    def admits(self, chosen: list[int]) -> bool:
        """True when the host of the chosen edges is pattern-free.

        Sound only for walk's hosts: chosen[:-1] was admitted before, so it
        is free, and every occurrence in the host must use the newest edge
        q = chosen[-1].  Asking whether one goes through q (incidence
        already lists q) is then exact.  With fewer edges or vertices than
        the pattern needs, no occurrence exists at all.
        """
        p = self.pattern
        if self.min_edges is None or len(chosen) < self.min_edges:
            return True
        if not p.is_single:
            return is_free(self.graph(chosen), p)
        return not occurs_through(self.sets, self.incidence, chosen[-1], p.components[0])

    def headroom(self, last: int, used_pairs: int) -> int:
        """Optimistic count of further edges: later candidates compatible
        with the current config, additionally capped by leftover pair
        capacity when the host is linear."""
        masks = self.pair_masks
        count = 0
        for q in range(last + 1, len(masks)):
            if not masks[q] & used_pairs:
                count += 1
        if self.host == "linear":
            free_pairs = self.total_pairs - used_pairs.bit_count()
            count = min(count, free_pairs // self.pairs_per_edge)
        return count

    def walk(
        self, need: Callable[[], int], stop_at: Optional[int] = None
    ) -> Iterator[list[int]]:
        """Admitted edge lists, depth first in lexicographic order.

        Each node ticks the budget once and is yielded (as the live list;
        copy it to keep it) before its children are explored.  A node is
        not expanded when it has stop_at edges, or when need() exceeds its
        size and even the optimistic headroom cannot reach need() edges.
        need is re-read at every node, so a consumer may raise the bar
        between yields.
        """
        chosen: list[int] = []
        stats = self.stats
        masks = self.pair_masks

        def visit(last: int, used_pairs: int) -> Iterator[list[int]]:
            self.tick()
            yield chosen
            size = len(chosen)
            if size == stop_at:
                return
            bar = need()
            if bar > size and size + self.headroom(last, used_pairs) < bar:
                stats.bound_cuts += 1
                return
            for q in range(last + 1, len(masks)):
                if masks[q] & used_pairs:
                    continue
                chosen.append(q)
                for edges in self.slots[q]:
                    edges.append(q)
                stats.admits_calls += 1
                if self.admits(chosen):
                    yield from visit(q, used_pairs | masks[q])
                else:
                    stats.admits_rejects += 1
                for edges in self.slots[q]:
                    edges.pop()
                chosen.pop()

        return visit(-1, 0)


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

    best_value = -1
    best_edges: tuple[int, ...] = ()
    interrupted = False
    try:
        for chosen in s.walk(lambda: best_value + 1):
            if len(chosen) > best_value:
                best_value = len(chosen)
                best_edges = tuple(chosen)
    except _Stop:
        interrupted = True
    s.finish()

    witness = s.graph(best_edges)
    _verify_witness(witness, pattern, host, best_value)
    if (
        not interrupted
        and host == "linear"
        and pattern is not None
        and pattern.is_single
        and pattern.components[0].kind == "path"
        and pattern.components[0].length >= 2
        and r >= 3
    ):
        # these path caps hold for every n, so the exact value may never
        # exceed them; a violation is a searcher bug
        cap = linear_path_upper(r, pattern.components[0].length, n)
        if best_value > cap.value:
            raise InvariantViolation(
                f"search value {best_value} exceeds the proven cap {cap.value}"
            )
    return OracleResult(
        value=best_value,
        witness=witness,
        status="interrupted" if interrupted else "exact",
        stats=s.stats,
    )


def _verify_witness(
    witness: Hypergraph, pattern: Optional[ForbiddenPattern], host: str, value: int
) -> None:
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
    A row whose stored record is only interrupted is searched again from
    scratch.
    """
    out: list[OracleResult] = []
    for n, r, pattern in rows:
        expr = pattern_expr(pattern) if pattern is not None else None
        if store is not None:
            rec = store.best(n, r, expr, host)
            if rec is not None and rec.status == "exact":
                witness = rec.witness_graph()
                _verify_witness(witness, pattern, host, rec.value)
                out.append(
                    OracleResult(
                        value=rec.value,
                        witness=witness,
                        status="exact",
                        stats=SearchStats(nodes=rec.nodes, elapsed=rec.elapsed),
                    )
                )
                continue
        result = max_edges(n, r, pattern, host, budget)
        if store is not None:
            store.add(
                ResultRecord(
                    n=n,
                    r=r,
                    pattern=expr,
                    host=host,
                    value=result.value,
                    status=result.status,
                    witness=json.loads(dump_json(result.witness)),
                    nodes=result.stats.nodes,
                    elapsed=result.stats.elapsed,
                )
            )
        out.append(result)
    return out
