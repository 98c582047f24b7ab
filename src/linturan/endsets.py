"""Edge classification around an embedded loose path, and the lemma checks
built on it.

Fix a linear r-uniform host that contains a loose path with ell-1 edges,
written with 1-based vertices v_1..v_{(ell-1)(r-1)+1} (v_j is pattern
vertex j-1 of the embedding).  The frame splits the host's vertices into

  left ends   v_1 .. v_{r-1}
  right ends  v_{(ell-2)(r-1)+2} .. v_{(ell-1)(r-1)+1}
  interior    the remaining (r-1)(ell-3)+1 path vertices
  exterior    everything off the path

For a left end u, A_1(u) collects the edges made of u, exactly one
interior vertex, and r-2 exterior vertices; for k >= 2, A_k(u) collects
the edges through u meeting the rest of the path in exactly k vertices
(path edges included; the first path edge lands in A_{r-1}(u)).  B_k
mirrors this at the right ends.  Edges through an end meeting the path
nowhere else, or only in one non-interior vertex, are in no class; in a
host with no loose path of ell edges the first kind cannot exist and the
second is capped at r-1 per end by linearity, which is the r-1 slack in
the degree check below.

Classification alone forces, in any linear host:

  |A_1(u)| <= (r-1)(ell-3)           per left end
  |A_1 u B_1| <= 2(r-1)^2 (ell-3)    and A_1, B_1 are disjoint
  sum_k k|A_k(u)| <= (r-1)(ell-1)    per end

so classifying the ends raises InvariantViolation if any of them fails,
and if two class edges through one end share a path vertex other than
the end.

The classes of an end u are a function of u, the path's vertex set and
its interior alone: the class of an edge through u is read from its meet
with the path and whether the meet holds an interior vertex.  A loose
path and its reverse have the same vertex set and interior, with left
and right ends swapped, so A_k(u) of one direction is B_k(u) of the
other.  In a loose path consecutive edges meet and no others do, so its
edge set fixes the edge order up to reversal: only the path and its
reverse have that edge set, and it determines the vertex set and the
interior.  verify_frame_sweep therefore classifies the ends of each path
once, keyed by its edge set, for the first of its two directions, and
reuses the classes for the second.

verify_frame additionally runs the checks that are only guaranteed when
the host has no loose path of ell edges (a precondition it verifies):

  (a) no blocked-overlap or disjoint-traversal configuration exists,
  (b) every traversing pair admits the guaranteed uncovered end pairs,
  (c) some end pair (u, w) has |A_1(u)| + |B_1(w)| <= 2(r-2)(ell-3),
  (d) every end degree is at most sum_k |A_k| + r - 1.

A failure of (a)-(d) on a conforming host would be a genuine
counterexample to the underlying claims, so it is reported with concrete
edges rather than raised.  The checks apply for ell >= 4 and r >= 3;
outside that range reports carry status "not-applicable".

verify_frame and verify_frame_sweep share one data path over plain
values of a directed path: _split reads its ends and interior off its
vertex tuple, _classify gives the classes of its ends, and _battery runs
(a)-(d), returning each check's faults and the numbers the details
quote.  _frame_report turns that into a FrameReport: verify_frame does
so for its one embedding, verify_frame_sweep only for an embedding whose
battery found a fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .detect import Embedding, contains, iter_embeddings, verify_embedding
from .errors import (
    BadParameters,
    HostContainsPath,
    HostNotLinear,
    InvariantViolation,
    NotAPathEmbedding,
)
from .hypergraph import Hypergraph, is_linear
from .patterns import linear_path

__all__ = [
    "CheckOutcome",
    "FrameReport",
    "SweepReport",
    "verify_frame",
    "verify_frame_sweep",
]

# classes[u][k]: the host-edge indices of A_k(u) or B_k(u), by end vertex u
_Classes = dict[int, dict[int, frozenset[int]]]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FrameReport:
    status: str  # "pass" | "fail" | "not-applicable"
    ell: int
    r: int
    emb: Embedding
    outcomes: tuple[CheckOutcome, ...]
    min_end_sum: Optional[int] = None  # smallest |A_1(u)|+|B_1(w)| over end pairs

    @property
    def failures(self) -> tuple[CheckOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.passed)


@dataclass(frozen=True)
class SweepReport:
    status: str
    ell: int
    r: int
    embeddings_checked: int
    failures: tuple[FrameReport, ...]

    @property
    def all_pass(self) -> bool:
        return self.status == "pass"


def _split(v: tuple[int, ...], r: int) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int]]:
    """The left ends and right ends (each ascending) and the interior of
    the path whose vertex v_j is v[j]."""
    m = len(v) - r + 1  # v[m:] are the right ends
    return tuple(sorted(v[1:r])), tuple(sorted(v[m:])), frozenset(v[r:m])


def _classify(
    host: Hypergraph, r: int, ell: int, left, right, interior
) -> tuple[_Classes, _Classes]:
    """The classes of the left ends (A) and of the right ends (B), each in
    the order given, and the counting checks: per end (tagged A or B) and
    on A_1 and B_1 together, which are symmetric in the two sides.

    One pass over the edges through each end: an order-r edge whose meet
    with the path is u and k more vertices goes to class k, except that
    k = 1 needs the other vertex interior and k = 0 is no class.  covered
    gathers the meets of the class edges, so it has 1 + sum k|A_k(u)|
    vertices exactly when no path vertex besides u is in two of them.
    """
    edge_sets, incidence = host.edge_sets, host.incidence
    pathv = interior.union(left, right)
    sides: list[_Classes] = []
    for tag, ends in (("A", left), ("B", right)):
        side: _Classes = {}
        for u in ends:
            per_k: list[list[int]] = [[] for _ in range(r)]  # per_k[0] stays empty
            covered = {u}
            weighted = 0
            for idx in incidence[u]:
                es = edge_sets[idx]
                if len(es) != r:
                    continue
                meet = es & pathv
                k = len(meet) - 1
                if k > 1 or (k == 1 and not interior.isdisjoint(meet)):
                    per_k[k].append(idx)
                    covered |= meet
                    weighted += k
            if len(per_k[1]) > (r - 1) * (ell - 3):
                raise InvariantViolation(
                    f"|{tag}_1({u})| = {len(per_k[1])} exceeds (r-1)(ell-3)"
                )
            if weighted > (r - 1) * (ell - 1):
                raise InvariantViolation(
                    f"sum k|{tag}_k({u})| = {weighted} exceeds (r-1)(ell-1)"
                )
            # linearity gives each path vertex to at most one edge through u
            if len(covered) <= weighted:
                wv = min(
                    v for v in pathv - {u}
                    if sum(v in edge_sets[i] for s in per_k for i in s) > 1
                )
                raise InvariantViolation(f"path vertex {wv} in two {tag}-edges through {u}")
            side[u] = {k: frozenset(per_k[k]) for k in range(1, r)}
        sides.append(side)
    a, b = sides
    a1, b1 = ({f for per_k in side.values() for f in per_k[1]} for side in sides)
    if a1 & b1:
        raise InvariantViolation(f"A_1 and B_1 overlap at edges {sorted(a1 & b1)}")
    if len(a1 | b1) > 2 * (r - 1) ** 2 * (ell - 3):
        raise InvariantViolation("|A_1 u B_1| exceeds 2(r-1)^2(ell-3)")
    return a, b


def _pairs(host: Hypergraph, r: int, ell: int, v, a: _Classes, b: _Classes) -> list[tuple]:
    """The traversing pairs of the directed path v with end classes a and
    b, as (f1, f2, i, u, w), ordered by i, u, f1, w, f2."""
    sets = host.edge_sets
    out: list[tuple] = []
    for i in range(2, ell - 1):
        hi, lo = v[i * (r - 1) + 1], v[i * (r - 1)]
        f1s = [(u, f) for u, per_k in a.items() for f in sorted(per_k[1]) if hi in sets[f]]
        if f1s:
            f2s = [(w, f) for w, per_k in b.items() for f in sorted(per_k[1]) if lo in sets[f]]
            out += [(f1, f2, i, u, w) for u, f1 in f1s for w, f2 in f2s]
    return out


def _blocked_overlaps(host: Hypergraph, r: int, ell: int, v, a: _Classes, b: _Classes) -> list:
    """(j, v_j, least A_1 edge, least B_1 edge through v_j) for each blocked
    vertex v_j, one of path edges 2..ell-2 other than their joints, that
    lies in both an A_1 and a B_1 edge."""
    sets = host.edge_sets
    bad = []
    for i in range(2, ell - 1):
        for j in range((i - 1) * (r - 1) + 2, i * (r - 1) + 1):
            vj = v[j]
            in_a = [f for per_k in a.values() for f in per_k[1] if vj in sets[f]]
            in_b = [f for per_k in b.values() for f in per_k[1] if vj in sets[f]] if in_a else ()
            if in_b:
                bad.append((j, vj, min(in_a), min(in_b)))
    return bad


def _disjoint_pairs(host: Hypergraph, pairs: list[tuple]) -> list:
    """(f1, f2, i) for each traversing pair whose edges are disjoint."""
    sets = host.edge_sets
    return [(f1, f2, i) for f1, f2, i, _, _ in pairs if not sets[f1] & sets[f2]]


def _uncovered_ends(host: Hypergraph, r: int, v, a: _Classes, b: _Classes, pairs) -> list:
    """(i, reason) for each way a traversing pair at i leaves no free end.

    A class-1 edge through an end x meets the path in x and one interior
    vertex, so it holds no other end: {x, y} lies in some A_1 edge exactly
    when it lies in one of A_1(x), and likewise for B_1.
    """
    sets = host.edge_sets

    def apart(side: _Classes, x: int, y: int) -> bool:
        return all(y not in sets[f] for f in side[x][1])

    bad = []
    for _, _, i, u, w in pairs:
        hi, lo = v[i * (r - 1) + 1], v[i * (r - 1)]
        if not any(x != u and apart(a, x, hi) for x in a):
            bad.append((i, "every other left end pairs with v_(i(r-1)+1) in A_1"))
        if not any(x != w and apart(b, x, lo) for x in b):
            bad.append((i, "every other right end pairs with v_(i(r-1)) in B_1"))
        lows = v[(i - 1) * (r - 1) + 2:(i - 1) * (r - 1) + r - 1]
        if r >= 4 and not any(all(apart(b, x, y) for y in lows) for x in b):
            bad.append((i, "no right end avoids all early blocked vertices in B_1"))
    return bad


def _end_degrees(host: Hypergraph, r: int, a: _Classes, b: _Classes) -> list:
    """(u, degree, tag, cap) for each end whose degree in the order-r edges
    exceeds cap, its class count plus r-1."""
    incidence, uniform = host.incidence, host.r == r
    bad = []
    for tag, side in (("A", a), ("B", b)):
        for u, per_k in side.items():
            inc = incidence[u]
            deg = len(inc) if uniform else sum(len(host.edge_sets[i]) == r for i in inc)
            cap = sum(map(len, per_k.values())) + r - 1
            if deg > cap:
                bad.append((u, deg, tag, cap))
    return bad


# name, fault detail and passing detail of each check, in report order;
# a fault fills the first, the numbers _battery quotes the second
_CHECKS = (
    ("no-shared-blocked-vertex", "v_{}={} lies in A_1 edge {} and B_1 edge {}",
     "no vertex of the blocked ranges meets both A_1 and B_1"),
    ("no-disjoint-traversing-pair", "edges {} and {} traverse at i={} but are disjoint",
     "{} traversing pair(s), all intersecting"),
    ("traversal-leaves-free-ends", "pair at i={}: {}", "checked {} traversing pair(s)"),
    ("small-end-pair", "min |A_1(u)|+|B_1(w)| = {}, bound {}",
     "min |A_1(u)|+|B_1(w)| = {}, bound {}"),
    ("end-degree-bound", "end {}: degree {} > sum|{}_k| + r-1 = {}",
     "every end degree within its class budget"),
)


def _battery(host: Hypergraph, r: int, ell: int, v, a: _Classes, b: _Classes):
    """Checks (a)-(d) on the directed path whose vertex v_j is v[j], with
    left-end classes a and right-end classes b: each check's faults (an
    empty list when it passes) and the numbers its passing detail quotes
    (see _CHECKS): the traversing pair count, and the least
    |A_1(u)|+|B_1(w)| with its bound."""
    pairs = _pairs(host, r, ell, v, a, b)
    # the pair sum is separable: its minimum pairs the two smallest classes
    best = min([len(per_k[1]) for per_k in a.values()]) + min(
        [len(per_k[1]) for per_k in b.values()]
    )
    bound = 2 * (r - 2) * (ell - 3)
    faults = (
        _blocked_overlaps(host, r, ell, v, a, b),
        _disjoint_pairs(host, pairs),
        _uncovered_ends(host, r, v, a, b, pairs),
        [(best, bound)] if best > bound else [],
        _end_degrees(host, r, a, b),
    )
    return faults, ((), (len(pairs),), (len(pairs),), (best, bound), ())


def _frame_report(emb: Embedding, ell: int, r: int, faults, quoted) -> FrameReport:
    """The FrameReport of one battery result (see _battery)."""
    outcomes = tuple(
        CheckOutcome(
            name, not bad, "; ".join(fail.format(*f) for f in bad) if bad else ok.format(*args)
        )
        for (name, fail, ok), bad, args in zip(_CHECKS, faults, quoted)
    )
    best = quoted[3][0]  # small-end-pair's sum
    return FrameReport("fail" if any(faults) else "pass", ell, r, emb, outcomes, best)


def _require_linear(host: Hypergraph, ell: int, what: str) -> None:
    """What frames and sweeps both need: ell >= 3 and a linear host."""
    if ell < 3:
        raise BadParameters(f"{what} need ell >= 3, got {ell}")
    if not is_linear(host):
        raise HostNotLinear(f"{what} are defined over linear hosts")


def _require_path_free(host: Hypergraph, ell: int, r: int) -> None:
    witness = contains(host, linear_path(ell, r))
    if witness is not None:
        raise HostContainsPath(
            f"host contains a loose path with {ell} edges", witness=witness
        )


def verify_frame(host: Hypergraph, emb: Embedding, ell: int) -> FrameReport:
    """Run the full check battery for one embedding of the loose path
    with ell-1 edges in a linear host.

    Raises BadParameters, HostNotLinear, NotAPathEmbedding and
    HostContainsPath, checked in that order; the last when the host is
    not free of the length-ell loose path (the regime in which the
    checks are guaranteed).
    """
    _require_linear(host, ell, "frames")
    if emb.pattern.single("path") != ell - 1:
        raise NotAPathEmbedding(
            f"expected an embedding of a loose path with {ell - 1} edges, got {emb.pattern}"
        )
    if not verify_embedding(host, emb):
        raise NotAPathEmbedding("embedding does not verify against the host")
    r = emb.pattern.r
    _require_path_free(host, ell, r)
    if ell < 4 or r < 3:
        return FrameReport("not-applicable", ell, r, emb, ())
    v = (-1,) + emb.vertex_map
    a, b = _classify(host, r, ell, *_split(v, r))
    return _frame_report(emb, ell, r, *_battery(host, r, ell, v, a, b))


def verify_frame_sweep(host: Hypergraph, ell: int, r: int) -> SweepReport:
    """verify_frame over every directed embedding of the (ell-1)-edge path;
    the two directions of a path share one classification of its ends,
    and only an embedding that fails gets a FrameReport."""
    _require_linear(host, ell, "sweeps")
    _require_path_free(host, ell, r)
    checked = 0
    failures: list[FrameReport] = []
    applicable = ell >= 4 and r >= 3
    # the classes of the paths met in one direction so far, keyed by edge
    # set (see the module docstring); the reverse takes them, sides swapped
    pending: dict[frozenset[int], tuple[_Classes, _Classes]] = {}
    for emb in iter_embeddings(host, linear_path(ell - 1, r)):
        checked += 1
        if not applicable:
            continue
        v = (-1,) + emb.vertex_map
        key = frozenset(emb.edge_map)
        sides = pending.pop(key, None)
        if sides is None:
            a, b = pending[key] = _classify(host, r, ell, *_split(v, r))
        else:
            b, a = sides
        faults, quoted = _battery(host, r, ell, v, a, b)
        if any(faults):
            failures.append(_frame_report(emb, ell, r, faults, quoted))
    if not applicable:
        status = "not-applicable"
    else:
        status = "fail" if failures else "pass"
    return SweepReport(status, ell, r, checked, tuple(failures))
