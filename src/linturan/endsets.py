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
  sum_k k|A_k(u)| <= (r-1)(ell-1)    per end

so classifying the ends raises InvariantViolation if either fails, and
if two class edges through one end share a path vertex other than the
end.  Two more facts hold in every host and need no check: A_1 and B_1
are disjoint, since an A_1 edge meets the path in its end and one
interior vertex and so holds no right end; hence |A_1 u B_1| is at most
2(r-1) ends times the per-end bound, 2(r-1)^2 (ell-3).

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

Path-freeness from the classes.  An edge through an end that meets the
path in that end alone extends it to a loose path of ell edges, and
every loose path of ell edges arises so: its first ell-1 edges form a
loose path, which its last edge meets in a right end alone.
verify_frame asks the detector whether the host is free.
verify_frame_sweep classifies the ends of every (ell-1)-edge path
anyway, so in the range of the checks it reads freeness off those
classes and asks the detector only for the witness, once an end edge
extends a path: one exhaustive search per host, not two.

Per path and per direction.  The classes of an end u are a function of
u, the path's vertex set and its interior alone: the class of an edge
through u is read from its meet with the path and whether the meet holds
an interior vertex.  A loose path and its reverse have the same vertex
set, interior and blocked vertices (the vertices of path edges 2..ell-2
other than their joints), with left and right ends swapped, so A_k(u) of
one direction is B_k(u) of the other.  In a loose path consecutive edges
meet and no others do, so its edge set fixes the edge order up to
reversal: only the path and its reverse have that edge set, and it
determines the vertex set and the interior.  So _classify runs once per
path, keyed by its edge set, for the first of its two directions, and
with the classes it settles what is symmetric in A and B: whether a
blocked vertex lies in both an A_1 and a B_1 edge (the first half of
(a)), the least |A_1(u)| + |B_1(w)| of (c), and whether an end exceeds
its degree budget (d).  The reverse takes the same _Frame, sides
swapped.  A traversing pair at i joins an A_1 edge through the last
vertex of path edge i, v_{i(r-1)+1}, to a B_1 edge through the one
before it; in the reverse those are the edge's first two vertices, so
the pairs, the disjoint pairs of (a) and (b) are found once per
direction.  A fault's details name positions and sides, so they are
listed for an embedding only when its check fails.

Vertex sets.  The checks read the host's detect.edge_table, built once
per call: int masks, bit v for vertex v, on hosts of at most
detect._MASK_LIMIT vertices, frozensets past it.  An edge's meet with the
path is one & and its size a popcount (len on frozensets), "x lies in
edge f" is bits[f] & unit[x], and each end keeps the union of its A_1
(or B_1) edges, its reach, so "x lies in an A_1 edge through u" is one
test.

verify_frame and verify_frame_sweep share one data path over plain
values of a directed path: _classify gives the _Frame of its vertex
tuple, _battery runs (a)-(d) on it, returning each check's faults and
the traversing pair count, and _frame_report turns that into a
FrameReport: verify_frame does so for its one embedding,
verify_frame_sweep only for an embedding whose battery found a fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from .detect import Embedding, EdgeTable, contains, edge_table, iter_embeddings, verify_embedding
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


class _End(NamedTuple):
    """An end u of a path, in one direction's frame: ones lists the host
    edges of A_1(u) (B_1(u) at a right end) in ascending index order, as
    incidence lists them, and reach is the union of their vertex sets, of
    the table's kind; degree is u's host degree and cap its budget, its
    class edge count plus r-1."""

    vertex: int
    ones: list[int]
    reach: Any
    degree: int
    cap: int


class _Frame(NamedTuple):
    """The ends of a path in one direction, a left and b right, each in
    ascending vertex order, with reach_a and reach_b the unions of their
    reaches; and what the direction shares with its reverse (see the
    module docstring): blocked, whether a blocked vertex lies in an A_1
    and a B_1 edge; best, the least |A_1(u)|+|B_1(w)|; over, whether an
    end's degree exceeds its cap; and extends, whether an edge through an
    end meets the path in that end alone."""

    a: tuple[_End, ...]
    b: tuple[_End, ...]
    reach_a: Any
    reach_b: Any
    blocked: bool
    best: int
    over: bool
    extends: bool

    def reverse(self) -> _Frame:
        """The frame of the reverse direction: the sides swap."""
        a, b, reach_a, reach_b, blocked, best, over, extends = self
        return _Frame(b, a, reach_b, reach_a, blocked, best, over, extends)


def _split(v: tuple[int, ...], r: int) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The left ends and right ends (each ascending) and the interior, in
    path order, of the path whose vertex v_j is v[j]."""
    m = len(v) - r + 1  # v[m:] are the right ends
    return sorted(v[1:r]), sorted(v[m:]), v[r:m]


def _classify(table: EdgeTable, incidence, r: int, ell: int, v) -> _Frame:
    """The _Frame of the directed path whose vertex v_j is v[j], on the
    host's edge table and incidence, and the counting checks: per end
    (tagged A or B), left ends first.

    One pass over the edges through each end: an edge whose meet with the
    path is u and k more vertices is a class edge, of class k, except that
    k = 1 needs the other vertex interior and k = 0 is no class, but sets
    the frame's extends.  covered gathers the meets of the class edges, so
    it has 1 + sum k|A_k(u)| vertices exactly when no path vertex besides
    u is in two of them.
    """
    bits, unit, empty = table.bits, table.unit, table.empty
    size = int.bit_count if empty == 0 else len
    left, right, interior = _split(v, r)
    inner = empty
    for x in interior:
        inner |= unit[x]
    pathv = inner
    for x in left + right:
        pathv |= unit[x]
    sides = []
    over = extends = False
    for tag, ends in (("A", left), ("B", right)):
        side = []
        side_reach = empty
        for u in ends:
            home = unit[u]
            ones: list[int] = []
            members: list[int] = []  # every class edge through u
            covered, reach, weighted = home, empty, 0
            through = incidence[u]
            for idx in through:
                edge = bits[idx]
                meet = edge & pathv
                if meet == home:
                    extends = True
                    continue
                k = size(meet) - 1
                if k == 1:
                    if not meet & inner:
                        continue
                    ones.append(idx)
                    reach |= edge
                members.append(idx)
                covered |= meet
                weighted += k
            if len(ones) > (r - 1) * (ell - 3):
                raise InvariantViolation(f"|{tag}_1({u})| = {len(ones)} exceeds (r-1)(ell-3)")
            if weighted > (r - 1) * (ell - 1):
                raise InvariantViolation(
                    f"sum k|{tag}_k({u})| = {weighted} exceeds (r-1)(ell-1)"
                )
            # linearity gives each path vertex to at most one edge through u
            if size(covered) <= weighted:
                wv = min(
                    x for x in v[1:]
                    if x != u and sum(1 for i in members if bits[i] & unit[x]) > 1
                )
                raise InvariantViolation(f"path vertex {wv} in two {tag}-edges through {u}")
            cap = len(members) + r - 1
            over = over or len(through) > cap
            side.append(_End(u, ones, reach, len(through), cap))
            side_reach |= reach
        sides.append((tuple(side), side_reach))
    (a, reach_a), (b, reach_b) = sides
    blocked = empty
    for i in range(2, ell - 1):
        for x in v[(i - 1) * (r - 1) + 2:i * (r - 1) + 1]:
            blocked |= unit[x]
    # the pair sum is separable: its minimum pairs the two smallest classes
    best = min([len(e.ones) for e in a]) + min([len(e.ones) for e in b])
    return _Frame(a, b, reach_a, reach_b, bool(reach_a & reach_b & blocked), best, over, extends)


def _pairs(table: EdgeTable, r: int, ell: int, v, frame: _Frame) -> list[tuple]:
    """The traversing pairs of the directed path v in frame, as
    (f1, f2, i, u, w), ordered by i, u, f1, w, f2."""
    bits, unit = table.bits, table.unit
    out: list[tuple] = []
    for i in range(2, ell - 1):
        hi, lo = unit[v[i * (r - 1) + 1]], unit[v[i * (r - 1)]]
        if frame.reach_a & hi and frame.reach_b & lo:
            f1s = [(e.vertex, f) for e in frame.a if e.reach & hi for f in e.ones if bits[f] & hi]
            f2s = [(e.vertex, f) for e in frame.b if e.reach & lo for f in e.ones if bits[f] & lo]
            out += [(f1, f2, i, u, w) for u, f1 in f1s for w, f2 in f2s]
    return out


def _blocked_overlaps(table: EdgeTable, r: int, ell: int, v, frame: _Frame) -> list:
    """(j, v_j, least A_1 edge, least B_1 edge through v_j) for each blocked
    vertex v_j that lies in both an A_1 and a B_1 edge."""
    bits, unit = table.bits, table.unit
    bad = []
    for i in range(2, ell - 1):
        for j in range((i - 1) * (r - 1) + 2, i * (r - 1) + 1):
            x = unit[v[j]]
            in_a = [f for e in frame.a for f in e.ones if bits[f] & x]
            in_b = [f for e in frame.b for f in e.ones if bits[f] & x] if in_a else ()
            if in_b:
                bad.append((j, v[j], min(in_a), min(in_b)))
    return bad


def _disjoint_pairs(bits, pairs: list[tuple]) -> list:
    """(f1, f2, i) for each traversing pair whose edges are disjoint."""
    return [(f1, f2, i) for f1, f2, i, _, _ in pairs if not bits[f1] & bits[f2]]


def _uncovered_ends(table: EdgeTable, r: int, v, frame: _Frame, pairs) -> list:
    """(i, reason) for each way a traversing pair at i leaves no free end.

    A class-1 edge through an end x meets the path in x and one interior
    vertex, so it holds no other end: {x, y} lies in some A_1 edge exactly
    when y lies in the reach of x, and likewise for B_1.
    """
    unit, empty = table.unit, table.empty
    bad = []
    for _, _, i, u, w in pairs:
        hi, lo = unit[v[i * (r - 1) + 1]], unit[v[i * (r - 1)]]
        if not any(e.vertex != u and not e.reach & hi for e in frame.a):
            bad.append((i, "every other left end pairs with v_(i(r-1)+1) in A_1"))
        if not any(e.vertex != w and not e.reach & lo for e in frame.b):
            bad.append((i, "every other right end pairs with v_(i(r-1)) in B_1"))
        if r >= 4:
            lows = empty
            for x in v[(i - 1) * (r - 1) + 2:(i - 1) * (r - 1) + r - 1]:
                lows |= unit[x]
            if not any(not e.reach & lows for e in frame.b):
                bad.append((i, "no right end avoids all early blocked vertices in B_1"))
    return bad


def _end_degrees(frame: _Frame) -> list:
    """(u, degree, tag, cap) for each end whose degree exceeds its cap,
    left ends first."""
    return [
        (e.vertex, e.degree, tag, e.cap)
        for tag, side in (("A", frame.a), ("B", frame.b))
        for e in side
        if e.degree > e.cap
    ]


# name, fault detail and passing detail of each check, in report order;
# a fault fills the first, the numbers _frame_report quotes the second
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


def _battery(table: EdgeTable, r: int, ell: int, v, frame: _Frame):
    """Checks (a)-(d) on the directed path whose vertex v_j is v[j], in
    frame: each check's faults, in _CHECKS order (an empty list when it
    passes), and the traversing pair count.  The checks frame settles for
    the path are only listed when it found them failing."""
    pairs = _pairs(table, r, ell, v, frame)
    bound = 2 * (r - 2) * (ell - 3)
    faults = (
        _blocked_overlaps(table, r, ell, v, frame) if frame.blocked else [],
        _disjoint_pairs(table.bits, pairs),
        _uncovered_ends(table, r, v, frame, pairs),
        [(frame.best, bound)] if frame.best > bound else [],
        _end_degrees(frame) if frame.over else [],
    )
    return faults, len(pairs)


def _frame_report(
    emb: Embedding, ell: int, r: int, frame: _Frame, faults, npairs: int
) -> FrameReport:
    """The FrameReport of one battery result (see _battery)."""
    quoted = ((), (npairs,), (npairs,), (frame.best, 2 * (r - 2) * (ell - 3)), ())
    outcomes = tuple(
        CheckOutcome(
            name, not bad, "; ".join(fail.format(*f) for f in bad) if bad else ok.format(*args)
        )
        for (name, fail, ok), bad, args in zip(_CHECKS, faults, quoted)
    )
    return FrameReport("fail" if any(faults) else "pass", ell, r, emb, outcomes, frame.best)


def _require_linear(host: Hypergraph, ell: int, r: int, what: str) -> None:
    """What frames and sweeps both need: ell >= 3 and a linear host of
    order r."""
    if ell < 3:
        raise BadParameters(f"{what} need ell >= 3, got {ell}")
    if host.r != r:
        raise BadParameters(f"{what} need a uniform host of order {r}, got {host!r}")
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

    Raises BadParameters (ell < 3, or a host whose order is not the
    embedding's), HostNotLinear, NotAPathEmbedding and HostContainsPath,
    checked in that order; the last when the host is not free of the
    length-ell loose path (the regime in which the checks are guaranteed).
    """
    r = emb.pattern.r
    _require_linear(host, ell, r, "frames")
    if emb.pattern.single("path") != ell - 1:
        raise NotAPathEmbedding(
            f"expected an embedding of a loose path with {ell - 1} edges, got {emb.pattern}"
        )
    if not verify_embedding(host, emb):
        raise NotAPathEmbedding("embedding does not verify against the host")
    _require_path_free(host, ell, r)
    if ell < 4 or r < 3:
        return FrameReport("not-applicable", ell, r, emb, ())
    table = edge_table(host.n, host.edges)
    v = (-1,) + emb.vertex_map
    frame = _classify(table, host.incidence, r, ell, v)
    return _frame_report(emb, ell, r, frame, *_battery(table, r, ell, v, frame))


def verify_frame_sweep(host: Hypergraph, ell: int, r: int) -> SweepReport:
    """verify_frame over every directed embedding of the (ell-1)-edge path;
    the two directions of a path share one _Frame, and only an embedding
    that fails gets a FrameReport.

    Raises what verify_frame raises for the host, in the same order, and
    HostContainsPath with the same witness.  Where the checks apply
    (ell >= 4, r >= 3) the host's freeness of the ell-edge path is read
    off the classification instead of searched for up front:

    - An edge f through an end u that meets the path in u alone extends
      it: u lies in the end edge only, so the path with f added at that
      end is a loose path of ell edges.  _classify sets the frame's
      extends for such an f.
    - Conversely, the first ell-1 edges of a loose path of ell edges are
      a loose (ell-1)-edge path, and the last edge meets it in one vertex
      of its last edge that no earlier edge holds: a right end alone.
    - iter_embeddings yields every (ell-1)-edge path, and _classify runs
      once per path, over the ends of both sides.

    So the host holds the ell-edge path exactly when some classified
    frame extends, and at the first one the detector is asked for its
    witness.  Before that only the counting checks of _classify can
    raise, and they hold in every linear host, so no exception comes
    earlier than it did.  For ell < 4 or r < 3 nothing is classified,
    and the detector is asked up front.
    """
    _require_linear(host, ell, r, "sweeps")
    applicable = ell >= 4 and r >= 3
    if applicable:
        table, incidence = edge_table(host.n, host.edges), host.incidence
    else:
        _require_path_free(host, ell, r)
    checked = 0
    failures: list[FrameReport] = []
    # the frames of the paths met in one direction so far, keyed by edge
    # set (see the module docstring); the reverse takes them, sides swapped
    pending: dict[frozenset[int], _Frame] = {}
    for emb in iter_embeddings(host, linear_path(ell - 1, r)):
        checked += 1
        if not applicable:
            continue
        v = (-1,) + emb.vertex_map
        key = frozenset(emb.edge_map)
        frame = pending.pop(key, None)
        if frame is None:
            frame = pending[key] = _classify(table, incidence, r, ell, v)
            if frame.extends:
                _require_path_free(host, ell, r)
        else:
            frame = frame.reverse()
        faults, npairs = _battery(table, r, ell, v, frame)
        if any(faults):
            failures.append(_frame_report(emb, ell, r, frame, faults, npairs))
    if not applicable:
        status = "not-applicable"
    else:
        status = "fail" if failures else "pass"
    return SweepReport(status, ell, r, checked, tuple(failures))
