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

so end_edge_sets raises InvariantViolation if any of them fails, and if
two class edges through one end share a path vertex other than the end.

The classes of an end u are a function of u, the path's vertex set and
its interior alone: the class of an edge through u is read from its meet
with the path and whether the meet holds an interior vertex.  A loose
path and its reverse have the same vertex set and interior, with left
and right ends swapped, so A_k(u) of one direction is B_k(u) of the
other.  verify_frame_sweep therefore classifies the ends of each path
once, for the first of its two directions, and reuses the classes for
the second.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "PathFrame",
    "EndSets",
    "TraversingPair",
    "CheckOutcome",
    "FrameReport",
    "SweepReport",
    "build_frame",
    "end_edge_sets",
    "traversing_pairs",
    "verify_frame",
    "verify_frame_sweep",
]

# classes[u][k]: the host-edge indices of A_k(u) or B_k(u), by end vertex u
_Classes = dict[int, dict[int, frozenset[int]]]


@dataclass(frozen=True)
class PathFrame:
    host: Hypergraph
    emb: Embedding
    ell: int  # length of the forbidden path; the embedded path has ell-1 edges
    r: int
    v: tuple[int, ...]  # v[j] is the host vertex called v_j; v[0] is unused
    left_ends: frozenset[int]
    right_ends: frozenset[int]
    interior: frozenset[int]
    exterior: frozenset[int]
    path_vertices: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pathv = self.left_ends | self.interior | self.right_ends
        object.__setattr__(self, "path_vertices", pathv)


@dataclass(frozen=True)
class EndSets:
    frame: PathFrame
    # a[u][k] / b[w][k]: host-edge indices, keyed by end vertex and overlap k
    a: dict[int, dict[int, frozenset[int]]] = field(repr=False)
    b: dict[int, dict[int, frozenset[int]]] = field(repr=False)
    # the unions of A_1(u) over the left ends and of B_1(w) over the right
    a1_union: frozenset[int] = field(init=False, repr=False, compare=False)
    b1_union: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, classes in (("a1_union", self.a), ("b1_union", self.b)):
            union = frozenset().union(*(per_k[1] for per_k in classes.values()))
            object.__setattr__(self, name, union)

    def a1(self, u: int) -> frozenset[int]:
        return self.a[u][1]

    def b1(self, w: int) -> frozenset[int]:
        return self.b[w][1]


@dataclass(frozen=True)
class TraversingPair:
    """An A_1 edge through v_{i(r-1)+1} with a B_1 edge through v_{i(r-1)}."""

    f1: int  # host edge index, in A_1(left end u)
    f2: int  # host edge index, in B_1(right end w)
    i: int  # 2 <= i <= ell-2
    u: int  # host vertex of the left end owning f1
    w: int  # host vertex of the right end owning f2


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


def build_frame(host: Hypergraph, emb: Embedding, ell: int) -> PathFrame:
    """Classify the host's vertices around an embedded path of ell-1 edges."""
    if ell < 3:
        raise BadParameters(f"frames need ell >= 3, got {ell}")
    if not is_linear(host):
        raise HostNotLinear("frames are defined over linear hosts")
    length = emb.pattern.single("path")
    if length is None or length != ell - 1:
        raise NotAPathEmbedding(
            f"expected an embedding of a loose path with {ell - 1} edges, got {emb.pattern}"
        )
    if not verify_embedding(host, emb):
        raise NotAPathEmbedding("embedding does not verify against the host")
    return _frame(host, emb, ell)


def _frame(host: Hypergraph, emb: Embedding, ell: int) -> PathFrame:
    """build_frame once ell >= 3, a linear host and a verified embedding
    of the (ell-1)-edge path are known; the sweep's embeddings come from
    iter_embeddings, which has verified each against the host."""
    r = emb.pattern.r
    npath = (ell - 1) * (r - 1) + 1
    v = (-1,) + tuple(emb.vertex_map)  # v[j] = host vertex for 1-based j
    left = frozenset(v[j] for j in range(1, r))
    right = frozenset(v[j] for j in range((ell - 2) * (r - 1) + 2, npath + 1))
    interior = frozenset(v[1:]) - left - right
    exterior = frozenset(range(host.n)) - frozenset(v[1:])
    return PathFrame(host, emb, ell, r, v, left, right, interior, exterior)


def _classify(frame: PathFrame) -> _Classes:
    """The classes of every end, left ends first, each side ascending, and
    the per-end counting checks (tagged A at left ends, B at right ends).

    One pass over the edges through each end: an order-r edge whose meet
    with the path is u and k more vertices goes to class k, except that
    k = 1 needs the other vertex interior and k = 0 is no class.  covered
    gathers the meets of the class edges, so it has 1 + sum k|A_k(u)|
    vertices exactly when no path vertex besides u is in two of them.
    """
    host, r, ell = frame.host, frame.r, frame.ell
    pathv, interior = frame.path_vertices, frame.interior
    out: _Classes = {}
    for tag, ends in (("A", frame.left_ends), ("B", frame.right_ends)):
        for u in sorted(ends):
            per_k: dict[int, list[int]] = {k: [] for k in range(1, r)}
            covered = {u}
            weighted = 0
            for idx in host.incidence[u]:
                es = host.edge_sets[idx]
                if len(es) != r:
                    continue
                meet = es & pathv
                k = len(meet) - 1
                if k == 0 or (k == 1 and interior.isdisjoint(es)):
                    continue
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
                    if sum(v in host.edge_sets[i] for s in per_k.values() for i in s) > 1
                )
                raise InvariantViolation(f"path vertex {wv} in two {tag}-edges through {u}")
            out[u] = {k: frozenset(s) for k, s in per_k.items()}
    return out


def end_edge_sets(frame: PathFrame) -> EndSets:
    """Compute all A_k/B_k classes and assert the counting bounds."""
    return _end_sets(frame, _classify(frame))


def _end_sets(frame: PathFrame, classes: _Classes) -> EndSets:
    """EndSets of the frame from the classes of its ends (see _classify),
    with the checks on A_1 and B_1 together."""
    r, ell = frame.r, frame.ell
    es = EndSets(
        frame,
        {u: classes[u] for u in sorted(frame.left_ends)},
        {w: classes[w] for w in sorted(frame.right_ends)},
    )
    a1, b1 = es.a1_union, es.b1_union
    if a1 & b1:
        raise InvariantViolation(f"A_1 and B_1 overlap at edges {sorted(a1 & b1)}")
    if len(a1 | b1) > 2 * (r - 1) ** 2 * (ell - 3):
        raise InvariantViolation("|A_1 u B_1| exceeds 2(r-1)^2(ell-3)")
    return es


def traversing_pairs(frame: PathFrame, ends: EndSets) -> list[TraversingPair]:
    """All (f1, f2, i) with v_{i(r-1)+1} in f1 in A_1, v_{i(r-1)} in f2 in B_1."""
    host, r, ell = frame.host, frame.r, frame.ell
    pairs: list[TraversingPair] = []
    for i in range(2, ell - 1):
        hi = frame.v[i * (r - 1) + 1]
        lo = frame.v[i * (r - 1)]
        for u in sorted(ends.a):
            for f1 in sorted(ends.a1(u)):
                if hi not in host.edge_sets[f1]:
                    continue
                for w in sorted(ends.b):
                    for f2 in sorted(ends.b1(w)):
                        if lo in host.edge_sets[f2]:
                            pairs.append(TraversingPair(f1, f2, i, u, w))
    return pairs


def _pair_in_some(host: Hypergraph, edge_ids: frozenset[int], x: int, y: int) -> bool:
    return any({x, y} <= host.edge_sets[idx] for idx in edge_ids)


def _check_blocked_overlap(frame: PathFrame, ends: EndSets, out: list[CheckOutcome]):
    host, r, ell = frame.host, frame.r, frame.ell
    a1, b1 = ends.a1_union, ends.b1_union
    bad: list[str] = []
    for i in range(2, ell - 1):
        for j in range((i - 1) * (r - 1) + 2, i * (r - 1) + 1):
            vj = frame.v[j]
            in_a = [f for f in sorted(a1) if vj in host.edge_sets[f]]
            in_b = [f for f in sorted(b1) if vj in host.edge_sets[f]]
            if in_a and in_b:
                bad.append(f"v_{j}={vj} lies in A_1 edge {in_a[0]} and B_1 edge {in_b[0]}")
    out.append(
        CheckOutcome(
            "no-shared-blocked-vertex",
            not bad,
            "; ".join(bad) if bad else "no vertex of the blocked ranges meets both A_1 and B_1",
        )
    )


def _check_disjoint_traversal(
    frame: PathFrame, pairs: list[TraversingPair], out: list[CheckOutcome]
):
    host = frame.host
    bad = [
        f"edges {p.f1} and {p.f2} traverse at i={p.i} but are disjoint"
        for p in pairs
        if not (host.edge_sets[p.f1] & host.edge_sets[p.f2])
    ]
    out.append(
        CheckOutcome(
            "no-disjoint-traversing-pair",
            not bad,
            "; ".join(bad) if bad else f"{len(pairs)} traversing pair(s), all intersecting",
        )
    )


def _check_uncovered_ends(
    frame: PathFrame, ends: EndSets, pairs: list[TraversingPair], out: list[CheckOutcome]
):
    host, r = frame.host, frame.r
    a1, b1 = ends.a1_union, ends.b1_union
    bad: list[str] = []
    for p in pairs:
        hi = frame.v[p.i * (r - 1) + 1]
        lo = frame.v[p.i * (r - 1)]
        if not any(
            u != p.u and not _pair_in_some(host, a1, u, hi)
            for u in frame.left_ends
        ):
            bad.append(f"pair at i={p.i}: every other left end pairs with v_(i(r-1)+1) in A_1")
        if not any(
            w != p.w and not _pair_in_some(host, b1, w, lo)
            for w in frame.right_ends
        ):
            bad.append(f"pair at i={p.i}: every other right end pairs with v_(i(r-1)) in B_1")
        if r >= 4:
            lows = [
                frame.v[t]
                for t in range((p.i - 1) * (r - 1) + 2, (p.i - 1) * (r - 1) + r - 1)
            ]
            if not any(
                all(not _pair_in_some(host, b1, w, vt) for vt in lows)
                for w in frame.right_ends
            ):
                bad.append(f"pair at i={p.i}: no right end avoids all early blocked vertices in B_1")
    out.append(
        CheckOutcome(
            "traversal-leaves-free-ends",
            not bad,
            "; ".join(bad) if bad else f"checked {len(pairs)} traversing pair(s)",
        )
    )


def _check_small_end_pair(frame: PathFrame, ends: EndSets, out: list[CheckOutcome]) -> int:
    r, ell = frame.r, frame.ell
    # the pair sum is separable: its minimum pairs the two smallest classes
    best = min(len(ends.a1(u)) for u in frame.left_ends) + min(
        len(ends.b1(w)) for w in frame.right_ends
    )
    bound = 2 * (r - 2) * (ell - 3)
    out.append(
        CheckOutcome(
            "small-end-pair",
            best <= bound,
            f"min |A_1(u)|+|B_1(w)| = {best}, bound {bound}",
        )
    )
    return best


def _check_end_degrees(frame: PathFrame, ends: EndSets, out: list[CheckOutcome]):
    host, r = frame.host, frame.r
    bad: list[str] = []
    for tag, classes in (("A", ends.a), ("B", ends.b)):
        for u, per_k in sorted(classes.items()):
            if host.r == r:
                deg = len(host.incidence[u])
            else:
                deg = sum(1 for idx in host.incidence[u] if len(host.edge_sets[idx]) == r)
            cap = sum(map(len, per_k.values())) + r - 1
            if deg > cap:
                bad.append(f"end {u}: degree {deg} > sum|{tag}_k| + r-1 = {cap}")
    out.append(
        CheckOutcome(
            "end-degree-bound",
            not bad,
            "; ".join(bad) if bad else "every end degree within its class budget",
        )
    )


def _frame_report(frame: PathFrame, ends: EndSets) -> FrameReport:
    pairs = traversing_pairs(frame, ends)
    outcomes: list[CheckOutcome] = []
    _check_blocked_overlap(frame, ends, outcomes)
    _check_disjoint_traversal(frame, pairs, outcomes)
    _check_uncovered_ends(frame, ends, pairs, outcomes)
    best = _check_small_end_pair(frame, ends, outcomes)
    _check_end_degrees(frame, ends, outcomes)
    status = "pass" if all(o.passed for o in outcomes) else "fail"
    return FrameReport(status, frame.ell, frame.r, frame.emb, tuple(outcomes), best)


def _require_path_free(host: Hypergraph, ell: int, r: int) -> None:
    witness = contains(host, linear_path(ell, r))
    if witness is not None:
        raise HostContainsPath(
            f"host contains a loose path with {ell} edges", witness=witness
        )


def verify_frame(host: Hypergraph, emb: Embedding, ell: int) -> FrameReport:
    """Run the full check battery for one embedding.

    Raises HostContainsPath when the host is not free of the length-ell
    loose path (the regime in which the checks are guaranteed).
    """
    frame = build_frame(host, emb, ell)
    _require_path_free(host, ell, frame.r)
    if ell < 4 or frame.r < 3:
        return FrameReport("not-applicable", ell, frame.r, emb, ())
    return _frame_report(frame, end_edge_sets(frame))


def verify_frame_sweep(host: Hypergraph, ell: int, r: int) -> SweepReport:
    """verify_frame over every directed embedding of the (ell-1)-edge path;
    the two directions of a path share one classification of its ends."""
    if ell < 3:
        raise BadParameters(f"sweeps need ell >= 3, got {ell}")
    if not is_linear(host):
        raise HostNotLinear("sweeps are defined over linear hosts")
    _require_path_free(host, ell, r)
    checked = 0
    failures: list[FrameReport] = []
    applicable = ell >= 4 and r >= 3
    # classes of the paths met in one direction so far, keyed by vertex
    # set and interior (see the module docstring); the reverse takes them
    pending: dict[tuple[frozenset[int], frozenset[int]], _Classes] = {}
    for emb in iter_embeddings(host, linear_path(ell - 1, r)):
        checked += 1
        if not applicable:
            continue
        frame = _frame(host, emb, ell)
        key = (frame.path_vertices, frame.interior)
        classes = pending.pop(key, None)
        if classes is None:
            classes = pending[key] = _classify(frame)
        report = _frame_report(frame, _end_sets(frame, classes))
        if report.status == "fail":
            failures.append(report)
    if not applicable:
        status = "not-applicable"
    else:
        status = "fail" if failures else "pass"
    return SweepReport(status, ell, r, checked, tuple(failures))
