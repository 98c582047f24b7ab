"""Reference end-set checks for differential tests: the frozenset
classification and check battery, run afresh on every directed embedding.

Each function reads frozensets it builds from the host's edges and
nothing of the detector's tables, and a sweep shares nothing between the
two directions of a path.
The preconditions (ell, order, linearity, freeness) are linturan.endsets'
own, looked up at call time, so a test that patches them there patches
them here too.
"""

from __future__ import annotations

import linturan.endsets as endsets
from linturan.detect import iter_embeddings, verify_embedding
from linturan.endsets import CheckOutcome, FrameReport, SweepReport
from linturan.errors import InvariantViolation, NotAPathEmbedding
from linturan.patterns import linear_path


def frozensets(host):
    return [frozenset(e) for e in host.edges]


def split(v, r):
    m = len(v) - r + 1
    return tuple(sorted(v[1:r])), tuple(sorted(v[m:])), frozenset(v[r:m])


def classify(host, r, ell, left, right, interior):
    """{u: {k: frozenset of A_k(u)}} for the left ends and the right ends,
    raising InvariantViolation where the classes break a counting bound."""
    edge_sets, incidence = frozensets(host), host.incidence
    pathv = interior.union(left, right)
    sides = []
    for tag, ends in (("A", left), ("B", right)):
        side = {}
        for u in ends:
            per_k = [[] for _ in range(r)]
            covered = {u}
            weighted = 0
            for idx in incidence[u]:
                meet = edge_sets[idx] & pathv
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


def pairs_of(host, r, ell, v, a, b):
    sets = frozensets(host)
    out = []
    for i in range(2, ell - 1):
        hi, lo = v[i * (r - 1) + 1], v[i * (r - 1)]
        f1s = [(u, f) for u, per_k in a.items() for f in sorted(per_k[1]) if hi in sets[f]]
        if f1s:
            f2s = [(w, f) for w, per_k in b.items() for f in sorted(per_k[1]) if lo in sets[f]]
            out += [(f1, f2, i, u, w) for u, f1 in f1s for w, f2 in f2s]
    return out


def blocked_overlaps(host, r, ell, v, a, b):
    sets = frozensets(host)
    bad = []
    for i in range(2, ell - 1):
        for j in range((i - 1) * (r - 1) + 2, i * (r - 1) + 1):
            vj = v[j]
            in_a = [f for per_k in a.values() for f in per_k[1] if vj in sets[f]]
            in_b = [f for per_k in b.values() for f in per_k[1] if vj in sets[f]] if in_a else ()
            if in_b:
                bad.append((j, vj, min(in_a), min(in_b)))
    return bad


def disjoint_pairs(host, pairs):
    sets = frozensets(host)
    return [(f1, f2, i) for f1, f2, i, _, _ in pairs if not sets[f1] & sets[f2]]


def uncovered_ends(host, r, v, a, b, pairs):
    sets = frozensets(host)

    def apart(side, x, y):
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


def end_degrees(host, r, a, b):
    incidence = host.incidence
    bad = []
    for tag, side in (("A", a), ("B", b)):
        for u, per_k in side.items():
            deg = len(incidence[u])
            cap = sum(map(len, per_k.values())) + r - 1
            if deg > cap:
                bad.append((u, deg, tag, cap))
    return bad


CHECKS = (
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


def frame_report(host, emb, ell):
    """The FrameReport of one directed embedding, with no precondition
    checked: classification and battery from scratch."""
    r = emb.pattern.r
    v = (-1,) + emb.vertex_map
    a, b = classify(host, r, ell, *split(v, r))
    pairs = pairs_of(host, r, ell, v, a, b)
    best = min(len(per_k[1]) for per_k in a.values()) + min(
        len(per_k[1]) for per_k in b.values()
    )
    bound = 2 * (r - 2) * (ell - 3)
    faults = (
        blocked_overlaps(host, r, ell, v, a, b),
        disjoint_pairs(host, pairs),
        uncovered_ends(host, r, v, a, b, pairs),
        [(best, bound)] if best > bound else [],
        end_degrees(host, r, a, b),
    )
    quoted = ((), (len(pairs),), (len(pairs),), (best, bound), ())
    outcomes = tuple(
        CheckOutcome(
            name, not bad, "; ".join(fail.format(*f) for f in bad) if bad else ok.format(*args)
        )
        for (name, fail, ok), bad, args in zip(CHECKS, faults, quoted)
    )
    return FrameReport("fail" if any(faults) else "pass", ell, r, emb, outcomes, best)


def verify_frame(host, emb, ell):
    r = emb.pattern.r
    endsets._require_linear(host, ell, r, "frames")
    if emb.pattern.single("path") != ell - 1:
        raise NotAPathEmbedding(
            f"expected an embedding of a loose path with {ell - 1} edges, got {emb.pattern}"
        )
    if not verify_embedding(host, emb):
        raise NotAPathEmbedding("embedding does not verify against the host")
    endsets._require_path_free(host, ell, r)
    if ell < 4 or r < 3:
        return FrameReport("not-applicable", ell, r, emb, ())
    return frame_report(host, emb, ell)


def verify_frame_sweep(host, ell, r):
    endsets._require_linear(host, ell, r, "sweeps")
    endsets._require_path_free(host, ell, r)
    applicable = ell >= 4 and r >= 3
    checked = 0
    failures = []
    for emb in iter_embeddings(host, linear_path(ell - 1, r)):
        checked += 1
        if applicable:
            rep = frame_report(host, emb, ell)
            if rep.status == "fail":
                failures.append(rep)
    if not applicable:
        status = "not-applicable"
    else:
        status = "fail" if failures else "pass"
    return SweepReport(status, ell, r, checked, tuple(failures))
