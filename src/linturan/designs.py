"""Pairwise balanced block systems with index 1 (2-(n,r,1) designs).

A design here is an r-uniform hypergraph on n points in which every
unordered point pair lies in exactly one edge.  Such a hypergraph is
automatically linear, has n(n-1)/(r(r-1)) edges, and gives every point
degree (n-1)/(r-1); the two divisibility conditions behind those
fractions being integers are the admissibility test.

build_design assembles one by the first applicable strategy:

  single      n == r, one block
  bose        r = 3, n == 3 (mod 6): three levels over Z_m, m = n/3 odd;
              level triples {(i,0),(i,1),(i,2)} plus quasigroup triples
              {(i,k),(j,k),((i+j)/2, k+1)} with /2 the inverse of 2 mod m
  skolem      r = 3, n == 1 (mod 6), n = 6t+1: a fixed point plus three
              levels over Z_2t with the half-idempotent quasigroup
              x*y = pi(x+y mod 2t), pi(2x) = x, pi(2x+1) = t+x
  projective  (n, r) = (q*q+q+1, q+1) for a prime q up to a cap
  affine      (n, r) = (q*q, q) for a prime q up to a cap
  search      exact-cover backtracking up to a size cap, canonicalized by
              always extending the least uncovered pair with ascending
              vertices and introducing new points in order (the first
              block is therefore 0..r-1)

Inadmissible or out-of-reach parameters yield an absent outcome with the
reason; every successful build is re-verified by pair counting before it
is returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BadParameters, InvariantViolation, NoDesignAvailable, ProductTooLarge
from .hypergraph import DEFAULT_PRODUCT_CAP, Hypergraph, linearity_violation, make_hypergraph

__all__ = [
    "Design",
    "DesignOutcome",
    "is_admissible",
    "block_count",
    "verify_design",
    "build_design",
    "require_design",
    "DEFAULT_PRIME_CAP",
    "default_search_cap",
]

DEFAULT_PRIME_CAP = 7


def default_search_cap(r: int) -> int:
    return 15 if r == 3 else 13


def _check_params(n: int, r: int) -> None:
    if r < 2 or n < r:
        raise BadParameters(f"need n >= r >= 2, got n={n}, r={r}")


def is_admissible(n: int, r: int) -> bool:
    """Divisibility test: both design counting fractions are integers."""
    _check_params(n, r)
    return (n - 1) % (r - 1) == 0 and n * (n - 1) % (r * (r - 1)) == 0


def block_count(n: int, r: int) -> Fraction:
    """Total blocks, as an exact rational."""
    _check_params(n, r)
    return Fraction(n * (n - 1), r * (r - 1))


def verify_design(h: Hypergraph) -> bool:
    """True iff every point pair is covered by exactly one edge: the host
    is linear, so its edges cover edge_count * C(r, 2) distinct pairs, and
    those are all C(n, 2)."""
    if h.r is None:
        raise BadParameters("verify_design needs a uniform hypergraph")
    pairs = h.edge_count * (h.r * (h.r - 1) // 2)
    return pairs == h.n * (h.n - 1) // 2 and linearity_violation(h) is None


@dataclass(frozen=True)
class Design:
    n: int
    r: int
    graph: Hypergraph
    strategy: str

    @property
    def num_blocks(self) -> int:
        return self.graph.edge_count


@dataclass(frozen=True)
class DesignOutcome:
    design: Optional[Design]
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.design is not None


# -- strategies -----------------------------------------------------------


def _bose(n: int) -> list[tuple[int, ...]]:
    m = n // 3  # odd since n == 3 (mod 6)
    inv2 = pow(2, -1, m)

    def pt(i: int, k: int) -> int:
        return (k % 3) * m + (i % m)

    blocks = [(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(m)]
    for k in range(3):
        for i, j in itertools.combinations(range(m), 2):
            blocks.append((pt(i, k), pt(j, k), pt((i + j) * inv2, k + 1)))
    return blocks


def _skolem(n: int) -> list[tuple[int, ...]]:
    t = (n - 1) // 6
    w = 2 * t

    def pi(x: int) -> int:
        return x // 2 if x % 2 == 0 else t + (x - 1) // 2

    def pt(x: int, k: int) -> int:
        return 1 + (k % 3) * w + (x % w)

    blocks = [(pt(i, 0), pt(i, 1), pt(i, 2)) for i in range(t)]
    for k in range(3):
        for i in range(t):
            blocks.append((0, pt(t + i, k), pt(i, k + 1)))
        for x, y in itertools.combinations(range(w), 2):
            blocks.append((pt(x, k), pt(y, k), pt(pi((x + y) % w), k + 1)))
    return blocks


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % d for d in range(2, int(q**0.5) + 1))


def _projective_plane(q: int) -> list[tuple[int, ...]]:
    # points: 1-dim subspaces of (Z_q)^3, represented with first nonzero = 1
    reps: list[tuple[int, int, int]] = []
    for v in itertools.product(range(q), repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(c for c in v if c != 0)
        inv = pow(lead, -1, q)
        canon = tuple((c * inv) % q for c in v)
        if canon == v:
            reps.append(v)
    index = {v: i for i, v in enumerate(reps)}
    blocks = []
    for a in reps:  # dual points enumerate the lines
        line = tuple(
            sorted(
                index[p]
                for p in reps
                if (a[0] * p[0] + a[1] * p[1] + a[2] * p[2]) % q == 0
            )
        )
        blocks.append(line)
    return blocks


def _affine_plane(q: int) -> list[tuple[int, ...]]:
    def pt(x: int, y: int) -> int:
        return x * q + y

    blocks = [tuple(pt(a, y) for y in range(q)) for a in range(q)]
    for slope in range(q):
        for b in range(q):
            blocks.append(tuple(sorted(pt(x, (slope * x + b) % q) for x in range(q))))
    return blocks


def _search(n: int, r: int) -> Optional[list[tuple[int, ...]]]:
    """Lexicographic exact-cover backtracking over uncovered pairs."""
    covered: set[tuple[int, int]] = set()
    blocks: list[tuple[int, ...]] = []
    total = n * (n - 1) // 2

    def least_uncovered() -> Optional[tuple[int, int]]:
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) not in covered:
                    return (a, b)
        return None

    def block_pairs(block: tuple[int, ...]):
        return itertools.combinations(sorted(block), 2)

    def solve(seen: int) -> bool:
        if len(covered) == total:
            return True
        a, b = least_uncovered()

        def grow(block: list[int], need: int, seen: int) -> bool:
            if need == 0:
                chosen = tuple(sorted(block))
                pairs = list(block_pairs(chosen))
                covered.update(pairs)
                blocks.append(chosen)
                if solve(seen):
                    return True
                blocks.pop()
                covered.difference_update(pairs)
                return False
            # new points only in order: candidate may not skip past `seen`
            for c in range(block[-1] + 1, min(n, seen + 1)):
                if any((min(x, c), max(x, c)) in covered for x in block):
                    continue
                if grow(block + [c], need - 1, max(seen, c + 1)):
                    return True
            return False

        return grow([a, b], r - 2, max(seen, b + 1))

    if solve(0):
        return blocks
    return None


def build_design(
    n: int,
    r: int,
    prime_cap: int = DEFAULT_PRIME_CAP,
    search_cap: Optional[int] = None,
) -> DesignOutcome:
    """Construct a verified design, or report why none was produced.

    Raises ProductTooLarge when an admissible design would have more than
    DEFAULT_PRODUCT_CAP blocks.
    """
    _check_params(n, r)
    if not is_admissible(n, r):
        return DesignOutcome(None, "inadmissible")
    blocks = block_count(n, r)  # an integer, n and r being admissible
    if blocks > DEFAULT_PRODUCT_CAP:
        raise ProductTooLarge(f"design would have {blocks} blocks (cap {DEFAULT_PRODUCT_CAP})")
    if search_cap is None:
        search_cap = default_search_cap(r)

    attempts: list[tuple[str, Optional[list[tuple[int, ...]]]]] = []
    if n == r:
        attempts.append(("single", [tuple(range(r))]))
    elif r == 3 and n % 6 == 3:
        attempts.append(("bose", _bose(n)))
    elif r == 3 and n % 6 == 1:
        attempts.append(("skolem", _skolem(n)))
    else:
        q = r - 1
        if n == q * q + q + 1 and _is_prime(q) and q <= prime_cap:
            attempts.append(("projective", _projective_plane(q)))
        q = r
        if n == q * q and _is_prime(q) and q <= prime_cap:
            attempts.append(("affine", _affine_plane(q)))
        if not attempts and n <= search_cap:
            attempts.append(("search", _search(n, r)))

    for strategy, blocks in attempts:
        if blocks is None:
            continue
        graph = make_hypergraph(n, blocks, r)
        if not verify_design(graph):
            raise InvariantViolation(
                f"{strategy} builder produced a non-design for n={n}, r={r}"
            )
        return DesignOutcome(Design(n, r, graph, strategy))
    return DesignOutcome(
        None, f"not-attempted: no construction strategy covers n={n}, r={r}"
    )


def require_design(n: int, r: int) -> Design:
    """build_design, raising NoDesignAvailable on an absent outcome."""
    out = build_design(n, r)
    if out.design is None:
        raise NoDesignAvailable(f"no design for n={n}, r={r}: {out.reason}")
    return out.design
