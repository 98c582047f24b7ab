"""Closed-form edge-count bounds for pattern-free hosts.

Every evaluator returns a :class:`BoundReport` carrying the exact rational
value, which side of the extremal quantity it sits on, and any caveats that
qualify the claim (asymptotic regimes, unverifiable premises, stand-in
constants).  Nothing here enumerates hypergraphs; these are formula
evaluations only, and the reports say so where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .designs import is_admissible
from .errors import BadParameters
from .hypergraph import _check_ints

Rational = Union[int, Fraction]

# Caveat vocabulary.  Tests and the CLI match on these exact strings.
ASYMPTOTIC = "asymptotic regime not certified"
DESIGN_PREMISE = (
    "design premise unsatisfiable: a resolvable block size of ell*(r-1) "
    "fails the divisibility test for every r >= 3"
)
STAND_IN_CONSTANT = "unspecified constant factor; evaluated with supplied c"
STAND_IN_STAR = (
    "star term replaced by its asymptotic upper bound; not a certified "
    "lower bound"
)
PATH_TERM_BOUNDED = "path-free maximum replaced by its upper bound"


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: rule id, inputs, value and qualifications."""

    rule: str
    params: tuple[tuple[str, object], ...]
    value: Fraction
    side: str  # "upper" | "lower" | "exact"
    applicable: bool = True
    caveats: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "params": {k: _obj(v) for k, v in self.params},
            "value": str(self.value),
            "value_float": _float(self.value),
            "side": self.side,
            "applicable": self.applicable,
            "caveats": list(self.caveats),
        }

    def __str__(self) -> str:
        flag = "" if self.applicable else " [premises not established]"
        note = f" ({'; '.join(self.caveats)})" if self.caveats else ""
        return f"{self.rule}: {self.side} {self.value}{flag}{note}"


def _float(value: Fraction) -> Optional[float]:
    """The nearest float, or None when the value is out of float range."""
    try:
        return float(value)
    except OverflowError:
        return None


def _obj(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _comb(n: int, k: int) -> int:
    # binomial with the extremal-combinatorics convention C(n, k) = 0
    # whenever n < k, including negative n
    if n < 0 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def _check_common(r: int, n: int, **sizes: int) -> None:
    """Refuse an edge order below 2, a negative host size, and any of r,
    n and the other integer sizes that is not an int."""
    _check_ints(r=r, n=n, **sizes)
    if r < 2:
        raise BadParameters(f"edge order must be at least 2, got {r}")
    if n < 0:
        raise BadParameters(f"host size must be nonnegative, got {n}")


def _frac(value: Rational) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


# ---------------------------------------------------------------------------
# linear hosts: paths and star forests


def linear_path_upper(r: int, ell: int, n: int) -> BoundReport:
    """Best known cap on edges of a linear host with no loose ell-path.

    ell >= 4 gives (2r-3)*ell*n/2; ell = 3 gives n; ell = 2 is the exact
    matching number floor(n/r).
    """
    _check_common(r, n, ell=ell)
    if r < 3:
        raise BadParameters(f"path bounds need edge order >= 3, got {r}")
    if ell < 2:
        raise BadParameters(f"path length must be at least 2, got {ell}")
    params = (("r", r), ("ell", ell), ("n", n))
    if ell == 2:
        return BoundReport("linear-path", params, Fraction(n // r), "exact")
    if ell == 3:
        return BoundReport("linear-path", params, Fraction(n), "upper")
    value = Fraction((2 * r - 3) * ell * n, 2)
    return BoundReport("linear-path", params, value, "upper")


def star_forest_upper(r: int, ell: int, k: int, n: int) -> BoundReport:
    """Cap on edges of a linear host with no k disjoint loose ell-stars."""
    _check_common(r, n, ell=ell, k=k)
    if ell < 1 or k < 1:
        raise BadParameters(f"need ell, k >= 1, got ell={ell}, k={k}")
    value = (Fraction(ell - 1, r) + Fraction(k - 1, r - 1)) * (n - k + 1)
    value += Fraction(_comb(k - 1, 2), _comb(r, 2))
    params = (("r", r), ("ell", ell), ("k", k), ("n", n))
    return BoundReport(
        "star-forest", params, value, "upper", caveats=(ASYMPTOTIC,)
    )


def path_star_forest_upper(
    r: int, ell0: int, lengths: Sequence[int], n: int
) -> BoundReport:
    """Cap on edges of a linear host avoiding a path plus disjoint stars.

    ``lengths`` lists the star lengths and must be nonincreasing; the
    formula depends only on k = len(lengths) and ell = max(ell0, lengths[0]).
    """
    _check_common(r, n, ell0=ell0)
    if r < 3 or ell0 < 4:
        raise BadParameters(
            f"need edge order >= 3 and path length >= 4, got r={r}, ell0={ell0}"
        )
    lengths = tuple(lengths)
    _check_ints(**{f"star length {i}": x for i, x in enumerate(lengths)})
    if any(x < 1 for x in lengths):
        raise BadParameters(f"star lengths must be positive, got {lengths}")
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise BadParameters(f"star lengths must be nonincreasing, got {lengths}")
    k = len(lengths)
    ell = max(ell0, lengths[0]) if lengths else ell0
    value = (Fraction(k, r - 1) + Fraction((2 * r - 3) * ell, 2)) * (n - k)
    value += Fraction(k * (k - 1), r * (r - 1))
    params = (("r", r), ("ell0", ell0), ("lengths", lengths), ("n", n))
    return BoundReport(
        "path-star-forest", params, value, "upper", caveats=(ASYMPTOTIC,)
    )


# ---------------------------------------------------------------------------
# linear hosts: construction-driven bounds


def packing_lower(r: int, ell: int, n: int) -> BoundReport:
    """Floor from tiling with pairwise-balanced blocks: (ell/r - 1/(r(r-1)))n.

    The premise asks for a block design on exactly ell*(r-1) points, which
    fails the admissibility congruences for every r >= 3, so the report is
    never marked applicable; the value is still the nominal one.
    """
    _check_common(r, n, ell=ell)
    if r < 3 or ell < 4:
        raise BadParameters(f"need r >= 3 and ell >= 4, got r={r}, ell={ell}")
    value = (Fraction(ell, r) - Fraction(1, r * (r - 1))) * n
    caveats = [DESIGN_PREMISE]
    if n % (ell * (r - 1)) != 0:
        caveats.append(f"host size not divisible by {ell * (r - 1)}")
    params = (("r", r), ("ell", ell), ("n", n))
    return BoundReport(
        "packing", params, value, "lower", applicable=False,
        caveats=tuple(caveats),
    )


def removal_upper(
    r: int,
    ell: int,
    k: int,
    n: int,
    path_free_max: Optional[Rational] = None,
) -> BoundReport:
    """Cap via deleting k vertices: k(n-k)/(r-1) + k(k-1)/(r(r-1)) + exP.

    ``ell`` is the larger of the path length and the longest star length.
    ``path_free_max`` is the extremal edge count of a path-free linear host
    on n - k vertices; when omitted it is replaced by its own upper bound.
    An edge count is never negative, so a negative one is refused.
    """
    _check_common(r, n, ell=ell, k=k)
    if r < 3 or ell < 4 or k < 0:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k >= 0, got r={r}, ell={ell}, k={k}"
        )
    if n < k:
        raise BadParameters(f"host size {n} smaller than removed set {k}")
    if path_free_max is not None and path_free_max < 0:
        raise BadParameters(f"path-free maximum must be nonnegative, got {path_free_max}")
    caveats = [ASYMPTOTIC, DESIGN_PREMISE]
    if path_free_max is None:
        path_free_max = linear_path_upper(r, ell, n - k).value
        caveats.append(PATH_TERM_BOUNDED)
    value = Fraction(k * (n - k), r - 1) + Fraction(k * (k - 1), r * (r - 1))
    value += _frac(path_free_max)
    if n % (ell * (r - 1)) != 0:
        caveats.append(f"host size not divisible by {ell * (r - 1)}")
    params = (("r", r), ("ell", ell), ("k", k), ("n", n))
    return BoundReport(
        "removal", params, value, "upper", applicable=False,
        caveats=tuple(caveats),
    )


def inserted_product_lower(r: int, ell: int, k: int, n: int) -> BoundReport:
    """Floor from the k-fold lattice product with inserted hub vertices.

    ``ell`` is the smaller of the path length and the shortest star length.
    Value: (k/(r-1) + (ell(r-1)-1)/(r(r-1)))(n-k) + k(k-1)/(r(r-1)).  The
    same impossible block-size premise as :func:`packing_lower` applies, so
    the report is informational; constructions.py builds the achievable
    variant with a fallback block count.
    """
    _check_common(r, n, ell=ell, k=k)
    if r < 3 or ell < 4 or k < 1:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k >= 1, got r={r}, ell={ell}, k={k}"
        )
    if n < k:
        raise BadParameters(f"host size {n} smaller than hub set {k}")
    head = Fraction(k, r - 1) + Fraction(ell * (r - 1) - 1, r * (r - 1))
    value = head * (n - k) + Fraction(k * (k - 1), r * (r - 1))
    caveats = [DESIGN_PREMISE]
    # k = 1 needs no hub design; is_admissible rejects k < r outright
    if k != 1 and (k < r or not is_admissible(k, r)):
        caveats.append(f"no pairwise-balanced hub core on {k} points")
    block = ell * (r - 1) * (r - 1) ** k
    if (n - k) % block != 0:
        caveats.append(f"host size minus {k} not divisible by {block}")
    params = (("r", r), ("ell", ell), ("k", k), ("n", n))
    return BoundReport(
        "inserted-product", params, value, "lower", applicable=False,
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# unrestricted hosts


def path_turan_exact(r: int, ell: int, n: int) -> BoundReport:
    """Extremal edge count over all r-uniform hosts with no loose ell-path.

    C(n,r) - C(n-d,r) with d = floor((ell-1)/2), plus C(n-d-2, r-2) when
    ell is even.  Exact only for sufficiently large n.
    """
    _check_common(r, n, ell=ell)
    if r < 3 or ell < 4:
        raise BadParameters(f"need r >= 3 and ell >= 4, got r={r}, ell={ell}")
    d = (ell - 1) // 2
    value = Fraction(_comb(n, r) - _comb(n - d, r))
    if ell % 2 == 0:
        value += _comb(n - d - 2, r - 2)
    params = (("r", r), ("ell", ell), ("n", n))
    return BoundReport(
        "path-turan", params, value, "exact", caveats=(ASYMPTOTIC,)
    )


def disjoint_paths_turan(r: int, ell: int, k: int, n: int) -> BoundReport:
    """Extremal edge count for k >= 2 disjoint loose ell-paths.

    Sum of C(n-j, r-1) for j = 1 .. k*floor((ell+1)/2), plus
    C(n - k*floor((ell+1)/2) - 1, r-2) when ell is even.
    """
    _check_common(r, n, ell=ell, k=k)
    if r < 3 or ell < 1 or k < 2:
        raise BadParameters(
            f"need r >= 3, ell >= 1, k >= 2, got r={r}, ell={ell}, k={k}"
        )
    t = k * ((ell + 1) // 2)
    value = Fraction(sum(_comb(n - j, r - 1) for j in range(1, t + 1)))
    if ell % 2 == 0:
        value += _comb(n - t - 1, r - 2)
    params = (("r", r), ("ell", ell), ("k", k), ("n", n))
    return BoundReport(
        "disjoint-paths-turan", params, value, "exact", caveats=(ASYMPTOTIC,)
    )


def star_turan_upper(
    r: int, ell: int, n: int, c: Rational = 1
) -> BoundReport:
    """Cap for hosts with no loose ell-star: c * ell * (ell-1) * n^(r-2).

    The true constant depends only on r and is not pinned down; callers
    supply ``c`` (default 1) and the report says so.
    """
    _check_common(r, n, ell=ell)
    if r < 3 or ell < 2:
        raise BadParameters(f"need r >= 3 and ell >= 2, got r={r}, ell={ell}")
    if _frac(c) <= 0:
        raise BadParameters(f"constant factor must be positive, got {c}")
    value = _frac(c) * ell * (ell - 1) * n ** (r - 2)
    params = (("r", r), ("ell", ell), ("n", n), ("c", _frac(c)))
    return BoundReport(
        "star-turan", params, value, "upper",
        caveats=(ASYMPTOTIC, STAND_IN_CONSTANT),
    )


def path_star_turan(
    r: int, ell: int, k: int, n: int, c: Rational = 1
) -> tuple[BoundReport, BoundReport]:
    """Two-sided bounds for one loose path plus k disjoint stars, all length
    ell, over unrestricted hosts.

    Both sides share the shell term C(n,r) - C(n-k,r).  The upper side adds
    the path-free extremal count on n - k vertices; the lower side adds the
    star-free extremal count, for which only the upper estimate of
    :func:`star_turan_upper` is available, so the lower report is marked
    not applicable.
    """
    _check_common(r, n, ell=ell, k=k)
    if r < 3 or ell < 4 or k < 0:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k >= 0, got r={r}, ell={ell}, k={k}"
        )
    if n < k:
        raise BadParameters(f"host size {n} smaller than star count {k}")
    shell = Fraction(_comb(n, r) - _comb(n - k, r))
    params = (("r", r), ("ell", ell), ("k", k), ("n", n))
    upper = BoundReport(
        "path-star-turan", params, shell + path_turan_exact(r, ell, n - k).value,
        "upper", caveats=(ASYMPTOTIC,),
    )
    lower = BoundReport(
        "path-star-turan", params, shell + star_turan_upper(r, ell, n - k, c).value,
        "lower", applicable=False, caveats=(ASYMPTOTIC, STAND_IN_STAR),
    )
    return lower, upper


def forest_turan(
    r: int, ell: int, k1: int, k2: int, n: int, c: Rational = 1
) -> tuple[BoundReport, BoundReport]:
    """Two-sided bounds for k1 disjoint paths plus k2 disjoint stars, all
    length ell, over unrestricted hosts.

    Upper: C(n,r) - C(n-k2,r) plus the k1-disjoint-paths extremal count on
    n - k2 vertices.  Lower: C(n,r) - C(n-k1-k2+1,r) plus the star-free
    count on n - k1 - k2 + 1 vertices, stood in for by its upper estimate
    as in :func:`path_star_turan`.
    """
    _check_common(r, n, ell=ell, k1=k1, k2=k2)
    if r < 3 or ell < 4 or k1 < 2 or k2 < 0:
        raise BadParameters(
            f"need r >= 3, ell >= 4, k1 >= 2, k2 >= 0, "
            f"got r={r}, ell={ell}, k1={k1}, k2={k2}"
        )
    if n < k1 + k2:
        raise BadParameters(f"host size {n} too small for {k1 + k2} components")
    params = (("r", r), ("ell", ell), ("k1", k1), ("k2", k2), ("n", n))

    upper_value = Fraction(_comb(n, r) - _comb(n - k2, r))
    upper_value += disjoint_paths_turan(r, ell, k1, n - k2).value
    upper = BoundReport(
        "forest-turan", params, upper_value, "upper", caveats=(ASYMPTOTIC,)
    )

    m = n - k1 - k2 + 1
    lower_value = Fraction(_comb(n, r) - _comb(m, r)) + star_turan_upper(r, ell, m, c).value
    lower = BoundReport(
        "forest-turan", params, lower_value, "lower",
        applicable=False, caveats=(ASYMPTOTIC, STAND_IN_STAR),
    )
    return lower, upper


def turan_formulas(
    r: int,
    ell: int,
    n: int,
    k: Union[None, int, tuple[int, int]] = None,
    c: Rational = 1,
) -> tuple[BoundReport, ...]:
    """Every unrestricted-host report whose preconditions hold at (r, ell, n).

    ``k`` selects the forest family: an integer requests the disjoint-paths
    count (k >= 2) and the path-plus-k-stars pair; a (k1, k2) tuple requests
    the k1-paths-plus-k2-stars pair.
    """
    _check_common(r, n, ell=ell)
    if r < 3:
        raise BadParameters(f"these formulas need edge order >= 3, got {r}")
    reports: list[BoundReport] = []
    if ell >= 4:
        reports.append(path_turan_exact(r, ell, n))
    if ell >= 2:
        reports.append(star_turan_upper(r, ell, n, c))
    if isinstance(k, tuple):
        if len(k) != 2:
            raise BadParameters(f"component counts must be a pair, got {k!r}")
        if ell >= 4:
            reports.extend(forest_turan(r, ell, k[0], k[1], n, c=c))
    elif k is not None:
        _check_ints(k=k)
        if k >= 2:
            reports.append(disjoint_paths_turan(r, ell, k, n))
        if ell >= 4:
            reports.extend(path_star_turan(r, ell, k, n, c=c))
    if not reports:
        raise BadParameters(
            f"no formula applies at r={r}, ell={ell}, k={k!r}"
        )
    return tuple(reports)


__all__ = [
    "ASYMPTOTIC",
    "DESIGN_PREMISE",
    "STAND_IN_CONSTANT",
    "STAND_IN_STAR",
    "PATH_TERM_BOUNDED",
    "BoundReport",
    "linear_path_upper",
    "star_forest_upper",
    "path_star_forest_upper",
    "packing_lower",
    "removal_upper",
    "inserted_product_lower",
    "path_turan_exact",
    "disjoint_paths_turan",
    "star_turan_upper",
    "path_star_turan",
    "forest_turan",
    "turan_formulas",
]
