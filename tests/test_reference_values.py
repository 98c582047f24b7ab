"""max_edges against closed forms proved outside this library.

Every other exact value is checked against the library's own searchers;
these come from theorems, each cited with the range of n it covers.
"""

from math import comb

import pytest

import linturan as lt


@pytest.mark.parametrize("n", range(3, 13))
def test_linear_packing_is_spencers_number(n):
    # the most triples on n points pairwise sharing at most one point:
    # floor((n/3) floor((n-1)/2)) - [n = 5 mod 6], for every n >= 3
    # (J. Spencer, "Maximal consistent families of triples", J. Combin.
    # Theory 5, 1968)
    res = lt.max_edges(n, 3, None, "linear")
    assert (res.status, res.value) == ("exact", n * ((n - 1) // 2) // 3 - (n % 6 == 5))


@pytest.mark.parametrize("n", range(6, 12))
def test_general_s2_is_frankls_value(n):
    # the most triples no two of which meet in exactly one point: n, n-1,
    # n-2, n-2 for n = 0, 1, 2, 3 mod 4 (P. Frankl, "On families of
    # finite sets no two of which intersect in a singleton", Bull.
    # Austral. Math. Soc. 17, 1977); disjoint copies of K_4^(3) attain it,
    # and for n = 3 mod 4 the n-2 triples through one pair do
    res = lt.max_edges(n, 3, lt.parse_pattern("S2@r3"), "general")
    assert (res.status, res.value) == ("exact", n - (0, 1, 2, 2)[n % 4])


@pytest.mark.parametrize("n", [6, 7])
def test_general_c3_is_a_star(n):
    # a triple system with no loose triangle has at most C(n-1, 2) edges,
    # the triples through one point: for n >= 75 by P. Frankl and Z.
    # Füredi ("Exact solution of some Turán-type problems", J. Combin.
    # Theory Ser. A 45, 1987), for every n >= 6 by R. Csákány and J. Kahn
    # ("A homological approach to two problems on finite sets", J.
    # Algebraic Combin. 9, 1999)
    res = lt.max_edges(n, 3, lt.parse_pattern("C3@r3"), "general")
    assert (res.status, res.value) == ("exact", comb(n - 1, 2))


def test_general_p3_is_a_star():
    # a triple system with no loose path of three edges has at most
    # C(n-1, 2) edges for n >= 8 (A. Kostochka, D. Mubayi and J.
    # Verstraëte, "Turán problems and shadows I: paths and cycles", J.
    # Combin. Theory Ser. A 129, 2015)
    res = lt.max_edges(8, 3, lt.parse_pattern("P3@r3"), "general")
    assert (res.status, res.value) == ("exact", comb(7, 2))
