"""max_edges against closed forms proved outside this library.

Every other exact value is checked against the library's own searchers;
these come from theorems, each cited with the range of n it covers.  From
below, the certified constructions that fit on n vertices must have at
most as many edges as max_edges gives.
"""

from itertools import combinations
from math import comb

import pytest

import linturan as lt
from linturan.oracle import HOSTS


@pytest.mark.parametrize("n", range(3, 13))
def test_linear_packing_is_spencers_number(n):
    # the most triples on n points pairwise sharing at most one point:
    # floor((n/3) floor((n-1)/2)) - [n = 5 mod 6], for every n >= 3
    # (J. Spencer, "Maximal consistent families of triples", J. Combin.
    # Theory 5, 1968)
    res = lt.max_edges(n, 3, None, "linear")
    assert (res.status, res.value) == ("exact", n * ((n - 1) // 2) // 3 - (n % 6 == 5))


@pytest.mark.parametrize("n", range(6, 14))
def test_general_s2_is_frankls_value(n):
    # the most triples no two of which meet in exactly one point: n, n-1,
    # n-2, n-2 for n = 0, 1, 2, 3 mod 4 (P. Frankl, "On families of
    # finite sets no two of which intersect in a singleton", Bull.
    # Austral. Math. Soc. 17, 1977); disjoint copies of K_4^(3) attain it,
    # and for n = 3 mod 4 the n-2 triples through one pair do
    res = lt.max_edges(n, 3, lt.parse_pattern("S2@r3"), "general")
    assert (res.status, res.value) == ("exact", n - (0, 1, 2, 2)[n % 4])


@pytest.mark.parametrize("n", [6, 7, 8])
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


@pytest.mark.parametrize("n", range(7, 15))
def test_thm45_fano_copies_fit_under_the_p4_value(n):
    # thm45 lays out floor(n/7) disjoint Fano planes, a linear P4-free host
    # (each component has 7 vertices, and P4 spans 9), so it has at most
    # ex(n) edges; one plane attains ex(7) = 7 and two attain ex(14) = 14
    built = lt.thm45_construction(3, 4, n)
    res = lt.max_edges(n, 3, lt.parse_pattern("P4@r3"), "linear")
    assert res.exact and built.actual <= res.value
    assert (built.actual == res.value) == (n in (7, 14))


def test_thm45_affine_plane_attains_the_p5_value():
    # at ell = 5 and n = 9 thm45's design is a Steiner triple system on 9
    # points, the affine plane AG(2, 3): 12 triples covering every pair
    # once.  P5 spans 11 vertices, so ex(9, P5) is the packing number 12
    built = lt.thm45_construction(3, 5, 9)
    pairs = [p for e in built.result.edges for p in combinations(e, 2)]
    assert sorted(pairs) == list(combinations(range(9), 2))
    res = lt.max_edges(9, 3, lt.parse_pattern("P5@r3"), "linear")
    assert (built.actual, res.status, res.value) == (12, "exact", 12)


@pytest.mark.parametrize("n", range(3, 15))
def test_paper_path_caps_hold_on_the_exact_values(n):
    # linear_path_upper at r = 3: the matching number floor(n/3) for P2,
    # which is exact, n for P3 and 6n for P4.  The P3 cap is attained by
    # one Fano plane at n = 7 and by two disjoint ones at n = 14 only
    p2, p3, p4 = (lt.max_edges(n, 3, lt.linear_path(ell, 3), "linear") for ell in (2, 3, 4))
    assert p2.exact and p3.exact and p4.exact
    assert p2.value == lt.linear_path_upper(3, 2, n).value
    assert p3.value <= lt.linear_path_upper(3, 3, n).value
    assert (p3.value == n) == (n in (7, 14))
    assert p4.value <= lt.linear_path_upper(3, 4, n).value


# graphs: at r = 2 every host is linear, so both host strings search the
# same hosts, and both prove their value by the max-degree split
def graph_max(n, expr, host):
    res = lt.max_edges(n, 2, lt.parse_pattern(f"{expr}@r2"), host)
    assert (res.status, res.stats.proof) == ("exact", "degree-split")
    return res.value


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("n", range(3, 11))
def test_triangle_free_graphs_are_mantels(n, host):
    # a triangle-free graph on n vertices has at most floor(n^2/4) edges
    # (W. Mantel, "Problem 28", Wiskundige Opgaven 10, 1907)
    assert graph_max(n, "C3", host) == n * n // 4


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("n", range(6, 9))
def test_pentagon_free_graphs_are_bipartite(n, host):
    # ex(n, C_{2k+1}) = floor(n^2/4) for n >= 4k-2, so for C5 from n = 6
    # on (Z. Füredi and D. S. Gunderson, "Extremal numbers for odd
    # cycles", Combin. Probab. Comput. 24, 2015); n = 5 gives 7, outside
    # that range
    assert graph_max(n, "C5", host) == n * n // 4


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("ell", [3, 4])
@pytest.mark.parametrize("n", range(2, 11))
def test_path_free_graphs_are_faudree_schelps(n, ell, host):
    # a graph with no path on k = ell+1 vertices has at most
    # q C(k-1, 2) + C(t, 2) edges, n = q(k-1) + t with 0 <= t < k-1,
    # attained by disjoint cliques (R. J. Faudree and R. H. Schelp, "Path
    # Ramsey numbers in multicolorings", J. Combin. Theory Ser. B 19, 1975)
    q, t = divmod(n, ell)
    assert graph_max(n, f"P{ell}", host) == q * comb(ell, 2) + comb(t, 2)


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("n,value", zip(range(3, 10), [3, 4, 6, 7, 9, 11, 13]))
def test_four_cycle_free_graphs_are_clapham_flockhart_sheehans(n, value, host):
    # ex(n, C4) for n <= 21 (C. R. J. Clapham, A. Flockhart and J.
    # Sheehan, "Graphs without four-cycles", J. Graph Theory 13, 1989);
    # n = 10, 16 edges, takes seconds and is left out
    assert graph_max(n, "C4", host) == value


@pytest.mark.parametrize("host", HOSTS)
@pytest.mark.parametrize("expr", ["P2", "S2"])
@pytest.mark.parametrize("n", range(2, 11))
def test_graphs_without_two_touching_edges_are_matchings(n, expr, host):
    # two edges that share a vertex are both a path and a star of two
    # edges, so a free graph is a matching: floor(n/2) edges
    assert graph_max(n, expr, host) == n // 2
