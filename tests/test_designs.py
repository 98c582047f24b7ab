from fractions import Fraction
from itertools import combinations

import pytest

import linturan as lt
from linturan.errors import BadParameters, NoDesignAvailable


def pair_coverage(h):
    cover = {p: 0 for p in combinations(range(h.n), 2)}
    for e in h.edges:
        for p in combinations(e, 2):
            cover[p] += 1
    return cover


BUILDS = [
    # (n, r, strategy, blocks)
    (7, 3, "skolem", 7),
    (9, 3, "bose", 12),
    (13, 3, "skolem", 26),
    (15, 3, "bose", 35),
    (13, 4, "projective", 13),
    (25, 5, "affine", 30),
    (31, 6, "projective", 31),
    (4, 4, "single", 1),
    (3, 3, "single", 1),
]


@pytest.mark.parametrize("n,r,strategy,blocks", BUILDS)
def test_build_verify_and_count(n, r, strategy, blocks):
    d = lt.require_design(n, r)
    assert d.strategy == strategy
    g = d.graph
    assert g.edge_count == blocks
    assert lt.verify_design(g)
    assert lt.is_linear(g)
    # every pair covered exactly once, counted from scratch
    assert set(pair_coverage(g).values()) == {1}
    assert g.degrees() == [(n - 1) // (r - 1)] * n
    assert lt.block_count(n, r) == blocks


@pytest.mark.parametrize("n", [6, 8])
def test_inadmissible_orders(n):
    assert not lt.is_admissible(n, 3)
    out = lt.build_design(n, 3)
    assert out.design is None
    assert out.reason == "inadmissible"
    with pytest.raises(NoDesignAvailable):
        lt.require_design(n, 3)


def test_admissible_but_not_attempted():
    assert lt.is_admissible(21, 5)
    out = lt.build_design(21, 5)
    assert out.design is None
    assert out.reason == "not-attempted: no construction strategy covers n=21, r=5"


def test_admissibility_is_the_divisibility_test():
    for n in range(3, 40):
        want = (n - 1) % 2 == 0 and (n * (n - 1)) % 6 == 0
        assert lt.is_admissible(n, 3) == want


def test_counting_fractions():
    assert lt.block_count(9, 3) == Fraction(12)
    assert lt.block_count(8, 3) == Fraction(28, 3)  # non-integral: inadmissible


def test_verify_rejects_gaps_and_doubles(fano):
    missing = lt.make_hypergraph(7, list(fano.edges[:6]), 3)
    assert not lt.verify_design(missing)
    doubled = lt.make_hypergraph(7, list(fano.edges[:6]) + [(0, 1, 3)], 3)
    assert not lt.verify_design(doubled)
    with pytest.raises(BadParameters):
        lt.verify_design(lt.make_hypergraph(5, [(0, 1, 2), (3, 4)]))
