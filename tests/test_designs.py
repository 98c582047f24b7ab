from fractions import Fraction
from itertools import combinations

import pytest

import linturan as lt
from linturan.errors import BadParameters, NoDesignAvailable, ProductTooLarge


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
    (3, 2, "search", 3),  # at r = 2 the search gives K_n
    (5, 2, "search", 10),
    (6, 2, "search", 15),
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


SEARCHES = [
    # (n, r, caps, blocks): the projective plane of order 3 past its
    # prime cap, and the planes of orders 4 (affine, projective) that no
    # algebraic strategy here builds
    (13, 4, {"prime_cap": 2}, 13),
    (16, 4, {"search_cap": 16}, 20),
    (21, 5, {"search_cap": 21}, 21),
]


@pytest.mark.parametrize("n,r,caps,blocks", SEARCHES)
def test_search_builds_verified_designs(n, r, caps, blocks):
    d = lt.build_design(n, r, **caps).design
    assert (d.strategy, d.num_blocks) == ("search", blocks)
    assert lt.verify_design(d.graph)
    assert set(pair_coverage(d.graph).values()) == {1}
    assert d.graph.edges[0] == tuple(range(r))  # new points enter in order


LEX_LEAST = [(n, r, caps) for n, r, caps, _ in SEARCHES] + [
    # prime_cap 1 keeps the affine plane of order 2, K_4, from answering
    (n, 2, {"prime_cap": 1}) for n in range(3, 9)
]


@pytest.mark.parametrize("n,r,caps", LEX_LEAST)
def test_search_builds_the_lex_least_design(n, r, caps):
    # iter_free walks every labelled linear host in lexicographic order,
    # with no root rule, so its first host of the block count is the
    # lex-least design, found without the split's symmetry argument
    d = lt.build_design(n, r, **caps).design
    assert d.strategy == "search"
    blocks = int(lt.block_count(n, r))
    assert d.graph == next(lt.iter_free(n, r, None, "linear", edge_count=blocks))


def test_search_depth_is_not_bounded_by_the_call_stack():
    # 528 blocks deep, past Python's recursion limit for a recursive search
    d = lt.build_design(33, 2, search_cap=33).design
    assert (d.strategy, d.num_blocks) == ("search", 528)
    assert lt.verify_design(d.graph)


def test_search_past_the_candidate_cap_is_refused():
    # C(31, 6) six-point candidates list more vertices than the oracle's cap
    with pytest.raises(ProductTooLarge):
        lt.build_design(31, 6, prime_cap=3, search_cap=31)


def test_exhausted_search_says_so():
    # admissible, but its 8 blocks are fewer than its 16 points, which
    # Fisher's inequality forbids: the search runs and finds nothing
    assert lt.is_admissible(16, 6)
    out = lt.build_design(16, 6, search_cap=16)
    assert out.design is None
    assert out.reason == "search-exhausted: exhaustive search finds no design for n=16, r=6"
    assert lt.build_design(16, 6).reason == (
        "not-attempted: no construction strategy covers n=16, r=6"
    )


def test_admissibility_is_the_divisibility_test():
    for n in range(3, 40):
        want = (n - 1) % 2 == 0 and (n * (n - 1)) % 6 == 0
        assert lt.is_admissible(n, 3) == want


@pytest.mark.parametrize("call,message", [
    (lambda: lt.build_design(7.0, 3), "n must be an int, got 7.0"),
    (lambda: lt.build_design(7, 3.0), "r must be an int, got 3.0"),
    (lambda: lt.is_admissible(7.0, 3), "n must be an int, got 7.0"),
    (lambda: lt.block_count(True, 3), "n must be an int, got True"),
], ids=["float-n", "float-r", "admissible", "bool-n"])
def test_non_int_sizes_are_rejected(call, message):
    with pytest.raises(BadParameters) as info:
        call()
    assert str(info.value) == message


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
