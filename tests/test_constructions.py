import hashlib
import itertools
from fractions import Fraction as F
from math import comb

import pytest

import linturan as lt
import naive_constructions as naive
from linturan.constructions import (
    FALLBACK_NOTE,
    NOT_LINEAR_NOTE,
    PADDING_NOTE,
    _structural_forest_premises,
    fallback_block_count,
)
from linturan.errors import (
    BadParameters,
    InvariantViolation,
    LinturanError,
    NoDesignAvailable,
    ProductTooLarge,
)
from linturan.hypergraph import DEFAULT_PRODUCT_CAP


def caveat_with(report, prefix):
    return [c for c in report.caveats if c.startswith(prefix)]


class TestFallbackBlockCount:
    def test_fano_is_the_fallback_at_r3_ell4(self):
        d = lt.fallback_block_count(3, 4)
        # the resolvable size 8 is never admissible, 7 is the Fano plane
        assert (d.n, d.graph.edge_count) == (7, 7)
        assert lt.verify_design(d.graph)

    def test_limit_caps_the_search(self):
        assert lt.fallback_block_count(3, 4, limit=6).n == 3

    def test_nothing_below_r(self):
        with pytest.raises(NoDesignAvailable):
            lt.fallback_block_count(3, 4, limit=2)


class TestDesignCopies:
    def test_exact_multiple_of_fallback(self):
        rep = lt.thm45_construction(3, 4, 14)
        assert (rep.actual, rep.nominal) == (14, F(49, 3))
        assert rep.linear
        assert dict(rep.params)["copies"] == 2
        assert caveat_with(rep, FALLBACK_NOTE)
        assert not caveat_with(rep, PADDING_NOTE)
        assert [c.method for c in rep.certificates] == ["structural", "detect"]
        assert all(lt.pattern_expr(c.pattern) == "P4@r3" for c in rep.certificates)

    def test_single_block(self):
        rep = lt.thm45_construction(3, 4, 7)
        assert rep.actual == 7
        assert rep.nominal == F(49, 6)
        assert lt.is_free(rep.result, lt.linear_path(4, 3))

    def test_padding_when_not_divisible(self):
        rep = lt.thm45_construction(3, 4, 9)
        assert rep.actual == 7
        assert rep.result.n == 9
        assert caveat_with(rep, PADDING_NOTE)

    def test_small_fallback(self):
        rep = lt.thm45_construction(3, 4, 6)
        assert (rep.actual, rep.nominal) == (2, F(7))
        assert dict(rep.params)["m"] == 3

    @pytest.mark.parametrize("r,ell,n", [(3, 4, 14), (3, 4, 9), (3, 4, 6), (3, 5, 400), (4, 5, 60)])
    def test_linear_verdict_comes_from_the_design(self, monkeypatch, r, ell, n):
        # the host is disjoint copies of a design that build_design has
        # verified, so the report says linear without a pass over the host
        calls = []
        monkeypatch.setattr(lt.constructions, "is_linear", calls.append)
        rep = lt.thm45_construction(r, ell, n, certify=False)
        assert calls == []
        assert rep.linear and lt.is_linear(rep.result)

    def test_certify_flag_controls_detect_pass(self):
        rep = lt.thm45_construction(3, 4, 7, certify=False)
        assert [c.method for c in rep.certificates] == ["structural"]

    def test_rejections(self):
        with pytest.raises(BadParameters):
            lt.thm45_construction(3, 3, 10)
        with pytest.raises(NoDesignAvailable):
            lt.thm45_construction(3, 4, 2)

    def test_edge_cap_is_checked_before_the_copies(self, monkeypatch):
        # 1 005 copies of a 199-point design of 6 567 blocks: every vertex
        # cap passes, and the host is refused before any copy is laid out
        def refuse(*args, **kwargs):
            raise AssertionError("thm45 host built before the edge cap check")

        monkeypatch.setattr(lt.constructions, "make_hypergraph", refuse)
        with pytest.raises(
            ProductTooLarge, match=r"^thm45 host would have 6599835 edges \(cap 2000000\)$"
        ):
            lt.thm45_construction(3, 100, 200000)


class TestInsertedProduct:
    def test_desk_instance(self):
        rep = lt.thm47_construction(3, 4, 3, 1)
        assert (rep.result.n, rep.actual) == (59, 141)
        assert rep.linear
        assert rep.result.r == 3
        assert rep.nominal == F(451, 3)
        assert [c.method for c in rep.certificates] == ["structural", "detect"]
        assert all(
            lt.pattern_expr(c.pattern) == "P4+3*S4@r3" for c in rep.certificates
        )
        assert caveat_with(rep, FALLBACK_NOTE)

    def test_desk_instance_hub_removal(self):
        rep = lt.thm47_construction(3, 4, 3, 1, certify=False)
        rest = lt.remove_vertices(rep.result, range(3))
        comps = lt.connected_components(rest)
        assert len(comps) == 8
        assert all(len(c) == 7 for c in comps)

    def test_zero_copies_is_just_the_hub(self):
        rep = lt.thm47_construction(3, 4, 3, 0)
        assert (rep.result.n, rep.actual) == (3, 1)
        assert rep.nominal == F(1)

    def test_zero_copies_builds_no_lattice(self, monkeypatch):
        # the host is the 15-point hub design alone; the product a copy
        # would need has 229 376 vertices, past the cap
        def refuse(*args):
            raise AssertionError("lattice built for zero copies")

        monkeypatch.setattr(lt.constructions, "integer_lattice", refuse)
        rep = lt.thm47_construction(3, 4, 15, 0)
        assert str(rep).splitlines()[0].startswith("thm47: 15 vertices, 35 edges")
        assert [c.method for c in rep.certificates] == ["structural", "detect"]

    def test_parameter_check_names_the_values(self):
        with pytest.raises(BadParameters) as info:
            lt.thm47_construction(3, 4, 3, -1)
        assert str(info.value) == (
            "need r >= 3, ell >= 4, k >= 1, copies >= 0, got r=3, ell=4, k=3, copies=-1"
        )

    def test_hub_needs_a_design(self):
        with pytest.raises(NoDesignAvailable):
            lt.thm47_construction(3, 4, 2, 1)

    def test_single_hub_vertex(self):
        rep = lt.thm47_construction(3, 4, 1, 1)
        assert rep.linear
        assert lt.is_free(rep.result, lt.parse_pattern("P4+S4@r3"))

    def test_hosts_are_pinned(self):
        # hub i goes into the thin edges along lattice axis i: another
        # assignment is still linear and free, but a different host
        digest = hashlib.sha256()
        for args in [(3, 4, 3, 1), (3, 4, 3, 2), (3, 4, 7, 1), (3, 5, 7, 1), (4, 4, 4, 1)]:
            digest.update(repr(lt.thm47_construction(*args, certify=False).result.edges).encode())
        for base, dim in [(3, 2), (4, 3)]:
            digest.update(repr(lt.integer_lattice(base, dim).edges).encode())
        fano = lt.require_design(7, 3).graph
        digest.update(repr(lt.cartesian_product(fano, lt.integer_lattice(3, 2)).edges).encode())
        assert digest.hexdigest()[:16] == "0e0babcfea6abc02"

    def test_largest_benchmark_host_is_pinned(self):
        edges = lt.thm47_construction(3, 4, 7, 2, certify=False).result.edges
        assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == "7325b8ccdcfe7c8f"

    def test_cap_is_checked_before_the_hub_design(self, monkeypatch):
        # k = 999 has a design of 166 167 blocks, and a host of about
        # 2^999 vertices: the host is refused without building the design
        def refuse(*args):
            raise AssertionError("hub design built before the cap check")

        monkeypatch.setattr(lt.constructions, "require_design", refuse)
        with pytest.raises(ProductTooLarge, match=r"^thm47 host would have \d+ vertices"):
            lt.thm47_construction(3, 4, 999, 1)

    def test_cap_comes_before_a_missing_hub_design(self):
        # no design on 2 points, and a host past the cap: the cap wins
        with pytest.raises(ProductTooLarge):
            lt.thm47_construction(3, 4, 2, 10**5)


def _outcome(build, *args):
    try:
        rep = build(*args)
    except LinturanError as exc:
        return type(exc), str(exc)
    return rep.result, rep.to_obj(), str(rep)


# every row is under the cap; r = 4 has no design on 3 or 7 hub points
THM47_GRID = [
    (r, ell, k, copies)
    for r in (3, 4)
    for ell in (4, 5)
    for k in (1, 3, 7)
    for copies in (0, 1, 2)
    if k + copies * fallback_block_count(r, ell).n * (r - 1) ** k <= DEFAULT_PRODUCT_CAP
]


@pytest.mark.parametrize("params", THM47_GRID, ids=lambda p: "-".join(map(str, p)))
def test_thm47_matches_the_validated_build(params):
    got = _outcome(lt.thm47_construction, *params)
    assert got == _outcome(naive.thm47_construction, *params)


class TestStructuralPremises:
    """thm47 (3, 4, 3, 1): hubs 0, 1, 2 and eight Fano blocks of 7 vertices."""

    K, ELL, R, M, BLOCKS = 3, 4, 3, 7, 8

    @pytest.fixture(scope="class")
    def host(self):
        return lt.thm47_construction(3, 4, 3, 1, certify=False).result

    @pytest.fixture(scope="class")
    def blocks(self, host):
        rest = lt.remove_vertices(host, range(self.K))
        return [sorted(v + self.K for v in c) for c in lt.connected_components(rest)]

    def _outcomes(self, host):
        out = []
        for check in (_structural_forest_premises, naive.structural_forest_premises):
            try:
                check(host, self.K, self.ELL, self.R, self.M, self.BLOCKS)
                out.append(None)
            except InvariantViolation as exc:
                out.append(str(exc))
        return out

    def _with(self, host, edge):
        return lt.make_hypergraph(host.n, host.edges + (edge,), host.r)

    def test_the_built_host_passes(self, host, blocks):
        # vertex K, the first one past the hubs, starts block 0's edges
        assert blocks[0][0] == self.K
        assert self._outcomes(host) == [None, None]

    def test_an_edge_joining_two_blocks(self, host, blocks):
        joined = self._with(host, (blocks[0][0], blocks[1][0], blocks[2][0]))
        got, want = self._outcomes(joined)
        assert got == want
        assert want.startswith("hub removal left [")

    def test_a_block_vertex_of_degree_ell(self, host, blocks):
        # a fourth edge through vertex K, inside its Fano block; an edge
        # that starts at K misses the hubs and must count
        edges = set(host.edges)
        extra = next(
            e for e in itertools.combinations(blocks[0], 3) if e[0] == self.K and e not in edges
        )
        got, want = self._outcomes(self._with(host, extra))
        assert got == want == "a component is dense enough to hold the star"


class TestCone:
    def test_every_edge_through_the_apex_set(self):
        rep = lt.cone_construction(7, 3, 1, lt.make_hypergraph(6, [], r=3))
        assert rep.actual == comb(7, 3) - comb(6, 3)
        assert all(e[0] == 0 for e in rep.result.edges)
        assert NOT_LINEAR_NOTE in rep.caveats

    def test_kernel_edges_are_kept_shifted(self, fano):
        rep = lt.cone_construction(9, 3, 2, fano)
        assert rep.actual == comb(9, 3) - comb(7, 3) + 7
        kernel_edges = [e for e in rep.result.edges if e[0] >= 2]
        assert len(kernel_edges) == 7
        assert kernel_edges == [tuple(v + 2 for v in e) for e in fano.edges]

    def test_pattern_presence_downgrades_to_caveat(self):
        rep = lt.cone_construction(
            7, 3, 1, lt.make_hypergraph(6, [], r=3), free_pattern=lt.linear_path(2, 3)
        )
        assert rep.certificates == ()
        assert any("P2@r3 present" in c for c in rep.caveats)

    def test_pattern_absence_is_certified(self):
        kernel = lt.max_edges(8, 3, lt.linear_star(4, 3), "linear").witness
        rep = lt.cone_construction(
            9, 3, 1, kernel, free_pattern=lt.parse_pattern("P4+S4@r3")
        )
        assert rep.actual == 36
        assert [c.method for c in rep.certificates] == ["detect"]

    def test_rejections(self, fano):
        with pytest.raises(BadParameters):
            lt.cone_construction(7, 3, 0, lt.make_hypergraph(7, [], r=3))
        with pytest.raises(BadParameters):
            lt.cone_construction(7, 3, 1, fano)  # kernel must have n-k vertices
        with pytest.raises(BadParameters):
            lt.cone_construction(9, 4, 2, fano)  # kernel order must match r

    def test_size_rejections_name_the_values(self):
        with pytest.raises(BadParameters) as info:
            lt.cone_construction(3, 4, 1, lt.make_hypergraph(2, [], r=4))
        assert str(info.value) == "no edges of order 4 fit on 3 vertices"
        with pytest.raises(lt.ProductTooLarge) as info:
            lt.cone_construction(300, 3, 1, lt.make_hypergraph(299, [], r=3))
        assert str(info.value) == (
            "cone enumeration of C(300,3) would have 4455100 3-sets (cap 2000000)"
        )


@pytest.mark.parametrize("build,message", [
    (lambda: lt.thm45_construction(3, 4, 14.0), "n must be an int, got 14.0"),
    (lambda: lt.thm45_construction(3.0, 4, 14), "r must be an int, got 3.0"),
    (lambda: lt.thm47_construction(3, 4, 3, 1.0), "copies must be an int, got 1.0"),
    (lambda: lt.thm47_construction(3, 4, True, 1), "k must be an int, got True"),
    (lambda: lt.cone_construction(7, 3, 1.0, lt.make_hypergraph(6, [], r=3)),
     "k must be an int, got 1.0"),
    (lambda: fallback_block_count(3, 4, limit=9.5), "limit must be an int, got 9.5"),
])
def test_sizes_that_are_not_ints_are_refused(build, message):
    # a bool counts as no int; a float would otherwise reach range()
    with pytest.raises(BadParameters) as info:
        build()
    assert str(info.value) == message


def test_report_rendering():
    rep = lt.thm45_construction(3, 4, 14)
    text = str(rep)
    assert text.startswith("thm45: 14 vertices, 14 edges (nominal 49/3)")
    obj = rep.to_obj()
    assert obj["actual"] == 14
    assert obj["nominal"] == "49/3"
    assert obj["linear"] is True
