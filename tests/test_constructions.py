import hashlib
from fractions import Fraction as F
from math import comb

import pytest

import linturan as lt
from linturan.constructions import FALLBACK_NOTE, NOT_LINEAR_NOTE, PADDING_NOTE
from linturan.errors import BadParameters, NoDesignAvailable


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

    def test_certify_flag_controls_detect_pass(self):
        rep = lt.thm45_construction(3, 4, 7, certify=False)
        assert [c.method for c in rep.certificates] == ["structural"]

    def test_rejections(self):
        with pytest.raises(BadParameters):
            lt.thm45_construction(3, 3, 10)
        with pytest.raises(NoDesignAvailable):
            lt.thm45_construction(3, 4, 2)


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


def test_report_rendering():
    rep = lt.thm45_construction(3, 4, 14)
    text = str(rep)
    assert text.startswith("thm45: 14 vertices, 14 edges (nominal 49/3)")
    obj = rep.to_obj()
    assert obj["actual"] == 14
    assert obj["nominal"] == "49/3"
    assert obj["linear"] is True
