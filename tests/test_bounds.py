from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, strategies as st

import linturan as lt
from linturan.bounds import (
    ASYMPTOTIC,
    DESIGN_PREMISE,
    PATH_TERM_BOUNDED,
    STAND_IN_CONSTANT,
    STAND_IN_STAR,
)
from linturan.errors import BadParameters


class TestLinearPathUpper:
    def test_long_paths(self):
        rep = lt.linear_path_upper(3, 4, 100)
        assert (rep.value, rep.side, rep.applicable) == (F(600), "upper", True)
        assert rep.caveats == ()
        assert lt.linear_path_upper(4, 5, 10).value == F(5 * 5 * 10, 2)

    def test_two_edge_paths_exact_matching_number(self):
        rep = lt.linear_path_upper(5, 2, 12)
        assert (rep.value, rep.side) == (F(2), "exact")
        assert lt.linear_path_upper(3, 2, 8).value == F(2)

    def test_three_edge_paths(self):
        rep = lt.linear_path_upper(3, 3, 50)
        assert (rep.value, rep.side) == (F(50), "upper")

    def test_r3_slope_is_three_halves_ell(self):
        for ell in (4, 5, 7):
            for n in (10, 33, 100):
                assert lt.linear_path_upper(3, ell, n).value == F(3, 2) * ell * n

    def test_rejections(self):
        with pytest.raises(BadParameters):
            lt.linear_path_upper(2, 4, 10)
        with pytest.raises(BadParameters):
            lt.linear_path_upper(3, 1, 10)
        with pytest.raises(BadParameters):
            lt.linear_path_upper(3, 4, -1)


class TestStarForests:
    def test_spot_values(self):
        assert lt.star_forest_upper(3, 2, 1, 10).value == F(10, 3)
        assert lt.star_forest_upper(3, 1, 1, 10).value == F(0)
        assert lt.star_forest_upper(3, 4, 2, 20).value == F(57, 2)

    def test_always_flagged_asymptotic(self):
        rep = lt.star_forest_upper(3, 4, 2, 20)
        assert rep.caveats == (ASYMPTOTIC,)
        assert rep.side == "upper"

    def test_closed_form(self):
        r, ell, k, n = 4, 3, 2, 30
        want = (F(ell - 1, r) + F(k - 1, r - 1)) * (n - k + 1) + F(
            comb(k - 1, 2), comb(r, 2)
        )
        assert lt.star_forest_upper(r, ell, k, n).value == want


class TestPathStarForests:
    def test_path_only_matches_path_rule(self):
        assert lt.path_star_forest_upper(3, 4, [], 100).value == F(600)

    def test_with_stars(self):
        assert lt.path_star_forest_upper(3, 4, [4], 100).value == F(1287, 2)
        assert lt.path_star_forest_upper(3, 4, [5], 100).value == F(792)

    def test_longest_component_drives_the_slope(self):
        # a star longer than the path takes over as the dominant length,
        # so stretching the path up to it does not move the bound
        a = lt.path_star_forest_upper(3, 4, [6], 50)
        b = lt.path_star_forest_upper(3, 6, [6], 50)
        assert a.value == b.value == F(931, 2)

    def test_lengths_must_be_nonincreasing(self):
        with pytest.raises(BadParameters):
            lt.path_star_forest_upper(3, 4, [3, 5], 100)


class TestLowerFamily:
    def test_packing_value_and_premise(self):
        rep = lt.packing_lower(3, 4, 12)
        assert rep.value == F(14)
        assert rep.side == "lower"
        assert not rep.applicable
        assert DESIGN_PREMISE in rep.caveats

    def test_packing_formula(self):
        # (ell/r - 1/(r(r-1))) n
        assert lt.packing_lower(3, 4, 24).value == (F(4, 3) - F(1, 6)) * 24

    def test_removal_recurses_into_path_cap(self):
        rep = lt.removal_upper(3, 4, 1, 101)
        assert rep.value == F(650)
        assert PATH_TERM_BOUNDED in rep.caveats
        supplied = lt.removal_upper(3, 4, 1, 101, path_free_max=600)
        assert supplied.value == F(650)
        assert PATH_TERM_BOUNDED not in supplied.caveats

    def test_inserted_product_desk_value(self):
        rep = lt.inserted_product_lower(3, 4, 3, 59)
        assert rep.value == F(451, 3)
        assert not rep.applicable

    def test_inserted_product_formula(self):
        r, ell, k = 3, 4, 2
        n = 2 + 4 * 2 * 2 * 2  # satisfies the divisibility premise
        want = (F(k, r - 1) + F(ell * (r - 1) - 1, r * (r - 1))) * (n - k) + F(
            k * (k - 1), r * (r - 1)
        )
        assert lt.inserted_product_lower(r, ell, k, n).value == want


class TestTuranFormulas:
    def test_single_path_spot_values(self):
        assert lt.path_turan_exact(3, 5, 10).value == F(64)
        assert lt.path_turan_exact(3, 4, 10).value == F(43)

    def test_single_path_closed_form(self):
        r, ell, n = 3, 5, 10
        d = (ell - 1) // 2
        want = comb(n, r) - comb(n - d, r)
        if ell % 2 == 0:
            want += comb(n - d - 2, r - 2)
        assert lt.path_turan_exact(r, ell, n).value == want
        assert lt.path_turan_exact(3, 4, 10).value == comb(10, 3) - comb(9, 3) + comb(7, 1)
        # telescoped form of the same count
        assert lt.path_turan_exact(3, 5, 12).value == comb(11, 2) + comb(10, 2)

    def test_disjoint_paths_spot_value(self):
        rep = lt.disjoint_paths_turan(3, 1, 2, 10)
        assert rep.value == F(64)
        assert ASYMPTOTIC in rep.caveats

    def test_star_turan_scales_with_c(self):
        rep = lt.star_turan_upper(3, 4, 10)
        assert rep.value == F(120)
        assert rep.caveats == (ASYMPTOTIC, STAND_IN_CONSTANT)
        assert lt.star_turan_upper(3, 4, 10, c=F(1, 2)).value == F(60)

    def test_path_star_pair(self):
        lo, hi = lt.path_star_turan(3, 4, 2, 30)
        assert (lo.value, lo.side, lo.applicable) == (F(1120), "lower", False)
        assert STAND_IN_STAR in lo.caveats
        assert (hi.value, hi.side, hi.applicable) == (F(1160), "upper", True)

    def test_forest_pair(self):
        lo, hi = lt.forest_turan(3, 4, 2, 1, 30)
        assert lo.value == F(1120)
        assert hi.value == F(1784)
        assert not lo.applicable and hi.applicable

    def test_umbrella_selection(self):
        assert [x.rule for x in lt.turan_formulas(3, 4, 10)] == [
            "path-turan",
            "star-turan",
        ]
        assert [x.rule for x in lt.turan_formulas(3, 4, 10, k=2)] == [
            "path-turan",
            "star-turan",
            "disjoint-paths-turan",
            "path-star-turan",
            "path-star-turan",
        ]
        assert [x.rule for x in lt.turan_formulas(3, 4, 10, k=(2, 1))] == [
            "path-turan",
            "star-turan",
            "forest-turan",
            "forest-turan",
        ]
        with pytest.raises(BadParameters):
            lt.turan_formulas(3, 1, 10)


@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=1, max_value=60),
)
def test_forest_with_no_stars_is_the_path_rule(r, ell, n):
    assert lt.path_star_forest_upper(r, ell, [], n).value == lt.linear_path_upper(
        r, ell, n
    ).value


@given(
    st.integers(min_value=3, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=10, max_value=60),
)
def test_disjoint_paths_sum_telescopes(r, ell, n):
    # the per-vertex sum collapses to a difference of two binomials
    d = (ell + 1) // 2
    want = comb(n, r) - comb(n - 2 * d, r)
    if ell % 2 == 0:
        want += comb(n - 2 * d - 1, r - 2)
    assert lt.disjoint_paths_turan(r, ell, 2, n).value == want


@given(
    st.integers(min_value=3, max_value=4),
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=2, max_value=40),
)
def test_values_are_nonnegative_and_monotone_in_n(r, ell, n):
    rep = lt.linear_path_upper(r, ell, n)
    assert rep.value >= 0
    assert lt.linear_path_upper(r, ell, n + 1).value >= rep.value


def test_report_rendering():
    rep = lt.linear_path_upper(3, 4, 100)
    assert str(rep) == "linear-path: upper 600"
    obj = rep.to_obj()
    assert obj["value"] == "600"
    assert obj["value_float"] == 600.0
    assert obj["params"] == {"r": 3, "ell": 4, "n": 100}


# one call per parameter check (bound, its arguments), with the full
# message it must give
_REJECTED = [
    (lt.linear_path_upper, (1, 4, 10), "edge order must be at least 2, got 1"),
    (lt.linear_path_upper, (3, 4, -1), "host size must be nonnegative, got -1"),
    (lt.linear_path_upper, (2, 4, 10), "path bounds need edge order >= 3, got 2"),
    (lt.linear_path_upper, (3, 1, 10), "path length must be at least 2, got 1"),
    (lt.star_forest_upper, (3, 0, 1, 10), "need ell, k >= 1, got ell=0, k=1"),
    (lt.star_forest_upper, (3, 1, 0, 10), "need ell, k >= 1, got ell=1, k=0"),
    (lt.path_star_forest_upper, (3, 3, (3,), 10),
     "need edge order >= 3 and path length >= 4, got r=3, ell0=3"),
    (lt.path_star_forest_upper, (3, 4, (4, 0), 10),
     "star lengths must be positive, got (4, 0)"),
    (lt.path_star_forest_upper, (3, 4, [3, 4], 10),
     "star lengths must be nonincreasing, got (3, 4)"),
    (lt.packing_lower, (3, 3, 10), "need r >= 3 and ell >= 4, got r=3, ell=3"),
    (lt.removal_upper, (3, 4, -1, 10), "need r >= 3, ell >= 4, k >= 0, got r=3, ell=4, k=-1"),
    (lt.removal_upper, (3, 4, 11, 10), "host size 10 smaller than removed set 11"),
    (lt.inserted_product_lower, (3, 4, 0, 10),
     "need r >= 3, ell >= 4, k >= 1, got r=3, ell=4, k=0"),
    (lt.inserted_product_lower, (3, 4, 11, 10), "host size 10 smaller than hub set 11"),
    (lt.path_turan_exact, (2, 4, 10), "need r >= 3 and ell >= 4, got r=2, ell=4"),
    (lt.disjoint_paths_turan, (3, 4, 1, 10),
     "need r >= 3, ell >= 1, k >= 2, got r=3, ell=4, k=1"),
    (lt.star_turan_upper, (3, 1, 10), "need r >= 3 and ell >= 2, got r=3, ell=1"),
    (lt.star_turan_upper, (3, 4, 10, F(-1, 2)), "constant factor must be positive, got -1/2"),
    (lt.path_star_turan, (3, 4, -1, 10),
     "need r >= 3, ell >= 4, k >= 0, got r=3, ell=4, k=-1"),
    (lt.path_star_turan, (3, 4, 11, 10), "host size 10 smaller than star count 11"),
    (lt.forest_turan, (3, 4, 1, 0, 10),
     "need r >= 3, ell >= 4, k1 >= 2, k2 >= 0, got r=3, ell=4, k1=1, k2=0"),
    (lt.forest_turan, (3, 4, 2, 9, 10), "host size 10 too small for 11 components"),
    (lt.turan_formulas, (2, 4, 10), "these formulas need edge order >= 3, got 2"),
    (lt.turan_formulas, (3, 4, 10, (1, 2, 3)),
     "component counts must be a pair, got (1, 2, 3)"),
    (lt.turan_formulas, (3, 1, 10), "no formula applies at r=3, ell=1, k=None"),
    (lt.removal_upper, (3, 4, 1, 10, -5), "path-free maximum must be nonnegative, got -5"),
    # a size that is not an int, a bool included, is refused by name
    # before any arithmetic (Fraction raises TypeError on a float)
    (lt.linear_path_upper, (3, 4, 10.5), "n must be an int, got 10.5"),
    (lt.linear_path_upper, (3.0, 4, 10), "r must be an int, got 3.0"),
    (lt.linear_path_upper, (3, 4.0, 10), "ell must be an int, got 4.0"),
    (lt.star_forest_upper, (3, 2, True, 10), "k must be an int, got True"),
    (lt.path_star_forest_upper, (3, 4, (4, 2.0), 10), "star length 1 must be an int, got 2.0"),
    (lt.packing_lower, (3, 4, "10"), "n must be an int, got '10'"),
    (lt.removal_upper, (3, 4, 1.5, 10), "k must be an int, got 1.5"),
    (lt.inserted_product_lower, (3, 4, 1, 10.0), "n must be an int, got 10.0"),
    (lt.path_turan_exact, (3, 4, 10.0), "n must be an int, got 10.0"),
    (lt.disjoint_paths_turan, (3, 4, 2.0, 10), "k must be an int, got 2.0"),
    (lt.star_turan_upper, (3, 4.5, 10), "ell must be an int, got 4.5"),
    (lt.path_star_turan, (3, 4, 1.0, 10), "k must be an int, got 1.0"),
    (lt.forest_turan, (3, 4, 2, 0.0, 10), "k2 must be an int, got 0.0"),
    (lt.turan_formulas, (3, 4, 10.0), "n must be an int, got 10.0"),
    (lt.turan_formulas, (3, 3, 10, 1.5), "k must be an int, got 1.5"),
]


@pytest.mark.parametrize(
    "bound,args,message", _REJECTED,
    ids=[f"{bound.__name__}-{i}" for i, (bound, _, _) in enumerate(_REJECTED)],
)
def test_rejected_parameters_are_named(bound, args, message):
    with pytest.raises(BadParameters) as info:
        bound(*args)
    assert str(info.value) == message


def test_fraction_and_tuple_params_render_as_json():
    rep = lt.star_turan_upper(3, 4, 10, c=F(1, 2))
    assert rep.to_obj()["params"]["c"] == "1/2"
    assert rep.to_obj()["value"] == "60"
    rep = lt.path_star_forest_upper(3, 4, (4, 4), 100)
    assert rep.to_obj()["params"]["lengths"] == [4, 4]
