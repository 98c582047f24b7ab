import pytest
from hypothesis import given, strategies as st

import linturan as lt
from linturan.errors import BadParameters


def test_path_star_cycle_vertex_counts():
    for ell in (2, 3, 4):
        for r in (3, 4):
            assert lt.realize(lt.linear_path(ell, r)).n == ell * (r - 1) + 1
            assert lt.realize(lt.linear_star(ell, r)).n == ell * (r - 1) + 1
    for ell in (3, 4, 5):
        assert lt.realize(lt.linear_cycle(ell, 3)).n == ell * 2


def test_realizations_are_linear_and_uniform():
    for expr in ("P4@r3", "S3@r4", "C4@r3", "2*P3+S2@r3", "P4+S4+S3@r3"):
        h = lt.realize(lt.parse_pattern(expr))
        assert lt.is_linear(h)
        assert h.r == lt.parse_pattern(expr).r


def test_forest_realization_sizes():
    cases = {
        "P2+S2@r3": (10, 4),
        "2*P4@r3": (18, 8),
        "P4+S4+S3@r3": (25, 11),
    }
    for expr, shape in cases.items():
        h = lt.realize(lt.parse_pattern(expr))
        assert (h.n, h.edge_count) == shape


def test_components_are_canonically_ordered():
    a = lt.parse_pattern("S2+P3+P3@r3")
    b = lt.forest(
        [
            lt.PatternComponent("star", 2),
            lt.PatternComponent("path", 3),
            lt.PatternComponent("path", 3),
        ],
        3,
    )
    assert a == b
    assert lt.pattern_expr(a) == "2*P3+S2@r3"


def test_default_r_applies_only_without_suffix():
    assert lt.pattern_expr(lt.parse_pattern("P4", default_r=3)) == "P4@r3"
    assert lt.parse_pattern("P4@r4", default_r=3).r == 4


def test_copies_multiplies_components():
    doubled = lt.copies(2, lt.linear_path(4, 3))
    assert lt.pattern_expr(doubled) == "2*P4@r3"
    assert len(doubled.components) == 2


@pytest.mark.parametrize(
    "text",
    ["", "P4", "Q3@r3", "P0@r3", "C2@r3", "P4@r1", "0*P4@r3", "P4@@r3",
     "100001*P4@r3", "50000*P4+50001*S2@r3", "P1234567890@r3", "P4@r1234567890",
     "99999999999999999999*P1@r3"],
)
def test_parse_rejections(text):
    with pytest.raises(BadParameters):
        lt.parse_pattern(text)


def test_copy_cap_is_reachable():
    cap = lt.patterns.MAX_COMPONENTS
    assert len(lt.parse_pattern(f"{cap - 1}*P1+S2@r3").components) == cap


@st.composite
def patterns(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    n_comps = draw(st.integers(min_value=1, max_value=3))
    comps = []
    for _ in range(n_comps):
        kind = draw(st.sampled_from(["path", "star", "cycle"]))
        low = 3 if kind == "cycle" else 1
        comps.append(lt.PatternComponent(kind, draw(st.integers(low, 5))))
    return lt.forest(comps, r)


@given(patterns())
def test_expr_parse_round_trip(pattern):
    assert lt.parse_pattern(lt.pattern_expr(pattern)) == pattern


@given(patterns())
def test_realization_contains_its_own_pattern(pattern):
    h = lt.realize(pattern)
    emb = lt.contains(h, pattern)
    assert emb is not None
    assert lt.verify_embedding(h, emb)
