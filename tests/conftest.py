import pytest

import linturan as lt


@pytest.fixture(scope="session")
def fano():
    return lt.require_design(7, 3).graph


@pytest.fixture(scope="session")
def affine9():
    return lt.require_design(9, 3).graph


@pytest.fixture(scope="session")
def sts13():
    return lt.require_design(13, 3).graph


@pytest.fixture
def announce(capsys):
    # one visible verdict line per acceptance criterion, even under capture
    def _say(line):
        with capsys.disabled():
            print(line)

    return _say


@pytest.fixture
def p3_plus_pendant():
    # loose path with 3 edges plus one extra edge through a left end
    # and an interior vertex; the canonical frame example host
    base = lt.realize(lt.linear_path(3, 3))
    return lt.make_hypergraph(8, list(base.edges) + [(1, 3, 7)], 3)
