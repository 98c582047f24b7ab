import random

import pytest

import linturan as lt
import naive_detect as nd
from hostgen import random_host


def test_fano_path_facts(fano):
    assert lt.contains(fano, lt.linear_path(2, 3)) is not None
    # seven lines, any two meeting: no loose path with 3 edges fits
    assert lt.is_free(fano, lt.linear_path(3, 3))
    assert not nd.has_path(fano, 3)


def test_fano_star_facts(fano):
    emb = lt.contains(fano, lt.linear_star(3, 3))
    assert emb.edge_map == (0, 1, 2)
    assert lt.verify_embedding(fano, emb)
    # replication number is 3, so no 4-edge star
    assert lt.is_free(fano, lt.linear_star(4, 3))


def test_fano_has_no_two_disjoint_lines(fano):
    assert lt.is_free(fano, lt.parse_pattern("2*P1@r3"))


def test_fano_triangle(fano):
    emb = lt.contains(fano, lt.linear_cycle(3, 3))
    assert emb is not None
    assert lt.verify_embedding(fano, emb)
    assert nd.has_cycle(fano, 3)


def test_witness_is_deterministic(fano):
    a = lt.contains(fano, lt.linear_star(3, 3))
    b = lt.contains(fano, lt.linear_star(3, 3))
    assert a == b


def test_single_component_host_is_walked_once(monkeypatch):
    host = lt.realize(lt.linear_path(3, 3))
    calls = []
    walker = lt.detect._Search._iter_chains

    def counted(self, *args):
        calls.append(args)
        return walker(self, *args)

    monkeypatch.setattr(lt.detect._Search, "_iter_chains", counted)
    assert lt.contains(host, lt.linear_path(3, 3)) is not None
    assert len(calls) == 1


def test_lattice_star_degree_cap():
    lat = lt.integer_lattice(4, 2)
    # 2-regular linear host: a 3-edge star cannot exist
    assert not lt.is_free(lat, lt.linear_star(2, 4))
    assert lt.is_free(lat, lt.linear_star(3, 4))


def test_vacuous_when_pattern_too_big(fano):
    # 10 pattern vertices never fit in 7
    assert lt.is_free(fano, lt.parse_pattern("P2+S2@r3"))


def test_uniformity_mismatch_is_free(fano):
    assert lt.is_free(fano, lt.linear_star(2, 4))


def test_embeddings_are_all_valid(fano):
    seen = 0
    for emb in lt.iter_embeddings(fano, lt.linear_path(2, 3)):
        assert lt.verify_embedding(fano, emb)
        seen += 1
    assert seen > 0


@pytest.mark.parametrize(
    "design,expr,edge_map,vertex_map,count",
    [
        ("fano", "P2@r3", (0, 1), (1, 6, 0, 2, 3), 42),
        ("fano", "C3@r3", (0, 3, 1), (1, 6, 0, 3, 2, 4), 56),
        ("affine9", "P3@r3", (0, 1, 8), (1, 5, 0, 4, 2, 6, 7), 216),
        ("affine9", "C4@r3", (0, 6, 1, 8), (1, 5, 0, 4, 2, 7, 6, 8), 108),
    ],
)
def test_first_embedding_and_count_are_pinned(
    request, design, expr, edge_map, vertex_map, count
):
    host = request.getfixturevalue(design)
    embs = list(lt.iter_embeddings(host, lt.parse_pattern(expr)))
    assert (embs[0].edge_map, embs[0].vertex_map) == (edge_map, vertex_map)
    assert len(embs) == count


PATTERNS = [
    ("P2@r{r}", ("path", 2)),
    ("P3@r{r}", ("path", 3)),
    ("P4@r{r}", ("path", 4)),
    ("S2@r{r}", ("star", 2)),
    ("S3@r{r}", ("star", 3)),
    ("C3@r{r}", ("cycle", 3)),
    ("C4@r{r}", ("cycle", 4)),
]

FORESTS = [
    ("P2+S2@r{r}", (("path", 2), ("star", 2))),
    ("2*P2@r{r}", (("path", 2), ("path", 2))),
]


def _agreement(host):
    r = host.r
    for expr, comp in PATTERNS:
        pat = lt.parse_pattern(expr.format(r=r))
        got = lt.contains(host, pat)
        want = nd.occurrences(host, *comp)
        assert (got is not None) == bool(want), (expr, host.edges)
        if got is not None:
            assert lt.verify_embedding(host, got)
        if comp[0] != "star":
            spans = {
                frozenset(v for i in emb.edge_map for v in host.edges[i])
                for emb in lt.iter_embeddings(host, pat)
            }
            assert spans == want, (expr, host.edges)
    for expr, comps in FORESTS:
        pat = lt.parse_pattern(expr.format(r=r))
        got = lt.contains(host, pat)
        assert (got is not None) == nd.has_forest(host, comps), (expr, host.edges)


@pytest.mark.parametrize("seed", range(8))
def test_detector_matches_naive_enumeration(seed):
    rng = random.Random(7000 + seed)
    for _ in range(10):
        _agreement(random_host(rng))
