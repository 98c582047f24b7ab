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
        ("fano", "S3@r3", (0, 1, 2), (0, 1, 6, 2, 3, 4, 5), 7),
        ("affine9", "S4@r3", (0, 1, 2, 3), (0, 1, 5, 2, 4, 3, 6, 7, 8), 9),
        ("affine9", "3*P1@r3", (0, 8, 9), (0, 1, 5, 2, 6, 7, 3, 4, 8), 4),
        # a star of three edges that must avoid the vertices of another component
        ("sts13", "P1+S3@r3", (0, 11, 12, 13), (0, 1, 11, 2, 3, 8, 4, 5, 6, 10), 260),
        # a cycle after another component: its closing edge takes the
        # second slot of its block, not the last
        ("sts13", "P1+C3@r3", (0, 11, 15, 12), (0, 1, 11, 3, 8, 2, 5, 4, 7), 936),
        ("sts13", "S2+C3@r3", (0, 1, 15, 21, 16), (0, 1, 11, 2, 12, 7, 4, 3, 9, 10, 5), 312),
    ],
)
def test_first_embedding_and_count_are_pinned(
    request, design, expr, edge_map, vertex_map, count
):
    host = request.getfixturevalue(design)
    embs = list(lt.iter_embeddings(host, lt.parse_pattern(expr)))
    assert (embs[0].edge_map, embs[0].vertex_map) == (edge_map, vertex_map)
    assert len(embs) == count


def test_embeddings_read_the_realization_built_once(monkeypatch, affine9):
    calls = []
    make = lt.patterns.make_hypergraph

    def counted(*args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(lt.patterns, "make_hypergraph", counted)
    pattern = lt.linear_path(3, 3)
    embs = list(lt.iter_embeddings(affine9, pattern))
    assert len(embs) == 216
    assert all(lt.verify_embedding(affine9, emb) for emb in embs)
    assert len(calls) == 1


PATTERNS = [
    ("P2@r{r}", ("path", 2)),
    ("P3@r{r}", ("path", 3)),
    ("P4@r{r}", ("path", 4)),
    ("S2@r{r}", ("star", 2)),
    ("S3@r{r}", ("star", 3)),
    ("C3@r{r}", ("cycle", 3)),
    ("C4@r{r}", ("cycle", 4)),
]

# random_host has at most 9 vertices: the first two never fit and check
# only the vacuous case, the rest do fit
FORESTS = [
    ("P2+S2@r{r}", (("path", 2), ("star", 2))),
    ("2*P2@r{r}", (("path", 2), ("path", 2))),
    ("2*P1@r{r}", (("path", 1), ("path", 1))),
    ("P1+S2@r{r}", (("path", 1), ("star", 2))),
    ("P2+P1@r{r}", (("path", 2), ("path", 1))),
    ("3*P1@r{r}", (("path", 1), ("path", 1), ("path", 1))),
]


def _agreement(host):
    """Compare the detector with the naive enumerator on one host; returns
    how many forest patterns the host contains."""
    r = host.r
    for expr, comp in PATTERNS:
        pat = lt.parse_pattern(expr.format(r=r))
        got = lt.contains(host, pat)
        want = nd.occurrences(host, *comp)
        assert (got is not None) == bool(want), (expr, host.edges)
        if got is not None:
            assert lt.verify_embedding(host, got)
        spans = {
            frozenset(v for i in emb.edge_map for v in host.edges[i])
            for emb in lt.iter_embeddings(host, pat)
        }
        assert spans == want, (expr, host.edges)
    positive = 0
    for expr, comps in FORESTS:
        pat = lt.parse_pattern(expr.format(r=r))
        got = lt.contains(host, pat)
        assert (got is not None) == nd.has_forest(host, comps), (expr, host.edges)
        positive += got is not None
    return positive


@pytest.mark.parametrize("seed", range(8))
def test_detector_matches_naive_enumeration(seed):
    rng = random.Random(7000 + seed)
    assert sum(_agreement(random_host(rng)) for _ in range(10)) > 0


ANCHORED = [("path", 1), ("path", 2), ("path", 3), ("path", 4), ("star", 2),
            ("star", 3), ("cycle", 3), ("cycle", 4)]


@pytest.mark.parametrize("seed", range(8))
def test_occurs_through_matches_naive_occurrences(seed):
    # for every edge q, and every ordered pair (q, also), occurs_through
    # must say whether an occurrence uses q (and also); no precondition on
    # the host, general hosts hold pairs that share two or more vertices
    rng = random.Random(9100 + seed)
    for _ in range(6):
        host = random_host(rng, orders=(2, 3, 4))
        sets = [frozenset(e) for e in host.edges]
        incidence = [[i for i, es in enumerate(sets) if v in es] for v in range(host.n)]
        for kind, length in ANCHORED:
            comp = lt.patterns.PatternComponent(kind, length)
            occs = nd.occurrence_edge_sets(host, kind, length)
            for q in range(len(sets)):
                got = lt.detect.occurs_through(sets, incidence, q, comp)
                assert got == any(q in occ for occ in occs), (kind, length, q, host.edges)
                for also in range(len(sets)):
                    if also == q:
                        continue
                    got = lt.detect.occurs_through(sets, incidence, q, comp, also=also)
                    want = any({q, also} <= occ for occ in occs)
                    assert got == want, (kind, length, q, also, host.edges)
