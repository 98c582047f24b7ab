import random
import re
import sys
from dataclasses import replace
from itertools import combinations

import pytest

import linturan as lt
from linturan.detect import _require_valid
from linturan.errors import BadParameters, MalformedEmbedding
from linturan.hypergraph import DEFAULT_PRODUCT_CAP
import naive_detect as nd
from hostgen import piecewise_host, random_edges, random_host


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


def test_naive_graph_walks_match_edge_orders():
    # the reference's vertex walk on graphs against its own edge subsets
    # and orders, on seeded graphs of 6 vertices and up to 9 edges
    rng = random.Random(28)
    pool = list(combinations(range(6), 2))
    for _ in range(60):
        h = lt.make_hypergraph(6, rng.sample(pool, rng.randint(0, 9)), 2)
        for kind, length in [("path", 1), ("path", 2), ("path", 3), ("path", 4),
                             ("cycle", 3), ("cycle", 4), ("cycle", 5)]:
            assert nd.graph_occurrences(h, kind, length) == nd.edge_occurrences(h, kind, length)


@pytest.mark.parametrize("fault", [
    "short vertex map", "long edge map", "repeated vertex", "repeated edge",
    "vertex past n", "negative vertex", "edge past m", "negative edge",
])
def test_verify_embedding_rejects(fano, fault):
    emb = lt.contains(fano, lt.linear_path(2, 3))  # 5 vertices, 2 edges
    assert lt.verify_embedding(fano, emb)
    vm, (e0, e1) = emb.vertex_map, emb.edge_map
    spare = min(set(range(fano.edge_count)) - {e0, e1})
    bad = {
        "short vertex map": replace(emb, vertex_map=vm[:-1]),
        "long edge map": replace(emb, edge_map=(e0, e1, spare)),
        "repeated vertex": replace(emb, vertex_map=vm[:-1] + vm[:1]),
        "repeated edge": replace(emb, edge_map=(e0, e0)),
        "vertex past n": replace(emb, vertex_map=vm[:-1] + (fano.n,)),
        "negative vertex": replace(emb, vertex_map=vm[:-1] + (-1,)),
        "edge past m": replace(emb, edge_map=(e0, fano.edge_count)),
        "negative edge": replace(emb, edge_map=(e0, -1)),
    }[fault]
    assert not lt.verify_embedding(fano, bad)
    with pytest.raises(MalformedEmbedding, match="search produced an invalid embedding"):
        _require_valid(fano, bad)
    assert _require_valid(fano, emb) is emb


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


def _counted(monkeypatch, owner, name):
    """Count the calls of owner.name from here on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_single_component_host_is_walked_once(monkeypatch):
    host = lt.realize(lt.linear_path(3, 3))
    calls = _counted(monkeypatch, lt.detect._Search, "_iter_chains")
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


def test_free_host_never_builds_the_realization(fano):
    # edge_slots and the realization are read at the first occurrence: a
    # fresh pattern that a host is free of is never realized
    pattern = lt.linear_path(3, 3)
    assert lt.contains(fano, pattern) is None
    assert "realization" not in vars(pattern)
    assert lt.contains(fano, lt.linear_path(2, 3)) is not None


def test_union_presence_checks_follow_pattern_order(monkeypatch):
    # the distinct components of a union are checked for presence in
    # pattern order, whatever their hashes: first each on the whole host,
    # then, under each pigeonhole peel, the remaining ones until one fits
    pattern = lt.parse_pattern("P3+P2+S2+C3@r3")
    host = lt.realize(pattern)
    order = {comp: i for i, comp in enumerate(pattern.components)}
    calls = []
    present = lt.detect._Search.component_present
    monkeypatch.setattr(
        lt.detect._Search, "component_present",
        lambda self, comp, banned: calls.append((comp, banned)) or present(self, comp, banned),
    )
    assert lt.contains(host, pattern) is not None
    assert [comp for comp, _ in calls[:4]] == list(pattern.components)
    assert all(not banned for _, banned in calls[:4])
    assert len(calls) > 4
    for (comp, banned), (later, again) in zip(calls[4:], calls[5:]):
        if banned == again:
            assert order[comp] < order[later]


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


def _two_centre_hosts(rng, r, ell, count):
    """count seeded general hosts of order r with an edge through two
    vertices of degree ell or more: two star centres on one start edge."""
    hosts = []
    while len(hosts) < count:
        h = random_edges(rng, rng.randint(r + 2, 8), r, rng.randint(2 * ell, 14), False)
        if any(sum(len(h.incidence[v]) >= ell for v in e) >= 2 for e in h.edges):
            hosts.append(h)
    return hosts


@pytest.mark.parametrize("r", [3, 4])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_stars_come_in_canonical_order(r, ell):
    # a start edge with two centres has a stream of stars at each; merged
    # on the second edge they list every star once, in ascending edge_map
    rng = random.Random(10 * r + ell)
    pattern = lt.linear_star(ell, r)
    for h in _two_centre_hosts(rng, r, ell, 12):
        maps = [emb.edge_map for emb in lt.iter_embeddings(h, pattern)]
        assert all(a < b for a, b in zip(maps, maps[1:])), h.edges
        assert {frozenset(m) for m in maps} == nd.occurrence_edge_sets(h, "star", ell), h.edges


def test_too_deep_patterns_are_refused_by_name():
    # _walks recurses once per path step and _Search.place once per union
    # component; past the recursion limit both queries name the pattern
    path = lt.linear_path(1200, 3)
    host = lt.realize(path)
    k = 1000
    matching = lt.make_hypergraph(3 * k, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)], 3)
    many = lt.parse_pattern(f"{k}*P1@r3")
    for h, pattern in [(host, path), (matching, many)]:
        with pytest.raises(BadParameters, match=rf"^{re.escape(str(pattern))} is too deep"):
            lt.contains(h, pattern)
        table = lt.detect.edge_table(h.n, h.edges)
        with pytest.raises(BadParameters, match=rf"^{re.escape(str(pattern))} is too deep"):
            lt.detect.occurs_through(table, h.incidence, 0, pattern)
    # shallower ones still answer
    assert lt.contains(lt.realize(lt.linear_path(600, 3)), lt.linear_path(600, 3))
    assert lt.contains(matching, lt.parse_pattern("400*P1@r3"))


def _mixed_host(rng):
    """A random order-3 host with a few order-2 edges added, as a mixed
    host, and the uniform hosts of its order-2 and order-3 edges."""
    h3 = random_host(rng, orders=(3,))
    pairs = rng.sample(list(combinations(range(h3.n), 2)), rng.randint(1, 4))
    mixed = lt.make_hypergraph(h3.n, list(h3.edges) + pairs)
    h2 = lt.make_hypergraph(h3.n, pairs, 2)
    return mixed, {2: h2, 3: h3}


@pytest.mark.parametrize("seed", range(4))
def test_mixed_host_is_searched_through_its_order_r_edges(seed):
    # only a mixed host takes the detector's filtered view: it must give
    # the answers and embeddings of the uniform host of its order-r edges,
    # with edge indices mapped back, and agree with the naive enumerator
    rng = random.Random(9700 + seed)
    for _ in range(8):
        mixed, uniform = _mixed_host(rng)
        assert mixed.r is None
        for r, host in uniform.items():
            back = [mixed.edges.index(e) for e in host.edges]

            def mapped(emb):
                edge_map = tuple(back[i] for i in emb.edge_map)
                return lt.Embedding(emb.pattern, edge_map, emb.vertex_map)

            cases = [(e, (c,)) for e, c in PATTERNS] + FORESTS
            for expr, comps in cases:
                pat = lt.parse_pattern(expr.format(r=r))
                got = lt.contains(mixed, pat)
                want = lt.contains(host, pat)
                assert got == (None if want is None else mapped(want)), (expr, mixed.edges)
                assert (got is not None) == nd.has_forest(host, comps), (expr, mixed.edges)
                embs = list(lt.iter_embeddings(mixed, pat))
                assert embs == [mapped(e) for e in lt.iter_embeddings(host, pat)]
                assert all(lt.verify_embedding(mixed, e) for e in embs)


def _unbounded_rooms(self, banned):
    return [sys.maxsize] * len(self.table.bits)


# (_MASK_LIMIT, _HUB_DEGREE) that force each kind of vertex-set table, and
# on both kinds the lazy scan _steps takes at a hub, for every scan
SETTINGS = {
    "masks": (sys.maxsize, sys.maxsize),
    "frozensets": (-1, sys.maxsize),
    "lazy masks": (sys.maxsize, -1),
    "lazy frozensets": (-1, -1),
}


def _force(mp, setting, host):
    """Apply a setting; host's table must then have its kind."""
    limit, hub = SETTINGS[setting]
    mp.setattr(lt.detect, "_MASK_LIMIT", limit)
    mp.setattr(lt.detect, "_HUB_DEGREE", hub)
    kind = int if limit > host.n else frozenset
    assert all(isinstance(b, kind) for b in lt.detect.edge_table(host.n, host.edges).bits)


# unions that only fit a piecewise host's larger pieces, or several of its
# pieces: each later component is placed, and its room built, under the
# vertices of the earlier ones (3*P1 is among FORESTS)
PIECEWISE_UNIONS = [
    ("4*P1@r{r}", (("path", 1),) * 4),
    ("2*P1+S2@r{r}", (("path", 1), ("path", 1), ("star", 2))),
    ("P1+2*S2@r{r}", (("path", 1), ("star", 2), ("star", 2))),
]


@pytest.mark.parametrize("seed", range(6))
def test_component_room_prune_keeps_every_answer(seed, monkeypatch):
    # hosts of several components, most too small for the patterns: the
    # pruned search agrees with the naive enumerator and lists the same
    # embeddings, in the same order, as the search without the room prune.
    # Int-mask and frozenset tables, scanned eagerly or lazily, give the
    # same lists, witnesses and step counts, on these linear hosts and on
    # general ones, r = 2..4.
    rng = random.Random(9500 + seed)
    pieces = [piecewise_host(rng, r) for r in (3, 4) for _ in range(4)]
    hosts = pieces + [random_host(rng, orders=(2, 3, 4)) for _ in range(4)]
    cases = [
        (host, lt.parse_pattern(expr.format(r=host.r)), comps)
        for host in hosts
        for expr, comps in [(e, (c,)) for e, c in PATTERNS] + FORESTS
    ]
    cases += [
        (host, lt.parse_pattern(expr.format(r=host.r)), comps)
        for host in pieces
        for expr, comps in PIECEWISE_UNIONS
    ]
    seen = {}
    for setting in SETTINGS:
        with monkeypatch.context() as mp:
            _force(mp, setting, hosts[0])
            witnesses = [lt.contains(host, pat) for host, pat, _ in cases]
            for (host, pat, comps), got in zip(cases, witnesses):
                assert (got is not None) == nd.has_forest(host, comps), (str(pat), host.edges)
            steps = _counted(mp, lt.detect, "_steps")
            pruned = [list(lt.iter_embeddings(host, pat)) for host, pat, _ in cases]
            pruned_steps = len(steps)
            mp.setattr(lt.detect._Search, "_component_sizes", _unbounded_rooms)
            for (host, pat, _), embs in zip(cases, pruned):
                assert list(lt.iter_embeddings(host, pat)) == embs, (str(pat), host.edges)
            # the prune fired: the unpruned lists take the same walks and more
            assert pruned_steps < len(steps) - pruned_steps
            seen[setting] = (witnesses, pruned, len(steps))
    assert all(got == seen["masks"] for got in seen.values())


@pytest.mark.parametrize("setting", ["masks", "frozensets"])
def test_room_counts_the_components_that_avoid_banned(setting, monkeypatch):
    # the room for a banned set, empty or not, gives each edge avoiding it
    # the vertex count of its component among the edges avoiding it, and
    # each edge meeting it 0; asked in turn for several sets
    rng = random.Random(3100)
    hosts = [piecewise_host(rng, r) for r in (3, 4) for _ in range(5)]
    hosts += [random_host(rng, orders=(2, 3, 4)) for _ in range(20)]
    _force(monkeypatch, setting, hosts[0])
    for host in hosts:
        table = lt.detect.edge_table(host.n, host.edges)
        pattern = lt.parse_pattern(f"2*P1@r{host.r}")
        search = lt.detect._Search(pattern, table, host.incidence, range(len(host.edges)))
        for size in (1, 0, 2, 1, 3):
            drop = set(rng.sample(range(host.n), size))
            banned = table.empty
            for v in drop:
                banned = banned | table.unit[v]
            kept = lt.make_hypergraph(host.n, [e for e in host.edges if drop.isdisjoint(e)])
            comps = lt.connected_components(kept)
            want = [len(next(c for c in comps if e[0] in c)) if drop.isdisjoint(e) else 0
                    for e in host.edges]
            assert search._room(banned) == want, (host.edges, drop)


def _busiest_by_scan(table, edges, banned, k):
    """The pigeonhole prune's peel as counted over the edges avoiding
    banned: the k vertices of highest degree, ties to the smaller."""
    verts, bits, unit, empty = table
    deg = {}
    for p in edges:
        if not bits[p] & banned:
            for v in verts[p]:
                deg[v] = deg.get(v, 0) + 1
    peel = empty
    for v in sorted(deg, key=lambda v: (-deg[v], v))[:k]:
        peel = peel | unit[v]
    return peel


@pytest.mark.parametrize("setting", ["masks", "frozensets"])
def test_busiest_vertices_read_the_incidence(setting, monkeypatch):
    # with nothing banned the peel ranks vertices by their incidence
    # lists, which list exactly the host's edges; it must be the peel the
    # count over the edges gives, and a banned set is still counted
    rng = random.Random(2540)
    hosts = [random_host(rng, max_edges=12, orders=(2, 3, 4)) for _ in range(40)]
    hosts += [piecewise_host(rng, r) for r in (3, 4) for _ in range(5)]
    _force(monkeypatch, setting, hosts[0])
    for host in hosts:
        table = lt.detect.edge_table(host.n, host.edges)
        edges = range(len(host.edges))
        pattern = lt.parse_pattern(f"2*P1@r{host.r}")
        search = lt.detect._Search(pattern, table, host.incidence, edges)
        banned = table.empty
        for v in rng.sample(range(host.n), 2):
            banned = banned | table.unit[v]
        for k in range(1, 5):
            for ban in (table.empty, banned):
                got = search._busiest_vertices(ban, k)
                assert got == _busiest_by_scan(table, edges, ban, k), (host.edges, k, ban)


def test_table_kind_follows_the_host_size(sts13):
    # a host on DEFAULT_PRODUCT_CAP vertices with a loose P3 at labels
    # near the cap gets frozensets: a mask there is as wide as the cap
    n = DEFAULT_PRODUCT_CAP
    top = n - 10
    edges = [(top, top + 1, top + 2), (top + 2, top + 3, top + 4), (top + 4, top + 5, top + 6)]
    wide = lt.make_hypergraph(n, edges, 3)
    assert all(isinstance(b, frozenset) for b in lt.detect.edge_table(n, wide.edges).bits)
    emb = lt.contains(wide, lt.linear_path(3, 3))
    assert emb.edge_map == (0, 1, 2) and lt.verify_embedding(wide, emb)
    assert lt.is_free(wide, lt.linear_path(4, 3))
    assert lt.contains(wide, lt.parse_pattern("2*P1@r3")).edge_map == (0, 2)
    assert lt.is_free(wide, lt.parse_pattern("P2+P1@r3"))
    # either side of the limit, with an edge at the highest label: masks
    # up to it, never wider than n bits, and frozensets past it
    limit = lt.detect._MASK_LIMIT
    for host in (sts13, lt.make_hypergraph(limit, [(0, 1, 2), (0, limit - 2, limit - 1)], 3)):
        bits = lt.detect.edge_table(host.n, host.edges).bits
        assert all(isinstance(b, int) and 0 < b.bit_length() <= host.n for b in bits)
    past = lt.make_hypergraph(limit + 1, [(0, 1, 2), (0, limit - 1, limit)], 3)
    assert all(isinstance(b, frozenset) for b in lt.detect.edge_table(past.n, past.edges).bits)
    assert lt.contains(past, lt.linear_path(2, 3)).edge_map == (0, 1)


def test_thm45_certificate_walks_one_copy(monkeypatch):
    # every design copy has fewer vertices than the path: start edges are
    # walked in the first copy until the room is built, and every other
    # copy is skipped by it
    rep = lt.thm45_construction(3, 5, 1000, certify=False)
    steps = _counted(monkeypatch, lt.detect, "_steps")
    assert lt.is_free(rep.result, rep.certificates[0].pattern)
    assert len(steps) <= 400  # 37 296 without the room prune


def test_thm47_certificate_dies_at_the_hubs(monkeypatch):
    # the forest has k+1 components, and the k busiest vertices, which the
    # pigeonhole prune deletes, are the hubs: without them every component
    # is one design copy, too small for every forest component
    rep = lt.thm47_construction(3, 4, 3, 2, certify=False)
    steps = _counted(monkeypatch, lt.detect, "_steps")
    assert lt.is_free(rep.result, rep.certificates[0].pattern)
    assert len(steps) <= 100  # 900 without the room prune


def test_first_start_edge_answers_without_a_room(monkeypatch, fano):
    host = lt.thm47_construction(3, 4, 7, 1, certify=False).result
    builds = _counted(monkeypatch, lt.detect._Search, "_component_sizes")
    emb = lt.contains(host, lt.linear_path(4, 3))
    assert emb.edge_map[0] == 0
    # seven start edges, as many as a 3-edge path has vertices: all are
    # walked before a room would be built, so none is
    assert lt.is_free(fano, lt.linear_path(3, 3))
    assert builds == []


ANCHORED = [("path", 1), ("path", 2), ("path", 3), ("path", 4), ("path", 5), ("star", 2),
            ("star", 3), ("cycle", 3), ("cycle", 4), ("cycle", 5)]

# unions that fit random_host's at most 9 vertices at r = 2, and most at
# r = 3; P1+S3 places a star of three edges as the rest, and the last two
# leave a rest of two components, whose pigeonhole prune runs with the
# anchored component's vertices banned
ANCHORED_UNIONS = ["2*P1", "P1+S2", "2*P2", "P2+S2", "P1+C3", "P1+S3", "3*P1", "2*P1+S2"]


def _edge_state(host, rng=None):
    """The host's edge table and per-vertex incidence; with rng, each
    incidence list is shuffled (the caller's order is any order)."""
    incidence = [[i for i, e in enumerate(host.edges) if v in e] for v in range(host.n)]
    if rng:
        for edges in incidence:
            rng.shuffle(edges)
    return lt.detect.edge_table(host.n, host.edges), incidence


def _through_answers(host, table, incidence):
    """occurs_through's answer for every edge q, every ordered pair
    (q, also) and every anchored union, checked against the naive
    enumerator, in one list."""
    answers = []
    m = len(host.edges)
    for kind, length in ANCHORED:
        pattern = lt.forest([lt.PatternComponent(kind, length)], host.r)
        occs = nd.occurrence_edge_sets(host, kind, length)
        for q in range(m):
            got = lt.detect.occurs_through(table, incidence, q, pattern)
            assert got == any(q in occ for occ in occs), (kind, length, q, host.edges)
            answers.append(got)
            for also in range(m):
                if also == q:
                    continue
                got = lt.detect.occurs_through(table, incidence, q, pattern, also=also)
                want = any({q, also} <= occ for occ in occs)
                assert got == want, (kind, length, q, also, host.edges)
                answers.append(got)
    # a union: one anchor
    for expr in ANCHORED_UNIONS:
        pattern = lt.parse_pattern(expr, host.r)
        comps = [(c.kind, c.length) for c in pattern.components]
        occs = nd.union_occurrence_edge_sets(host, comps)
        for q in range(m):
            got = lt.detect.occurs_through(table, incidence, q, pattern)
            assert got == any(q in occ for occ in occs), (expr, q, host.edges)
            answers.append(got)
    return answers


@pytest.mark.parametrize("seed", range(8))
def test_occurs_through_matches_naive_occurrences(seed, monkeypatch):
    # for every edge q, and every ordered pair (q, also), occurs_through
    # must say whether an occurrence uses q (and also); no precondition on
    # the host, general hosts hold pairs that share two or more vertices,
    # and incidence lists may come in any order.  Int-mask and frozenset
    # tables, scanned eagerly or lazily, give the same answers on the same
    # shuffled state.
    rng, shuffler = random.Random(9100 + seed), random.Random(seed)
    for _ in range(6):
        host = random_host(rng, orders=(2, 3, 4))
        _, incidence = _edge_state(host, shuffler)
        answers = {}
        for setting in SETTINGS:
            with monkeypatch.context() as mp:
                _force(mp, setting, host)
                table = lt.detect.edge_table(host.n, host.edges)
                answers[setting] = _through_answers(host, table, incidence)
        assert all(got == answers["masks"] for got in answers.values())


def test_occurs_through_reads_the_callers_state_as_given():
    # the caller's table may hold positions outside the host (the oracle
    # keeps every candidate edge): a union's rest starts only from the
    # listed edges, in the order given
    host = lt.make_hypergraph(10, [(0, 1, 2), (2, 3, 4), (5, 6, 7), (7, 8, 9)], 3)
    table, _ = _edge_state(host)
    chosen = [2, 0, 1]  # (7, 8, 9) is not in the host
    incidence = [[i for i in chosen if v in host.edges[i]] for v in range(host.n)]
    two_p2 = lt.parse_pattern("2*P2@r3")
    assert lt.detect.occurs_through(table, incidence, 0, lt.parse_pattern("P2+P1@r3"),
                                    edges=chosen)
    assert not lt.detect.occurs_through(table, incidence, 0, two_p2, edges=chosen)
    # listing every position walks from (7, 8, 9) into the host
    assert lt.detect.occurs_through(table, incidence, 0, two_p2)
    # incidence in descending order misses no star: the rest, a star of
    # three edges at vertex 0, is still found
    table = lt.detect.edge_table(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    incidence = [[2, 1, 0], [0], [1], [2], [3], [3]]
    assert lt.detect.occurs_through(table, incidence, 3, lt.parse_pattern("P1+S3@r2"))


def test_second_anchor_is_for_one_component_only():
    # q and also may lie in different components of a union
    host = lt.make_hypergraph(6, [(0, 1, 2), (3, 4, 5)], 3)
    table, incidence = _edge_state(host)
    with pytest.raises(BadParameters):
        lt.detect.occurs_through(table, incidence, 0, lt.parse_pattern("2*P1@r3"), also=1)
