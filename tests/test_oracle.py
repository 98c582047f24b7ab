import dataclasses
import functools
import hashlib
import json
import types
from itertools import combinations, count, islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

import linturan as lt
import naive_detect as nd
from linturan.errors import (
    BadParameters,
    DuplicateEdge,
    FormatError,
    InterruptedSearch,
    InvariantViolation,
    OutOfRangeVertex,
    ProductTooLarge,
)
from linturan.cli import main
from linturan.oracle import HOSTS, SearchStats, _Searcher, _check_search_size

P2 = lt.linear_path(2, 3)
P3 = lt.linear_path(3, 3)
P4 = lt.linear_path(4, 3)
FANO = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
TWO_FANOS = FANO + [[v + 7 for v in e] for e in FANO]


def brute_free(n, r, pattern_comps, host):
    """Every pattern-free host, as its sorted edge list, by exhausting the
    subsets (bitmasks) of all candidate edges; freeness via the naive
    enumerator.

    A subset's host can only be free when the host without its highest
    edge is free, so each free host is grown by every higher candidate
    edge, and only those hosts are handed to the naive enumerator, and
    only when the pattern fits: a loose path or star of length l spans
    l*(r-1)+1 vertices, a loose cycle l*(r-1).  Each subset is reached
    once, from the subset without its highest edge.
    """
    pool = list(combinations(range(n), r))
    if pattern_comps is not None:
        span = sum(length * (r - 1) + (kind != "cycle") for kind, length in pattern_comps)
        if span > n:
            pattern_comps = None  # no host on n vertices holds it
    free = []
    stack = [([], 0)]  # a free host and the first candidate it may take
    while stack:
        rest, start = stack.pop()
        free.append(rest)
        for top in range(start, len(pool)):
            if host == "linear" and any(len(set(e) & set(pool[top])) > 1 for e in rest):
                continue
            chosen = rest + [pool[top]]
            if pattern_comps is None or not nd.has_forest(
                lt.make_hypergraph(n, chosen, r), pattern_comps
            ):
                stack.append((chosen, top + 1))
    return free


@functools.cache
def cached_free(n, r, pattern_comps, host):
    """brute_free, kept per row (pattern_comps a tuple): the property
    tests below draw the same small rows many times, and at r = 2 one
    exhaustion takes seconds."""
    return brute_free(n, r, pattern_comps, host)


def brute_max(n, r, pattern_comps, host):
    """The largest free host's size and the lex-least free host of that size."""
    hosts = brute_free(n, r, pattern_comps, host)
    best = max(len(h) for h in hosts)
    return best, min(h for h in hosts if len(h) == best)


def test_matching_numbers():
    values = [lt.max_edges(n, 3, P2).value for n in range(3, 9)]
    assert values == [1, 1, 1, 2, 2, 2]
    assert values == [n // 3 for n in range(3, 9)]


def test_p4_free_growth():
    assert [lt.max_edges(n, 3, P4).value for n in range(3, 8)] == [1, 1, 2, 4, 7]


def test_tight_p3_instance_is_a_design():
    res = lt.max_edges(7, 3, P3)
    assert res.exact
    assert res.value == 7
    assert lt.verify_design(res.witness)
    assert lt.is_free(res.witness, P3)


def test_p3_on_six_vertices():
    assert lt.max_edges(6, 3, P3).value == 4


def test_star_with_no_room():
    res = lt.max_edges(4, 3, lt.linear_star(1, 3))
    assert res.value == 0
    assert res.witness.edge_count == 0


def test_no_pattern_maximizes_packing(fano):
    assert lt.max_edges(7, 3, None, "linear").value == 7
    assert lt.max_edges(5, 3, None, "general").value == 10


def test_witnesses_come_back_verified():
    res = lt.max_edges(6, 3, P2)
    assert res.witness.edge_count == res.value
    assert lt.is_linear(res.witness)
    assert lt.is_free(res.witness, P2)


def test_witness_is_deterministic():
    a = lt.max_edges(7, 3, P3).witness
    b = lt.max_edges(7, 3, P3).witness
    assert a == b


@pytest.mark.parametrize(
    "expr,comps",
    [
        ("P2@r3", (("path", 2),)),
        ("S2@r3", (("star", 2),)),
        ("C3@r3", (("cycle", 3),)),
        ("2*P1@r3", (("path", 1), ("path", 1))),
    ],
)
@pytest.mark.parametrize("host", ["linear", "general"])
def test_oracle_matches_exhaustive_search(expr, comps, host):
    pattern = lt.parse_pattern(expr)
    for n in (4, 5):
        res = lt.max_edges(n, 3, pattern, host)
        assert (res.value, list(res.witness.edges)) == brute_max(n, 3, comps, host)


# (r, largest n) with at most 15 candidate edges; linear hosts, which
# are far fewer, go further, so that the max-degree split meets stars of
# two and three edges (every 2-uniform host is linear)
SMALL_ROWS = {2: 6, 3: 5, 4: 6}
LINEAR_ROWS = {2: 6, 3: 7, 4: 8}


def takes_split(n, r, pattern, host):
    """Whether max_edges proves this row by the max-degree split."""
    return host == "linear" or r == 2


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_matches_bitmask_exhaustion(data):
    # the bounds, the root rule and the max-degree split may cut only
    # what cannot matter: the value and the lex-least witness of
    # max_edges, and the per-size host counts of iter_free (which must
    # not inherit the root rule), equal a search that cuts nothing
    r = data.draw(st.sampled_from(sorted(SMALL_ROWS)), label="r")
    host = data.draw(st.sampled_from(HOSTS), label="host")
    top = (LINEAR_ROWS if host == "linear" else SMALL_ROWS)[r]
    n = data.draw(st.integers(r, top), label="n")
    expr = data.draw(
        st.sampled_from(["P1", "P2", "P3", "S2", "S3", "C3", "2*P1", "P1+S2", "2*P2"]),
        label="pattern",
    )
    pattern = lt.parse_pattern(f"{expr}@r{r}")
    comps = tuple((c.kind, c.length) for c in pattern.components)
    # two distinct 2-edges never share two vertices: at r = 2 the linear
    # and general rows exhaust the same hosts
    hosts = cached_free(n, r, comps, host if r > 2 else "general")
    best = max(len(h) for h in hosts)
    res = lt.max_edges(n, r, pattern, host)
    assert res.exact
    assert res.stats.proof == ("degree-split" if takes_split(n, r, pattern, host) else "walk")
    assert (res.value, list(res.witness.edges)) == (best, min(h for h in hosts if len(h) == best))
    k = data.draw(st.integers(0, best + 1), label="edge_count")
    assert sum(1 for _ in lt.iter_free(n, r, pattern, host, edge_count=k)) == sum(
        1 for h in hosts if len(h) == k
    )


# the id leaves out the count, so that a re-pin keeps the test's name
@pytest.mark.parametrize(
    "n,expr,host,nodes",
    [
        pytest.param(7, "P3@r3", "linear", 5, id="7-P3@r3-linear"),
        pytest.param(6, "C3@r3", "linear", 1, id="6-C3@r3-linear"),
        pytest.param(7, "P4@r3", "linear", 5, id="7-P4@r3-linear"),
        pytest.param(7, "S2@r3", "general", 7, id="7-S2@r3-general"),
        pytest.param(6, "P3@r3", "general", 20, id="6-P3@r3-general"),
        # the benchmark's exact-grid rows; the linear ones take the
        # max-degree split (P4 has 9 vertices, so P4 on 7 and 8 vertices
        # is the split's unconstrained search)
        pytest.param(8, "P3@r3", "linear", 5, id="8-P3@r3-linear"),
        pytest.param(8, "C3@r3", "linear", 6, id="8-C3@r3-linear"),
        pytest.param(8, "P4@r3", "linear", 12, id="8-P4@r3-linear"),
        pytest.param(9, "P3@r3", "linear", 6, id="9-P3@r3-linear"),
        # unions, whose checks are anchored too
        pytest.param(10, "2*P2@r3", "linear", 28, id="10-2*P2@r3-linear"),
        pytest.param(10, "P2+S2@r3", "linear", 28, id="10-P2+S2@r3-linear"),
    ],
)
def test_node_counts_are_pinned(n, expr, host, nodes):
    # node counts are deterministic; a change here means the search
    # visits a different tree, not just that it runs faster or slower
    res = lt.max_edges(n, 3, lt.parse_pattern(expr), host)
    assert res.exact
    assert res.stats.nodes == nodes


@pytest.mark.parametrize(
    "n,expr,host,counters",
    [
        (7, "P3@r3", "linear", (9, 1, 0)),
        (7, "S2@r3", "general", (31, 19, 6)),
        (10, "2*P2@r3", "linear", (205, 11, 17)),
        (10, "P2+S2@r3", "linear", (205, 11, 17)),
    ],
)
def test_search_counters_are_pinned(n, expr, host, counters):
    stats = lt.max_edges(n, 3, lt.parse_pattern(expr), host).stats
    assert (stats.admits_calls, stats.admits_rejects, stats.bound_cuts) == counters
    again = lt.max_edges(n, 3, lt.parse_pattern(expr), host).stats
    assert (again.nodes, again.admits_calls, again.admits_rejects, again.bound_cuts) == (
        stats.nodes, *counters
    )


def one_orbit(q):
    """A root rule for the empty root: every candidate in one orbit, as
    all one-edge hosts are isomorphic, so only hosts whose first edge is
    candidate 0, {0, ..., r-1}, are searched."""
    return 0


def walk_max(n, r, pattern):
    """max_edges on a linear host as the walk alone computes it: the value
    and the witness's edge list."""
    s = _Searcher(n, r, pattern, "linear", lt.SearchBudget())
    best = ()
    for chosen in s.walk(lambda: len(best) + 1, orbits=(one_orbit,)):
        if len(chosen) > len(best):
            best = tuple(chosen)
    return len(best), list(s.graph(best).edges)


def pattern_at(r, expr):
    """The pattern expr at order r, or None for no pattern."""
    return lt.parse_pattern(f"{expr}@r{r}") if expr else None


SPLIT_PATTERNS = ("P2", "P3", "P4", "S2", "S3", "C3", "C4")
# no pattern and unions, split like the rest; their walk runs are short
# on these rows, so no row of theirs needs a pinned digest
SPLIT_UNIONS = (None, "2*P1", "P1+S2", "2*P2", "P2+S2", "P1+C3")
# split rows whose walk alone takes more than 25 000 nodes: (value, walk
# nodes, digest of the witness's edge list) from the walk run to the end
WALK_LONG_RUNS = {
    (2, 8, "C4"): (11, 175_816, "5bb2cbccd2ac"),
    (2, 10, "C3"): (25, 245_529, "94ce2f7816b5"),
    (3, 10, "S3"): (6, 360_769, "c3db6b41e310"),
    (3, 10, "C3"): (6, 108_015, "99b481de2f22"),
    (3, 9, "C4"): (8, 79_113, "f5a435b6b583"),
    (3, 10, "C4"): (8, 2_045_464, "f5a435b6b583"),
    (3, 10, "P4"): (12, 590_921, "dcdcf6cd425c"),
}
SPLIT_ROWS = [
    (r, n, expr)
    for r, top in ((2, 7), (3, 10), (4, 10))
    for n in range(r, top + 1)
    for expr in SPLIT_PATTERNS
] + [
    (r, n, expr)
    for r, top in ((2, 7), (3, 9), (4, 10))
    for n in range(r, top + 1)
    for expr in SPLIT_UNIONS
]


@pytest.mark.parametrize("r,n,expr", [row for row in SPLIT_ROWS if row not in WALK_LONG_RUNS])
def test_split_matches_the_walk(r, n, expr):
    # the max-degree split and the walk alone give the same value and
    # the same lex-least witness
    pattern = pattern_at(r, expr)
    res = lt.max_edges(n, r, pattern)
    assert (res.status, res.stats.proof) == ("exact", "degree-split")
    assert (res.value, list(res.witness.edges)) == walk_max(n, r, pattern)


@pytest.mark.parametrize("row", sorted(WALK_LONG_RUNS), ids=lambda row: "{1}-{2}@r{0}".format(*row))
def test_split_matches_the_walks_long_runs(row):
    r, n, expr = row
    value, _, witness = WALK_LONG_RUNS[row]
    res = lt.max_edges(n, r, lt.parse_pattern(f"{expr}@r{r}"))
    assert (res.status, res.stats.proof) == ("exact", "degree-split")
    assert (res.value, _digest(res.witness)) == (value, witness)


WITNESS_PATTERNS = ("P2", "P3", "P4", "S2", "S3", "C3", "C4", "2*P1", "P1+S2", "2*P2", "P2+S2", None)


def test_split_witness_is_the_first_free_host_of_its_size():
    # the split keeps the host at which its bar last rose; iter_free lists
    # hosts in lexicographic order and never takes the split, so its first
    # host of the value's size is an independent lex-least witness
    matched = 0
    for r, top in ((2, 8), (3, 11), (4, 12)):
        for n in range(r, top + 1):
            for expr in WITNESS_PATTERNS:
                pattern = pattern_at(r, expr)
                res = lt.max_edges(n, r, pattern, budget=lt.SearchBudget(node_limit=3000))
                if not res.exact:
                    continue
                first = next(lt.iter_free(n, r, pattern, "linear", edge_count=res.value))
                assert res.witness == first, (r, n, expr)
                matched += 1
    assert matched >= 296  # of 300 rows; the others outrun the budget


def split_roots(r, n, expr):
    """For each D of the split on this row: the searcher, the root orbit
    key of the walk for D, and the root (the star of D edges at vertex
    0)."""
    s = _Searcher(n, r, lt.parse_pattern(f"{expr}@r{r}"), "linear", lt.SearchBudget())
    star = s.grow_star()
    assert star
    for d in range(1, len(star) + 1):
        yield s, s.petals(d), star[:d]


def root_live(s, root, orbits=()):
    """The root's live list in the walk rooted at root under the degree
    cap len(root), with orbits as its root rule, as walk computes it, and
    the admits calls that took."""
    lists = []
    live = s.live

    def recording(*args):
        lists.append(live(*args))
        return lists[-1]

    s.live = recording
    calls = s.stats.admits_calls
    for _ in s.walk(lambda: 0, len(root) + 1, orbits, root, len(root)):
        pass
    del s.live
    return lists[0][0], s.stats.admits_calls - calls


@pytest.mark.parametrize(
    "r,n,expr",
    [(3, n, expr) for n in (8, 9, 10) for expr in ("P3", "P4", "S3", "C3", "C4")
     if lt.parse_pattern(f"{expr}@r3").num_vertices <= n]
    + [(4, n, expr) for n in (10, 11) for expr in ("P3", "S3", "C3")]
    + [(2, n, expr) for n in (7, 8) for expr in ("P3", "S3", "C3", "C4")],
)
def test_split_root_admits_by_the_first_anchor(r, n, expr):
    # the split's root is the free star of D edges at vertex 0; its live
    # candidates are exactly the edges that keep the host linear, every
    # degree at most D, and the pattern out, by a whole-host check, both
    # when each candidate is checked and when each orbit of the star's
    # stabiliser takes one verdict.  Its last star edge was never admitted
    # with the other candidates, so a second anchor at the root would
    # miss an occurrence through a candidate and only the other star edges
    # (a C3 on s_0, s_1 and q)
    pattern = lt.parse_pattern(f"{expr}@r{r}")
    for s, orbit, root in split_roots(r, n, expr):
        d = len(root)
        used = 0
        for q in root:
            used |= s.pair_masks[q]
        expected = [
            q for q in range(len(s.cands))
            if not s.pair_masks[q] & used
            and all(sum(v in s.cands[e] for e in root) < d for v in s.cands[q])
            and lt.is_free(s.graph(root + [q]), pattern)
        ]
        assert root_live(s, root)[0] == expected, d
        children, calls = root_live(s, root, (orbit,))
        assert children == expected, d
        assert calls <= r + 1


def vertex_swaps(blocks):
    """The swaps of adjacent vertices inside each block: they generate the
    relabellings that permute each block's vertices among themselves."""
    return [{x: y, y: x} for block in blocks for x, y in zip(block, block[1:])]


def stabiliser_orbits(s, d, cands):
    """cands, a list closed under the relabellings that fix 0 and permute
    the petals of the star of d edges at 0 (blocks of r-1 vertices from 1
    on), the vertices inside each petal and the vertices above the
    petals, split into its orbits, each in cands' order: the classes of
    the closure under swaps of adjacent petals and of adjacent vertices
    inside a petal or above the petals, which generate those
    relabellings."""
    n, step = s.n, s.r - 1
    petals = [list(range(1 + step * j, 1 + step * (j + 1))) for j in range(d)]
    swaps = [dict(zip(a + b, b + a)) for a, b in zip(petals, petals[1:])]
    swaps += vertex_swaps([*petals, list(range(1 + step * d, n))])
    return closure_orbits(s, cands, swaps)


def closure_orbits(s, cands, swaps):
    """cands, a list closed under the relabellings that swaps generate,
    split into the orbits of that group, each in cands' order."""
    index = {s.cands[q]: q for q in cands}
    orbit = {q: q for q in cands}
    for q in cands:  # merge the class of each image into q's
        for swap in swaps:
            image = index[tuple(sorted(swap.get(v, v) for v in s.cands[q]))]
            old, new = orbit[image], orbit[q]
            for x in cands:
                if orbit[x] == old:
                    orbit[x] = new
    classes: dict[int, list[int]] = {}
    for q in cands:
        classes.setdefault(orbit[q], []).append(q)
    return list(classes.values())


@pytest.mark.parametrize(
    "r,n,expr",
    [(3, 10, "C3"), (3, 10, "C4"), (3, 11, "P4"), (4, 11, "C3"), (4, 11, "P3"), (2, 8, "C4"),
     (2, 9, "C5")],
)
def test_split_root_expands_one_child_per_orbit(r, n, expr):
    # the split walk's root expands exactly the first live candidate of
    # each orbit of the star's stabiliser, orbits found here by closing
    # under the group's generators, not by the petals key
    sizes = []
    for s, orbit, root in split_roots(r, n, expr):
        d = len(root)
        children = root_live(s, root)[0]
        orbits = stabiliser_orbits(s, d, children)
        expanded = [
            chosen[-1]
            for chosen in s.walk(lambda: 0, d + 1, (orbit,), root, d)
            if len(chosen) == d + 1
        ]
        assert expanded == sorted((o[0] for o in orbits), key=children.index), d
        sizes.append(len(orbits))
    assert max(sizes) >= 2


def general_root(s, orbits):
    """The root of the walk rooted at s_0 = {0, ..., r-1}, candidate 0,
    under the root rule orbits: its live list, the admits calls that
    took, and the children it expands."""
    lists = []
    live = s.live

    def recording(chosen, *args):
        calls = s.stats.admits_calls
        children, taken = live(chosen, *args)
        lists.append((list(chosen), children, s.stats.admits_calls - calls))
        return children, taken

    s.live = recording
    expanded = [chosen[-1] for chosen in s.walk(lambda: 0, 2, orbits, (0,)) if len(chosen) == 2]
    del s.live
    (at, children, calls), = [row for row in lists if len(row[0]) == 1]
    assert at == [0]
    return children, calls, expanded


@pytest.mark.parametrize(
    "r,n,expr",
    [(3, n, expr) for n in (6, 7, 8) for expr in ("P2", "P3", "S2", "S3", "C3", "2*P1", "P1+S2")]
    + [(4, n, expr) for n in (7, 8) for expr in ("P2", "S2", "C3", "2*P1")],
)
def test_general_second_level_takes_one_check_and_child_per_overlap(monkeypatch, r, n, expr):
    # a general max_edges makes one walk, rooted at s_0 under the key
    # petals(1), which sorts the root's candidates by their overlap with
    # s_0: its live list is every q after s_0 with {s_0, q} free, by a
    # whole-host check, with the key and candidate by candidate; it makes
    # one admits call per overlap (none while two edges cannot hold the
    # pattern) and expands exactly the first live candidate of each orbit
    # of the relabellings that fix s_0 as a set, orbits found here by
    # closing under their generators, not by the overlap key
    pattern = lt.parse_pattern(f"{expr}@r{r}")
    walks = []
    walk = _Searcher.walk

    def recorded(self, *args, **kwargs):
        walks.append((tuple(kwargs["root"]), kwargs["orbits"]))
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(_Searcher, "walk", recorded)
    lt.max_edges(n, r, pattern, "general", lt.SearchBudget(node_limit=1))
    monkeypatch.undo()
    ((root, orbits),) = walks
    s = _Searcher(n, r, pattern, "general", lt.SearchBudget())
    assert root == (0,) and len(orbits) == 1
    petals = s.petals(1)
    assert [orbits[0](q) for q in range(len(s.cands))] == [petals(q) for q in range(len(s.cands))]
    expected = [q for q in range(1, len(s.cands)) if lt.is_free(s.graph([0, q]), pattern)]
    plain, plain_calls, _ = general_root(s, ())
    assert plain == expected
    children, calls, expanded = general_root(s, orbits)
    assert children == expected
    overlaps = {len(set(s.cands[q]) & set(range(r))) for q in range(1, len(s.cands))}
    assert calls == (len(overlaps) if plain_calls else 0) <= r
    orbits = closure_orbits(s, children, vertex_swaps([list(range(r)), list(range(r, n))]))
    assert expanded == sorted((o[0] for o in orbits), key=children.index)
    assert len(expanded) >= 2


GENERAL_WITNESS_PATTERNS = ("P1", *WITNESS_PATTERNS)


def test_general_witness_is_the_first_free_host_of_its_size():
    # the general walk fixes the first edge and keeps only the first
    # second edge of each overlap with it; iter_free takes neither rule
    # and lists hosts in lexicographic order, so its first host of the
    # value's size is an independent lex-least witness
    matched = 0
    for r, top in ((3, 8), (4, 7)):
        for n in range(r, top + 1):
            for expr in GENERAL_WITNESS_PATTERNS:
                pattern = pattern_at(r, expr)
                res = lt.max_edges(n, r, pattern, "general", lt.SearchBudget(node_limit=3000))
                if not res.exact:
                    continue
                first = next(lt.iter_free(n, r, pattern, "general", edge_count=res.value))
                assert res.witness == first, (r, n, expr)
                matched += 1
    assert matched >= 124  # of 130 rows; the others outrun the budget


def subtree_gains(s, root=(), orbits=(), cap=None):
    """For every node of the walk rooted at root under the degree cap cap
    (walk's default when None): [size, |L|, gain(L), size of the largest
    host in the node's subtree].  The walk runs with the bar at 0, so it
    consults no bound and its tree is every host it can reach; the
    largest host of each subtree is gathered over that tree, in preorder,
    by a stack of the open nodes."""
    rows = []
    live = s.live

    def recording(chosen, *args):
        children, taken = live(chosen, *args)
        rows.append([len(chosen), len(children),
                     s.gain(children, s.degree_cap if cap is None else cap), len(chosen)])
        return children, taken

    s.live = recording
    for _ in s.walk(lambda: 0, None, orbits, root, cap):
        pass
    del s.live
    stack = []
    for row in rows + [[-1, 0, 0, 0]]:  # the sentinel closes every node
        while stack and stack[-1][0] >= row[0]:
            done = stack.pop()
            if stack:
                stack[-1][3] = max(stack[-1][3], done[3])
        stack.append(row)
    return rows


@pytest.mark.parametrize("r,top", [(2, 6), (3, 8), (4, 9)])
@pytest.mark.parametrize("expr", ["P2", "P3", "S2", "C3", None])
def test_gain_bounds_every_subtree(r, top, expr):
    # at every node of the plain walk and of every walk rooted at a free
    # star of D edges at vertex 0 under the degree cap D, gain(L) is at
    # most |L|, and size + gain(L) is at least the largest free host that
    # adding edges of L reaches
    checked = 0
    for n in range(r, top + 1):
        pattern = lt.parse_pattern(f"{expr}@r{r}") if expr else None
        s = _Searcher(n, r, pattern, "linear", lt.SearchBudget())
        index = {e: q for q, e in enumerate(s.cands)}
        star = [index[(0, *range(1 + (r - 1) * j, r + (r - 1) * j))]
                for j in range(s.degree_cap)]
        walks = [((), (one_orbit,), None)] + [
            (star[:d], (), d) for d in range(1, len(star) + 1)
            if pattern is None or lt.is_free(s.graph(star[:d]), pattern)
        ]
        for root, orbits, cap in walks:
            for size, live, gain, largest in subtree_gains(s, root, orbits, cap):
                assert gain <= live, (n, root, size)
                assert size + gain >= largest, (n, root, size)
                checked += 1
    assert checked > 20


def test_split_makes_one_walk_per_degree(monkeypatch):
    # n=14 P3: at most one walk per D of the longest free star, each
    # rooted at the star of D edges under the cap D and raising its own
    # bar; no walk runs unrooted or with a cap but no root
    walks = []
    walk = _Searcher.walk

    def counted(self, *args, **kwargs):
        walks.append((tuple(kwargs.get("root", ())), kwargs.get("cap")))
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(_Searcher, "walk", counted)
    res = lt.max_edges(14, 3, P3)
    assert (res.status, res.value) == ("exact", 14)
    star = _Searcher(14, 3, P3, "linear", lt.SearchBudget()).grow_star()
    assert 0 < len(walks) <= len(star)
    per_d = [cap for _, cap in walks]
    assert per_d == sorted(set(per_d), reverse=True)
    assert all(root == tuple(star[:cap]) for root, cap in walks)


def test_split_budget_cuts_return_verified_hosts():
    # n=10 P3: the first per-D walk's root is the star of 4 edges, its
    # first node, and the walks find hosts of 5 to 8 edges and no host of
    # 9; the node that finds the lex-least host of 8 is the search's last.
    # A node limit short of the full count cuts a walk and returns the
    # best host found so far, re-verified, so the values never fall as the
    # limit grows; the first limit keeps the root star, and the last stops
    # one node short of the host of 8
    full = lt.max_edges(10, 3, P3)
    assert (full.status, full.value, full.stats.proof) == ("exact", 8, "degree-split")
    values = []
    for limit in range(1, full.stats.nodes):
        res = lt.max_edges(10, 3, P3, budget=lt.SearchBudget(node_limit=limit))
        assert (res.status, res.stats.nodes) == ("interrupted", limit + 1)
        assert res.witness.edge_count == res.value
        assert lt.is_linear(res.witness) and lt.is_free(res.witness, P3)
        values.append(res.value)
    assert values == sorted(values)
    assert (values[0], values[-1]) == (4, 7)
    res = lt.max_edges(10, 3, P3, budget=lt.SearchBudget(node_limit=full.stats.nodes))
    assert (res.status, res.value, res.witness) == ("exact", 8, full.witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_anchored_admits_matches_whole_host_check(data):
    # grow a host one admitted edge at a time, in any order, keeping the
    # searcher's incidence as walk does; every verdict on a candidate q
    # must equal a whole-host is_free of the host plus q, with one anchor
    # and then, for one component, with two, and each trial must leave
    # chosen and the incidence as it found them
    def push(q):
        chosen.append(q)
        for v in s.cands[q]:
            s.incidence[v].append(q)

    def pop():
        for v in s.cands[chosen.pop()]:
            s.incidence[v].pop()

    def trial(q, also=None):
        before = (list(chosen), [list(edges) for edges in s.incidence])
        free = s.admits(chosen, q, also)
        assert (chosen, s.incidence) == before
        return free

    r = data.draw(st.sampled_from((2, 3, 4)), label="r")
    n = data.draw(st.integers(r + 1, 9), label="n")
    host = data.draw(st.sampled_from(HOSTS), label="host")
    expr = data.draw(
        st.sampled_from(["P1", "P2", "P3", "P4", "S1", "S2", "S3", "C3", "C4",
                         "2*P1", "P1+S2", "2*P2", "P2+S2", "P1+C3"]),
        label="pattern",
    )
    pattern = lt.parse_pattern(f"{expr}@r{r}")
    s = _Searcher(n, r, pattern, host, lt.SearchBudget())
    order = data.draw(st.permutations(range(len(s.cands))), label="order")
    chosen, used = [], 0
    for q in order[:30]:
        if s.pair_masks[q] & used:
            continue
        admitted = trial(q)
        grown = s.graph(chosen + [q])
        assert admitted == lt.is_free(grown, pattern), grown.edges
        if admitted:
            push(q)
            used |= s.pair_masks[q]
    # the second anchor: cut the free host back to a drawn prefix H; with
    # H+q and H+q2 also free, every occurrence in H+q+q2 uses q2 and q, as
    # in walk's live lists (a union is asked about q2 alone)
    keep = data.draw(st.integers(0, len(chosen)), label="keep")
    while len(chosen) > keep:
        pop()
    used = 0
    for e in chosen:
        used |= s.pair_masks[e]
    fits = (q for q in order if q not in chosen and not s.pair_masks[q] & used)
    free = list(islice((q for q in fits if lt.is_free(s.graph(chosen + [q]), pattern)), 8))
    for q, q2 in permutations(free, 2):
        if s.pair_masks[q] & s.pair_masks[q2]:
            continue
        push(q)
        also = q if pattern.is_single else None
        grown = s.graph(chosen + [q2])
        assert trial(q2, also) == lt.is_free(grown, pattern), grown.edges
        pop()


def test_pattern_wider_than_host_searches_like_no_pattern():
    # P4 has 9 vertices, so no host on 8 contains it: the search must be
    # the unconstrained one, node for node
    a = lt.max_edges(8, 3, P4)
    b = lt.max_edges(8, 3, None)
    assert (a.value, a.stats.nodes, a.witness) == (b.value, b.stats.nodes, b.witness)


def test_general_host_dominates_linear():
    for n in (5, 6):
        lin = lt.max_edges(n, 3, P3, "linear").value
        gen = lt.max_edges(n, 3, P3, "general").value
        assert gen >= lin


def test_enumerate_free_counts():
    assert sum(1 for _ in lt.iter_free(3, 3, P2, edge_count=1)) == 1
    assert sum(1 for _ in lt.iter_free(6, 3, P2, edge_count=2)) == 10
    assert sum(1 for _ in lt.iter_free(7, 3, P3, edge_count=8)) == 0
    assert sum(1 for _ in lt.iter_free(4, 3, None, "general")) == 16


def test_iter_free_yields_only_free_hosts():
    seen = 0
    for h in lt.iter_free(6, 3, P3, edge_count=4):
        assert lt.is_linear(h)
        assert lt.is_free(h, P3)
        seen += 1
    assert seen > 0


def test_budget_interrupts_max_edges():
    res = lt.max_edges(7, 3, P3, budget=lt.SearchBudget(node_limit=2))
    assert res.status == "interrupted"
    assert not res.exact
    assert res.value <= 7
    assert res.witness.edge_count == res.value


@pytest.mark.parametrize("n,expr,exact", [(9, "P3@r3", 7), (8, "C3@r3", 4)])
def test_interrupted_values_are_verified_lower_bounds(n, expr, exact):
    # a node budget cuts the walks after a prefix of their nodes, so the
    # value can only grow with the budget, from the first walk's root star
    # (its first node) up, never past the exact value, and each witness is
    # a free linear host with that many edges
    pattern = lt.parse_pattern(expr)
    full = lt.max_edges(n, 3, pattern)
    assert (full.status, full.value) == ("exact", exact)
    values = []
    # every limit up to 30 nodes, then every 67th, all short of the full
    # count, so that each one cuts the search
    dense = min(30, full.stats.nodes)
    for limit in [*range(1, dense), *range(dense, full.stats.nodes, 67)]:
        res = lt.max_edges(n, 3, pattern, budget=lt.SearchBudget(node_limit=limit))
        assert res.status == "interrupted", limit
        assert res.witness.edge_count == res.value
        assert lt.is_linear(res.witness) and lt.is_free(res.witness, pattern)
        values.append(res.value)
    assert values == sorted(values)
    star = _Searcher(n, 3, pattern, "linear", lt.SearchBudget()).grow_star()
    assert values[0] == len(star) and values[-1] <= exact
    res = lt.max_edges(n, 3, pattern, budget=lt.SearchBudget(node_limit=full.stats.nodes))
    assert (res.status, res.value, res.witness) == ("exact", exact, full.witness)


def test_time_budget_is_read_at_every_node(monkeypatch):
    # the start is reading 0 and node k reads k: with a clock that gains a
    # second per reading, the search stops at its fourth node
    readings = count()
    clock = types.SimpleNamespace(monotonic=lambda: float(next(readings)))
    monkeypatch.setattr(lt.oracle, "time", clock)
    budget = lt.SearchBudget(time_limit=3.5)
    res = lt.max_edges(10, 3, lt.parse_pattern("2*P2@r3"), budget=budget)
    assert res.status == "interrupted"
    assert res.stats.nodes == 4


def test_time_budget_spent_before_the_root_gives_the_empty_host(monkeypatch):
    # the root's own reading already exceeds the budget: no node is
    # searched, and the empty host, free and linear, is the incumbent
    readings = count()
    clock = types.SimpleNamespace(monotonic=lambda: float(next(readings)))
    monkeypatch.setattr(lt.oracle, "time", clock)
    res = lt.max_edges(8, 3, P3, budget=lt.SearchBudget(time_limit=0.5))
    assert (res.status, res.value, res.witness) == (
        "interrupted", 0, lt.make_hypergraph(8, [], r=3)
    )
    assert res.stats.nodes == 1


@pytest.mark.parametrize("n,r,expr", [(7, 3, "P1"), (7, 3, "S1"), (6, 2, "P1"), (7, 4, "P1"),
                                      (7, 4, "S1")])
def test_pattern_that_forbids_every_edge_visits_no_node(capsys, tmp_path, n, r, expr):
    # no edge is free, so the split's one trial finds no free star, on a
    # general host no free s_0, and no walk runs: the value is 0, exact,
    # with the empty witness and no node, and the CLI and a results store
    # say the same
    pattern = lt.parse_pattern(f"{expr}@r{r}")
    for host in HOSTS:
        proof = "degree-split" if takes_split(n, r, pattern, host) else "walk"
        res = lt.max_edges(n, r, pattern, host)
        s = res.stats
        assert (res.value, res.status, res.witness) == (0, "exact", lt.make_hypergraph(n, [], r))
        assert (s.nodes, s.admits_calls, s.admits_rejects, s.bound_cuts, s.proof) == (
            0, 1, 1, 0, proof)
        rfile = tmp_path / f"{host}.jsonl"
        argv = ["turan", "--n", str(n), "--r", str(r), "--pattern", f"{expr}@r{r}",
                "--report-format", "structured", "--results", str(rfile)]
        argv += ["--linear"] if host == "linear" else []
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert (got["status"], got["value"], got["nodes"], got["admits_calls"], got["proof"]) == (
            "exact", 0, 0, 1, proof)
        rec = lt.ResultsStore(rfile).best(n, r, f"{expr}@r{r}", host)
        assert (rec.value, rec.status, rec.witness_graph()) == (0, "exact", res.witness)
        assert dataclasses.replace(rec.stats, elapsed=0) == dataclasses.replace(s, elapsed=0)
        # served from the store, the row reports the stored record
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == got


def test_union_search_builds_only_the_witness(monkeypatch):
    # every check runs on the searcher's own edge state: the one host
    # built is the witness
    built = []
    make = lt.oracle.make_hypergraph

    def counted(*args, **kwargs):
        built.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(lt.oracle, "make_hypergraph", counted)
    res = lt.max_edges(10, 3, lt.parse_pattern("P2+S2@r3"))
    assert (res.status, res.value, res.stats.admits_calls) == ("exact", 13, 205)
    assert len(built) == 1


def _digest(witness):
    return hashlib.sha256(json.dumps([list(e) for e in witness.edges]).encode()).hexdigest()[:12]


# (n, r, pattern, host, node limit): (value, status, nodes, admits_calls,
# admits_rejects, bound_cuts) and a digest of the witness's edge list;
# the values and digests are the ones the search gave when a union took a
# whole-host check, and the counters move only when the walk's tree does.
# A general row's walk is rooted at {0, 1, 2}, not at the empty host, so
# its budget reaches one node further: at n=9 P1+C3 the 40-node budget
# reaches the host of 40 edges, which took 41 nodes when the empty host
# was a node
UNION_ROWS = [
    (7, 3, "2*P1", "linear", 100, (7, "exact", 5, 10, 1, 0), "b510de7e3234"),
    (8, 3, "2*P1", "linear", 100, (7, "exact", 5, 11, 2, 3), "b510de7e3234"),
    (8, 3, "P1+S2", "linear", 100, (8, "exact", 10, 34, 9, 3), "2dbde94f8eb7"),
    (9, 3, "2*P1", "linear", 100, (7, "exact", 6, 14, 4, 4), "b510de7e3234"),
    (9, 3, "P1+S2", "linear", 100, (12, "exact", 9, 49, 12, 0), "dcdcf6cd425c"),
    (9, 3, "P1+C3", "linear", 100, (12, "exact", 24, 127, 22, 14), "dcdcf6cd425c"),
    (10, 3, "2*P1", "linear", 100, (7, "exact", 6, 16, 6, 4), "b510de7e3234"),
    (10, 3, "P1+S2", "linear", 100, (12, "exact", 9, 50, 13, 7), "dcdcf6cd425c"),
    (10, 3, "2*P2", "linear", 100, (13, "exact", 28, 205, 11, 17), "e16f59768666"),
    (10, 3, "P2+S2", "linear", 100, (13, "exact", 28, 205, 11, 17), "e16f59768666"),
    (10, 3, "P1+C3", "linear", 100, (12, "interrupted", 101, 747, 226, 94), "dcdcf6cd425c"),
    (6, 3, "2*P1", "general", 100, (10, "interrupted", 101, 540, 100, 96), "05bd1b448ddd"),
    (7, 3, "2*P1", "general", 100, (15, "interrupted", 101, 968, 182, 93), "0ae9c0acebb4"),
    (8, 3, "2*P1", "general", 100, (21, "interrupted", 101, 1407, 225, 92), "159bf9c948c4"),
    (8, 3, "P1+S2", "general", 100, (28, "interrupted", 101, 1412, 282, 82), "84ebd2d3b303"),
    (9, 3, "2*P1", "general", 100, (28, "interrupted", 101, 1898, 269, 89), "5e848b790af8"),
    (9, 3, "P1+S2", "general", 100, (28, "interrupted", 101, 1863, 368, 79), "5e848b790af8"),
    (9, 3, "P1+C3", "general", 40, (40, "interrupted", 41, 2096, 35, 0), "86e697e00330"),
    (10, 3, "2*P1", "general", 100, (36, "interrupted", 101, 2496, 311, 86), "540b738511c8"),
    (10, 3, "P1+S2", "general", 100, (36, "interrupted", 101, 2652, 290, 76), "540b738511c8"),
    (10, 3, "2*P2", "general", 100, (44, "interrupted", 101, 3952, 248, 60), "d6443d5e3719"),
    (10, 3, "P2+S2", "general", 100, (44, "interrupted", 101, 3952, 248, 60), "d6443d5e3719"),
    (8, 4, "2*P1", "linear", 100, (2, "exact", 1, 1, 0, 1), "3929c590e9bf"),
    (9, 4, "2*P1", "linear", 100, (3, "exact", 2, 2, 0, 1), "238abed65f6f"),
    (10, 4, "2*P1", "linear", 100, (5, "exact", 5, 13, 1, 1), "95d59a87ef69"),
    (8, 4, "2*P1", "general", 100, (35, "interrupted", 101, 1480, 100, 68), "da0a21ca2dfa"),
    (9, 4, "2*P1", "general", 100, (56, "interrupted", 101, 3323, 123, 53), "92f25cca91e3"),
    (10, 4, "2*P1", "general", 100, (84, "interrupted", 101, 6420, 131, 35), "97eb85d7e757"),
]


@pytest.mark.parametrize(
    "n,r,expr,host,limit,outcome,witness",
    [pytest.param(*row, id=f"{row[0]}-{row[2]}@r{row[1]}-{row[3]}") for row in UNION_ROWS],
)
def test_union_rows_are_pinned(n, r, expr, host, limit, outcome, witness):
    # anchored union checks give the whole-host verdicts: every verdict,
    # so every counter, the value and the lex-least witness are unchanged
    res = lt.max_edges(n, r, lt.parse_pattern(f"{expr}@r{r}"), host,
                       lt.SearchBudget(node_limit=limit))
    s = res.stats
    got = (res.value, res.status, s.nodes, s.admits_calls, s.admits_rejects, s.bound_cuts)
    assert (got, _digest(res.witness)) == (outcome, witness)


@pytest.mark.parametrize(
    "n,r,expr,host",
    [
        (7, 3, "P3", "linear"),
        (9, 3, "C3", "linear"),
        (7, 2, "C4", "linear"),
        (7, 3, "S2", "general"),
        (10, 3, "P2+S2", "linear"),
    ],
)
def test_admits_probe_counts_are_the_searchs_own(monkeypatch, n, r, expr, host):
    # the benchmark's tracer counts calls of _Searcher.admits and reads
    # True as free; every trial must go through it, so its calls are
    # admits_calls and its False returns admits_rejects
    verdicts = []
    admits = _Searcher.admits

    def counted(self, *args, **kwargs):
        verdicts.append(admits(self, *args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(_Searcher, "admits", counted)
    res = lt.max_edges(n, r, lt.parse_pattern(f"{expr}@r{r}"), host)
    assert res.exact and verdicts
    assert len(verdicts) == res.stats.admits_calls
    assert verdicts.count(False) == res.stats.admits_rejects


def test_budget_raises_for_enumeration():
    with pytest.raises(InterruptedSearch):
        sum(1 for _ in lt.iter_free(7, 3, P3, budget=lt.SearchBudget(node_limit=5)))


def test_budget_validation():
    with pytest.raises(BadParameters):
        lt.SearchBudget(node_limit=0)
    with pytest.raises(BadParameters):
        lt.SearchBudget(time_limit=-1.0)
    with pytest.raises(BadParameters):
        lt.SearchBudget(time_limit=float("nan"))


@pytest.mark.parametrize("limits,message", [
    ({"node_limit": "5"}, "node limit must be an int, got '5'"),
    ({"node_limit": 2.5}, "node limit must be an int, got 2.5"),
    ({"node_limit": True}, "node limit must be an int, got True"),
    ({"time_limit": "1"}, "time limit must be an int or a float, got '1'"),
    ({"time_limit": True}, "time limit must be an int or a float, got True"),
])
def test_budget_limits_of_the_wrong_type_are_refused(limits, message):
    # a bool is an int to isinstance, but no limit
    with pytest.raises(BadParameters) as info:
        lt.max_edges(9, 3, P3, budget=lt.SearchBudget(**limits))
    assert str(info.value) == message


def test_budget_limits_of_either_number_type_are_taken():
    assert lt.SearchBudget(node_limit=5, time_limit=1).time_limit == 1
    assert lt.max_edges(7, 3, P3, budget=lt.SearchBudget(time_limit=30.0)).value == 7


@pytest.mark.parametrize("count", [2.5, 2.0, "2", True])
def test_edge_count_of_the_wrong_type_is_refused(count):
    with pytest.raises(BadParameters) as info:
        next(lt.iter_free(6, 3, P3, edge_count=count))
    assert str(info.value) == f"edge count must be an int, got {count!r}"


@pytest.mark.parametrize("n,r", [(999_999_999, 3), (100_000, 99_999), (75, 3), (37, 4)])
def test_oversized_search_is_refused(n, r):
    # C(n, r) candidate edges of r vertices each, past DEFAULT_PRODUCT_CAP
    # in all; the count stops once past the cap (test_cli runs a search
    # just past it)
    with pytest.raises(ProductTooLarge):
        _check_search_size(n, r)


def test_largest_search_under_the_cap_is_accepted():
    _check_search_size(74, 3)  # C(74, 3) * 3 = 194472
    _check_search_size(447, 2)


def test_bad_host_and_pattern_mismatch():
    with pytest.raises(BadParameters):
        lt.max_edges(6, 3, P2, host="planar")
    with pytest.raises(BadParameters):
        lt.max_edges(6, 4, P2)  # P2 is 3-uniform
    with pytest.raises(BadParameters):
        lt.max_edges(2, 3, P2)


class TestExTable:
    def test_computes_and_persists(self, tmp_path):
        store = lt.ResultsStore(tmp_path / "t.jsonl")
        rows = [(6, 3, P2), (7, 3, P2)]
        res = lt.ex_table(rows, store=store)
        assert [r.value for r in res] == [2, 2]
        assert [e.value for e in store.entries()] == [2, 2]

    def test_reuses_stored_exact_values(self, tmp_path):
        store = lt.ResultsStore(tmp_path / "t.jsonl")
        rows = [(6, 3, P2)]
        (first,) = lt.ex_table(rows, store=store)
        # an impossible budget only works if the value comes from the store
        res = lt.ex_table(rows, store=store, budget=lt.SearchBudget(node_limit=1))
        assert res[0].status == "exact"
        assert res[0].value == 2
        counters = [f.name for f in dataclasses.fields(SearchStats) if f.name != "elapsed"]
        assert [getattr(res[0].stats, k) for k in counters] == [
            getattr(first.stats, k) for k in counters
        ]

    @pytest.mark.parametrize(
        "n, pattern, value, witness, cause",
        [
            # two edges claimed as three
            (6, P2, 3, {"n": 6, "r": 3, "edges": [[0, 1, 2], [3, 4, 5]]}, InvariantViolation),
            # two Fano planes: linear and P3-free, but on 14 vertices, and
            # above the path cap 8 of the row
            (8, P3, 14, {"n": 14, "r": 3, "edges": TWO_FANOS}, InvariantViolation),
            # four 2-edges hold no P2@r3, but are not of the row's order
            (6, P2, 4, {"n": 6, "r": 2, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
             InvariantViolation),
            # witnesses that are no hypergraph at all
            (6, P2, 2, {"n": 6, "r": 3, "edges": [[0, 1, 2], [2, 1, 0]]}, DuplicateEdge),
            (6, P2, 1, {"n": 6, "r": 3, "edges": [[0, 1, 6]]}, OutOfRangeVertex),
        ],
        ids=["value", "n", "r", "duplicate-edge", "out-of-range"],
    )
    def test_rejects_tampered_store(self, tmp_path, n, pattern, value, witness, cause):
        rec = {
            "n": n,
            "r": 3,
            "pattern": lt.pattern_expr(pattern),
            "host": "linear",
            "value": value,
            "status": "exact",
            "witness": witness,
            "nodes": 5,
            "elapsed": 0.0,
        }
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        # the fault is in the store file, not in the program
        with pytest.raises(FormatError, match="bogus.jsonl") as info:
            lt.ex_table([(n, 3, pattern)], store=lt.ResultsStore(path))
        root = info.value
        while root.__cause__ is not None:
            root = root.__cause__
        assert isinstance(root, cause)


def test_rejected_search_arguments_are_named():
    with pytest.raises(BadParameters) as info:
        next(lt.iter_free(6, 3, lt.linear_path(2, 3), edge_count=-1))
    assert str(info.value) == "edge count must be nonnegative, got -1"
    with pytest.raises(BadParameters) as info:
        lt.max_edges(3, 1, None)
    assert str(info.value) == "edge order must be at least 2, got 1"


@pytest.mark.parametrize("call,message", [
    (lambda: lt.max_edges(6.0, 3, None), "n and r must be ints, got n=6.0, r=3"),
    (lambda: lt.max_edges(6, True, None), "n and r must be ints, got n=6, r=True"),
    (lambda: next(lt.iter_free(6, 3.0, None)), "n and r must be ints, got n=6, r=3.0"),
    (lambda: lt.ex_table([(True, 2, None)]), "n and r must be ints, got n=True, r=2"),
], ids=["max-edges-n", "max-edges-r", "iter-free-r", "ex-table-n"])
def test_non_int_search_sizes_are_refused(call, message):
    with pytest.raises(BadParameters) as info:
        call()
    assert str(info.value) == message
