"""Brute-force pattern search, kept separate from the library on purpose.

Everything here enumerates edge subsets and permutations with no pruning
whatsoever, so hosts must stay tiny (a handful of edges). The point is to
have a second opinion that shares no code with the real detector.
"""

from itertools import combinations, permutations


def _pairwise_ok(seq, adjacency):
    # adjacency(i, j) gives the required intersection size for i < j
    for i in range(len(seq)):
        si = set(seq[i])
        for j in range(i + 1, len(seq)):
            if len(si & set(seq[j])) != adjacency(i, j):
                return False
    return True


def _is_loose_path(seq):
    return _pairwise_ok(seq, lambda i, j: 1 if j == i + 1 else 0)


def _is_loose_cycle(seq):
    ell = len(seq)
    ok = _pairwise_ok(
        seq, lambda i, j: 1 if (j == i + 1 or (i == 0 and j == ell - 1)) else 0
    )
    if not ok:
        return False
    # at ell=3 a common apex passes the pairwise test; the vertex count
    # separates a genuine cycle (ell*(r-1) vertices) from that star
    span = set()
    for e in seq:
        span.update(e)
    return len(span) == ell * (len(seq[0]) - 1)


def _is_loose_star(chosen):
    if len(chosen) == 1:
        return True
    common = set(chosen[0])
    for e in chosen[1:]:
        common &= set(e)
    if len(common) != 1:
        return False
    return _pairwise_ok(chosen, lambda i, j: 1)


def occurrences(h, kind, length):
    """All vertex sets spanned by an occurrence of the component."""
    if kind != "star" and all(len(e) == 2 for e in h.edges):
        return graph_occurrences(h, kind, length)
    return edge_occurrences(h, kind, length)


def graph_occurrences(h, kind, length):
    """occurrences of a path or cycle in a graph, by walking vertices.

    In a graph a loose path of l edges is a path on l+1 distinct vertices,
    and a loose cycle of l >= 3 edges a cycle on l distinct vertices, so
    no edge subset or permutation is tried.
    """
    adjacent = {v: set() for e in h.edges for v in e}
    for a, b in h.edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    size = length + 1 if kind == "path" else length
    found = set()

    def grow(walk):
        if len(walk) == size:
            if kind == "path" or walk[0] in adjacent[walk[-1]]:
                found.add(frozenset(walk))
            return
        for w in adjacent[walk[-1]]:
            if w not in walk:
                grow(walk + [w])

    for v in adjacent:
        grow([v])
    return found


def edge_occurrences(h, kind, length):
    """occurrences by trying every edge subset, and for a path or cycle
    every order of it."""
    found = set()
    if kind == "star":
        for chosen in combinations(h.edges, length):
            if _is_loose_star(chosen):
                found.add(frozenset(v for e in chosen for v in e))
        return found
    test = _is_loose_path if kind == "path" else _is_loose_cycle
    for subset in combinations(h.edges, length):
        for seq in permutations(subset):
            if test(seq):
                found.add(frozenset(v for e in seq for v in e))
                break
    return found


def _occurrence_spans(h, kind, length):
    """(host edge index set, vertex set) of every occurrence of the component."""
    test = {"path": _is_loose_path, "star": _is_loose_star, "cycle": _is_loose_cycle}[kind]
    found = set()
    for subset in combinations(range(len(h.edges)), length):
        if any(test([h.edges[i] for i in seq]) for seq in permutations(subset)):
            found.add((frozenset(subset), frozenset(v for i in subset for v in h.edges[i])))
    return found


def occurrence_edge_sets(h, kind, length):
    """The host edge index sets of all occurrences of the component."""
    return {edges for edges, _ in _occurrence_spans(h, kind, length)}


def union_occurrence_edge_sets(h, comps):
    """The host edge index sets of all occurrences of a union; comps is a
    sequence of ("path" | "star" | "cycle", length) pairs, and the
    components' occurrences must be vertex-disjoint."""
    partial = {(frozenset(), frozenset())}
    for kind, length in comps:
        spans = _occurrence_spans(h, kind, length)
        partial = {
            (edges | more, verts | span)
            for edges, verts in partial
            for more, span in spans
            if not verts & span
        }
    return {edges for edges, _ in partial}


def has_path(h, ell):
    return bool(occurrences(h, "path", ell))


def has_star(h, ell):
    return bool(occurrences(h, "star", ell))


def has_cycle(h, ell):
    return bool(occurrences(h, "cycle", ell))


def has_forest(h, comps):
    """comps: sequence of ("path" | "star" | "cycle", length) pairs."""
    spans = {c: sorted(occurrences(h, *c), key=sorted) for c in set(comps)}
    occ = [spans[c] for c in comps]

    def place(i, used):
        if i == len(occ):
            return True
        for span in occ[i]:
            if not (span & used) and place(i + 1, used | span):
                return True
        return False

    return place(0, frozenset())
