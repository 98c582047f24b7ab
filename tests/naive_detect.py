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


def occurrence_edge_sets(h, kind, length):
    """The host edge index sets of all occurrences of the component."""
    test = {"path": _is_loose_path, "star": _is_loose_star, "cycle": _is_loose_cycle}[kind]
    found = set()
    for subset in combinations(range(len(h.edges)), length):
        if any(test([h.edges[i] for i in seq]) for seq in permutations(subset)):
            found.add(frozenset(subset))
    return found


def has_path(h, ell):
    return bool(occurrences(h, "path", ell))


def has_star(h, ell):
    return bool(occurrences(h, "star", ell))


def has_cycle(h, ell):
    return bool(occurrences(h, "cycle", ell))


def has_forest(h, comps):
    """comps: sequence of ("path" | "star" | "cycle", length) pairs."""
    occ = [sorted(occurrences(h, kind, length), key=sorted) for kind, length in comps]

    def place(i, used):
        if i == len(occ):
            return True
        for span in occ[i]:
            if not (span & used) and place(i + 1, used | span):
                return True
        return False

    return place(0, frozenset())
