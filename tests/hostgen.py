"""Seeded random hosts for detector agreement tests."""

from itertools import combinations

import linturan as lt


def random_edges(rng, n, r, m, linear):
    """Up to m random r-edges on n vertices; no two share a pair when
    linear is set."""
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    edges = []
    pairs = set()
    for e in pool:
        if len(edges) == m:
            break
        ps = set(combinations(e, 2))
        if linear and pairs & ps:
            continue
        edges.append(e)
        pairs |= ps
    return lt.make_hypergraph(n, edges, r)


def random_host(rng, max_edges=8, orders=(3, 4)):
    r = rng.choice(orders)
    n = rng.randint(r + 1, 9)
    want_linear = rng.random() < 0.5
    m = rng.randint(0, max_edges)
    return random_edges(rng, n, r, m, want_linear)


def piecewise_host(rng, r):
    """A linear host on disjoint pieces: three to six small ones, most too
    small for a 2-edge pattern, and one larger one, in random order."""
    pieces = [
        random_edges(rng, rng.randint(r, 2 * r), r, rng.randint(1, 2), True)
        for _ in range(rng.randint(3, 6))
    ]
    large = random_edges(rng, rng.randint(2 * r + 1, 3 * r), r, rng.randint(3, 6), True)
    pieces.insert(rng.randrange(len(pieces) + 1), large)
    return lt.disjoint_union(pieces)
