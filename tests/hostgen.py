"""Seeded random hosts for detector agreement tests."""

from itertools import combinations

import linturan as lt


def random_host(rng, max_edges=8, orders=(3, 4)):
    r = rng.choice(orders)
    n = rng.randint(r + 1, 9)
    pool = list(combinations(range(n), r))
    want_linear = rng.random() < 0.5
    m = rng.randint(0, max_edges)
    rng.shuffle(pool)
    edges = []
    pairs = set()
    for e in pool:
        if len(edges) == m:
            break
        ps = set(combinations(e, 2))
        if want_linear and pairs & ps:
            continue
        edges.append(e)
        pairs |= ps
    return lt.make_hypergraph(n, edges, r)
