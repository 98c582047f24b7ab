"""Reference text loader for differential tests: one line at a time.

This is the line-by-line reader that linturan.hgio.load_text replaced
with a bulk tokeniser.  It shares only the vertex-count cap check and
make_hypergraph with the library, so the host it returns and the message
it raises are a second opinion on every line the library reads.
"""

from __future__ import annotations

from typing import Optional

from linturan.errors import FormatError
from linturan.hgio import _check_vertex_count
from linturan.hypergraph import Hypergraph, make_hypergraph


def load_text(text: str) -> Hypergraph:
    header: Optional[tuple[int, Optional[int]]] = None
    edges: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "n" or parts[2] != "r":
                raise FormatError(f"line {lineno}: expected 'n <count> r <order|mixed>', got {line!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            _check_vertex_count(n, f"line {lineno}:")
            if parts[3] == "mixed":
                r: Optional[int] = None
            else:
                try:
                    r = int(parts[3])
                except ValueError:
                    raise FormatError(f"line {lineno}: bad order {parts[3]!r}") from None
            header = (n, r)
            continue
        try:
            edge = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if any(edge[i] >= edge[i + 1] for i in range(len(edge) - 1)):
            raise FormatError(f"line {lineno}: edge {edge} is not strictly ascending")
        edges.append(edge)
    if header is None:
        raise FormatError("missing header line 'n <count> r <order|mixed>'")
    try:
        return make_hypergraph(header[0], edges, header[1])
    except Exception as exc:
        raise FormatError(f"invalid hypergraph: {exc}") from exc
