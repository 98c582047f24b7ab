"""Reading and writing hypergraphs.

Two interchange formats, both lossless for vertex count, uniformity, and
edges:

Text: first non-comment line is a header ``n <count> r <order|mixed>``,
then one edge per line as ascending space-separated vertices.  Lines that
are blank or start with ``#`` are skipped.

JSON: an object with keys ``n`` (int), ``r`` (int or null for mixed) and
``edges`` (list of ascending int lists); other keys are ignored.  The
same object is a results-store witness: ``graph_to_obj`` and
``graph_from_obj`` are the one encoder and decoder of both.

Both refuse a vertex count above DEFAULT_PRODUCT_CAP, the largest host
the package builds: reading a host allocates per declared vertex, so a
short file could otherwise ask for any amount of memory.
"""

from __future__ import annotations

import json
from typing import Any, Optional, TextIO, Union

from .errors import FormatError, LinturanError
from .hypergraph import DEFAULT_PRODUCT_CAP, Hypergraph, make_hypergraph

__all__ = [
    "dump_text",
    "load_text",
    "graph_to_obj",
    "graph_from_obj",
    "dump_json",
    "load_json",
    "check_json_fields",
    "write_file",
    "read_file",
]


def dump_text(h: Hypergraph) -> str:
    order = "mixed" if h.r is None else str(h.r)
    lines = [f"n {h.n} r {order}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def _check_vertex_count(n: int, what: str) -> None:
    if n > DEFAULT_PRODUCT_CAP:
        raise FormatError(f"{what} vertex count {n} exceeds the cap {DEFAULT_PRODUCT_CAP}")


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


def graph_to_obj(h: Hypergraph) -> dict[str, Any]:
    """The JSON object of a host file or a results-store witness."""
    return {"n": h.n, "r": h.r, "edges": [list(e) for e in h.edges]}


def dump_json(h: Hypergraph, indent: Optional[int] = None) -> str:
    return json.dumps(graph_to_obj(h), indent=indent)


def check_json_fields(obj: Any, what: str = "hypergraph") -> None:
    """Raise FormatError unless obj is a JSON object with an integer n no
    larger than DEFAULT_PRODUCT_CAP, an integer or null r and a list of
    integer lists as edges (bools are not)."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {obj!r}")
    for key in ("n", "edges"):
        if key not in obj:
            raise FormatError(f"{what} is missing key {key!r}")
    if type(obj["n"]) is not int:
        raise FormatError(f"{what} vertex count must be an integer, got {obj['n']!r}")
    _check_vertex_count(obj["n"], what)
    if obj.get("r") is not None and type(obj["r"]) is not int:
        raise FormatError(f"{what} order must be an integer or null, got {obj['r']!r}")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in edges
    ):
        raise FormatError(f"{what} edges must be a list of integer lists")


def graph_from_obj(obj: Any, what: str = "hypergraph") -> Hypergraph:
    """Build the hypergraph of a JSON object; FormatError when it is
    malformed or names no valid hypergraph."""
    check_json_fields(obj, what)
    try:
        return make_hypergraph(obj["n"], obj["edges"], obj.get("r"))
    except LinturanError as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc


def load_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise FormatError(f"invalid JSON: {exc}") from exc
    return graph_from_obj(obj)


def write_file(h: Hypergraph, f: Union[str, TextIO], fmt: str = "text") -> None:
    """Write to a path or open handle; fmt is 'text' or 'json'."""
    if fmt == "text":
        payload = dump_text(h)
    elif fmt == "json":
        payload = dump_json(h, indent=2) + "\n"
    else:
        raise FormatError(f"unknown format {fmt!r}")
    if isinstance(f, str):
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        f.write(payload)


def read_file(f: Union[str, TextIO]) -> Hypergraph:
    """Read from a path or open handle: a .json suffix or a leading '{'
    means JSON, anything else text."""
    if isinstance(f, str):
        with open(f, "r", encoding="utf-8") as fh:
            text = fh.read()
        if f.endswith(".json"):
            return load_json(text)
    else:
        text = f.read()
    if text.lstrip().startswith("{"):
        return load_json(text)
    return load_text(text)
