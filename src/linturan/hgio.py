"""Reading and writing hypergraphs.

Two interchange formats, both lossless for vertex count, uniformity, and
edges:

Text: first non-comment line is a header ``n <count> r <order|mixed>``,
then one edge per line as strictly ascending vertices separated by any
whitespace.  Lines that are blank or start with ``#`` are skipped.

``load_text`` reads a uniform body in bulk: when every row has the
header's order r, it converts all vertex tokens with one ``map(int,
...)``, checks the ascent column by column and zips the columns into
edges.  Every other body (a mixed host, a ragged row, or one the bulk
step refuses) goes through the one line-by-line reader, which returns the
edges or raises the first faulty line's error with its line number (blank
and comment lines count).  ``make_hypergraph`` then validates the edges,
so its faults (range, duplicates, order) are reported as ``invalid
hypergraph: ...``.

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
from itertools import chain
from operator import ge
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


def _header(lines: list[str]) -> tuple[int, int, Optional[int]]:
    """(index, n, r) of the header, the first line that is neither blank
    nor a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4 or parts[0] != "n" or parts[2] != "r":
            raise FormatError(f"line {lineno}: expected 'n <count> r <order|mixed>', got {line!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
        _check_vertex_count(n, f"line {lineno}:")
        if parts[3] == "mixed":
            return lineno - 1, n, None
        try:
            return lineno - 1, n, int(parts[3])
        except ValueError:
            raise FormatError(f"line {lineno}: bad order {parts[3]!r}") from None
    raise FormatError("missing header line 'n <count> r <order|mixed>'")


def _uniform_edges(rows: list[list[str]], r: int) -> Optional[list[tuple[int, ...]]]:
    """The edges of body rows that each hold r tokens, read in bulk; None
    when a row has another length, a token int() refuses or an edge is
    not strictly ascending."""
    if set(map(len, rows)) != {r}:
        return None
    try:
        flat = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        return None
    columns = [flat[j::r] for j in range(r)]
    if any(any(map(ge, a, b)) for a, b in zip(columns, columns[1:])):
        return None
    return list(zip(*columns))


def _line_edges(lines: list[str], start: int) -> list[tuple[int, ...]]:
    """The edges of the body lines from index start, one line at a time;
    FormatError for the first line that holds a non-integer vertex or is
    not strictly ascending."""
    edges = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            edge = tuple(map(int, parts))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex in {raw.strip()!r}") from None
        if any(map(ge, edge, edge[1:])):
            raise FormatError(f"line {lineno}: edge {edge} is not strictly ascending")
        edges.append(edge)
    return edges


def load_text(text: str) -> Hypergraph:
    lines = text.splitlines()
    head, n, r = _header(lines)
    edges = None
    if r is not None:
        rows = list(filter(None, map(str.split, lines[head + 1:])))
        if "#" in text:  # comment rows are rare: look for them only then
            rows = [parts for parts in rows if parts[0][0] != "#"]
        edges = _uniform_edges(rows, r)
    if edges is None:
        edges = _line_edges(lines, head + 1)
    try:
        return make_hypergraph(n, edges, r)
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
    means JSON, anything else text.  Bytes that are not UTF-8 raise
    FormatError with the offset of the first bad byte in what was read."""
    try:
        if isinstance(f, str):
            with open(f, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = f.read()
    except UnicodeDecodeError as exc:
        where = f if isinstance(f, str) else getattr(f, "name", "input")
        raise FormatError(f"{where}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    if (isinstance(f, str) and f.endswith(".json")) or text.lstrip().startswith("{"):
        return load_json(text)
    return load_text(text)
