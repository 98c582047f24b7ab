"""Reading and writing hypergraphs.

Two interchange formats, both lossless for vertex count, uniformity, and
edges (JSON also carries labels):

Text: first non-comment line is a header ``n <count> r <order|mixed>``,
then one edge per line as ascending space-separated vertices.  Lines that
are blank or start with ``#`` are skipped.

JSON: an object with keys ``n`` (int), ``r`` (int or null for mixed),
``edges`` (list of ascending int lists) and optionally ``labels`` (list of
``{"kind": str, "index": int|null}`` parallel to edges).
"""

from __future__ import annotations

import json
from typing import Any, Optional, TextIO, Union

from .errors import FormatError
from .hypergraph import EdgeLabel, Hypergraph, make_hypergraph

__all__ = [
    "dump_text",
    "load_text",
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


def _label_to_obj(lab: EdgeLabel) -> dict[str, Any]:
    return {"kind": lab.kind, "index": lab.index}


def _label_from_obj(obj: Any) -> EdgeLabel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"bad label object {obj!r}")
    return EdgeLabel(obj["kind"], obj.get("index"))


def dump_json(h: Hypergraph, indent: Optional[int] = None) -> str:
    obj: dict[str, Any] = {
        "n": h.n,
        "r": h.r,
        "edges": [list(e) for e in h.edges],
    }
    if h.labels is not None:
        obj["labels"] = [_label_to_obj(lab) for lab in h.labels]
    return json.dumps(obj, indent=indent)


def check_json_fields(obj: Any, what: str = "hypergraph") -> None:
    """Raise FormatError unless obj is a JSON object with an integer n, an
    integer or null r and a list of integer lists as edges (bools are not)."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {obj!r}")
    for key in ("n", "edges"):
        if key not in obj:
            raise FormatError(f"{what} is missing key {key!r}")
    if type(obj["n"]) is not int:
        raise FormatError(f"{what} vertex count must be an integer, got {obj['n']!r}")
    if obj.get("r") is not None and type(obj["r"]) is not int:
        raise FormatError(f"{what} order must be an integer or null, got {obj['r']!r}")
    edges = obj["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(type(v) is int for v in e) for e in edges
    ):
        raise FormatError(f"{what} edges must be a list of integer lists")


def load_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long or too deep
        raise FormatError(f"invalid JSON: {exc}") from exc
    check_json_fields(obj)
    try:
        labels = obj.get("labels")
        if labels is not None:
            labels = [_label_from_obj(o) for o in labels]
        return make_hypergraph(obj["n"], [tuple(e) for e in obj["edges"]], obj.get("r"), labels)
    except FormatError:
        raise
    except Exception as exc:
        raise FormatError(f"invalid hypergraph: {exc}") from exc


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


def read_file(f: Union[str, TextIO], fmt: Optional[str] = None) -> Hypergraph:
    """Read from a path or open handle.

    fmt None autodetects: .json suffix or a leading '{' means JSON.
    """
    if isinstance(f, str):
        with open(f, "r", encoding="utf-8") as fh:
            text = fh.read()
        if fmt is None:
            fmt = "json" if f.endswith(".json") else None
    else:
        text = f.read()
    if fmt is None:
        fmt = "json" if text.lstrip().startswith("{") else "text"
    if fmt == "json":
        return load_json(text)
    if fmt == "text":
        return load_text(text)
    raise FormatError(f"unknown format {fmt!r}")
