"""Persistent store for computed extremal values.

One JSON object per line, append-only.  A record is keyed by
(n, r, pattern, host); re-running a computation appends a fresh line
rather than rewriting history, and lookups resolve the duplicates: an
exact record always beats an interrupted one, later records beat earlier
ones of the same status.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .errors import FormatError
from .hgio import check_json_fields
from .hypergraph import Hypergraph, make_hypergraph

__all__ = ["ResultRecord", "ResultsStore"]

_FIELDS = {"n": int, "r": int, "pattern": (str, type(None)), "host": str, "value": int,
           "status": str, "witness": dict, "nodes": int, "elapsed": (int, float),
           "admits_calls": int, "admits_rejects": int, "bound_cuts": int}
# search counters that records written before the store kept them lack;
# such a record reads them as 0
_COUNTERS = ("admits_calls", "admits_rejects", "bound_cuts")


@dataclass(frozen=True)
class ResultRecord:
    n: int
    r: int
    pattern: Optional[str]  # canonical pattern expression, None = unconstrained
    host: str  # "linear" | "general"
    value: int
    status: str  # "exact" | "interrupted"
    witness: dict  # hypergraph JSON object
    nodes: int
    elapsed: float
    admits_calls: int = 0
    admits_rejects: int = 0
    bound_cuts: int = 0

    @property
    def key(self) -> tuple:
        return (self.n, self.r, self.pattern, self.host)

    def witness_graph(self) -> Hypergraph:
        return make_hypergraph(
            self.witness["n"],
            [tuple(e) for e in self.witness["edges"]],
            self.witness.get("r"),
        )

    def to_obj(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _FIELDS}

    @classmethod
    def from_obj(cls, obj: Any) -> "ResultRecord":
        if not isinstance(obj, dict):
            raise FormatError(f"result record must be an object, got {obj!r}")
        values = dict.fromkeys(_COUNTERS, 0)
        for name, kind in _FIELDS.items():
            if name not in obj:
                if name in values:
                    continue
                raise FormatError(f"result record missing {name!r}")
            if isinstance(obj[name], bool) or not isinstance(obj[name], kind):
                raise FormatError(f"result record {name} has the wrong type: {obj[name]!r}")
            values[name] = obj[name]
        check_json_fields(obj["witness"], "result record witness")
        return cls(**values)


class ResultsStore:
    """JSON Lines store.

    Each record is appended as one line and nothing is locked.  A final
    line without its newline that does not parse was torn by a writer
    that stopped mid-line: loading drops it and reports its line number
    in `torn`, and the next add cuts it off before appending, so the new
    record starts on a fresh line.  Any other invalid line rejects the
    whole file with a FormatError naming it.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: list[ResultRecord] = []
        self.torn: Optional[int] = None  # line number of a dropped torn line
        self._torn_at: Optional[int] = None  # its byte offset
        if not os.path.exists(path):
            return
        with open(path, "rb") as fh:
            data = fh.read()
        offset = 0
        for lineno, raw in enumerate(data.split(b"\n"), start=1):
            start, offset = offset, offset + len(raw) + 1
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
                if offset > len(data):  # final line, no newline
                    self.torn, self._torn_at = lineno, start
                    continue
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                self._records.append(ResultRecord.from_obj(obj))
            except FormatError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: ResultRecord) -> None:
        line = json.dumps(record.to_obj(), sort_keys=True) + "\n"
        with open(self.path, "ab+") as fh:
            if self._torn_at is not None:
                fh.truncate(self._torn_at)
                self._torn_at = None
            fh.seek(0, os.SEEK_END)
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":  # a last record without its newline
                    line = "\n" + line
            fh.write(line.encode("utf-8"))
        self._records.append(record)

    def best(
        self, n: int, r: int, pattern: Optional[str], host: str
    ) -> Optional[ResultRecord]:
        """Resolve duplicates for one key: exact beats interrupted, then
        the latest line wins."""
        key = (n, r, pattern, host)
        found: Optional[ResultRecord] = None
        for rec in self._records:
            if rec.key != key:
                continue
            if found is None or rec.status == "exact" or found.status != "exact":
                found = rec
        return found

    def entries(self) -> Iterator[ResultRecord]:
        """The resolved record for every key, in sorted key order."""
        keys = sorted({rec.key for rec in self._records}, key=lambda k: (k[0], k[1], str(k[2]), k[3]))
        for n, r, pattern, host in keys:
            rec = self.best(n, r, pattern, host)
            if rec is not None:
                yield rec
