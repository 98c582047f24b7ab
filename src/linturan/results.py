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
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterator, Optional

from .errors import FormatError
from .hgio import check_json_fields, graph_from_obj
from .hypergraph import Hypergraph

__all__ = ["ResultRecord", "ResultsStore", "SearchStats"]


@dataclass
class SearchStats:
    """What a search did.  Every count is deterministic.

    admits_calls counts admissibility checks of a candidate edge (none
    runs while the host plus that edge is too small for the pattern) and
    admits_rejects those that found the pattern; bound_cuts counts the
    times a bound could not reach the bar: a node not expanded, or the
    remaining children of a node dropped.  proof names the method:
    "walk", or "degree-split" for max_edges' max-degree split.

    These fields are the one list of a search's counters: the results
    store keeps every one with each record, and `turan --report-format
    structured` prints every one but elapsed, which is a time.  Every
    record holds nodes and elapsed; one written before a later field
    existed lacks it and reads its default (0, or "walk" for proof), so
    a new field goes last.
    """

    nodes: int = 0
    elapsed: float = 0.0
    admits_calls: int = 0
    admits_rejects: int = 0
    bound_cuts: int = 0
    proof: str = "walk"


# JSON types of a record's own fields, then of its search counters, in
# the order they are checked; a float counter may be stored as an integer
_FIELDS = {"n": int, "r": int, "pattern": (str, type(None)), "host": str, "value": int,
           "status": str, "witness": dict}
# the values host, status and proof may take
_CHOICES = {"host": ("linear", "general"), "status": ("exact", "interrupted"),
            "proof": ("walk", "degree-split")}
_STATS = {f.name: (int, float) if isinstance(f.default, float) else type(f.default)
          for f in fields(SearchStats)}
# every record holds the first two counters, nodes and elapsed; one written
# before the store kept a later counter lacks it
_LATER = tuple(_STATS)[2:]


@dataclass(frozen=True)
class ResultRecord:
    n: int
    r: int
    pattern: Optional[str]  # canonical pattern expression, None = unconstrained
    host: str  # "linear" | "general"
    value: int
    status: str  # "exact" | "interrupted"
    witness: dict  # hgio.graph_to_obj of the witness
    stats: SearchStats

    @property
    def key(self) -> tuple:
        return (self.n, self.r, self.pattern, self.host)

    def witness_graph(self) -> Hypergraph:
        """The witness host; FormatError when it names no valid one."""
        return graph_from_obj(self.witness, "result record witness")

    def to_obj(self) -> dict[str, Any]:
        return {**{name: getattr(self, name) for name in _FIELDS}, **asdict(self.stats)}

    @classmethod
    def from_obj(cls, obj: Any) -> "ResultRecord":
        if not isinstance(obj, dict):
            raise FormatError(f"result record must be an object, got {obj!r}")
        values = {}
        for name, kind in (*_FIELDS.items(), *_STATS.items()):
            if name not in obj:
                if name in _LATER:
                    continue  # read as its default
                raise FormatError(f"result record missing {name!r}")
            if isinstance(obj[name], bool) or not isinstance(obj[name], kind):
                raise FormatError(f"result record {name} has the wrong type: {obj[name]!r}")
            if name in _CHOICES and obj[name] not in _CHOICES[name]:
                raise FormatError(
                    f"result record {name} must be one of {_CHOICES[name]}, got {obj[name]!r}"
                )
            values[name] = obj[name]
        check_json_fields(obj["witness"], "result record witness")
        stats = SearchStats(**{name: values.pop(name) for name in _STATS if name in values})
        return cls(**values, stats=stats)


class ResultsStore:
    """JSON Lines store.

    Each record is appended as one line and nothing is locked.  A final
    line without its newline that does not parse was torn by a writer
    that stopped mid-line: loading drops it and reports its line number
    in `torn`, and the next add cuts it off before appending, so the new
    record starts on a fresh line.  It cuts only while the file still
    ends with those bytes at that offset: once another writer has cut the
    line and appended, the file ends elsewhere, and cutting at the old
    offset would erase its records, so the new record just starts on a
    fresh line.  Loading skips blank lines, such as the one left when an
    add saw another writer's line half written and started a fresh line.
    Any other invalid line rejects the whole file with a FormatError
    naming it.
    """

    def __init__(self, path: str):
        self.path = path
        self._records: list[ResultRecord] = []
        self.torn: Optional[int] = None  # line number of a dropped torn line
        # the torn line's byte offset and bytes, until the next add
        self._torn_tail: Optional[tuple[int, bytes]] = None
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
                    self.torn, self._torn_tail = lineno, (start, raw)
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
            if self._torn_tail is not None:
                at, torn = self._torn_tail
                fh.seek(at)
                if fh.read(len(torn) + 1) == torn:  # still the file's end
                    fh.truncate(at)
                self._torn_tail = None
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
