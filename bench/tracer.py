"""Span tracing of linturan's layers, installed from outside the package.

The tracer replaces each public function of a linturan module at the
names *other* modules bind it to (``linturan.oracle.is_free``,
``linturan.detect.realize``, the package namespace ``linturan.ex_table``
the benchmark calls through, ...), so a span opens exactly where control
crosses from one layer into another.  Intra-module calls are not
wrapped.  A few probes outside that rule are listed in ``EXTRA_PROBES``:
the CLI entry point, the results store's methods, and the oracle's
per-node admissibility check, whose calls and verdicts are the oracle's
main work counter and which no other module binds.

Each span records its name, start, end, parent span and the query it
belongs to.  Spans stay in compact arrays in memory and are written out
once, by ``write``, after the traced pass.  ``uninstall`` puts every
original function back, so timings taken afterwards never pass through
a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from array import array
from collections import Counter

PACKAGE = "linturan"

# (module, attribute path, span name) probed besides cross-module bindings.
EXTRA_PROBES = (
    ("linturan.cli", "main", "cli.main"),
    ("linturan.oracle", "_Searcher.admits", "oracle.admits"),
    ("linturan.results", "ResultsStore.__init__", "results.ResultsStore.load"),
    ("linturan.results", "ResultsStore.add", "results.ResultsStore.add"),
    ("linturan.results", "ResultsStore.best", "results.ResultsStore.best"),
    ("linturan.results", "ResultRecord.witness_graph", "results.ResultRecord.witness_graph"),
)

# Probes of a step inside a layer rather than an entry into it: counted,
# but not among the layer's calls.
INTERNAL_PROBES = frozenset({"oracle.admits"})

# Functions whose return value says whether the host was free of the
# pattern: contains() returns None, is_free() and admits() return True.
FREE_VERDICT = {
    "detect.contains": lambda out: out is None,
    "detect.is_free": lambda out: out is True,
    "oracle.admits": lambda out: out is True,
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def package_modules() -> list[types.ModuleType]:
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def cross_bindings(mods) -> list[tuple[object, str, str]]:
    """(namespace, attribute, span name) for every public linturan
    function bound in a module other than the one defining it."""
    out = []
    for mod in mods:
        for attr, value in sorted(vars(mod).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            home = value.__module__
            if not home.startswith(PACKAGE + ".") or home == mod.__name__:
                continue
            out.append((mod, attr, f"{home.split('.', 1)[1]}.{value.__name__}"))
    return out


def extra_bindings() -> list[tuple[object, str, str]]:
    out = []
    for modname, path, name in EXTRA_PROBES:
        owner = importlib.import_module(modname)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        if attr not in vars(owner):
            raise AttributeError(f"trace probe {modname}.{path} no longer exists")
        out.append((owner, attr, name))
    return out


class Tracer:
    """Spans and call counts for one traced pass of a workload."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same layer
        self._stack: list[int] = []
        self._layer_depth: list[int] = []
        self._layer_of_name: list[int] = []
        self._layers: dict[str, int] = {}
        self.current_query = -1
        self.calls: Counter = Counter()
        self.free: Counter = Counter()
        self.yields: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = package_modules()
        for owner, attr, name in cross_bindings(mods) + extra_bindings():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            layer = layer_of(name)
            if layer not in self._layers:
                self._layers[layer] = len(self._layer_depth)
                self._layer_depth.append(0)
            self._layer_of_name.append(self._layers[layer])
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        lid = self._layer_of_name[nid]
        depth = self._layer_depth
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.current_query)
        self.outer.append(depth[lid] == 0)
        depth[lid] += 1
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._layer_depth[self._layer_of_name[self.name_idx[sid]]] -= 1

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        verdict = FREE_VERDICT.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if verdict is not None and verdict(out):
                tracer.free[name] += 1
            if isinstance(out, types.GeneratorType):
                return tracer._resumed(out, nid, name)
            return out

        return traced

    def _resumed(self, gen, nid: int, name: str):
        """Re-yield gen's items, with a span around each resumption, so
        work done lazily inside a generator is charged to its layer."""
        try:
            while True:
                sid = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                self.yields[name] += 1
                yield item
        finally:
            gen.close()

    # -- summaries -------------------------------------------------------

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls into its traced functions (internal probes
        not counted), total_s (time inside the layer's outermost spans)
        and self_s (span time not covered by child spans)."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = {}

        def row(layer):
            return out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        for sid in range(n):
            r = row(layer_of(self.names[self.name_idx[sid]]))
            dur = self.end[sid] - self.start[sid]
            r["self_s"] += dur - child[sid]
            if self.outer[sid]:
                r["total_s"] += dur
        for name, count in self.calls.items():
            if name not in INTERNAL_PROBES:
                row(layer_of(name))["calls"] += count
        return out

    def write(self, path: str, meta: dict) -> None:
        """Spans as JSON: a name table, then one row per span of
        [name index, start, end, parent, query]."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "query"],
                },
                fh,
            )
            fh.write("\n")
            for sid in range(len(self.start)):
                fh.write(
                    "[%d,%.7f,%.7f,%d,%d]\n"
                    % (
                        self.name_idx[sid],
                        self.start[sid] - t0,
                        self.end[sid] - t0,
                        self.parent[sid],
                        self.query[sid],
                    )
                )
