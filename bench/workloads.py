"""The benchmark's three workloads: inputs, queries and reference checks.

A workload has two halves.  ``setup(seed, tiny, work_dir)`` generates
every input before timing starts and returns them; ``run_pass(inputs,
tracer)`` answers every query once and returns a ``PassResult``.  Each
query's answer is checked against a reference value inside the pass, so
a wrong answer, an exception or an unexpected budget cut-off is counted
as a failed query, never as a fast one.

The library is reached only through module attributes looked up at call
time (``lt.ex_table``, ``lt.cli.main``), so a tracer installed around a
pass sees the benchmark's calls into each layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
import traceback
from array import array
from dataclasses import dataclass, field
from itertools import combinations

import linturan as lt
import linturan.cli

R = 3


@dataclass
class PassResult:
    tracer: object = None  # when set, spans are tagged with the query index
    spans: list = field(default_factory=list)  # (start, end) of each query
    latencies_s: array = field(default_factory=lambda: array("d"))  # set by finish()
    raw_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    exact_rows: int = 0
    counts: dict = field(default_factory=dict)
    table: list = field(default_factory=list)

    def query(self, label, run, check, started=None):
        """Time run() as one query, then compare its output with the
        reference: check(output) lists the mismatches.  started, when
        given, is the moment the query began (before run was called)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_query = self.attempted - 1
        t0 = time.perf_counter() if started is None else started
        try:
            out = run()
        except Exception:
            out, problems = None, [traceback.format_exc(limit=3)]
        else:
            problems = None
        self.spans.append((t0, time.perf_counter()))
        if self.tracer is not None:
            self.tracer.current_query = -1
        if problems is None:
            try:
                problems = check(out)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")

    def fault(self, message):
        """A failed check that belongs to no single query."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def finish(self, probe=None):
        """Turn the query spans into latencies, scaled to the reference
        speed by a speed.SpeedProbe running during the pass (without
        one, the latencies are raw), and drop the spans.  The latencies
        are kept in a compact array, so that a run's many passes hardly
        add to the worker's peak memory."""
        if probe is None:
            self.raw_wall_s = sum(b - a for a, b in self.spans)
            self.latencies_s = array("d", (b - a for a, b in self.spans))
        else:
            self.raw_wall_s = sum(b - a - probe.paused(a, b) for a, b in self.spans)
            self.latencies_s = array("d", (probe.scaled(a, b) for a, b in self.spans))
        self.spans = []
        for row in self.table:
            row["wall_s"] = self.latencies_s[row.pop("query")]
        return self

    @property
    def wall_s(self) -> float:
        """Time spent answering the pass's queries; checks not included."""
        return sum(self.latencies_s)

    def to_obj(self) -> dict:
        obj = {k: v for k, v in self.__dict__.items() if k not in ("tracer", "spans")}
        obj["latencies_s"] = list(self.latencies_s)
        obj["wall_s"] = self.wall_s
        return obj


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def _is_loose_path(edges) -> bool:
    """Consecutive edges meet in exactly one vertex, others not at all."""
    sets = [set(e) for e in edges]
    return all(
        len(sets[i] & sets[j]) == (1 if j == i + 1 else 0)
        for i in range(len(sets)) for j in range(i + 1, len(sets))
    )


# ---------------------------------------------------------------------------
# exact-grid: max_edges on the ROADMAP rows, then a results-store pass.

# (label, n, pattern, host, node budget, reference value, frontier row)
GRID = (
    ("P3n8", 8, "P3@r3", "linear", 40_000, 7, False),
    ("C3n8", 8, "C3@r3", "linear", 30_000, 4, False),
    ("P4n8", 8, "P4@r3", "linear", 250_000, 8, False),
    ("S2gn7", 7, "S2@r3", "general", 5_000, 5, False),
    ("P3n9", 9, "P3@r3", "linear", 2_000, 7, True),
)
TINY_GRID = (
    ("P3n6", 6, "P3@r3", "linear", 1_000, 4, False),
    ("C3n6", 6, "C3@r3", "linear", 1_000, 2, False),
    ("P4n7", 7, "P4@r3", "linear", 1_000, 7, False),
    ("S2gn5", 5, "S2@r3", "general", 1_000, 4, False),
    ("P3n7", 7, "P3@r3", "linear", 30, 7, True),
)


def grid_setup(seed: int, tiny: bool, work_dir: str) -> dict:
    # the inputs are only (n, r, pattern): the seed does not apply
    rows = [
        (label, n, lt.parse_pattern(expr), host, cap, value, frontier)
        for label, n, expr, host, cap, value, frontier in (TINY_GRID if tiny else GRID)
    ]
    return {"rows": rows, "store": os.path.join(work_dir, "grid-store.jsonl")}


def grid_pass(inputs: dict, tracer=None) -> PassResult:
    res = PassResult(tracer)
    path = inputs["store"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    store = lt.ResultsStore(path)
    exact = {}
    for label, n, pattern, host, cap, value, frontier in inputs["rows"]:
        budget = lt.SearchBudget(node_limit=cap)

        def row(n=n, pattern=pattern, host=host, budget=budget):
            (out,) = lt.ex_table([(n, R, pattern)], host=host, budget=budget, store=store)
            return out

        def check(out, label=label, value=value, frontier=frontier, cap=cap):
            # query() has recorded this row's span by the time it checks
            res.table.append({"row": label, "value": out.value, "status": out.status,
                              "nodes": out.stats.nodes, "query": len(res.spans) - 1})
            problems = []
            _expect(problems, "value", out.value, value)
            if out.status == "exact":
                exact[label] = out
            elif not frontier:
                problems.append(f"status {out.status} within a budget of {cap} nodes")
            return problems

        res.query(label, row, check)

    # Second pass, one query: a reopened store serves every exact row
    # through ex_table (one call per host kind), which re-verifies each
    # witness.  No record may be appended, so no row was searched again.
    reopened = lt.ResultsStore(path)
    stored = [row for row in inputs["rows"] if row[0] in exact]

    def serve():
        before = len(reopened)
        served = {}
        for host in sorted({row[3] for row in stored}):
            rows = [row for row in stored if row[3] == host]
            outs = lt.ex_table([(n, R, pattern) for _, n, pattern, *_ in rows],
                               host=host, store=reopened)
            served.update(zip((row[0] for row in rows), outs))
        return served, len(reopened) - before

    def check(got):
        served, appended = got
        problems = []
        for label, first in exact.items():
            out = served[label]
            _expect(problems, f"{label} value", out.value, first.value)
            _expect(problems, f"{label} status", out.status, "exact")
            _expect(problems, f"{label} witness", out.witness.edges, first.witness.edges)
        _expect(problems, "records appended", appended, 0)
        return problems

    res.query("store pass", serve, check)
    res.exact_rows = len(exact)
    res.counts = {"oracle.nodes": sum(row["nodes"] for row in res.table)}
    return res


# ---------------------------------------------------------------------------
# endset-sweep: acceptance criterion 5, then seeded random hosts.

ELL = 4
CRIT5_N = range(3, 8)
# hosts enumerated, hosts containing P3, embeddings swept over n = 3..7
CRIT5_REFERENCE = (5900, 2310, 8820)
TINY_CRIT5_N = range(3, 7)
TINY_CRIT5_REFERENCE = (304, 0, 0)
CRIT5_NODE_BUDGET = 100_000
# (n, r, fewest edges, most edges) of the seeded hosts
SEEDED_KINDS = ((9, 3, 3, 7), (10, 3, 3, 7), (12, 4, 3, 6))
# hosts of each kind and edge count: a fixed mix of sizes, so that the
# seed picks the hosts but not how many large ones there are (the slowest
# sweeps, which set query_p99_ms)
SEEDED_PER_SIZE = 48
TINY_SEEDED_PER_SIZE = 1


def random_linear_host(rng: random.Random, n: int, r: int, m: int):
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    edges, pairs = [], set()
    for e in pool:
        if len(edges) == m:
            break
        ps = set(combinations(e, 2))
        if pairs & ps:
            continue
        edges.append(e)
        pairs |= ps
    return lt.make_hypergraph(n, edges, r)


def sweep_setup(seed: int, tiny: bool, work_dir: str) -> dict:
    rng = random.Random(seed)
    per_size = TINY_SEEDED_PER_SIZE if tiny else SEEDED_PER_SIZE
    hosts = []
    for n, r, lo, hi in SEEDED_KINDS:
        path_free, path_short = lt.linear_path(ELL, r), lt.linear_path(ELL - 1, r)
        for m in range(lo, hi + 1):
            kept = 0
            while kept < per_size:
                h = random_linear_host(rng, n, r, m)
                if (len(h.edges) != m or lt.contains(h, path_short) is None
                        or lt.contains(h, path_free) is not None):
                    continue
                hosts.append(h)
                kept += 1
    return {
        "crit5_n": TINY_CRIT5_N if tiny else CRIT5_N,
        "crit5_reference": TINY_CRIT5_REFERENCE if tiny else CRIT5_REFERENCE,
        "seeded": hosts,
    }


def _sweep(h, r: int):
    """Sweep every embedding of the (ELL-1)-edge path, and run the frame
    battery on the first one, as acceptance criterion 5 does."""
    sweep = lt.verify_frame_sweep(h, ELL, r)
    first = lt.contains(h, lt.linear_path(ELL - 1, r))
    return sweep, lt.verify_frame(h, first, ELL)


def _sweep_check(got, r: int, tally: dict) -> list:
    sweep, rep = got
    tally["embeddings"] += sweep.embeddings_checked
    tally["frames"] += sweep.embeddings_checked + 1
    problems = []
    _expect(problems, "sweep status", sweep.status, "pass")
    if sweep.embeddings_checked < 2 or sweep.embeddings_checked % 2:
        problems.append(f"{sweep.embeddings_checked} embeddings; paths come in both directions")
    _expect(problems, "frame status", rep.status, "pass")
    if rep.min_end_sum > 2 * (r - 2) * (ELL - 3):
        problems.append(f"min end-pair sum {rep.min_end_sum}")
    return problems


def _directed_loose_paths(h, length: int) -> int:
    """Edge sequences of the given length forming a loose path, counted
    without the detector: each is one directed embedding to sweep."""
    sets = [frozenset(e) for e in h.edges]

    def extend(seq):
        if len(seq) == length:
            return 1
        return sum(
            extend(seq + [j]) for j in range(len(sets))
            if j not in seq and _is_loose_path([sets[i] for i in seq] + [sets[j]])
        )

    return sum(extend([i]) for i in range(len(sets)))


def _embedding_count_check(got, h) -> list:
    problems = []
    _expect(problems, "embeddings swept", got[0].embeddings_checked,
            _directed_loose_paths(h, ELL - 1))
    return problems


def sweep_pass(inputs: dict, tracer=None) -> PassResult:
    res = PassResult(tracer)
    tally = {"hosts": 0, "qualifying": 0, "embeddings": 0, "frames": 0}
    path_short = lt.linear_path(ELL - 1, R)
    path_free = lt.linear_path(ELL, R)
    for n in inputs["crit5_n"]:
        budget = lt.SearchBudget(node_limit=CRIT5_NODE_BUDGET)
        hosts = lt.iter_free(n, R, path_free, "linear", budget=budget)
        while True:
            # a query starts before its host is produced, so enumeration
            # cost lands in the latencies (and so in wall_s)
            started = time.perf_counter()
            try:
                h = next(hosts, None)
            except lt.InterruptedSearch as exc:
                res.fault(f"criterion 5 enumeration at n={n}: {exc}")
                break
            if h is None:
                res.exact_rows += 1
                break
            tally["hosts"] += 1

            def host_query(h=h):
                if lt.contains(h, path_short) is None:
                    return None
                return _sweep(h, R)

            def check(got):
                if got is None:
                    return []
                tally["qualifying"] += 1
                return _sweep_check(got, R, tally)

            res.query(f"crit5 n={n} host {tally['hosts']}", host_query, check, started)
    got = (tally["hosts"], tally["qualifying"], tally["embeddings"])
    if got != inputs["crit5_reference"]:
        res.fault(f"criterion 5 counts {got}, expected {inputs['crit5_reference']}")

    for i, h in enumerate(inputs["seeded"]):
        res.query(f"seeded host {i}", lambda h=h: _sweep(h, h.r),
                  lambda got, h=h: _sweep_check(got, h.r, tally)
                  + _embedding_count_check(got, h))
    # iter_free with no edge count yields exactly one host per search node
    res.counts = {"oracle.nodes": tally["hosts"], "endsets.frames": tally["frames"]}
    return res


# ---------------------------------------------------------------------------
# certify-large: large constructions, then CLI checks on relabelled hosts.

# (r, ell, k, copies) -> (vertices, edges)
THM47 = {
    (3, 4, 7, 1): (903, 4039),
    (3, 4, 7, 2): (1799, 8071),
    (3, 5, 7, 1): (1159, 5575),
    (3, 4, 3, 1): (59, 141),
    (3, 4, 3, 2): (115, 281),
    (3, 4, 3, 3): (171, 421),
    (3, 4, 3, 4): (227, 561),
}
# (r, ell, n) -> (vertices, edges)
THM45 = {
    (3, 5, 1000): (1000, 1332),
    (3, 5, 2000): (2000, 2664),
    (3, 5, 4000): (4000, 5328),
}
# thm47 hosts re-checked through the CLI -> number of seeded relabellings.
# How long a check takes depends on the labelling by up to 15 %, so the
# median query latency sits in a cluster of eighty copies of one small
# host: the seed then moves that median by about 2 %, where twenty copies
# of (3, 4, 3, 4) moved it by 8 %.  The two largest hosts are left out: on
# a relabelled copy their free check takes 6-9 s each (2-3 times longer
# than on the constructed labelling), which would triple the pass.
CLI_HOSTS = {(3, 4, 7, 1): 1, (3, 4, 3, 2): 80}
TINY_THM47 = {(3, 4, 3, 1): (59, 141), (3, 4, 3, 2): (115, 281)}
TINY_CLI_HOSTS = {(3, 4, 3, 2): 2}
TINY_THM45 = {(3, 5, 1000): (1000, 1332)}
CERT_METHODS = ["structural", "detect"]


def certify_setup(seed: int, tiny: bool, work_dir: str) -> dict:
    """Write seeded vertex relabellings of the CLI's thm47 hosts to files."""
    rng = random.Random(seed)
    files = []
    for params, copies in (TINY_CLI_HOSTS if tiny else CLI_HOSTS).items():
        rep = lt.thm47_construction(*params, certify=False)
        h = rep.result
        forest = lt.pattern_expr(rep.certificates[0].pattern)
        for copy in range(copies):
            perm = list(range(h.n))
            rng.shuffle(perm)
            relabelled = lt.make_hypergraph(h.n, [[perm[v] for v in e] for e in h.edges], h.r)
            name = "thm47-{}-{}.txt".format("-".join(map(str, params)), copy)
            path = os.path.join(work_dir, name)
            lt.write_file(relabelled, path)
            files.append((path, forest, relabelled))
    return {
        "thm47": TINY_THM47 if tiny else THM47,
        "thm45": TINY_THM45 if tiny else THM45,
        "files": files,
    }


def _construction_check(rep, size) -> list:
    problems = []
    _expect(problems, "(vertices, edges)", (rep.result.n, rep.actual), size)
    _expect(problems, "certificates", [c.method for c in rep.certificates], CERT_METHODS)
    _expect(problems, "linear", rep.linear, True)
    return problems


def _cli(path: str, pattern: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lt.cli.main(["check", "free", "--in", path, "--pattern", pattern,
                            "--report-format", "structured"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _cli_queries(path: str, forest: str):
    """One host file through the CLI: free of the forest, holds a P4."""
    return _cli(path, forest), _cli(path, "P4@r3")


def _cli_check(got, host) -> list:
    (free_code, free_report), (p4_code, p4_report) = got
    problems = []
    _expect(problems, "forest exit code", free_code, 0)
    _expect(problems, "forest free", free_report.get("free"), True)
    _expect(problems, "P4 exit code", p4_code, 2)
    _expect(problems, "P4 free", p4_report.get("free"), False)
    # the printed witness must be a loose path of host edges
    edge_map = p4_report.get("witness", {}).get("edge_map", [])
    if len(edge_map) != 4 or not _is_loose_path([host.edges[i] for i in edge_map]):
        problems.append(f"printed witness {edge_map} is not a loose 4-edge path in the host")
    return problems


def certify_pass(inputs: dict, tracer=None) -> PassResult:
    res = PassResult(tracer)

    def certified(problems):
        if not problems:
            res.exact_rows += 1
        return problems

    builds = [
        (f"{name}{params}", lambda b=build, p=params: b(*p),
         lambda rep, s=size: certified(_construction_check(rep, s)))
        for name, build, table in (("thm47", lt.thm47_construction, inputs["thm47"]),
                                   ("thm45", lt.thm45_construction, inputs["thm45"]))
        for params, size in table.items()
    ]
    checks = [
        (f"cli {os.path.basename(path)}", lambda f=path, p=forest: _cli_queries(f, p),
         lambda got, h=host: _cli_check(got, h))
        for path, forest, host in inputs["files"]
    ]
    # Spread the CLI checks evenly between the constructions.  The median
    # latency falls among the CLI checks; run back to back, they would all
    # share whatever few seconds of machine speed they happened to get.
    order = sorted(
        [((i + 0.5) / len(builds), q) for i, q in enumerate(builds)]
        + [((j + 0.5) / len(checks), q) for j, q in enumerate(checks)],
        key=lambda item: item[0],
    )
    for _, (label, run, check) in order:
        res.query(label, run, check)
    res.counts = {"oracle.nodes": 0}
    return res


WORKLOADS = {
    "exact-grid": (grid_setup, grid_pass),
    "endset-sweep": (sweep_setup, sweep_pass),
    "certify-large": (certify_setup, certify_pass),
}
