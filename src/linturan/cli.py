"""Command-line surface.

Subcommands: build, check, turan, bound, verify, report.  Exit codes are
part of the interface: 0 the property holds / the command succeeded, 2 a
property failed or a pattern was found (a witness is printed), 3 a search
budget ran out, 1 usage or internal errors.

Each subcommand accepts only the shared options it reads: --config (all
but verify suite, which takes no options), --report-format (commands that
print a report), --out and --graph-format (every build target; turan
takes --graph-format for --witness-out).  turan's budgets may come from
--node-limit / --time-limit, the LINTURAN_NODE_LIMIT / LINTURAN_TIME_LIMIT
environment variables, or a config file, in that order of precedence.
Semantic parameters are flags only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .constructions import (
    cone_construction,
    thm45_construction,
    thm47_construction,
)
from .designs import DEFAULT_PRIME_CAP, build_design, verify_design
from .detect import contains
from .endsets import verify_frame_sweep
from .errors import (
    BadParameters,
    FormatError,
    HostContainsPath,
    InvariantViolation,
    LinturanError,
    NoDesignAvailable,
)
from .hgio import read_file, write_file
from .hypergraph import cartesian_product, integer_lattice, linearity_violation
from .oracle import SearchBudget, ex_table, max_edges, path_cap
from .patterns import parse_pattern, realize
from .results import ResultsStore

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INTERRUPTED = 3

ENV_NODE_LIMIT = "LINTURAN_NODE_LIMIT"
ENV_TIME_LIMIT = "LINTURAN_TIME_LIMIT"


def _key(default, kind, cap: bool = False):
    """A config key: its default, its accepted JSON type, and whether it
    is a cap, which must be positive."""
    return field(default=default, metadata={"kind": kind, "cap": cap})


@dataclass(frozen=True)
class Config:
    """The config file's keys, each declared once.  A key whose default
    is None may also be null; prime_cap, an int parameter of
    build_design, may not."""

    node_limit: Optional[int] = _key(None, int, cap=True)
    time_limit: Optional[float] = _key(None, (int, float), cap=True)
    prime_cap: int = _key(DEFAULT_PRIME_CAP, int, cap=True)
    search_cap: Optional[int] = _key(None, int, cap=True)
    output_dir: str = _key(".", str)
    format: str = _key("text", str)


def load_config(path: Optional[str]) -> Config:
    if path is None:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    keys = {f.name: f for f in fields(Config)}
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise BadParameters(f"{path}: unknown config keys {unknown}")
    for key, value in obj.items():
        spec = keys[key]
        if value is None and spec.default is None:
            continue
        if isinstance(value, bool) or not isinstance(value, spec.metadata["kind"]):
            raise BadParameters(f"{path}: {key} has the wrong type: {value!r}")
        if spec.metadata["cap"] and value <= 0:
            raise BadParameters(f"{path}: {key} must be positive")
    if obj.get("format", "text") not in ("text", "structured"):
        raise BadParameters(f"{path}: format must be 'text' or 'structured'")
    return Config(**obj)


def _budget(args, config: Config) -> SearchBudget:
    """Each limit from its flag, else its environment variable (read only
    when the flag is absent), else the config."""
    limits = {}
    for name, env, kind in (("node_limit", ENV_NODE_LIMIT, int),
                            ("time_limit", ENV_TIME_LIMIT, float)):
        value = getattr(args, name)
        raw = os.environ.get(env) if value is None else None
        if raw:
            try:
                value = kind(raw)
            except ValueError:
                raise BadParameters(f"{env} must be a number, got {raw!r}") from None
        limits[name] = getattr(config, name) if value is None else value
    return SearchBudget(**limits)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this interface reserves 2
    # for property failures, so route usage problems through BadParameters
    def error(self, message):
        raise BadParameters(message)


def _structured(args, config: Config) -> bool:
    fmt = getattr(args, "report_format", None) or config.format
    return fmt == "structured"


def _emit(obj, text: str, structured: bool) -> None:
    if structured:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _write_graph(h, args, config: Config) -> None:
    if args.out:
        path = args.out
        if not os.path.isabs(path):
            path = os.path.join(config.output_dir, path)
        write_file(h, path, fmt=args.graph_format)
    else:
        write_file(h, sys.stdout, fmt=args.graph_format)


def _need(args, command: str, *names) -> list:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise BadParameters(f"{command} needs {flags}")
    return [getattr(args, name) for name in names]


def _construct(args, command: str, kind: str, certify: bool):
    """The thm45, thm47 or cone construction report for `build` and
    `verify construction`; cone certifies its pattern whatever certify says."""
    if kind == "thm45":
        r, ell, n = _need(args, command, "r", "ell", "n")
        try:
            return thm45_construction(r, ell, n, certify=certify)
        except NoDesignAvailable as exc:  # only n < r leaves no design
            raise BadParameters(f"--n {n} leaves no design: {exc}") from None
    if kind == "thm47":
        r, ell, k, copies = _need(args, command, "r", "ell", "k", "copies")
        try:
            return thm47_construction(r, ell, k, copies, certify=certify)
        except NoDesignAvailable as exc:  # only the k-point hub design can be missing
            raise BadParameters(f"--k {k} leaves no hub design: {exc}") from None
    n, r, k, kernel = _need(args, command, "n", "r", "k", "kernel")
    kernel = read_file(kernel)
    pattern = parse_pattern(args.pattern, r) if args.pattern else None
    return cone_construction(n, r, k, kernel, free_pattern=pattern)


# ---------------------------------------------------------------------------
# build

_LETTER = {"path": "P", "star": "S", "cycle": "C"}


def _cmd_build(args, config: Config) -> int:
    kind = args.what
    if kind in ("path", "star", "cycle", "forest"):
        expr = args.pattern if kind == "forest" else f"{_LETTER[kind]}{args.ell}"
        graph = realize(parse_pattern(expr, args.r))
    elif kind == "lattice":
        graph = integer_lattice(args.base, args.dim)
    elif kind == "product":
        left = read_file(args.left)
        right = read_file(args.right)
        graph = cartesian_product(left, right)
    elif kind == "design":
        outcome = build_design(
            args.n, args.r, prime_cap=config.prime_cap,
            search_cap=config.search_cap,
        )
        if not outcome.ok:
            print(f"no design: {outcome.reason}", file=sys.stderr)
            return EXIT_FAIL
        design = outcome.design
        _emit(
            {"n": design.n, "r": design.r, "blocks": design.num_blocks,
             "strategy": design.strategy},
            f"design on {design.n} points, block size {design.r}, "
            f"{design.num_blocks} blocks ({design.strategy})",
            _structured(args, config),
        )
        graph = design.graph
    else:  # thm45, thm47, cone: print the report, write the graph on --out only
        certify = not getattr(args, "no_certify", False)
        report = _construct(args, f"build {kind}", kind, certify)
        _emit(report.to_obj(), str(report), _structured(args, config))
        if not args.out:
            return EXIT_OK
        graph = report.result
    _write_graph(graph, args, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def _cmd_check(args, config: Config) -> int:
    h = read_file(args.infile)
    structured = _structured(args, config)
    if args.what == "linear":
        pair = linearity_violation(h)
        if pair is None:
            _emit({"linear": True}, "linear", structured)
            return EXIT_OK
        _emit(
            {"linear": False, "witness": list(pair)},
            f"not linear: edges {pair[0]} and {pair[1]} share two or more vertices",
            structured,
        )
        return EXIT_FAIL
    if args.what == "design":
        if verify_design(h):
            _emit({"design": True}, "design: every pair covered exactly once", structured)
            return EXIT_OK
        _emit({"design": False}, "not a design", structured)
        return EXIT_FAIL
    if args.what == "free":
        pattern = parse_pattern(args.pattern, h.r)
        emb = contains(h, pattern)
        if emb is None:
            _emit({"free": True, "pattern": str(pattern)}, f"free of {pattern}", structured)
            return EXIT_OK
        _emit(
            {"free": False, "witness": emb.to_obj()},
            f"contains {pattern}: witness {json.dumps(emb.to_obj())}",
            structured,
        )
        return EXIT_FAIL
    raise BadParameters(f"unknown check {args.what!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# turan


def _open_store(path: str) -> ResultsStore:
    store = ResultsStore(path)
    if store.torn is not None:
        print(
            f"warning: {path}:{store.torn}: dropped a torn final line",
            file=sys.stderr,
        )
    return store


def _cmd_turan(args, config: Config) -> int:
    pattern = parse_pattern(args.pattern, args.r) if args.pattern else None
    host = "linear" if args.linear else "general"
    budget = _budget(args, config)
    store = _open_store(args.results) if args.results else None
    result = ex_table([(args.n, args.r, pattern)], host, budget, store)[0]
    obj = {
        "n": args.n,
        "r": args.r,
        "pattern": str(pattern) if pattern else None,
        "host": host,
        "value": result.value,
        "status": result.status,
        # every search counter; elapsed is a time, not a count
        **{k: v for k, v in asdict(result.stats).items() if k != "elapsed"},
    }
    _emit(obj, str(result.value), _structured(args, config))
    if args.witness_out:
        write_file(result.witness, args.witness_out, fmt=args.graph_format)
    if not result.exact:
        print("search interrupted; value is a lower bound", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


# theorem id -> (flags it needs, in argument order; its reports from args
# and their values).  bounds_mod is looked up at call time, not here.
_THEOREMS = {
    "linear-path": (("r", "ell", "n"),
                    lambda a, *v: [bounds_mod.linear_path_upper(*v)]),
    "star-forest": (("r", "ell", "k", "n"),
                    lambda a, *v: [bounds_mod.star_forest_upper(*v)]),
    "path-star-forest": (("r", "ell", "n"), lambda a, r, ell, n: [
        bounds_mod.path_star_forest_upper(r, ell, _lengths(a), n)]),
    "packing": (("r", "ell", "n"),
                lambda a, *v: [bounds_mod.packing_lower(*v)]),
    "removal": (("r", "ell", "k", "n"),
                lambda a, *v: [bounds_mod.removal_upper(*v, path_free_max=a.ex)]),
    "inserted-product": (("r", "ell", "k", "n"),
                         lambda a, *v: [bounds_mod.inserted_product_lower(*v)]),
    "path-turan": (("r", "ell", "n"),
                   lambda a, *v: [bounds_mod.path_turan_exact(*v)]),
    "disjoint-paths-turan": (("r", "ell", "k", "n"),
                             lambda a, *v: [bounds_mod.disjoint_paths_turan(*v)]),
    "star-turan": (("r", "ell", "n"),
                   lambda a, *v: [bounds_mod.star_turan_upper(*v, c=a.c)]),
    "path-star-turan": (("r", "ell", "k", "n"),
                        lambda a, *v: list(bounds_mod.path_star_turan(*v, c=a.c))),
    "forest-turan": (("r", "ell", "k1", "k2", "n"),
                     lambda a, *v: list(bounds_mod.forest_turan(*v, c=a.c))),
}


# integers, p/q and plain decimals: Fraction() would also take exponent
# forms such as 1e99999999, whose digits it then computes one by one
_EXACT = re.compile(r"[+-]?(?:\d+/\d+|\d+\.?\d*|\.\d+)")


def _exact_number(text: str) -> Fraction:
    if not _EXACT.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer, p/q or decimal such as 0.5, got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _lengths(args) -> list:
    try:
        return [int(x) for x in args.lengths.split(",")] if args.lengths else []
    except ValueError:
        raise BadParameters(
            f"--lengths must be comma-separated integers, got {args.lengths!r}"
        ) from None


def _bound_reports(args) -> list:
    t = args.theorem
    if t not in _THEOREMS:
        raise BadParameters(f"unknown theorem id {t!r}")
    names, reports = _THEOREMS[t]
    return reports(args, *_need(args, f"bound --theorem {t}", *names))


def _cmd_bound(args, config: Config) -> int:
    reports = _bound_reports(args)
    try:  # str() refuses ints past the interpreter's digit limit
        _emit([rep.to_obj() for rep in reports], "\n".join(str(rep) for rep in reports),
              _structured(args, config))
    except ValueError:
        raise BadParameters("a report value is too long to print") from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_section2(args, config: Config) -> int:
    h = read_file(args.infile)
    if h.r is None:
        raise BadParameters(f"verify section2 needs a uniform host; {args.infile} is mixed")
    structured = _structured(args, config)
    try:
        sweep = verify_frame_sweep(h, args.ell, h.r)
    except HostContainsPath as exc:
        obj = {"status": "host-contains-path"}
        if exc.witness is not None:
            obj["witness"] = exc.witness.to_obj()
        _emit(obj, f"host contains the forbidden path: {exc}", structured)
        return EXIT_FAIL
    obj = {
        "status": sweep.status,
        "embeddings_checked": sweep.embeddings_checked,
        "failures": [
            {
                "embedding": rep.emb.to_obj(),
                "outcomes": [{"name": o.name, "detail": o.detail} for o in rep.failures],
            }
            for rep in sweep.failures
        ],
    }
    lines = [f"{sweep.status}: {sweep.embeddings_checked} embeddings checked, "
             f"{len(sweep.failures)} failures"]
    for rep in sweep.failures:
        lines.extend(f"  {outcome.name}: {outcome.detail}" for outcome in rep.failures)
        lines.append(f"    embedding: {json.dumps(rep.emb.to_obj())}")
    _emit(obj, "\n".join(lines), structured)
    # "not-applicable" is not a failed property, just an out-of-range ell/r
    return EXIT_FAIL if sweep.status == "fail" else EXIT_OK


def _cmd_verify_construction(args, config: Config) -> int:
    structured = _structured(args, config)
    command = f"verify construction --which {args.which}"
    try:
        report = _construct(args, command, args.which, certify=True)
    except InvariantViolation as exc:
        _emit({"verified": False, "error": str(exc)}, f"verification failed: {exc}", structured)
        return EXIT_FAIL
    _emit(
        {"verified": True, "report": report.to_obj()},
        str(report),
        structured,
    )
    return EXIT_OK


def _suite_checks():
    from .patterns import linear_path

    yield (
        "designs 7,9,13,15 build and verify",
        lambda: all(
            outcome.ok and verify_design(outcome.design.graph)
            for outcome in (build_design(n, 3) for n in (7, 9, 13, 15))
        ),
    )
    yield (
        "designs 6,8 inadmissible",
        lambda: all(
            not outcome.ok and outcome.reason == "inadmissible"
            for outcome in (build_design(n, 3) for n in (6, 8))
        ),
    )
    yield (
        "matching numbers n=3..8",
        lambda: [
            max_edges(n, 3, parse_pattern("P2@r3"), "linear").value for n in range(3, 9)
        ] == [1, 1, 1, 2, 2, 2],
    )
    yield (
        "lattice shapes",
        lambda: (integer_lattice(4, 2).n, integer_lattice(4, 2).edge_count) == (16, 8),
    )
    yield (
        "pinned bound values",
        lambda: (
            bounds_mod.linear_path_upper(3, 4, 100).value == 600
            and bounds_mod.linear_path_upper(5, 2, 12).value == 2
            and bounds_mod.star_forest_upper(3, 2, 1, 10).value == Fraction(10, 3)
            and bounds_mod.path_turan_exact(3, 5, 10).value == 64
            and bounds_mod.path_turan_exact(3, 4, 10).value == 43
            and bounds_mod.disjoint_paths_turan(3, 1, 2, 10).value == 64
        ),
    )
    yield (
        "design-copy construction certifies",
        lambda: thm45_construction(3, 4, 7).actual == 7,
    )
    yield (
        "path cap dominates small exact values",
        lambda: all(
            max_edges(n, 3, parse_pattern("P4@r3"), "linear").value
            <= bounds_mod.linear_path_upper(3, 4, n).value
            for n in range(3, 7)
        ),
    )


def _cmd_verify_suite(args, config: Config) -> int:
    failures = 0
    for name, check in _suite_checks():
        try:
            ok = check()
        except LinturanError as exc:
            ok = False
            name = f"{name} ({exc})"
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# report


def _cmd_report(args, config: Config) -> int:
    store = _open_store(args.results)
    rows = []
    for rec in store.entries():
        if rec.status != "exact":
            continue  # only exact results are worth collating
        try:
            pattern = parse_pattern(rec.pattern) if rec.pattern else None
            cap = path_cap(rec.n, rec.r, pattern, rec.host)
        except LinturanError:  # malformed stored pattern text or sizes
            cap = None
        rows.append(
            {
                "n": rec.n,
                "r": rec.r,
                "pattern": rec.pattern or "-",
                "host": rec.host,
                "value": rec.value,
                "bound": "-" if cap is None else str(cap.value),
            }
        )
    header = f"{'n':>4} {'r':>3}  {'pattern':<14} {'host':<8} {'value':>6}  {'cap':>8}"
    lines = [header, "-" * len(header)]
    lines.extend(
        f"{row['n']:>4} {row['r']:>3}  {row['pattern']:<14} "
        f"{row['host']:<8} {row['value']:>6}  {row['bound']:>8}"
        for row in rows
    )
    _emit(rows, "\n".join(lines), _structured(args, config))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # the shared options, each declared once and inherited through parents=
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None, help="JSON config file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report-format", choices=("text", "structured"), default=None,
                        help="report object rendering (default from config)")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph-format", choices=("text", "json"), default="text",
                       help="interchange format for graph output")
    out = argparse.ArgumentParser(add_help=False, parents=[graph])
    out.add_argument("--out", default=None)
    host = argparse.ArgumentParser(add_help=False, parents=[config, report])
    host.add_argument("--in", dest="infile", required=True)

    top = _Parser(prog="linturan", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build", help="construct hosts and witnesses")
    pb.set_defaults(func=_cmd_build)
    bsub = pb.add_subparsers(dest="what", required=True)
    sp = bsub.add_parser("path", aliases=["star", "cycle"], parents=[config, out])
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp = bsub.add_parser("forest", parents=[config, out])
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--r", type=int, default=None)
    sp = bsub.add_parser("lattice", parents=[config, out])
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp = bsub.add_parser("product", parents=[config, out])
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp = bsub.add_parser("design", parents=[config, report, out])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp = bsub.add_parser("thm45", parents=[config, report, out])
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--no-certify", action="store_true")
    sp = bsub.add_parser("thm47", parents=[config, report, out])
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--copies", type=int, required=True)
    sp.add_argument("--no-certify", action="store_true")
    sp = bsub.add_parser("cone", parents=[config, report, out])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--kernel", required=True, help="kernel hypergraph file")
    sp.add_argument("--pattern", default=None, help="pattern to certify absent")

    pc = sub.add_parser("check", help="verify properties of a host file")
    pc.set_defaults(func=_cmd_check)
    csub = pc.add_subparsers(dest="what", required=True)
    csub.add_parser("linear", aliases=["design"], parents=[host])
    sp = csub.add_parser("free", parents=[host])
    sp.add_argument("--pattern", required=True)

    pt = sub.add_parser("turan", help="exact extremal edge count by search",
                        parents=[config, report, graph])
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--r", type=int, required=True)
    pt.add_argument("--pattern", default=None)
    pt.add_argument("--linear", action="store_true")
    pt.add_argument("--results", default=None, help="append to this results file")
    pt.add_argument("--witness-out", default=None)
    pt.add_argument("--node-limit", type=int, default=None)
    pt.add_argument("--time-limit", type=float, default=None)
    pt.set_defaults(func=_cmd_turan)

    pd = sub.add_parser("bound", help="evaluate closed-form bounds",
                        parents=[config, report])
    pd.add_argument("--theorem", required=True, help="one of " + ", ".join(_THEOREMS))
    pd.add_argument("--r", type=int, default=None)
    pd.add_argument("--ell", type=int, default=None)
    pd.add_argument("--n", type=int, default=None)
    pd.add_argument("--k", type=int, default=None)
    pd.add_argument("--k1", type=int, default=None)
    pd.add_argument("--k2", type=int, default=None)
    pd.add_argument("--lengths", default=None, help="comma-separated star lengths")
    pd.add_argument("--ex", type=_exact_number, default=None,
                    help="known extremal value to splice in (integer, p/q or decimal)")
    pd.add_argument("--c", type=_exact_number, default=Fraction(1),
                    help="constant factor for the star cap (integer, p/q or decimal)")
    pd.set_defaults(func=_cmd_bound)

    pv = sub.add_parser("verify", help="run verification batteries")
    vsub = pv.add_subparsers(dest="what", required=True)
    sp = vsub.add_parser("section2", help="end-edge-set checks over all path embeddings",
                         parents=[host])
    sp.add_argument("--ell", type=int, required=True)
    sp.set_defaults(func=_cmd_verify_section2)
    sp = vsub.add_parser("construction", parents=[config, report])
    sp.add_argument("--which", choices=("thm45", "thm47", "cone"), required=True)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--copies", type=int, default=None)
    sp.add_argument("--kernel", default=None)
    sp.add_argument("--pattern", default=None)
    sp.set_defaults(func=_cmd_verify_construction)
    sp = vsub.add_parser("suite", help="fast self-checks")
    sp.set_defaults(func=_cmd_verify_suite)

    pr = sub.add_parser("report", help="collate a results file", parents=[config, report])
    pr.add_argument("--results", required=True)
    pr.set_defaults(func=_cmd_report)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads, built once per process: building the tree of
    subparsers costs more than most commands.  Parsing leaves it as it
    was, usage errors included, so every call may share it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = load_config(getattr(args, "config", None))
        return args.func(args, config)
    except (BadParameters, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LinturanError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
