"""Command line interface.

Subcommands: validate, genus, chern, petrie, graph, example.  Exit codes:
0 success, 2 a semantic check failed (validation failure, no-match,
non-integral or inconsistent value), 3 precondition violated, 4 unreadable
or unparsable input or unwritable output, 64 usage error.
GKMKIT_MODE=generic|expanded picks the default localization mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence

from . import catalog as cat
from .genus import NonGenericCircleError, check_positivity, check_symmetry, chi_y
from .localization import InconsistencyError, chern_number, chern_report, partitions
from .model import (
    MatchingError,
    Multigraph,
    ParseError,
    ValidationReport,
    build_multigraph,
    load_path,
    serialize,
    validate_all,
)
from .petrie import gkm_relations, petrie_verify
from .weights import Weight

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_USAGE = 64


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt_weight(w: Weight) -> str:
    if len(w) == 1:
        return str(w[0])
    return "(" + ",".join(str(a) for a in w) + ")"


def _print_report(report: ValidationReport, as_json: bool) -> None:
    if as_json:
        doc = [{
            "check": r.check,
            "passed": r.passed,
            "witnesses": [str(w) for w in r.witnesses],
            "note": r.note,
        } for r in report.results]
        print(json.dumps(doc, indent=2))
        return
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.check}: {status}"
        if r.note:
            line += f" ({r.note})"
        print(line)
        for w in r.witnesses:
            print(f"  witness: {w}")


def _dot(graph: Multigraph) -> str:
    lines = ["digraph fixed_point_graph {"]
    for v in sorted(graph.vertex_ids):
        lines.append(f'  "{v}";')
    for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label)):
        lines.append(f'  "{e.from_id}" -> "{e.to_id}" [label="{_fmt_weight(e.label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load(path: str):
    try:
        return load_path(path)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", EXIT_IO)
    except ParseError as exc:
        raise _CliError(f"cannot parse {path}: {exc}", EXIT_IO)


def _write_out(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _default_mode() -> str:
    mode = os.environ.get("GKMKIT_MODE", "generic")
    if mode not in ("generic", "expanded"):
        raise _CliError(f"GKMKIT_MODE must be generic or expanded, got {mode!r}",
                        EXIT_USAGE)
    return mode


def _parse_vector(text: str) -> Weight:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _CliError(f"not an integer vector: {text!r}", EXIT_USAGE)


def _parse_basis(text: str) -> tuple[Weight, ...]:
    return tuple(_parse_vector(part) for part in text.split(";"))


def _fmt_partition(part: tuple[int, ...]) -> str:
    if not part:
        return "1"
    counts = Counter(part)
    pieces = []
    for d in sorted(counts, reverse=True):
        e = counts[d]
        pieces.append(f"c{d}" if e == 1 else f"c{d}^{e}")
    return "*".join(pieces)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    data, graph = _load(args.file)
    report = validate_all(data, graph)
    _print_report(report, args.json)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_genus(args: argparse.Namespace) -> int:
    data, _ = _load(args.file)
    xi = _parse_vector(args.xi) if args.xi else None
    try:
        genus = chi_y(data, xi)
    except (NonGenericCircleError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_PRECONDITION)
    checks = [check_symmetry(data)]
    if data.torus_manifold:
        checks.append(check_positivity(data))
    if args.json:
        doc = {
            "chi_y": list(genus.coeffs),
            "chi_y_str": genus.as_y_string(),
            "euler": genus.euler,
            "todd": genus.todd,
            "signature": genus.signature,
            "checks": [{"check": r.check, "passed": r.passed, "note": r.note}
                       for c in checks for r in c.results],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"chi_y = {genus.as_y_string()}")
        print(f"coefficients = {list(genus.coeffs)}")
        print(f"euler = {genus.euler}")
        print(f"todd = {genus.todd}")
        print(f"signature = {genus.signature}")
        for c in checks:
            _print_report(c, False)
    ok = all(c.passed for c in checks)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_chern(args: argparse.Namespace) -> int:
    data, _ = _load(args.file)
    mode = args.mode or _default_mode()
    if args.partition:
        part = _parse_vector(args.partition)
        if any(x < 1 for x in part) or sum(part) != data.half_dim:
            raise _CliError(f"partition {part} does not sum to half_dim "
                            f"{data.half_dim}", EXIT_PRECONDITION)
        try:
            value = chern_number(data, part, mode)
        except InconsistencyError as exc:
            raise _CliError(str(exc), EXIT_CHECK_FAILED)
        if args.json:
            print(json.dumps({"partition": sorted(part, reverse=True),
                              "value": value, "mode": mode}))
        else:
            print(f"{_fmt_partition(tuple(sorted(part, reverse=True)))} = {value}")
        return EXIT_OK
    report = chern_report(data, mode)
    if args.json:
        doc = {
            "mode": mode,
            "values": [{"partition": list(p), "value": v}
                       for p, v in sorted(report.values.items())],
            "failures": [{"partition": list(p), "error": msg}
                         for p, msg in report.failures],
        }
        print(json.dumps(doc, indent=2))
    else:
        for p in partitions(data.half_dim):
            if p in report.values:
                print(f"{_fmt_partition(p)} = {report.values[p]}")
        for p, msg in report.failures:
            print(f"{_fmt_partition(p)}: FAIL ({msg})")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_petrie(args: argparse.Namespace) -> int:
    data, graph = _load(args.file)
    report = petrie_verify(data, graph, up_to_gl=args.up_to_gl)
    if args.json:
        doc = {
            "verdict": report.verdict,
            "base_point": report.base_point,
            "basis": [list(w) for w in report.basis] if report.basis else None,
            "relabeling": report.relabeling,
            "simplex": [list(v) for v in report.simplex] if report.simplex else None,
            "invariants": None,
            "witness": report.witness,
            "graph_consistent": report.graph_consistent,
            "gl_normalized_equal": report.gl_normalized_equal,
        }
        if report.invariants:
            inv = dict(report.invariants)
            inv["chi_y"] = list(inv["chi_y"])
            inv["chern"] = [{"partition": list(p), "value": v}
                            for p, v in sorted(inv["chern"].items())]
            doc["invariants"] = inv
        print(json.dumps(doc, indent=2))
    else:
        print(f"verdict: {report.verdict}")
        if report.witness:
            print(f"witness: {report.witness}")
        if report.matched:
            print(f"base point: {report.base_point}")
            print("basis: " + ", ".join(_fmt_weight(w) for w in report.basis))
            print("simplex: " + ", ".join(_fmt_weight(v) for v in report.simplex))
            for rel in gkm_relations(report):
                print(f"relation: ({rel.from_id}, {rel.to_id}) "
                      f"divisor {_fmt_weight(rel.divisor)}")
            inv = report.invariants
            print(f"chi_y coefficients: {list(inv['chi_y'])}")
            print(f"euler = {inv['euler']}, todd = {inv['todd']}, "
                  f"signature = {inv['signature']}")
            for p, v in sorted(inv["chern"].items()):
                print(f"{_fmt_partition(p)} = {v}")
            if report.graph_consistent is not None:
                print(f"graph consistent: {report.graph_consistent}")
            if report.gl_normalized_equal is not None:
                print(f"gl normalized equal: {report.gl_normalized_equal}")
    if report.verdict == "match":
        return EXIT_OK
    if report.verdict == "no-match":
        return EXIT_CHECK_FAILED
    return EXIT_PRECONDITION


def cmd_graph(args: argparse.Namespace) -> int:
    data, graph = _load(args.file)
    if graph is None or args.build:
        try:
            graph = build_multigraph(data)
        except (MatchingError, ValueError) as exc:
            raise _CliError(str(exc), EXIT_CHECK_FAILED)
        if any(e.from_id == e.to_id for e in graph.edges):
            print("warning: built graph is not loop-free", file=sys.stderr)
    _write_out(_dot(graph) if args.format == "dot" else serialize(data, graph), args.out)
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    name = args.name
    try:
        if name == "cpn":
            basis = _parse_basis(args.basis) if args.basis else None
            entry = cat.cpn(args.n, basis)
        elif name == "cp3_nongkm":
            entry = cat.cp3_nongkm()
        elif name == "s6":
            entry = cat.s6(_parse_vector(args.a), _parse_vector(args.b))
        elif name == "s6_blowup":
            entry = cat.s6_blowup(_parse_vector(args.a), _parse_vector(args.b))
        else:
            entry = cat.fano(args.variant)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_PRECONDITION)
    _write_out(serialize(entry.data, entry.graph), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gkmkit",
                     description="validate and analyze torus fixed-point data")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="run all applicable checks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("genus", help="chi_y genus and its specializations")
    p.add_argument("file")
    p.add_argument("--xi", help="comma-separated circle, e.g. 1,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("chern", help="Chern numbers by localization")
    p.add_argument("file")
    p.add_argument("--partition", help="comma-separated partition, e.g. 1,1,2")
    p.add_argument("--all", action="store_true", help="all partitions (default)")
    p.add_argument("--mode", choices=("generic", "expanded"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("petrie", help="compare against the linear model")
    p.add_argument("file")
    p.add_argument("--up-to-gl", action="store_true",
                   help="also report that normalizing by the recovered basis "
                        "gives the standard model")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_petrie)

    p = sub.add_parser("graph", help="export or build the describing multigraph")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--build", action="store_true",
                   help="rebuild even when the file carries edges")
    p.add_argument("--out")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("example", help="emit a catalog dataset")
    p.add_argument("name",
                   choices=("cpn", "cp3_nongkm", "s6", "s6_blowup", "fano"))
    p.add_argument("--n", type=int, default=2, help="dimension for cpn")
    p.add_argument("--basis", help="semicolon-separated rows, e.g. 1,0;1,1")
    p.add_argument("--a", default="1,0", help="first parameter vector")
    p.add_argument("--b", default="0,1", help="second parameter vector")
    p.add_argument("--variant", default="V5", help="fano variant: V5 or V22")
    p.add_argument("--out")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
