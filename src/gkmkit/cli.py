"""Command line interface.

Subcommands: validate, genus, chern, petrie, graph, example.  Exit codes:
0 success, 2 a semantic check failed (validation failure, no-match,
non-integral or inconsistent value), 3 precondition violated, 4 unreadable
or unparsable input or unwritable output, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import catalog as cat
from .genus import NonGenericCircleError, chi_y, positivity, symmetry
from .localization import InconsistencyError, chern_number, chern_report, partitions
from .model import (
    Multigraph,
    ParseError,
    ValidationReport,
    build_multigraph,
    load_path,
    serialize,
    validate_all,
)
from .petrie import gkm_relations, model_invariants, petrie_verify
from .weights import Weight, printable

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


def _dumps(x, indent: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` on gkmkit's output (str keys, no floats),
    without the pure-Python encoder that ``json`` takes for an indent."""
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(x, (list, tuple)):
        items = [_dumps(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _print_report(report: ValidationReport, as_json: bool) -> None:
    if as_json:
        doc = [{
            "check": r.check,
            "passed": r.passed,
            "witnesses": [str(printable(w)) for w in r.witnesses],
            "note": r.note,
        } for r in report.results]
        print(_dumps(doc))
        return
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        line = f"{r.check}: {status}"
        if r.note:
            line += f" ({r.note})"
        print(line)
        for w in r.witnesses:
            print(f"  witness: {printable(w)}")


# a DOT quoted ID escapes backslash and double quote, and nothing else
_DOT_ID = str.maketrans({"\\": "\\\\", '"': '\\"'})


def _dot(graph: Multigraph) -> str:
    lines = ["digraph fixed_point_graph {"]
    for v in sorted(graph.vertex_ids):
        lines.append(f'  "{v.translate(_DOT_ID)}";')
    for e in sorted(graph.edges, key=lambda e: (e.from_id, e.to_id, e.label)):
        lines.append(f'  "{e.from_id.translate(_DOT_ID)}" -> "{e.to_id.translate(_DOT_ID)}" '
                     f'[label="{_fmt_weight(e.label)}"];')
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
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}", EXIT_IO)


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
    xi = _parse_vector(args.xi) if args.xi is not None else None
    try:
        genus = chi_y(data, xi)
    except (NonGenericCircleError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_PRECONDITION)
    checks = [symmetry(genus.coeffs)]
    if data.torus_manifold:
        checks.append(positivity(genus.coeffs))
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
        print(_dumps(doc))
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
    if args.partition is not None:
        part = _parse_vector(args.partition)
        try:
            value = printable(chern_number(data, part, args.mode))
        except InconsistencyError as exc:
            raise _CliError(str(exc), EXIT_CHECK_FAILED)
        except ValueError as exc:
            raise _CliError(str(exc), EXIT_PRECONDITION)
        if args.json:
            print(json.dumps({"partition": sorted(part, reverse=True),
                              "value": value, "mode": args.mode}))
        else:
            print(f"{_fmt_partition(tuple(sorted(part, reverse=True)))} = {value}")
        return EXIT_OK
    report = chern_report(data, args.mode)
    if args.json:
        doc = {
            "mode": args.mode,
            "values": [{"partition": list(p), "value": printable(v)}
                       for p, v in sorted(report.values.items())],
            "failures": [{"partition": list(p), "error": msg}
                         for p, msg in report.failures],
        }
        print(_dumps(doc))
    else:
        for p in partitions(data.half_dim):
            if p in report.values:
                print(f"{_fmt_partition(p)} = {printable(report.values[p])}")
        for p, msg in report.failures:
            print(f"{_fmt_partition(p)}: FAIL ({msg})")
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_petrie(args: argparse.Namespace) -> int:
    data, graph = _load(args.file)
    report = petrie_verify(data, graph)
    # a match is linear CP^n: it has CP^n's invariants and GL-normalizes
    inv = model_invariants(data.half_dim) if report.matched else None
    gl_normalized_equal = True if args.up_to_gl and report.matched else None
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
            "gl_normalized_equal": gl_normalized_equal,
        }
        if inv:
            inv["chi_y"] = list(inv["chi_y"])
            inv["chern"] = [{"partition": list(p), "value": printable(v)}
                            for p, v in sorted(inv["chern"].items())]
            doc["invariants"] = inv
        print(_dumps(doc))
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
            print(f"chi_y coefficients: {list(inv['chi_y'])}")
            print(f"euler = {inv['euler']}, todd = {inv['todd']}, "
                  f"signature = {inv['signature']}")
            for p, v in sorted(inv["chern"].items()):
                print(f"{_fmt_partition(p)} = {printable(v)}")
            if report.graph_consistent is not None:
                print(f"graph consistent: {report.graph_consistent}")
            if gl_normalized_equal is not None:
                print(f"gl normalized equal: {gl_normalized_equal}")
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
        except ValueError as exc:
            raise _CliError(str(exc), EXIT_CHECK_FAILED)
        if any(e.from_id == e.to_id for e in graph.edges):
            print("warning: built graph is not loop-free", file=sys.stderr)
    _write_out(_dot(graph) if args.format == "dot" else serialize(data, graph), args.out)
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    name = args.name
    try:
        if name == "cpn":
            basis = _parse_basis(args.basis) if args.basis is not None else None
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


# Each command: its function, its help line and its arguments, as
# (name, add_argument keywords), read by both ``build_parser`` and
# ``_parse_plain``; every ``action`` here is store_true.
_FILE = ("file", {})
_JSON = ("--json", {"action": "store_true"})
_OUT = ("--out", {})
COMMANDS = {
    "validate": (cmd_validate, "run all applicable checks", (_FILE, _JSON)),
    "genus": (cmd_genus, "chi_y genus and its specializations", (
        _FILE, ("--xi", {"help": "comma-separated circle, e.g. 1,3"}), _JSON)),
    "chern": (cmd_chern, "Chern numbers by localization", (
        _FILE,
        ("--partition", {"help": "comma-separated partition, e.g. 1,1,2"}),
        ("--all", {"action": "store_true", "help": "all partitions (default)"}),
        ("--mode", {"choices": ("generic", "expanded"), "default": "generic",
                    "help": "localization mode: generic (one point for GKM data "
                            "with a describing graph, else exact) or expanded "
                            "(exact polynomial identity); default generic"}),
        _JSON)),
    "petrie": (cmd_petrie, "compare against the linear model", (
        _FILE,
        ("--up-to-gl", {"action": "store_true",
                        "help": "also report that normalizing by the recovered "
                                "basis gives the standard model"}),
        _JSON)),
    "graph": (cmd_graph, "export or build the describing multigraph", (
        _FILE,
        ("--format", {"choices": ("dot", "json"), "default": "dot"}),
        ("--build", {"action": "store_true",
                     "help": "rebuild even when the file carries edges"}),
        _OUT)),
    "example": (cmd_example, "emit a catalog dataset", (
        ("name", {"choices": ("cpn", "cp3_nongkm", "s6", "s6_blowup", "fano")}),
        ("--n", {"type": int, "default": 2, "help": "dimension for cpn"}),
        ("--basis", {"help": "semicolon-separated rows, e.g. 1,0;1,1"}),
        ("--a", {"default": "1,0", "help": "first parameter vector"}),
        ("--b", {"default": "0,1", "help": "second parameter vector"}),
        ("--variant", {"default": "V5", "help": "fano variant: V5 or V22"}),
        _OUT)),
}


def build_parser() -> argparse.ArgumentParser:
    """The full gkmkit parser, one subparser per command."""
    parser = _Parser(prog="gkmkit",
                     description="validate and analyze torus fixed-point data")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (func, text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The full parser's Namespace for ``argv``, read from ``COMMANDS``
    without building a parser; None unless ``argv`` is a command word and
    then only exact option names (``--opt value`` with a value that does
    not start with "-", or ``--opt=value``), flags and the one positional,
    every value valid for its ``type`` and ``choices``."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    specs = {name if name[0] == "-" else "": (name.lstrip("-").replace("-", "_"), kw)
             for name, kw in arguments}  # the positional under ""
    values = {dest: kw.get("default", False if "action" in kw else None)
              for dest, kw in specs.values()}
    words, positionals = iter(argv[1:]), 0
    for word in words:
        if word.startswith("-"):
            name, eq, value = word.partition("=")
        else:  # the positional, whose value is the word itself
            name, eq, value = "", "=", word
            positionals += 1
        if name not in specs:
            return None
        dest, kw = specs[name]
        if "action" in kw:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(words, "-")  # a missing value is refused below
            if value.startswith("-"):
                return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        values[dest] = value
    if positionals != 1:
        return None
    return argparse.Namespace(command=argv[0], func=func, **values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser does.  Well-formed calls are read
    by ``_parse_plain``; the full parser is built only for the rest (help,
    ``--``, abbreviations, values that start with "-", usage errors), so
    its help and error messages stay the same."""
    args = _parse_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    # no parser is cached: a gkmkit process calls main once, and a
    # well-formed call builds none
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
