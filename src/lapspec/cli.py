"""Command-line front end.

Single-graph commands print one JSON document; streaming commands write
JSON lines as they are made (an empty stream is zero bytes); the
classification sweep prints a TSV summary, and its --out lines are
written during the sweep. An --out file is opened only once the arguments
pass their checks. Outputs are deterministic for a fixed invocation. The
sweep runs in one process; its --jobs option is accepted for
compatibility and has no effect.

Graph sources: --g6 takes a graph6 string, --file reads either the
adjacency-list text format (first line a vertex count) or graph6 lines,
and --builder takes a small construction expression:

    star 6 | path 4 | cycle 5 | complete 4 | K 4 | K1 | P4 | C5
    biclique 2 4 | firefly 2 3 0
    join(a, b) | union(a, b, ...) | product(a, b)
    union(K1 x 7)                     -- multiplicity inside union
    g1 pendants=1,1 cycles=3
    g2 path-orders=3,3,5 hub-edge pendants-u=1 cycles-v=3
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import enumeration, families, graphs, partitions, spectra
from .matrices import char_poly
from .polys import divides, poly_text, split_integer_roots

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_CASE = 3
EXIT_BAD_PARTITION = 4
EXIT_BUDGET = 5


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


# -- builder expression mini-language -----------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9-]*|\d+|[(),=])")

_SHORTHAND = re.compile(r"^([KPC])(\d+)$")

# builder config keys -> FamilyConfig fields; g2 also takes the flag hub-edge
_CONFIG_FIELDS = {
    "g1": {"pendants": "pendants_u", "cycles": "cycles_u"},
    "g2": {
        "path-orders": "paths",
        "pendants-u": "pendants_u",
        "cycles-u": "cycles_u",
        "pendants-v": "pendants_v",
        "cycles-v": "cycles_v",
    },
}


def _lex(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CliError(f"bad builder syntax near {text[pos:pos+10]!r}")
            break
        tok = m.group(1)
        tokens.append(int(tok) if tok.isdigit() else tok)
        pos = m.end()
    return tokens


def parse_builder(text: str) -> graphs.Graph:
    tokens = _lex(text)
    pos = [0]

    def peek(offset=0):
        i = pos[0] + offset
        return tokens[i] if i < len(tokens) else None

    def take():
        tok = peek()
        pos[0] += 1
        return tok

    def take_ints():
        out = []
        while isinstance(peek(), int):
            out.append(take())
        return out

    def take_int_list():
        if not isinstance(peek(), int):
            raise CliError("expected an integer list")
        out = [take()]
        while peek() == "," and isinstance(peek(1), int):
            take()
            out.append(take())
        return out

    def parse_config(family):
        kv = {}
        flags = set()
        while isinstance(peek(), str) and peek() not in (",", ")"):
            key = take()
            if peek() == "=":
                take()
                kv[key] = take_int_list()
            else:
                flags.add(key)
        fields = _CONFIG_FIELDS[family]
        known_flags = {"hub-edge"} if family == "g2" else set()
        unknown = sorted(kv.keys() - fields) + sorted(flags - known_flags)
        if unknown:
            raise CliError(f"unknown config fields: {unknown}")
        return graphs.realize(
            graphs.FamilyConfig(
                family.upper(),
                hub_edge="hub-edge" in flags,
                **{fields[key]: tuple(values) for key, values in kv.items()},
            )
        )

    def parse_args_list():
        out = []
        while True:
            g = parse_expr()
            if peek() == "x" and isinstance(peek(1), int):
                take()
                out.extend([g] * take())
            else:
                out.append(g)
            if peek() == ",":
                take()
                continue
            return out

    def parse_expr():
        tok = take()
        if not isinstance(tok, str):
            raise CliError(f"expected a constructor, got {tok!r}")
        if tok in ("join", "union", "product") and peek() == "(":
            take()
            args = parse_args_list()
            if take() != ")":
                raise CliError("unbalanced parentheses in builder")
            if tok == "union":
                return graphs.disjoint_union(*args)
            if len(args) < 2:
                raise CliError(f"{tok} needs at least two arguments")
            acc = args[0]
            for g in args[1:]:
                acc = graphs.join(acc, g) if tok == "join" else graphs.cartesian_product(acc, g)
            return acc
        short = _SHORTHAND.match(tok)
        if short:
            kind, k = short.group(1), int(short.group(2))
            return {"K": graphs.complete, "P": graphs.path, "C": graphs.cycle}[kind](k)
        if tok in ("g1", "g2"):
            return parse_config(tok)
        ints = take_ints()
        table = {
            "path": (graphs.path, 1),
            "cycle": (graphs.cycle, 1),
            "star": (graphs.star, 1),
            "complete": (graphs.complete, 1),
            "K": (graphs.complete, 1),
            "biclique": (graphs.complete_bipartite, 2),
            "complete_bipartite": (graphs.complete_bipartite, 2),
            "firefly": (graphs.firefly, 3),
            "empty": (graphs.empty_graph, 1),
        }
        if tok not in table:
            raise CliError(f"unknown constructor {tok!r}")
        fn, arity = table[tok]
        if len(ints) != arity:
            raise CliError(f"{tok} expects {arity} integer argument(s)")
        try:
            return fn(*ints)
        except ValueError as exc:
            raise CliError(str(exc)) from exc

    g = parse_expr()
    if pos[0] != len(tokens):
        raise CliError(f"trailing builder input at {tokens[pos[0]]!r}")
    return g


def _graphs_from_args(args):
    sources = [s for s in (args.g6, args.builder, args.file) if s]
    if len(sources) != 1:
        raise CliError("exactly one of --g6, --builder, --file is required")
    if args.g6:
        return [graphs.from_graph6(args.g6)]
    if args.builder:
        return [parse_builder(args.builder)]
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc.strerror or exc}") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CliError(f"no graphs in {args.file}")
    if lines[0].isdigit():
        return [graphs.from_adjacency_text(text)]
    return [graphs.from_graph6(ln) for ln in lines]


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout, or the file at path opened for writing; failing to open or
    write the file is a usage error."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(lines, out: str | None):
    """Write each line, newline-terminated, as it comes; no lines, no bytes."""
    with _output(out) as fh:
        for line in lines:
            fh.write(line + "\n")


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


# -- commands -------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    try:
        precision = Fraction(args.precision)
    except ZeroDivisionError as exc:
        raise CliError(f"invalid precision {args.precision!r}: zero denominator") from exc
    if precision <= 0:
        raise CliError("precision must be positive")
    reports = [
        spectra.spectrum(g, args.kind, precision=precision).to_json_dict()
        for g in _graphs_from_args(args)
    ]
    _emit(map(_dump, reports), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    out = []
    for g in _graphs_from_args(args):
        member = graphs.family_membership(g)
        l_split = split_integer_roots(char_poly(spectra.laplacian(g)))
        doc = {
            "graph6": graphs.to_graph6(g),
            "n": g.n,
            "degree_sequence": list(graphs.degree_sequence(g)),
            "connected": graphs.is_connected(g),
            "bipartite": graphs.is_bipartite(g),
            "family": member,
            "L_integral": len(l_split[1]) <= 1,
            "Q_integral": spectra.is_Q_integral(g),
            "tag": enumeration.theorem_tag(g),
        }
        if g.n >= 2:
            doc["algebraic_connectivity"] = spectra.algebraic_connectivity_from_poly(l_split).to_json()
            doc["vertex_connectivity"] = graphs.vertex_connectivity(g)
        out.append(doc)
    _emit(map(_dump, out), args.out)
    return EXIT_OK


def _partition_or_die(text, n):
    try:
        return partitions.parse_partition(text, n)
    except (ValueError, IndexError) as exc:
        raise CliError(f"invalid partition: {exc}", code=EXIT_BAD_PARTITION) from exc


def cmd_quotient(args) -> int:
    (g,) = _graphs_from_args(args)
    cells = _partition_or_die(args.partition, g.n)
    matrix = spectra.laplacian(g) if args.kind == "L" else spectra.signless_laplacian(g)
    try:
        quotient = partitions.quotient_matrix(matrix, cells)
    except ValueError as exc:  # the cells are valid, so it is not equitable
        raise CliError(str(exc), code=EXIT_BAD_PARTITION) from exc
    quotient_poly = char_poly(quotient)
    ok, cofactor = divides(quotient_poly, char_poly(matrix))
    doc = {
        "graph6": graphs.to_graph6(g),
        "kind": args.kind,
        "partition": partitions.format_partition(cells),
        "quotient": [list(row) for row in quotient.entries],
        "quotient_char_poly": poly_text(quotient_poly),
        "divides": ok,
        "cofactor": poly_text(cofactor),
    }
    _emit([_dump(doc)], args.out)
    return EXIT_OK


def cmd_refine(args) -> int:
    (g,) = _graphs_from_args(args)
    seed = _partition_or_die(args.partition, g.n)
    matrix = spectra.laplacian(g) if args.kind == "L" else spectra.signless_laplacian(g)
    refined = partitions.coarsest_equitable_refinement(matrix, seed)
    quotient = partitions.quotient_matrix(matrix, refined)
    poly = char_poly(matrix)
    # a discrete partition's quotient is the matrix relabelled: same polynomial
    ok, cofactor = divides(poly if len(refined) == g.n else char_poly(quotient), poly)
    doc = {
        "graph6": graphs.to_graph6(g),
        "kind": args.kind,
        "seed": partitions.format_partition(seed),
        "partition": partitions.format_partition(refined),
        "cells": len(refined),
        "quotient": [list(row) for row in quotient.entries],
        "divides": ok,
        "cofactor": poly_text(cofactor),
    }
    _emit([_dump(doc)], args.out)
    return EXIT_OK


def _parse_range(text: str):
    """'2..10' or a single integer; returns an inclusive (lo, hi) pair."""
    if ".." in text:
        lo, hi = (int(x) for x in text.split("..", 1))
        if lo > hi:
            raise CliError(f"empty parameter range {text!r}")
        return lo, hi
    v = int(text)
    return v, v


def _case_report(case_id: str, cap: int, overrides: dict | None = None) -> dict:
    poly_report = families.verify_printed_polynomial(case_id)
    matrix_report = families.verify_printed_matrix(case_id)
    signs = families.verify_sign_claims(case_id, cap=cap, overrides=overrides)
    doc = {
        "case": case_id,
        "title": families.get_case(case_id).title,
        "printed_polynomial": poly_report,
        "printed_matrix": matrix_report,
        "sign_claims": signs,
        "excluded_instances": families.excluded_instance_report(case_id),
    }
    if case_id == "4.7-c1.2":
        doc["closed_forms"] = [
            families.closed_form_root_check(sub, cap=cap) for sub in ("i", "ii", "iii", "iv")
        ]
    point = next(families.grid_points(families.get_case(case_id), cap, overrides))
    doc["cross_check"] = families.cross_check_with_realization(case_id, **point)
    return doc


def cmd_families(args) -> int:
    cap = args.grid_cap
    if not 1 <= cap <= families.GRID_CAP_MAX:
        raise CliError(f"--grid-cap must be from 1 to {families.GRID_CAP_MAX}")
    overrides = {}
    if args.s:
        overrides["s"] = _parse_range(args.s)
    if args.t:
        overrides["t"] = _parse_range(args.t)
    if args.case == "all":
        ids = families.case_ids()
    else:
        try:
            families.get_case(args.case)
        except KeyError as exc:
            raise CliError(str(exc), code=EXIT_UNKNOWN_CASE) from exc
        ids = [args.case]
    for name in overrides:
        if not any(name in families.get_case(cid).params for cid in ids):
            raise CliError(f"--{name} is not a parameter of case {args.case}")
    for cid in ids:
        # a sign check over no grid point would report signs_ok vacuously
        if next(families.grid_points(families.get_case(cid), cap, overrides), None) is None:
            raise CliError(f"case {cid} has no parameter point within --grid-cap and the ranges")
    docs = [_case_report(cid, cap, overrides or None) for cid in ids]
    _emit(map(_dump, docs), args.out)
    return EXIT_OK


def _member_line(config) -> str:
    g = graphs.realize(config)
    return _dump(
        {
            "family": config.family,
            "n": g.n,
            "graph6": graphs.to_graph6(g),
            "hub_edge": config.hub_edge,
            "paths": list(config.paths),
            "pendants_u": list(config.pendants_u),
            "cycles_u": list(config.cycles_u),
            "pendants_v": list(config.pendants_v),
            "cycles_v": list(config.cycles_v),
        }
    )


def cmd_enumerate(args) -> int:
    enumeration.check_budget(args.n)
    if args.n < 1:  # before --out is opened, so a rejected run makes no file
        raise CliError("vertex count must be positive")
    _emit(map(_member_line, enumeration.enumerate_family(args.family, args.n)), args.out)
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    if args.jobs < 1:
        raise CliError("jobs must be at least 1")
    # the budget and range errors come before --out is opened
    enumeration.check_sweep_range(args.min, args.max)
    with _output(args.out) if args.out else contextlib.nullcontext() as fh:
        summary = enumeration.verify_theorem(args.min, args.max, fh)
    if args.stats:
        print(_dump(summary.stats), file=sys.stderr)
    sys.stdout.write(summary.to_tsv() + "\n")
    sys.stdout.write(f"{len(summary.disagreements)} disagreements\n")
    return EXIT_OK


def cmd_erratum_report(args) -> int:
    _emit(map(_dump, families.erratum_entries()), args.out)
    return EXIT_OK


# -- argument wiring -------------------------------------------------------------


def _add_source_flags(p):
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--builder", help="builder expression (see module docstring)")
    p.add_argument("--file", help="file with adjacency text or graph6 lines")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    main call; parse_args fills a fresh Namespace each time, so no state
    passes from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="lapspec",
        description="Exact integral-spectrum decisions for sparse graph families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact spectrum report of one or more graphs")
    _add_source_flags(p)
    p.add_argument("--kind", choices=("L", "Q"), default="L")
    p.add_argument("--precision", default="1/1000000", help="interval width, e.g. 1/1000000")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("classify", help="family membership, integrality, tag")
    _add_source_flags(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("quotient", help="quotient matrix over an equitable partition")
    _add_source_flags(p)
    p.add_argument("--partition", required=True, help='cells like "0 | 1 | 2 3 4" or "0 | 1 | *"')
    p.add_argument("--kind", choices=("L", "Q"), default="L")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("refine", help="coarsest equitable refinement of a seed partition")
    _add_source_flags(p)
    p.add_argument("--partition", required=True)
    p.add_argument("--kind", choices=("L", "Q"), default="L")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("families", help="verify a catalog case (or all)")
    p.add_argument("--case", required=True, help='case id like 4.4, or "all"')
    p.add_argument(
        "--grid-cap",
        type=int,
        default=families.GRID_CAP_DEFAULT,
        help=f"largest parameter value on the grid, 1 to {families.GRID_CAP_MAX} "
        f"(default {families.GRID_CAP_DEFAULT})",
    )
    p.add_argument("--s", help='parameter range like "2..10" or a single value')
    p.add_argument("--t", help='parameter range like "1..5" or a single value')
    p.add_argument("--out")
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("enumerate", help="stream every family member of one order")
    p.add_argument("--family", choices=("G1", "G2"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify-theorem", help="exhaustive classification sweep")
    p.add_argument("--min", type=int, default=9)
    p.add_argument("--max", "--max-n", dest="max", type=int, default=12)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", help="write the verdict stream (JSON lines) here")
    p.add_argument("--stats", action="store_true", help="print stage counts and seconds as JSON on stderr")
    p.set_defaults(fn=cmd_verify_theorem)

    p = sub.add_parser("erratum-report", help="documented discrepancies of the source text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_erratum_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point stdout at devnull,
        # so that the interpreter's last flush does not raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except enumeration.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
