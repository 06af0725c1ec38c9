"""Command-line front end.

Single-graph commands print one JSON document; streaming commands write
JSON lines as they are made (an empty stream is zero bytes); the
classification sweep prints a TSV summary, and its --out lines are
written during the sweep. An --out file is opened only once the arguments
pass their checks. Outputs are deterministic for a fixed invocation. The
sweep runs in one process; its --jobs option is accepted for
compatibility and has no effect.

Arguments are read by parse_args from one table, COMMANDS, with no
argparse imported or built: `--opt value` or `--opt=value`, the last of a
repeated option winning, and -h for help. An option must be spelled in
full: a prefix such as --grid for --grid-cap is an unrecognized argument.
A usage error prints a usage line and a `lapspec: error:` line on stderr
and raises SystemExit(2).

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

import contextlib
import json
import os
import re
import sys
import types
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


# json.dumps(obj, ensure_ascii=False), with one encoder for every document
_dump = json.JSONEncoder(ensure_ascii=False).encode


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
        cfg = graphs.graph_to_config(g)
        bipartite = graphs.is_bipartite(g)
        l_split = split_integer_roots(spectra.kind_poly(g, "L"))
        # from n = 2 on, κ is 0 exactly when the graph is disconnected
        kappa = graphs.vertex_connectivity(g) if g.n >= 2 else None
        doc = {
            "graph6": graphs.to_graph6(g),
            "n": g.n,
            "degree_sequence": list(graphs.degree_sequence(g)),
            "connected": g.n < 2 or kappa > 0,
            "bipartite": bipartite,
            "family": graphs.config_membership(cfg, bipartite),
            "L_integral": len(l_split[1]) <= 1,
            "Q_integral": spectra.is_Q_integral(g),
            "tag": enumeration.theorem_tag(cfg),
        }
        if g.n >= 2:
            doc["algebraic_connectivity"] = spectra.algebraic_connectivity_from_poly(l_split).to_json()
            doc["vertex_connectivity"] = kappa
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
    matrix = spectra.kind_matrix(g, args.kind)
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
    matrix = spectra.kind_matrix(g, args.kind)
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
        doc["closed_forms"] = [families.closed_form_root_check(sub) for sub in ("i", "ii", "iii", "iv")]
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
    doc = {"family": config.family, "n": g.n, "graph6": graphs.to_graph6(g), "hub_edge": config.hub_edge}
    for name in ("paths", "pendants_u", "cycles_u", "pendants_v", "cycles_v"):
        doc[name] = list(getattr(config, name))
    return _dump(doc)


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


# -- argument parsing ------------------------------------------------------------

_SOURCE = {"g6": (None, "graph6 string"), "builder": (None, "builder expression (see module docstring)"),
           "file": (None, "file with adjacency text or graph6 lines")}
_KIND = {"kind": ("L", "the Laplacian L or the signless Laplacian Q")}
_OUT = {"out": (None, "write the output to this file instead of stdout")}
_RANGE = 'parameter range like "2..10" or a single value'

#: Each command's handler, one-line help and options: an option's attribute
#: name (--grid-cap sets args.grid_cap) mapped to its default and its help.
COMMANDS = {
    "spectrum": (cmd_spectrum, "exact spectrum report of one or more graphs", {
        **_SOURCE, **_KIND, "precision": ("1/1000000", "interval width, e.g. 1/1000000"), **_OUT}),
    "classify": (cmd_classify, "family membership, integrality, tag", {**_SOURCE, **_OUT}),
    "quotient": (cmd_quotient, "quotient matrix over an equitable partition", {
        **_SOURCE, "partition": (None, 'cells like "0 | 1 | 2 3 4" or "0 | 1 | *"'), **_KIND, **_OUT}),
    "refine": (cmd_refine, "coarsest equitable refinement of a seed partition", {
        **_SOURCE, "partition": (None, 'seed cells like "0 | 1 | *"'), **_KIND, **_OUT}),
    "families": (cmd_families, "verify a catalog case (or all)", {
        "case": (None, 'case id like 4.4, or "all"'),
        "grid_cap": (families.GRID_CAP_DEFAULT, f"largest grid value, 1 to {families.GRID_CAP_MAX}"),
        "s": (None, _RANGE), "t": (None, _RANGE), **_OUT}),
    "enumerate": (cmd_enumerate, "stream every family member of one order", {
        "family": (None, "the one-hub family G1 or the two-hub family G2"), "n": (None, "vertex count"), **_OUT}),
    "verify-theorem": (cmd_verify_theorem, "exhaustive classification sweep", {
        "min": (9, "least vertex count"), "max": (12, "largest vertex count"),
        "jobs": (1, "accepted for compatibility; has no effect"),
        "out": (None, "write the verdict stream (JSON lines) here"),
        "stats": (False, "print stage counts and seconds as JSON on stderr")}),
    "erratum-report": (cmd_erratum_report, "documented discrepancies of the source text", _OUT),
}
INT_OPTIONS = frozenset({"grid_cap", "n", "min", "max", "jobs"})
CHOICES = {"kind": ("L", "Q"), "family": ("G1", "G2")}
REQUIRED = frozenset({"partition", "case", "family", "n"})
FLAGS = frozenset({"stats"})  # each sets True when given, and takes no value


def _spelling(dest: str) -> str:
    """The option with its value's placeholder, like --grid-cap GRID_CAP."""
    flag = "--" + dest.replace("_", "-")
    if dest in FLAGS:
        return flag
    return f"{flag} {'{' + ','.join(CHOICES[dest]) + '}' if dest in CHOICES else dest.upper()}"


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: lapspec {{{','.join(COMMANDS)}}} ..."
    spelled = (_spelling(d) if d in REQUIRED else f"[{_spelling(d)}]" for d in COMMANDS[name][2])
    return " ".join([f"usage: lapspec {name}", *spelled])


def _help(name: str | None) -> str:
    if name is None:
        lines = [_usage(None), "", "Exact integral-spectrum decisions for sparse graph families", "", "commands:"]
        lines += [f"  {cmd:<16}{text}" for cmd, (_, text, _) in COMMANDS.items()]
        return "\n".join(lines + ["", "lapspec <command> -h lists the options of a command."])
    _, text, options = COMMANDS[name]
    lines = [_usage(name), "", text, "", "options:"]
    for dest, (default, what) in options.items():
        shown = " (required)" if dest in REQUIRED else "" if default in (None, False) else f" (default {default})"
        lines.append(f"  {_spelling(dest):<26}{what}{shown}")
    return "\n".join(lines)


def _fail(name: str | None, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    print(_usage(name), f"lapspec: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def parse_args(argv: list):
    """The handler of the command argv names, and a namespace holding each
    of its options' last given value or its default. An option's value is
    the next token, whatever it starts with, or the text after the first
    "=" of --opt=value. -h or --help prints help and exits 0; a usage error
    exits 2 (_fail)."""
    name = argv[0] if argv and argv[0] in COMMANDS else None
    if name is None and argv[:1] not in (["-h"], ["--help"]):
        _fail(None, f"choose a command from {', '.join(COMMANDS)}" + (f", not {argv[0]!r}" if argv else ""))
    # with no command, the one token left to read is -h or --help
    handler, _, options = COMMANDS[name] if name else (None, None, {})
    values = {dest: default for dest, (default, _) in options.items()}
    spellings = {"--" + dest.replace("_", "-"): dest for dest in options}
    tokens = iter(argv[1:] if name else argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help(name), flush=True)  # a closed pipe raises here, in main's try
            raise SystemExit(EXIT_OK)
        flag, eq, value = token.partition("=")
        dest = spellings.get(flag)
        if dest is None or (dest in FLAGS and eq):
            _fail(name, f"{flag} takes no value" if dest else f"unrecognized argument {token!r}")
        if dest in FLAGS:
            value = True
        elif not eq and (value := next(tokens, None)) is None:
            _fail(name, f"{flag} expects a value")
        elif dest in INT_OPTIONS:
            try:
                value = int(value)
            except ValueError:
                _fail(name, f"{flag}: invalid int value {value!r}")
        elif value not in CHOICES.get(dest, (value,)):
            _fail(name, f"{flag}: invalid choice {value!r} (choose from {', '.join(CHOICES[dest])})")
        values[dest] = value
    # every default of a required option is None, and no given value is
    missing = [_spelling(dest) for dest in options if dest in REQUIRED and values[dest] is None]
    if missing:
        _fail(name, f"the following options are required: {', '.join(missing)}")
    return handler, types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        code = handler(args)
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
