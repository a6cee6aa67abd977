"""Command-line front end: parsing, dispatch, JSON/CSV emission.

Exit codes: 0 success, 2 validation or precondition failure (a machine
readable error object is printed), 64 unknown subcommand, 74 file I/O
failure.  Every randomized run records its seed in its report.

The parser is built once, at import, and holds no per-call state (each
parse returns a fresh namespace), so `main` may be called many times in one
process, as perfbench's worker does.  Library names are looked up at call
time, so a rebound module attribute (a tracing wrapper, say) is what runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import bounds as bounds_mod
from .bounds import ConditionError
from .constructions import deletion_method, integral, norm_graph, run_experiment
from .extraction import extract_dense
from .graphs import (EDGE_LIST_MAX_VERTICES, CliqueVector, EdgeListError, Graph,
                     Pattern, count_cliques, count_copies,
                     edge_clique_participation, is_free, load_graph, pattern,
                     save_edge_list)
from .oracle import ORACLE_MAX_GRAPHS, ex_exact, mex_exact

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_IO = 74


class _CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError("usage", message)


def _encode(obj):
    """The JSON form of a report object that json cannot write itself: a
    CliqueVector as k1..kR, a Graph as its order and edge list, a Fraction
    as exact text, and any other dataclass as its fields in declaration
    order under camelCase names."""
    if isinstance(obj, CliqueVector):
        return {f"k{r}": obj[r] for r in range(1, obj.R + 1)}
    if isinstance(obj, Graph):
        return {"n": obj.n, "edges": obj.edges()}
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        return {re.sub(r"_(.)", lambda m: m[1].upper(), f.name): getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _json(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2, allow_nan=False, default=_encode)
    for a report, whose dict keys are all str; pad is the newline and indent
    of obj's own line.  With an indent, json falls back to a pure-Python
    encoder whose closures leave reference cycles, so the text is joined
    here: a list of plain ints in one join, and a list of equal-length lists
    of plain ints, such as the participation triples, through one %d
    template per row."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = {*map(type, obj)}
        if kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif (kinds <= {list, tuple} and obj[0] and len({*map(len, obj)}) == 1
              and {*map(type, chain.from_iterable(obj))} == {int}):
            cell = "," + inner + "  "
            row = "[" + cell[1:] + cell.join(["%d"] * len(obj[0])) + inner + "]"
            body = sep.join([row] * len(obj)) % tuple(chain.from_iterable(obj))
        else:
            body = sep.join([_json(x, inner) for x in obj])
        return "[" + inner + body + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([encode_basestring_ascii(k) + ": " + _json(v, inner)
                                       for k, v in obj.items()]) + pad + "}"
    return _json(_encode(obj), pad)


def _emit(obj, out: str | None) -> None:
    text = _json(obj) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _number(text: str):
    """The exact value of text as Fraction reads it (3, -3/2, 1.5 or 1e5), as
    an int when it is integral.  A decimal exponent of four or more digits is
    refused first: Fraction would expand it into an integer that long."""
    if re.search(r"[eE][+-]?\d{4}", text.replace("_", "")):
        raise ValueError(f"the exponent of {text!r} has over three digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"the denominator of {text!r} is zero") from None
    return value.numerator if value.denominator == 1 else value


def _int(text: str) -> int:
    return integral(_number(text))


def _sizes(text: str) -> list[int]:
    """'+'-joined integers: 1+2+2, or 5 alone."""
    return [_int(x) for x in text.split("+")]


# Formula id -> (name of its `bounds` function, looked up at call time, and
# its parameters in call order, each with the kind that reads its text).  A
# Pattern parameter is read by `pattern`, also looked up at call time, from
# its raw text, which may be a path holding '/' or '+'.
_FORMULAS = {
    "lemma21_constant": ("lemma_constant", {"u": _int, "r": _int}),
    "cor12": ("cor12_exponent", {"r": _int, "s": _number}),
    "thm13_f": ("thm13_f", {"alpha": _number, "beta": _number}),
    "cor14_kst": ("cor14_kst", {"r": _int, "s": _int}),
    "thm15_general": ("thm15_general", {"u": _int, "r": _int, "f": Pattern}),
    "thm41_kst_lower": ("thm41_kst_lower", {"u": _int, "r": _int, "s": _int, "t": _int}),
    "thm43_multipartite": ("thm43_multipartite", {"r": _int, "s": _sizes}),
    "remark42_one_part": ("remark42_one_part", {"r": _int, "s": _sizes}),
    "cor44_tripartite_lower": ("cor44_tripartite_lower", {"s1": _int, "s2": _int, "s3": _int}),
    "thm46_join_cycle": ("thm46_join_cycle", {"r": _int, "s": _int, "l": _int}),
    "cor17_classifier": ("cor17_classifier", {"f": Pattern, "t": _int}),
}


def _run_bounds(args) -> bounds_mod.ExponentReport:
    """The report of --formula on --params, comma-separated k=v pairs, each
    value read from its text by the kind its formula declares for k."""
    fid = args.formula
    if fid not in _FORMULAS:
        raise ValueError(f"unknown formula id {fid!r}")
    name, kinds = _FORMULAS[fid]
    values = {}
    for chunk in args.params.split(",") if args.params else ():
        key, eq, text = map(str.strip, chunk.partition("="))
        if not eq:
            raise ValueError(f"expected k=v, got {chunk!r}")
        if key in values:
            raise ValueError(f"parameter {key!r} is given twice")
        if key not in kinds:
            raise ValueError(f"{fid} takes no parameter {key!r}")
        try:
            values[key] = pattern(text) if kinds[key] is Pattern else kinds[key](text)
        except EdgeListError:
            raise  # reported as the file's fault, not the parameter's
        except ValueError as exc:
            raise ValueError(f"parameter {key!r} of {fid}: {exc}")
    try:
        values = {key: values[key] for key in kinds}  # in call order
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc.args[0]!r} for {fid}")
    try:
        result = getattr(bounds_mod, name)(*values.values())
        if not isinstance(result, bounds_mod.ExponentReport):
            # A scalar formula; its report echoes the values it was called
            # with, a pattern by its text (its name).
            params = {k: v.name if isinstance(v, Pattern) else v
                      for k, v in values.items()}
            result = bounds_mod.ExponentReport(
                fid, params, result if isinstance(result, bool) else float(result),
                result if isinstance(result, Fraction) else None)
    except OverflowError as exc:
        raise ValueError(f"{fid}: {exc}")
    return result


def _build_parser() -> tuple[_Parser, dict]:
    """The parser and its subcommand parsers by name.  Its help is the module
    docstring less the last paragraph, which is about the code."""
    top = _Parser(prog="mexlab", description=__doc__.rsplit("\n\n", 1)[0])
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("count", help="exact clique counts")
    p.add_argument("--input", required=True)
    p.add_argument("--max-clique", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("participation", help="per-edge r-clique participation")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("pattern-count", help="copies of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = sub.add_parser("free-check", help="does the input avoid the pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = sub.add_parser("extract", help="threshold edge filtering")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--C", type=float, required=True, dest="C")
    p.add_argument("--report")
    p.add_argument("--out", help="write the filtered subgraph edge list here")

    p = sub.add_parser("bounds", help="closed-form exponent reports")
    p.add_argument("--formula", required=True)
    p.add_argument("--params", default="",
                   help="comma-separated k=v pairs; numbers are read exactly: "
                   "1.5 is 3/2, 6/2 is 3")
    p.add_argument("--out")

    p = sub.add_parser("construct", help="lower-bound witness generators")
    csub = p.add_subparsers(dest="construct_kind")
    pn = csub.add_parser("norm-graph")
    pn.add_argument("--q", type=int, required=True)
    pn.add_argument("--s", type=int, required=True)
    pn.add_argument("--out", required=True)
    pd = csub.add_parser("deletion")
    pd.add_argument("--pattern", required=True)
    pd.add_argument("--u", type=int, required=True)
    pd.add_argument("--r", type=int, required=True)
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--seed", type=int, required=True)
    pd.add_argument("--c", type=float, default=1.0)
    pd.add_argument("--out")
    pd.add_argument("--report")

    p = sub.add_parser("oracle", help="exhaustive small-case maxima")
    osub = p.add_subparsers(dest="oracle_mode")
    budget = (f"A query is answered iff it examines at most {ORACLE_MAX_GRAPHS:,} "
              "graphs (its graphsExamined); a refused query has spent about "
              "3-5 s of CPU on a 2-core host.")
    pm = osub.add_parser("mex", description=budget)
    pm.add_argument("--m", type=int, required=True, help="edge count, at least 0")
    pm.add_argument("--target", required=True)
    pm.add_argument("--forbidden", required=True)
    pm.add_argument("--report")
    pe = osub.add_parser("ex", description=budget)
    pe.add_argument("--n", type=int, required=True,
                    help=f"vertex count, 0..{EDGE_LIST_MAX_VERTICES}")
    pe.add_argument("--target", required=True)
    pe.add_argument("--forbidden", required=True)
    pe.add_argument("--report")

    p = sub.add_parser("experiment", help="scaling experiment to CSV")
    p.add_argument("spec", help="JSON object with family (norm_graph, tripartite "
                   "or deletion), u, r, q, s, n, pattern (a literal or an "
                   "edge-list path), seeds and c")
    p.add_argument("--csv", required=True)
    return top, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _dispatch(args) -> tuple[object, str | None]:
    """The subcommand's report and the path to write it to (None for
    stdout)."""
    cmd = args.command
    if cmd == "count":
        return count_cliques(load_graph(args.input), args.max_clique), args.out
    if cmd == "participation":
        part = edge_clique_participation(load_graph(args.input), args.r)
        return {"r": args.r, "participation": [
            [u, v, c] for (u, v), c in part.items()]}, args.out
    if cmd == "pattern-count":
        f = pattern(args.pattern)
        g = load_graph(args.input)
        return {"pattern": args.pattern, "count": count_copies(f, g)}, args.out
    if cmd == "free-check":
        f = pattern(args.pattern)
        g = load_graph(args.input)
        return {"pattern": args.pattern, "free": is_free(f, g)}, args.out
    if cmd == "extract":
        g = load_graph(args.input)
        try:
            out_graph, report = extract_dense(g, args.r, args.alpha, args.C)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"extract: r, alpha and C put a threshold or guarantee "
                             f"constant out of float range ({exc})")
        if args.out:
            save_edge_list(out_graph, args.out)
        return report, args.report
    if cmd == "bounds":
        return _run_bounds(args), args.out
    if cmd == "construct":
        if args.construct_kind == "norm-graph":
            g = norm_graph(args.q, args.s)
            save_edge_list(g, args.out)
            return {"family": "norm_graph", "q": args.q, "s": args.s,
                    "n": g.n, "m": g.m, "out": args.out}, None
        if args.construct_kind == "deletion":
            f = pattern(args.pattern)
            g, run = deletion_method(f, args.u, args.r, args.n, args.seed, args.c)
            if args.out:
                save_edge_list(g, args.out)
            return run, args.report
        raise _CliError("usage", "construct needs a subcommand: norm-graph | deletion")
    if cmd == "oracle":
        if args.oracle_mode == "mex":
            res = mex_exact(args.m, pattern(args.target), pattern(args.forbidden))
        elif args.oracle_mode == "ex":
            res = ex_exact(args.n, pattern(args.target), pattern(args.forbidden))
        else:
            raise _CliError("usage", "oracle needs a subcommand: mex | ex")
        return res, args.report
    # experiment, the last subcommand
    with open(args.spec, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise _CliError("invalid-input", f"{args.spec}: JSON nested too deeply")
        except ValueError as exc:  # not JSON, or not ASCII
            raise _CliError("invalid-input", f"{args.spec}: {exc}")
    rows, predicted, slope = run_experiment(obj)
    with open(args.csv, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*rows[0], "predicted_exponent", "fitted_slope"])
        writer.writerows([*row.values(), repr(predicted), repr(slope)] for row in rows)
    return {"family": obj["family"], "rows": len(rows),
            "predictedExponent": predicted, "fittedSlope": slope,
            "csv": args.csv}, None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        _emit({"code": "unknown-command",
               "message": f"unknown subcommand {argv[0]!r}"}, None)
        return EXIT_USAGE
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise _CliError("usage", "a subcommand is required")
        report, out = _dispatch(args)
        try:
            _emit(report, out)
        except ValueError as exc:  # Python refuses to print an int that long
            if "integer string conversion" not in str(exc):
                raise
            who = f"{args.formula}: " if args.command == "bounds" else ""
            raise ValueError(f"{who}a report value has over "
                             f"{sys.get_int_max_str_digits():,} digits") from None
        return EXIT_OK
    except _CliError as exc:
        _emit({"code": exc.code, "message": str(exc)}, None)
        return EXIT_VALIDATION
    except ConditionError as exc:
        _emit({"code": "condition-failed", "message": str(exc),
               "failedCondition": exc.condition}, None)
        return EXIT_VALIDATION
    except ValueError as exc:  # a malformed edge-list file is the input's fault
        code = "invalid-input" if isinstance(exc, EdgeListError) else "invalid-params"
        _emit({"code": code, "message": str(exc)}, None)
        return EXIT_VALIDATION
    except OSError as exc:
        _emit({"code": "io-error", "message": str(exc)}, None)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
