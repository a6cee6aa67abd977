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
import re
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .bounds import ConditionError
from .constructions import (CSV_HEADER, ExperimentSpec, deletion_method,
                            finite_number, norm_graph, run_experiment)
from .constructions import integral as _int
from .extraction import extract_dense
from .graphs import (CliqueVector, Graph, Pattern, count_cliques,
                     count_copies, edge_clique_participation, is_free,
                     load_edge_list, parse_pattern_literal, save_edge_list)
from .oracle import ORACLE_MAX_EDGES, ORACLE_MAX_N, ex_exact, mex_exact

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


def _load_graph(spec: str) -> Graph:
    lit = parse_pattern_literal(spec)
    if lit is not None:
        return lit
    try:
        return load_edge_list(spec)
    except ValueError as exc:
        raise _CliError("invalid-input", f"{spec}: {exc}")


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


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, allow_nan=False, default=_encode) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(text: str, kinds: dict) -> dict:
    """k=v pairs, comma separated; '+'-joined integers make a list, 'a/b'
    makes an exact rational.  A pattern parameter keeps its raw text, which
    may be a path holding '/'."""
    out: dict = {}
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise _CliError("invalid-params", f"expected k=v, got {chunk!r}")
        key, val = chunk.split("=", 1)
        key, val = key.strip(), val.strip()
        if kinds.get(key) is _pattern:
            out[key] = val
            continue
        try:
            out[key] = _parse_value(val)
        except (ValueError, ZeroDivisionError):
            raise _CliError("invalid-params", f"parameter {key!r} has an invalid value {val!r}")
    return out


def _parse_value(val: str):
    if "+" in val:
        try:
            return [int(x) for x in val.split("+")]
        except ValueError:
            pass  # not a list of integers: '1e+5' is a float
    if "/" in val:
        num, den = val.split("/", 1)
        return Fraction(int(num), int(den))
    try:
        return int(val)
    except ValueError:
        pass
    try:
        return float(val)
    except ValueError:
        return val


def _number(v):
    """A finite int, Fraction or float, passed through as parsed."""
    if finite_number(v):
        return v
    raise ValueError(f"must be a finite number, got {v}")


def _sizes(v) -> list[int]:
    """An int or a '+'-list of ints."""
    return v if isinstance(v, list) else [_int(v)]


def _pattern(v: str) -> Pattern:
    """A pattern literal or an edge-list path."""
    return Pattern(_load_graph(v), v)


# Formula id -> (name of its `bounds` function, looked up at call time, and
# its parameters in call order with their kinds).
_FORMULAS = {
    "lemma21_constant": ("lemma_constant", {"u": _int, "r": _int}),
    "cor12": ("cor12_exponent", {"r": _int, "s": _number}),
    "thm13_f": ("thm13_f", {"alpha": _number, "beta": _number}),
    "cor14_kst": ("cor14_kst", {"r": _int, "s": _int}),
    "thm15_general": ("thm15_general", {"u": _int, "r": _int, "f": _pattern}),
    "thm41_kst_lower": ("thm41_kst_lower", {"u": _int, "r": _int, "s": _int, "t": _int}),
    "thm43_multipartite": ("thm43_multipartite", {"r": _int, "s": _sizes}),
    "remark42_one_part": ("remark42_one_part", {"r": _int, "s": _sizes}),
    "cor44_tripartite_lower": ("cor44_tripartite_lower", {"s1": _int, "s2": _int, "s3": _int}),
    "thm46_join_cycle": ("thm46_join_cycle", {"r": _int, "s": _int, "l": _int}),
    "cor17_classifier": ("cor17_classifier", {"f": _pattern, "t": _int}),
}


def _run_bounds(args) -> bounds_mod.ExponentReport:
    fid = args.formula
    if fid not in _FORMULAS:
        raise _CliError("invalid-params", f"unknown formula id {fid!r}")
    name, kinds = _FORMULAS[fid]
    params = _parse_params(args.params or "", kinds)
    values = []
    for key, kind in kinds.items():
        if key not in params:
            raise _CliError("invalid-params", f"missing parameter {key!r} for {fid}")
        try:
            values.append(kind(params[key]))
        except ValueError as exc:
            raise _CliError("invalid-params", f"parameter {key!r} of {fid}: {exc}")
    try:
        result = getattr(bounds_mod, name)(*values)
        if not isinstance(result, bounds_mod.ExponentReport):
            # A scalar formula; its report echoes every given parameter.
            result = bounds_mod.ExponentReport(
                fid, params, result if isinstance(result, bool) else float(result),
                result if isinstance(result, Fraction) else None)
    except OverflowError as exc:
        raise _CliError("invalid-params", f"{fid}: {exc}")
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
    p.add_argument("--params", default="")
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
    pm = osub.add_parser("mex")
    pm.add_argument("--m", type=int, required=True,
                    help=f"edge count, 0..{ORACLE_MAX_EDGES}")
    pm.add_argument("--target", required=True)
    pm.add_argument("--forbidden", required=True)
    pm.add_argument("--report")
    pe = osub.add_parser("ex")
    pe.add_argument("--n", type=int, required=True,
                    help=f"vertex count, 0..{ORACLE_MAX_N}")
    pe.add_argument("--target", required=True)
    pe.add_argument("--forbidden", required=True)
    pe.add_argument("--report")

    p = sub.add_parser("experiment", help="scaling experiment to CSV")
    p.add_argument("spec")
    p.add_argument("--csv", required=True)
    return top, sub.choices


_PARSER, _COMMANDS = _build_parser()


def _dispatch(args) -> tuple[object, str | None]:
    """The subcommand's report and the path to write it to (None for
    stdout)."""
    cmd = args.command
    if cmd == "count":
        return count_cliques(_load_graph(args.input), args.max_clique), args.out
    if cmd == "participation":
        g = _load_graph(args.input)
        part = edge_clique_participation(g, args.r)
        return {"r": args.r, "participation": [
            [u, v, part[(u, v)]] for u, v in sorted(part)]}, args.out
    if cmd == "pattern-count":
        f = _pattern(args.pattern)
        g = _load_graph(args.input)
        return {"pattern": args.pattern, "count": count_copies(f, g)}, args.out
    if cmd == "free-check":
        f = _pattern(args.pattern)
        g = _load_graph(args.input)
        return {"pattern": args.pattern, "free": is_free(f, g)}, args.out
    if cmd == "extract":
        g = _load_graph(args.input)
        try:
            out_graph, report = extract_dense(g, args.r, args.alpha, args.C)
        except (OverflowError, ZeroDivisionError) as exc:
            raise _CliError("invalid-params",
                            f"extract: r, alpha and C put a threshold or guarantee "
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
            f = _pattern(args.pattern)
            g, run = deletion_method(f, args.u, args.r, args.n, args.seed, args.c)
            if args.out:
                save_edge_list(g, args.out)
            return run, args.report
        raise _CliError("usage", "construct needs a subcommand: norm-graph | deletion")
    if cmd == "oracle":
        if args.oracle_mode == "mex":
            res = mex_exact(args.m, _pattern(args.target),
                            _pattern(args.forbidden))
        elif args.oracle_mode == "ex":
            res = ex_exact(args.n, _pattern(args.target),
                           _pattern(args.forbidden))
        else:
            raise _CliError("usage", "oracle needs a subcommand: mex | ex")
        return res, args.report
    # experiment, the last subcommand
    with open(args.spec, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise _CliError("invalid-input", f"{args.spec}: JSON nested too deeply")
    spec = ExperimentSpec.from_json(obj)
    result = run_experiment(spec)
    with open(args.csv, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(result.csv_rows())
    return {"family": spec.family, "rows": len(result.rows),
            "predictedExponent": result.predicted_exponent,
            "fittedSlope": result.fitted_slope, "csv": args.csv}, None


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
        _emit(*_dispatch(args))
        return EXIT_OK
    except _CliError as exc:
        _emit({"code": exc.code, "message": str(exc)}, None)
        return EXIT_VALIDATION
    except ConditionError as exc:
        _emit({"code": "condition-failed", "message": str(exc),
               "failedCondition": exc.condition}, None)
        return EXIT_VALIDATION
    except ValueError as exc:
        _emit({"code": "invalid-params", "message": str(exc)}, None)
        return EXIT_VALIDATION
    except OSError as exc:
        _emit({"code": "io-error", "message": str(exc)}, None)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
