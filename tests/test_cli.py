"""CLI contract: subcommands, exit codes, JSON schema, round trips."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mexlab
from conftest import cyclic_garbage, recursion_headroom
from mexlab import bounds as bounds_mod
from mexlab.bounds import (Condition, ExponentReport, cor12_exponent,
                           cor14_kst, cor17_classifier, cor44_tripartite_lower,
                           lemma_constant, remark42_one_part, thm13_f,
                           thm15_general, thm41_kst_lower, thm43_multipartite,
                           thm46_join_cycle)
from mexlab.cli import (_COMMANDS, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                        _build_parser, _encode, _json, _number, _Parser, main)
from mexlab.constructions import (EXPERIMENT_MAX_INSTANCES,
                                  NORM_GRAPH_MAX_VERTICES, DeletionRun,
                                  norm_graph)
from mexlab.extraction import ExtractionReport, GuaranteeCases, GuaranteeCheck
from mexlab.graphs import (LITERAL_MAX_EDGES, CliqueVector, Pattern, complete,
                           format_edge_list, gnp, load_edge_list,
                           parse_pattern_literal, pattern, read_edge_list,
                           save_edge_list)
from mexlab.oracle import ORACLE_MAX_GRAPHS, OracleResult
from test_embeddings import LITERALS


@pytest.fixture(scope="module")
def schema():
    text = resources.files("mexlab").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, schema, *argv):
    code, out = run_cli(capsys, *argv)
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    return code, obj


def test_count(tmp_path, capsys, schema):
    p = tmp_path / "k5.el"
    save_edge_list(complete(5), p)
    code, obj = run_json(capsys, schema, "count", "--input", str(p), "--max-clique", "3")
    assert code == EXIT_OK
    assert obj == {"k1": 5, "k2": 10, "k3": 10}


def test_count_accepts_literals(capsys, schema):
    code, obj = run_json(capsys, schema, "count", "--input", "K2_2_2", "--max-clique", "3")
    assert code == EXIT_OK and obj["k3"] == 8


def test_participation(capsys, schema):
    code, obj = run_json(capsys, schema, "participation", "--input", "K4", "--r", "3")
    assert code == EXIT_OK
    assert all(row[2] == 2 for row in obj["participation"])


def test_pattern_count_and_free_check(capsys, schema):
    code, obj = run_json(capsys, schema, "pattern-count",
                         "--pattern", "C4", "--input", "K2_3")
    assert code == EXIT_OK and obj["count"] == 3
    code, obj = run_json(capsys, schema, "free-check",
                         "--pattern", "K3", "--input", "S5")
    assert code == EXIT_OK and obj["free"] is True


def test_pattern_count_of_a_highly_symmetric_pattern(capsys, schema):
    # K2_2_2_2_2_2 has 2^6 6! automorphisms, 720 per coset of its twin
    # group; the search must visit one map per copy to finish in time.
    start = time.perf_counter()
    code, obj = run_json(capsys, schema, "pattern-count",
                         "--pattern", "K2_2_2_2_2_2", "--input", "K12")
    assert time.perf_counter() - start < _FUZZ_BUDGET_S
    assert code == EXIT_OK
    assert obj["count"] == math.factorial(12) // (2 ** 6 * math.factorial(6)) == 10395


def test_pattern_count_of_a_large_star_is_a_binomial(schema):
    # the 10 leaves after the first are counted by a binomial, not listed
    src = Path(mexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mexlab.cli", "pattern-count",
         "--pattern", "S11", "--input", "S30"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == EXIT_OK and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj["count"] == math.comb(30, 11) == 54627300


def test_free_check_certifies_the_smallest_s4_norm_graph(tmp_path, capsys, schema):
    # Cor. 1.4's witness for s = 4 at q = 3: H(3,4) is K_{4,(4-1)!+1}-free
    # (Alon, Ronyai and Szabo, JCTB 1999)
    p = tmp_path / "h34.el"
    save_edge_list(norm_graph(3, 4), p)
    code, obj = run_json(capsys, schema, "free-check", "--pattern", "K4_7",
                         "--input", str(p))
    assert code == EXIT_OK and obj == {"pattern": "K4_7", "free": True}


def test_free_check_certifies_a_10100_vertex_norm_graph(tmp_path, schema):
    # H(101,2) is C4-free: the whole class {b1, b2} of K2_2 is the tail, and
    # the second placed vertex is filtered in bulk by common neighbours
    src = Path(mexlab.__file__).resolve().parent.parent
    p = tmp_path / "h101.el"

    def run(*argv, timeout):
        return subprocess.run(
            [sys.executable, "-m", "mexlab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=timeout)

    proc = run("construct", "norm-graph", "--q", "101", "--s", "2", "--out", str(p),
               timeout=60)
    assert proc.returncode == EXIT_OK and p.exists()
    start = time.perf_counter()
    proc = run("free-check", "--pattern", "K2_2", "--input", str(p), timeout=20)
    assert time.perf_counter() - start < 20
    assert proc.returncode == EXIT_OK and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj == {"pattern": "K2_2", "free": True}


def test_bounds_report(capsys, schema):
    code, obj = run_json(capsys, schema, "bounds", "--formula", "cor14_kst",
                         "--params", "r=3,s=3")
    assert code == EXIT_OK
    assert obj["value"] == pytest.approx(1.2)
    assert obj["valueRational"] == "6/5"
    code, obj = run_json(capsys, schema, "bounds", "--formula", "thm43_multipartite",
                         "--params", "r=3,s=2+2+2")
    assert code == EXIT_OK and obj["valueRational"] == "22/15"
    code, obj = run_json(capsys, schema, "bounds", "--formula", "cor17_classifier",
                         "--params", "f=K4,t=3")
    assert code == EXIT_OK and obj["value"] is True
    code, obj = run_json(capsys, schema, "bounds", "--formula", "lemma21_constant",
                         "--params", "u=1,r=2")
    assert code == EXIT_OK and obj["value"] == 0.5


def test_bounds_unknown_formula(capsys, schema):
    code, obj = run_json(capsys, schema, "bounds", "--formula", "nope", "--params", "")
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"


def encoded(report):
    """The JSON object the CLI writes for a report object."""
    return json.loads(json.dumps(report, default=_encode))


def scalar_report(fid, params, value, rational=None):
    """The report of a formula whose bounds function returns a bare value."""
    return {"formulaId": fid, "params": params, "value": value,
            "valueRational": rational, "conditions": [], "tight": False, "aux": {}}


# (formula id, --params, the report the direct library call gives).  The
# lemma21_constant, cor14_kst and thm15_general cases include the benchmark's
# queries; scalar formulas echo the exact values they were called with.
BOUNDS_CASES = [
    ("lemma21_constant", "u=2,r=3",
     lambda: scalar_report("lemma21_constant", {"u": 2, "r": 3}, lemma_constant(2, 3))),
    ("lemma21_constant", "u=2.0,r=6/2", lambda: scalar_report(
        "lemma21_constant", {"u": 2, "r": 3}, lemma_constant(2, 3))),
    ("cor14_kst", "r=3,s=2", lambda: encoded(cor14_kst(3, 2))),
    ("cor14_kst", "r=3,s=3", lambda: encoded(cor14_kst(3, 3))),
    ("cor14_kst", "r=4,s=6.0", lambda: encoded(cor14_kst(4, 6))),
    ("thm15_general", "u=2,r=3,f=K3_4",
     lambda: encoded(thm15_general(2, 3, pattern("K3_4")))),
    ("thm15_general", "u=2,r=3,f=K3_5",
     lambda: encoded(thm15_general(2, 3, pattern("K3_5")))),
    ("thm15_general", "u=2,r=3,f=K4_4",
     lambda: encoded(thm15_general(2, 3, pattern("K4_4")))),
    ("cor12", "r=4,s=1.5", lambda: scalar_report(
        "cor12", {"r": 4, "s": "3/2"}, float(cor12_exponent(4, Fraction(3, 2))),
        str(cor12_exponent(4, Fraction(3, 2))))),
    ("cor12", "r=4,s=3/2", lambda: scalar_report(
        "cor12", {"r": 4, "s": "3/2"}, float(cor12_exponent(4, Fraction(3, 2))),
        str(cor12_exponent(4, Fraction(3, 2))))),
    ("thm13_f", "alpha=2,beta=3", lambda: scalar_report(
        "thm13_f", {"alpha": 2, "beta": 3}, float(thm13_f(2, 3)), str(thm13_f(2, 3)))),
    ("thm13_f", "alpha=1e5,beta=2", lambda: scalar_report(
        "thm13_f", {"alpha": 100000, "beta": 2}, float(thm13_f(100000, 2)),
        str(thm13_f(100000, 2)))),
    ("thm13_f", "alpha=1e+5,beta=2",  # a signed exponent, as in repr(1e16) == "1e+16"
     lambda: scalar_report("thm13_f", {"alpha": 100000, "beta": 2},
                           float(thm13_f(100000, 2)), str(thm13_f(100000, 2)))),
    ("thm13_f", "alpha=3/2,beta=5/4", lambda: scalar_report(
        "thm13_f", {"alpha": "3/2", "beta": "5/4"},
        float(thm13_f(Fraction(3, 2), Fraction(5, 4))),
        str(thm13_f(Fraction(3, 2), Fraction(5, 4))))),
    ("thm41_kst_lower", "u=2,r=3,s=3,t=4",
     lambda: encoded(thm41_kst_lower(2, 3, 3, 4))),
    ("thm43_multipartite", "r=3,s=2+2+2",
     lambda: encoded(thm43_multipartite(3, [2, 2, 2]))),
    ("thm43_multipartite", "r=3,s=1+2+2",
     lambda: encoded(thm43_multipartite(3, [1, 2, 2]))),
    ("thm43_multipartite", "r=3,s=1+1+2",
     lambda: encoded(thm43_multipartite(3, [1, 1, 2]))),
    ("remark42_one_part", "r=3,s=1+2+2",
     lambda: encoded(remark42_one_part(3, [1, 2, 2]))),
    ("remark42_one_part", "r=4,s=2+2+2+2",
     lambda: encoded(remark42_one_part(4, [2, 2, 2, 2]))),
    ("cor44_tripartite_lower", "s1=1,s2=2,s3=3",
     lambda: encoded(cor44_tripartite_lower(1, 2, 3))),
    ("cor44_tripartite_lower", "s1=2,s2=3,s3=4",
     lambda: encoded(cor44_tripartite_lower(2, 3, 4))),
    ("thm46_join_cycle", "r=4,s=1,l=4", lambda: encoded(thm46_join_cycle(4, 1, 4))),
    ("thm46_join_cycle", "r=3,s=1,l=5", lambda: encoded(thm46_join_cycle(3, 1, 5))),
    ("cor17_classifier", "f=K4,t=3", lambda: scalar_report(
        "cor17_classifier", {"f": "K4", "t": 3}, cor17_classifier(pattern("K4"), 3))),
    ("cor17_classifier", "f=C5,t=3", lambda: scalar_report(
        "cor17_classifier", {"f": "C5", "t": 3}, cor17_classifier(pattern("C5"), 3))),
]


def test_bounds_cases_cover_every_formula(schema):
    ids = schema["$defs"]["exponent"]["properties"]["formulaId"]["enum"]
    assert {fid for fid, _, _ in BOUNDS_CASES} == set(ids)


@pytest.mark.parametrize("fid,params,expected", BOUNDS_CASES)
def test_bounds_table_matches_library(fid, params, expected, capsys, schema,
                                      monkeypatch):
    calls = []
    for name, fn in list(vars(bounds_mod).items()):
        if (getattr(fn, "__module__", None) == bounds_mod.__name__
                and not isinstance(fn, type) and not name.startswith("_")):
            def record(*args, _fn=fn, _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(bounds_mod, name, record)
    code, out = run_cli(capsys, "bounds", "--formula", fid, "--params", params)
    assert code == EXIT_OK
    assert out == json.dumps(expected(), indent=2) + "\n"
    jsonschema.validate(json.loads(out), schema)
    assert calls, "a tracer rebinding bounds functions would miss this call"


def test_bounds_value_is_its_exact_value_as_a_float(capsys, schema):
    exact = 0
    for fid, params, _ in BOUNDS_CASES:
        code, obj = run_json(capsys, schema, "bounds", "--formula", fid,
                             "--params", params)
        assert code == EXIT_OK
        if obj["valueRational"] is not None:
            assert obj["value"] == float(Fraction(obj["valueRational"])), fid
            exact += 1
    assert exact, "no case has an exact value"


# One report of each kind as its JSON text, written out here so that the
# format is checked without the CLI's encoder: key names and order, exact
# rationals as text, graphs as edge lists, and (d)'s case list next to a
# non-applicable (e).
PINNED_REPORTS = [
    (["bounds", "--formula", "cor12", "--params", "r=3,s=2"],
     '{"formulaId": "cor12", "params": {"r": 3, "s": 2}, "value": 1.3333333333333333, '
     '"valueRational": "4/3", "conditions": [], "tight": false, "aux": {}}'),
    (["bounds", "--formula", "thm43_multipartite", "--params", "r=3,s=1+2+2"],
     '{"formulaId": "thm43_multipartite", "params": {"r": 3, "sizes": [1, 2, 2]}, '
     '"value": 1.4285714285714286, "valueRational": "10/7", "conditions": [], '
     '"tight": false, "aux": {"s_effective": "5/2", "improved": "5/4"}}'),
    (["extract", "--input", "K12", "--r", "4", "--alpha", "0.8", "--C", "0.5"],
     '{"threshold": 3.0879223437469046, "e1Count": 0, "e2Count": 66, "n0": 12, '
     '"cliques": {"k1": 12, "k2": 66, "k3": 220, "k4": 495}, "hypothesisMet": true, '
     '"guarantees": {'
     '"a": {"applicable": true, "passed": true, "lhs": 66.0, '
     '"rhs": 34.96880392755483, "constant": 1.224744871391589}, '
     '"b": {"applicable": true, "passed": true, "lhs": 495.0, '
     '"rhs": 203.8028746872957, "constant": 0.25}, '
     '"c": {"applicable": true, "passed": true, "lhs": 12.0, '
     '"rhs": 53.116047227067845, "constant": 2.8284271247461903}, '
     '"d": {"applicable": true, "passed": true, "lhs": null, "rhs": null, '
     '"constant": null, "cases": ['
     '{"applicable": true, "passed": true, "lhs": 66.0, '
     '"rhs": 6.387695479885833, "constant": 0.37324518028581277}, '
     '{"applicable": true, "passed": true, "lhs": 220.0, '
     '"rhs": 7.61044495134862, "constant": 0.1074942058857717}, '
     '{"applicable": true, "passed": true, "lhs": 495.0, '
     '"rhs": 6.800442257292316, "constant": 0.02321866076776481}]}, '
     '"e": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}}}'),
    (["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
      "--n", "40", "--seed", "4", "--c", "2.0"],
     '{"pattern": "K3_4", "u": 2, "r": 3, "n": 40, "seed": 4, "c": 2.0, '
     '"p": 0.2576301385940816, "clamped": false, "kuBefore": 196, "krBefore": 155, '
     '"kuAfter": 192, "krAfter": 138, "copiesFound": 18, "edgesDeleted": 4, '
     '"fFree": true}'),
    (["oracle", "mex", "--m", "4", "--target", "K3", "--forbidden", "K4"],
     '{"value": 1, "witness": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [2, 3]]}, '
     '"graphsExamined": 39, "isoClassesExamined": 20}'),
    (["count", "--input", "K2_2_2", "--max-clique", "3"],
     '{"k1": 6, "k2": 12, "k3": 8}'),
    # exponent reports with no exact value: a zero denominator, and a
    # condition that fails
    (["bounds", "--formula", "thm15_general", "--params", "u=2,r=3,f=S5"],
     '{"formulaId": "thm15_general", '
     '"params": {"u": 2, "r": 3, "pattern": "S5", "v": 6, "e": 5}, '
     '"value": null, "valueRational": null, "conditions": ['
     '{"text": "e > (r-1)/2*v + r(r-1)/2 - (r-1)", "passed": false}, '
     '{"text": "madc < (2e-r(r-1))/(v-2)", "passed": false}], '
     '"tight": false, "aux": {}}'),
    (["bounds", "--formula", "remark42_one_part", "--params", "r=3,s=2+2+2"],
     '{"formulaId": "remark42_one_part", "params": {"r": 3, "sizes": [2, 2, 2]}, '
     '"value": null, "valueRational": null, '
     '"conditions": [{"text": "smallest part size is 1", "passed": false}], '
     '"tight": false, "aux": {}}'),
    (["bounds", "--formula", "cor44_tripartite_lower", "--params", "s1=1,s2=1,s3=1"],
     '{"formulaId": "cor44_tripartite_lower", "params": {"s1": 1, "s2": 1, "s3": 1}, '
     '"value": null, "valueRational": null, "conditions": ['
     '{"text": "(s1*s2+s2*s3+s3*s1)/(s1+s2+s3) > 3/2", "passed": false}], '
     '"tight": false, "aux": {"upper": "4/3"}}'),
    (["bounds", "--formula", "cor14_kst", "--params", "r=3,s=4"],
     '{"formulaId": "cor14_kst", "params": {"r": 3, "s": 4}, '
     '"value": 1.2857142857142858, "valueRational": "9/7", "conditions": ['
     '{"text": "upper bound requires s >= 2 (and t >= s)", "passed": true}, '
     '{"text": "tightness requires t >= (s-1)!+1 = 7", "passed": null}], '
     '"tight": true, "aux": {}}'),
    (["bounds", "--formula", "thm46_join_cycle", "--params", "r=4,s=1,l=4"],
     '{"formulaId": "thm46_join_cycle", "params": {"r": 4, "s": 1, "l": 4}, '
     '"value": 1.25, "valueRational": "5/4", "conditions": ['
     '{"text": "l even and r >= s+2, or l odd and r >= s+3", "passed": true}], '
     '"tight": false, "aux": {}}'),
    # an extraction where (e) applies (alpha = 1), and one whose input
    # misses the hypothesis, so that no guarantee applies
    (["extract", "--input", "K8", "--r", "3", "--alpha", "1.0", "--C", "0.2"],
     '{"threshold": 0.5291502622129182, "e1Count": 0, "e2Count": 28, "n0": 8, '
     '"cliques": {"k1": 8, "k2": 28, "k3": 56}, "hypothesisMet": true, '
     '"guarantees": {'
     '"a": {"applicable": true, "passed": true, "lhs": 28.0, '
     '"rhs": 9.959301252572176, "constant": 0.3556893304490063}, '
     '"b": {"applicable": true, "passed": true, "lhs": 56.0, '
     '"rhs": 14.816207341961709, "constant": 0.1}, '
     '"c": {"applicable": true, "passed": true, "lhs": 8.0, '
     '"rhs": 105.83005244258362, "constant": 20.0}, '
     '"d": {"applicable": true, "passed": true, "lhs": null, "rhs": null, '
     '"constant": null, "cases": ['
     '{"applicable": true, "passed": true, "lhs": 28.0, '
     '"rhs": 0.056910292871841024, "constant": 0.000889223326122516}, '
     '{"applicable": true, "passed": true, "lhs": 56.0, '
     '"rhs": 0.0064, "constant": 1.25e-05}]}, '
     '"e": {"applicable": true, "passed": true, "lhs": 28.0, '
     '"rhs": 0.05691029287184101, "constant": 0.0008892233261225158}}}'),
    (["extract", "--input", "S10", "--r", "3", "--alpha", "1.0", "--C", "1.0"],
     '{"threshold": 1.5811388300841898, "e1Count": 10, "e2Count": 0, "n0": 0, '
     '"cliques": {"k1": 0, "k2": 0, "k3": 0}, "hypothesisMet": false, '
     '"guarantees": {'
     '"a": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}, '
     '"b": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}, '
     '"c": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}, '
     '"d": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}, '
     '"e": {"applicable": false, "passed": null, "lhs": null, "rhs": null, '
     '"constant": null}}}'),
]


def pin_ids(pins):
    """The first pin of each subcommand is named by the subcommand; a later
    one also by its arguments."""
    ids = []
    for argv, _ in pins:
        ids.append(argv[0] if argv[0] not in ids
                   else "-".join(a for a in argv if not a.startswith("--")))
    return ids


@pytest.mark.parametrize("argv,text", PINNED_REPORTS, ids=pin_ids(PINNED_REPORTS))
def test_report_text_is_pinned(argv, text, capsys):
    # json.loads keeps key order, so the re-indented text is the CLI's byte
    # for byte
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("cls,name", [
    (Condition, "condition"), (ExponentReport, "exponent"),
    (GuaranteeCases, "guarantee"), (ExtractionReport, "extraction"),
    (DeletionRun, "deletionRun"), (OracleResult, "oracleResult")])
def test_report_fields_are_the_schema_properties(cls, name, schema):
    # the CLI writes a report's fields in order under camelCase names, so a
    # renamed field would change the output; here it fails instead
    fields = [re.sub(r"_(\w)", lambda m: m[1].upper(), f.name)
              for f in dataclasses.fields(cls)]
    assert fields == list(schema["$defs"][name]["properties"])


def test_only_guarantee_d_has_cases():
    names = [f.name for f in dataclasses.fields(GuaranteeCheck)]
    assert names + ["cases"] == [f.name for f in dataclasses.fields(GuaranteeCases)]


@pytest.mark.parametrize("fid,params,key", [
    ("cor12", "r=3,s=1/0", "s"),
    ("cor12", "r=4,s=1/0", "s"),
    ("cor12", "r=3,s=abc", "s"),
    ("cor14_kst", "r=7/2,s=3", "r"),
    ("cor14_kst", "r=3.9,s=3", "r"),
    ("cor14_kst", "r=1+2,s=3", "r"),
    ("cor14_kst", "r=inf,s=3", "r"),
    ("cor14_kst", "r=3", "s"),
    ("thm13_f", "alpha=nan,beta=2", "alpha"),
    ("thm13_f", "alpha=2,beta=inf", "beta"),
    ("thm43_multipartite", "r=3,s=1/2", "s"),
    ("thm43_multipartite", "r=3,s=abc", "s"),
    ("thm43_multipartite", "r=3,s=1+x", "s"),
    # a repeated key, whose last value was used
    ("lemma21_constant", "u=2,r=3,r=4", "r"),
    ("cor14_kst", "r=3,s=2,s=9", "s"),
    # a key the formula does not take, which was dropped or echoed
    ("cor12", "r=3,s=2,note=abc", "note"),
    ("cor14_kst", "r=3,s=3,t=2", "t"),
    # an exponent Fraction would expand into ten million digits
    ("thm13_f", "alpha=1e10000000,beta=2", "alpha"),
])
def test_bounds_rejects_malformed_params(fid, params, key, capsys, schema):
    start = time.perf_counter()
    code, out = run_cli(capsys, "bounds", "--formula", fid, "--params", params)
    assert time.perf_counter() - start < 1
    obj = json.loads(out, parse_constant=pytest.fail)
    jsonschema.validate(obj, schema)
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"
    assert repr(key) in obj["message"]


def test_bounds_pattern_param_takes_a_path(tmp_path, capsys, schema):
    # A '/' in a pattern parameter is part of a path, not a fraction.
    path = tmp_path / "k33.el"
    save_edge_list(pattern("K3_3").graph, path)
    code, from_path = run_json(capsys, schema, "bounds", "--formula", "thm15_general",
                               "--params", f"u=2,r=3,f={path}")
    assert code == EXIT_OK
    code, from_literal = run_json(capsys, schema, "bounds", "--formula",
                                  "thm15_general", "--params", "u=2,r=3,f=K3_3")
    assert code == EXIT_OK
    assert from_path["params"].pop("pattern") == str(path)
    assert from_literal["params"].pop("pattern") == "K3_3"
    assert from_path == from_literal


def test_bounds_pattern_param_is_read_by_the_pattern_bound_at_call_time(
        tmp_path, capsys, monkeypatch):
    # A wrapper rebound over cli.pattern, as a tracer binds one, is what runs,
    # and the parameter still keeps its raw text, '+' and '/' included.
    path = str(tmp_path / "k3+4.el")
    save_edge_list(pattern("K3_4").graph, path)
    argv = ["bounds", "--formula", "thm15_general", "--params", f"u=2,r=3,f={path}"]
    plain = run_cli(capsys, *argv)
    calls = []
    monkeypatch.setattr("mexlab.cli.pattern", lambda text: calls.append(text) or pattern(text))
    assert run_cli(capsys, *argv) == plain and plain[0] == EXIT_OK
    assert calls == [path]


@pytest.mark.parametrize("fid,params", [
    ("thm13_f", f"alpha=2,beta={10 ** 400}"),  # int too large to convert to float
    ("cor12", f"r={10 ** 400},s={10 ** 400}"),  # the exact value r/2
])
def test_bounds_rejects_values_beyond_float_range(fid, params, capsys, schema):
    code, out = run_cli(capsys, "bounds", "--formula", fid, "--params", params)
    obj = json.loads(out, parse_constant=pytest.fail)
    jsonschema.validate(obj, schema)
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"


def test_bounds_says_a_denominator_is_zero(capsys, schema):
    code, obj = run_json(capsys, schema, "bounds", "--formula", "cor12",
                         "--params", "r=4,s=1/0")
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "parameter 's' of cor12: the denominator of '1/0' is zero"}


def test_bounds_names_a_report_value_too_long_to_print(capsys, schema):
    # each part is a 4,999-digit integer, which Python will not print
    part = "9" * 4000 + "e999"
    code, obj = run_json(capsys, schema, "bounds", "--formula", "cor44_tripartite_lower",
                         "--params", f"s1={part},s2={part},s3={part}")
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "cor44_tripartite_lower: a report value has over 4,300 digits"}


@settings(max_examples=300, deadline=None)
@given(text=st.from_regex(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]{1,3})?",
                          fullmatch=True))
def test_number_reads_decimal_text_exactly(text):
    # decimal, a reader that shares no code with _number, is the reference
    expected = Fraction(Decimal(text))
    value = _number(text)
    assert value == expected
    assert isinstance(value, int) == (expected.denominator == 1)


def test_bounds_reads_a_decimal_parameter_exactly(capsys, schema):
    code, obj = run_json(capsys, schema, "bounds", "--formula", "cor12",
                         "--params", "r=4,s=1.5")
    assert code == EXIT_OK
    assert obj["params"] == {"r": 4, "s": "3/2"}
    assert obj["valueRational"] == "9/7"
    assert obj["value"] == float(Fraction(9, 7))


_PARAM_KEYS = sorted({"u", "r", "s", "t", "l", "s1", "s2", "s3", "alpha", "beta", "x"})
_PARAM_TOKENS = ["0", "1", "2", "3", "4", "5", "-1", "3.0", "1.5", "2.5", "6/2",
                 "7/2", "1/0", "-3/2", "nan", "inf", "-inf", "1e400", str(10 ** 400),
                 "abc", "", "1+2", "1+2+2", "2+2+2", "1+1+1+1", "2+x", "0.1",
                 "1e999", "1e-999", "1e1000", "1e99999999", "3/-2", "1_0"]
_PATTERN_LITERALS = ["K3", "K4", "K3_3", "K3_4", "K2_2_2", "C5", "S3"]


@settings(max_examples=400, deadline=None)
@given(fid=st.sampled_from(sorted({fid for fid, _, _ in BOUNDS_CASES}) + ["nope"]),
       pairs=st.lists(st.one_of(
           st.tuples(st.sampled_from(_PARAM_KEYS),
                     st.one_of(st.sampled_from(_PARAM_TOKENS),
                               st.integers(-5, 40).map(str))),
           st.tuples(st.just("f"), st.sampled_from(_PATTERN_LITERALS))),
           max_size=6))
def test_bounds_params_fuzz(fid, pairs, schema):
    params = ",".join(f"{k}={v}" for k, v in pairs)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["bounds", "--formula", fid, "--params", params])
    assert code in (EXIT_OK, EXIT_VALIDATION)
    validator = jsonschema.Draft202012Validator(schema)  # validate() rebuilds it per call
    validator.validate(json.loads(buf.getvalue(), parse_constant=pytest.fail))


def test_cli_import_leaves_numpy_unloaded():
    src = Path(mexlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mexlab.cli; sys.exit('numpy' in sys.modules)"],
        env=env, timeout=60)
    assert proc.returncode == 0


def test_extract_cli(tmp_path, capsys, schema):
    g = complete(8)
    src = tmp_path / "k8.el"
    save_edge_list(g, src)
    report_path = tmp_path / "rep.json"
    out_path = tmp_path / "out.el"
    code, out = run_cli(capsys, "extract", "--input", str(src), "--r", "3",
                        "--alpha", "1", "--C", "0.2",
                        "--report", str(report_path), "--out", str(out_path))
    assert code == EXIT_OK
    obj = json.loads(report_path.read_text())
    jsonschema.validate(obj, schema)
    assert obj["hypothesisMet"] is True and obj["e1Count"] == 0
    assert load_edge_list(out_path) == g


def test_extract_reports_an_unmet_hypothesis_whatever_its_constants(capsys, schema):
    # tau = C sqrt(10) / 2 is finite; the guarantee constants of C = 1e200
    # are not, but the hypothesis fails, so none is derived.
    code, obj = run_json(capsys, schema, "extract", "--input", "K5", "--r", "3",
                         "--alpha", "1", "--C", "1e200")
    assert code == EXIT_OK and obj["hypothesisMet"] is False
    assert sorted(obj["guarantees"]) == list("abcde")
    assert all(gu["applicable"] is False for gu in obj["guarantees"].values())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: extract decides the "
                   "hypothesis in floats, where C * 216 rounds to 84.0")
def test_extract_near_tie_misses_the_hypothesis(capsys, schema):
    # K9 has m = 36 and k3 = 84; the hypothesis k3 >= C m^(3/2) = 216 C
    # fails for the typed decimal and for its double alike.
    C = "0.3888888888888889"
    assert Fraction(C) * 216 > 84 and Fraction(float(C)) * 216 > 84
    code, obj = run_json(capsys, schema, "extract", "--input", "K9", "--r", "3",
                         "--alpha", "1.0", "--C", C)
    assert code == EXIT_OK and obj["cliques"]["k3"] == 84
    assert obj["hypothesisMet"] is False


def test_construct_norm_graph_round_trip(tmp_path, capsys, schema):
    out = tmp_path / "h.el"
    code, obj = run_json(capsys, schema, "construct", "norm-graph",
                         "--q", "5", "--s", "2", "--out", str(out))
    assert code == EXIT_OK
    assert obj["n"] == 20 and obj["m"] == 38
    assert load_edge_list(out) == norm_graph(5, 2)


def test_construct_deletion_cli(tmp_path, capsys, schema):
    out = tmp_path / "g.el"
    code, obj = run_json(capsys, schema, "construct", "deletion",
                         "--pattern", "K3_4", "--u", "2", "--r", "3",
                         "--n", "40", "--seed", "1", "--out", str(out))
    assert code == EXIT_OK
    assert obj["fFree"] is True and obj["seed"] == 1
    assert load_edge_list(out).m == obj["kuAfter"]


def test_construct_deletion_condition_failure(capsys, schema):
    code, obj = run_json(capsys, schema, "construct", "deletion",
                         "--pattern", "K3_3", "--u", "2", "--r", "3",
                         "--n", "60", "--seed", "1")
    assert code == EXIT_VALIDATION
    assert obj["failedCondition"] == "madc < (2e-r(r-1))/(v-2)"


def test_oracle_cli(capsys, schema):
    code, obj = run_json(capsys, schema, "oracle", "mex", "--m", "4",
                         "--target", "K1_2", "--forbidden", "K2_2")
    assert code == EXIT_OK and obj["value"] == 6
    witness = read_edge_list(
        f"{obj['witness']['n']} {len(obj['witness']['edges'])}\n"
        + "".join(f"{u} {v}\n" for u, v in obj["witness"]["edges"]))
    assert witness.m == 4
    code, obj = run_json(capsys, schema, "oracle", "ex", "--n", "5",
                         "--target", "K3", "--forbidden", "K2_2")
    assert code == EXIT_OK and obj["value"] == 2


# sha256 of the stdout of `oracle mex` and `oracle ex` past the sizes that
# the benchmark's queries reach (m <= 7, n <= 7), taken before the oracle
# labeled classes on demand: value, witness and both counters must not move.
ORACLE_REPORT_SHA256 = {
    ("mex", 8, "K3", "K4"): "3bd8142a6c4e544c8386b67489f616ddca643be75ac4a724091b888a42d16059",
    ("mex", 8, "K3", "K5"): "eb06189b4aba989c74d5c00f70e2337a4dfdb0ae5a1fa108b2b10edff7b73a7a",
    ("mex", 8, "K3", "C5"): "240b0d87d94c8987d2b2e3df88e72259deaac38e4341b421fbf7a09410a918d5",
    ("mex", 8, "K3", "K2_3"): "527f599f1ec89c9fb51eca10a5b41a0eb4b478497b6f484cf89b75ff842a37dd",
    ("mex", 9, "K3", "K4"): "1e39cddb4ec57f6a0110b637177e1b614c54ff1100b6745e7f8cb3c37d4e118a",
    ("mex", 9, "K3", "K5"): "f019cda9cdf6a4b979ff0c50676b70d5ea0cbeaa12beb9dfcb8da53ebf229d62",
    ("mex", 9, "K3", "C5"): "b9adefb03faae3a2fefa415abf234f16246cd902a33bcf9bb12285ee022aa85d",
    ("mex", 9, "K3", "K2_3"): "41bd7002f04be71d4ac06799d38df4afa0a51638a60dac781eb65dc4680c0113",
    ("mex", 10, "K3", "K4"): "5551ea1898e3715c1ff75bd151474922603797768c1988cc06831ac85be83e53",
    ("mex", 10, "K3", "K5"): "9e993c63f8e0fb48e8d57169824e01667b58ef69579a95740a46c87b507c28ff",
    ("mex", 10, "K3", "C5"): "cc6c358dd1d8fdb896edf23925704b51dacaff5a26b82b0f0e92b1de3170a582",
    ("mex", 10, "K3", "K2_3"): "772c9bcb47fe6508a54703050cd7d331add6272c1bbb14799cdb86e79f2534db",
    ("mex", 9, "2K2", "K4"): "77e1f5afcf21edae3423bfabda34cc060b5f05e1d6bffe06ee145ae65999e019",
    ("mex", 9, "2K2", "K5"): "397ee3ed44fb50a8967efb0a062d8ad5ca642ad6620aa7f095a0938069343ee8",
    ("mex", 9, "2K2", "C5"): "767ac4d1f45f6ddd6eefc1ba419a6b72340a027dd874303e7557bdc0637668d8",
    ("mex", 9, "2K2", "K2_3"): "3c3c253e5a406206163999fcaf0bc81af3c53da27f2e4050951882ff9c471213",
    ("ex", 8, "K3", "K4"): "9fe0c3fb79087e642884a41842c8955fbce680cc1f548f650e8519cfc1f98c05",
    ("ex", 8, "K3", "C5"): "1ab2ffef003b2c05e050a2e8ca26bf2791ae84ae131d9d5c9cf5442b71aa64ec",
}


@pytest.mark.parametrize("mode,size,target,forbidden", sorted(ORACLE_REPORT_SHA256))
def test_oracle_reports_past_the_benchmark_are_pinned(mode, size, target, forbidden,
                                                      tmp_path, capsys):
    arg = target
    if target == "2K2":
        arg = tmp_path / "2K2.el"
        arg.write_text("4 2\n0 1\n2 3\n")
    code, out = run_cli(capsys, "oracle", mode, "--m" if mode == "mex" else "--n",
                        str(size), "--target", str(arg), "--forbidden", forbidden)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_REPORT_SHA256[
        mode, size, target, forbidden]


def test_oracle_mex_returns_a_value_at_the_edge_cap(capsys, schema):
    # m = 11 was refused with exit 2 while the cap was 10
    code, obj = run_json(capsys, schema, "oracle", "mex", "--m", "11",
                         "--target", "K3", "--forbidden", "K4")
    assert code == EXIT_OK and obj["value"] == 6


def test_oracle_answers_iff_it_examines_at_most_its_budget(capsys, schema, monkeypatch):
    # tests/test_oracle.py pins mex(8, K3, K4) at 4,714 graphs and 778 classes
    argv = ["oracle", "mex", "--m", "8", "--target", "K3", "--forbidden", "K4"]
    monkeypatch.setattr("mexlab.oracle.ORACLE_MAX_GRAPHS", 4714)
    code, obj = run_json(capsys, schema, *argv)
    assert code == EXIT_OK
    assert (obj["value"], obj["graphsExamined"], obj["isoClassesExamined"]) == (4, 4714, 778)
    monkeypatch.setattr("mexlab.oracle.ORACLE_MAX_GRAPHS", 4713)
    code, obj = run_json(capsys, schema, *argv)
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "over the oracle's budget: the query examines more than 4,713 graphs"}


def test_oracle_refuses_ex_past_the_edge_list_cap_before_enumerating(capsys, schema,
                                                                     monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("_children ran")

    monkeypatch.setattr("mexlab.oracle._children", enumerate_nothing)
    code, obj = run_json(capsys, schema, "oracle", "ex", "--n", "50001",
                         "--target", "K2", "--forbidden", "K3")
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params", "message": "vertex count 50001 exceeds cap 50000"}


def test_oracle_mex_needs_no_cap_on_m(capsys, schema):
    # only the empty graph is K2-free, so the levels stop at the first
    start = time.perf_counter()
    code, obj = run_json(capsys, schema, "oracle", "mex", "--m", "1000000",
                         "--target", "K2", "--forbidden", "K2")
    assert time.perf_counter() - start < 1
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "no admissible graph with the requested edge count"}


def test_experiment_cli(tmp_path, capsys, schema):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "tripartite", "n": [16, 32, 64]}))
    csv_path = tmp_path / "rows.csv"
    code, obj = run_json(capsys, schema, "experiment", str(spec),
                         "--csv", str(csv_path))
    assert code == EXIT_OK and obj["rows"] == 3
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "family,param,n,m,k2,k3,k4,predicted_exponent,fitted_slope"
    assert len(lines) == 4
    first = csv_path.read_bytes()
    assert main(["experiment", str(spec), "--csv", str(csv_path)]) == EXIT_OK
    capsys.readouterr()
    assert csv_path.read_bytes() == first  # byte-for-byte reproducible


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"family": "norm_graph", "q": 5},
    {"family": "norm_graph", "q": [5, 7, None]},
    {"family": "norm_graph", "q": [5, 5, 5]},
    {"family": "tripartite", "n": [16, 32.9, 64]},  # was run as n = 32
    {"family": "norm_graph", "q": [5, 7, 11], "s": 2.5},
    # were run as seeds 1, 0, 1 and as c = 1.5
    {"family": "deletion", "n": [30, 60], "pattern": "K3_4",
     "seeds": [True, False, True]},
    {"family": "deletion", "n": [30, 60], "pattern": "K3_4", "seeds": [1, 2],
     "c": "1.5"},
])
def test_experiment_rejects_malformed_spec(spec, tmp_path, capsys, schema):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, obj = run_json(capsys, schema, "experiment", str(path),
                         "--csv", str(tmp_path / "rows.csv"))
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"
    assert not (tmp_path / "rows.csv").exists()


def refuse_experiment(spec, tmp_path, capsys, schema, monkeypatch):
    """The message of a spec refused before any graph is built."""
    def build(*args):
        raise AssertionError("a graph was built")

    for name in ("norm_graph", "complete_multipartite", "deletion_method", "pattern"):
        monkeypatch.setattr(f"mexlab.constructions.{name}", build)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, obj = run_json(capsys, schema, "experiment", str(path),
                         "--csv", str(tmp_path / "rows.csv"))
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"
    assert not (tmp_path / "rows.csv").exists()
    return obj["message"]


@pytest.mark.parametrize("spec", [
    # cor14_kst is k_r against edges; the fit was k3 against k3
    {"family": "norm_graph", "q": [3, 5, 7], "s": 3, "u": 3, "r": 3},
    # 11/9 is k3 against k2; the fit was k2 against k3
    {"family": "tripartite", "n": [64, 125, 216], "u": 3, "r": 2},
])
def test_experiment_refuses_clique_sizes_its_prediction_is_not_for(
        spec, tmp_path, capsys, schema, monkeypatch):
    message = refuse_experiment(spec, tmp_path, capsys, schema, monkeypatch)
    assert message.startswith(f"{spec['family']} predicts ")


# Most specs also fail a later check, so the table pins the
# order of the checks as well as their messages.
@pytest.mark.parametrize("spec,message", [
    ([1, 2], "experiment spec must be a JSON object"),
    ({"family": "gnp", "q": 5}, "unknown experiment family 'gnp'"),
    ({"family": "norm_graph", "q": 5, "n": 5},
     "experiment spec field 'q' must be a list"),
    ({"family": "deletion", "n": 16, "seeds": 1},
     "experiment spec field 'n' must be a list"),
    ({"family": "deletion", "n": [16], "seeds": 1, "c": "x"},
     "experiment spec field 'seeds' must be a list"),
    ({"family": "deletion", "n": [16], "c": 10 ** 400, "u": 9},
     "experiment spec: int too large to convert to float"),
    ({"family": "tripartite", "u": 2.5, "q": [None]},
     "experiment spec: must be an integer, got 2.5"),
    ({"family": "tripartite", "n": [16, 32], "u": 1},
     "u = 1 and r = 3 must lie in 2..4"),
    ({"family": "norm_graph", "q": [5, 7], "r": 5},
     "u = 2 and r = 5 must lie in 2..4"),
    ({"family": "tripartite", "n": [16, 32], "r": 4},
     "need 3..32 instances to fit a slope, got 2"),
    ({"family": "deletion", "n": list(range(30, 41)), "seeds": [1, 2, 3],
      "pattern": "K2_2_2", "u": 3}, "need 3..32 instances to fit a slope, got 33"),
    ({"family": "norm_graph", "q": [5, 7, 11], "u": 3, "r": 2},
     "norm_graph predicts k_r against k2 only: u = 3"),
    ({"family": "tripartite", "n": [16, 32, 10 ** 5], "r": 4},
     "tripartite predicts k3 against k2 only: u = 2, r = 4"),
    ({"family": "tripartite", "n": [16, 32, 10 ** 5]},
     "tripartite n = 100000 exceeds cap 50000"),
    # refused by their own check, before math.isqrt or the part sizes see them
    ({"family": "tripartite", "n": [8, 9, -1]},
     "tripartite n = -1 must be a positive integer"),
    ({"family": "tripartite", "n": [0, 8, 9]},
     "tripartite n = 0 must be a positive integer"),
])
def test_experiment_refusal_order(spec, message, tmp_path, capsys, schema,
                                  monkeypatch):
    assert refuse_experiment(spec, tmp_path, capsys, schema, monkeypatch) == message


@pytest.mark.parametrize("spec,message", [
    ({"family": "norm_graph", "q": [5, 7, 11], "s": 3, "r": 2}, "r must be >= 3"),
    # q = 4 is not prime, and s = 1 is refused by norm_graph too
    ({"family": "norm_graph", "q": [4, 5, 7], "r": 2}, "r must be >= 3"),
    ({"family": "norm_graph", "q": [5, 7, 11], "s": 1}, "s must lie in 2..1000"),
])
def test_experiment_prediction_refuses_before_any_graph_is_built(
        spec, message, tmp_path, capsys, schema, monkeypatch):
    assert refuse_experiment(spec, tmp_path, capsys, schema, monkeypatch) == message


def test_experiment_refuses_a_fit_of_equal_counts(tmp_path, capsys, schema):
    # three copies of K8,2,2 have 36 edges each: there is no slope to fit,
    # though the float spread of the three logs is not zero
    spec, csv_path = tmp_path / "spec.json", tmp_path / "rows.csv"
    spec.write_text(json.dumps({"family": "tripartite", "n": [8, 8, 8]}))
    code, obj = run_json(capsys, schema, "experiment", str(spec), "--csv", str(csv_path))
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "log-log fit needs at least two distinct x values"}
    assert not csv_path.exists()


# The report and CSV of one spec per family, byte for byte.
PINNED_EXPERIMENTS = [
    ({"family": "norm_graph", "q": [5, 7, 11], "s": 2},
     '{\n'
     '  "family": "norm_graph",\n'
     '  "rows": 3,\n'
     '  "predictedExponent": 1.0,\n'
     '  "fittedSlope": 1.273896985128491,\n'
     '  "csv": "rows.csv"\n'
     '}\n',
     "family,param,n,m,k2,k3,k4,predicted_exponent,fitted_slope\n"
     "norm_graph,q=5,20,38,38,4,0,1.0,1.273896985128491\n"
     "norm_graph,q=7,42,123,123,20,0,1.0,1.273896985128491\n"
     "norm_graph,q=11,110,545,545,120,0,1.0,1.273896985128491\n"),
    ({"family": "tripartite", "n": [16, 32, 64]},
     '{\n'
     '  "family": "tripartite",\n'
     '  "rows": 3,\n'
     '  "predictedExponent": 1.2222222222222223,\n'
     '  "fittedSlope": 1.3585611298301683,\n'
     '  "csv": "rows.csv"\n'
     '}\n',
     "family,param,n,m,k2,k3,k4,predicted_exponent,fitted_slope\n"
     "tripartite,n=16,22,104,104,128,0,1.2222222222222223,1.3585611298301683\n"
     "tripartite,n=32,40,271,271,480,0,1.2222222222222223,1.3585611298301683\n"
     "tripartite,n=64,76,800,800,2048,0,1.2222222222222223,1.3585611298301683\n"),
    ({"family": "deletion", "pattern": "K2_2_2", "u": 2, "r": 3, "n": [30, 40],
      "seeds": [1, 2], "c": 1.3},
     '{\n'
     '  "family": "deletion",\n'
     '  "rows": 4,\n'
     '  "predictedExponent": 1.0714285714285714,\n'
     '  "fittedSlope": 1.0421343541628578,\n'
     '  "csv": "rows.csv"\n'
     '}\n',
     "family,param,n,m,k2,k3,k4,predicted_exponent,fitted_slope\n"
     "deletion,n=30;seed=1,30,121,121,99,14,1.0714285714285714,1.0421343541628578\n"
     "deletion,n=30;seed=2,30,121,121,91,19,1.0714285714285714,1.0421343541628578\n"
     "deletion,n=40;seed=1,40,208,208,183,26,1.0714285714285714,1.0421343541628578\n"
     "deletion,n=40;seed=2,40,181,181,122,16,1.0714285714285714,1.0421343541628578\n"),
]


@pytest.mark.parametrize("spec,report,rows", PINNED_EXPERIMENTS,
                         ids=[spec["family"] for spec, _, _ in PINNED_EXPERIMENTS])
def test_experiment_output_is_pinned(spec, report, rows, tmp_path, capsys,
                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(spec))
    assert run_cli(capsys, "experiment", "spec.json", "--csv", "rows.csv") == (
        EXIT_OK, report)
    assert Path("rows.csv").read_bytes() == rows.encode()


# Every argument that names a graph: an argv with "{}" in the graph's place
# and the literal that fills it.  The experiment argv names a deletion spec
# whose pattern "{}" fills.
GRAPH_ARGUMENTS = [
    pytest.param(["count", "--input", "{}", "--max-clique", "3"], "K2_2_2",
                 id="count"),
    pytest.param(["participation", "--input", "{}", "--r", "3"], "K4",
                 id="participation"),
    pytest.param(["extract", "--input", "{}", "--r", "3", "--alpha", "1.0", "--C",
                  "0.2"], "K8", id="extract"),
    pytest.param(["pattern-count", "--pattern", "{}", "--input", "K2_3"], "C4",
                 id="pattern-count-pattern"),
    pytest.param(["pattern-count", "--pattern", "C4", "--input", "{}"], "K2_3",
                 id="pattern-count-input"),
    pytest.param(["free-check", "--pattern", "{}", "--input", "S5"], "K3",
                 id="free-check-pattern"),
    pytest.param(["free-check", "--pattern", "K3", "--input", "{}"], "S5",
                 id="free-check-input"),
    pytest.param(["construct", "deletion", "--pattern", "{}", "--u", "2", "--r", "3",
                  "--n", "40", "--seed", "4", "--c", "2.0"], "K3_4", id="deletion"),
    pytest.param(["oracle", "mex", "--m", "4", "--target", "{}", "--forbidden", "K4"],
                 "K3", id="mex-target"),
    pytest.param(["oracle", "mex", "--m", "4", "--target", "K3", "--forbidden", "{}"],
                 "K4", id="mex-forbidden"),
    pytest.param(["oracle", "ex", "--n", "5", "--target", "{}", "--forbidden", "K2_2"],
                 "K3", id="ex-target"),
    pytest.param(["oracle", "ex", "--n", "5", "--target", "K3", "--forbidden", "{}"],
                 "K2_2", id="ex-forbidden"),
    pytest.param(["bounds", "--formula", "thm15_general", "--params", "u=2,r=3,f={}"],
                 "K3_4", id="bounds-thm15"),
    pytest.param(["bounds", "--formula", "cor17_classifier", "--params", "f={},t=3"],
                 "C5", id="bounds-cor17"),
    pytest.param(["experiment", "spec.json", "--csv", "rows.csv"], "K3_4",
                 id="experiment"),
]


@pytest.mark.parametrize("argv,literal", GRAPH_ARGUMENTS)
def test_a_graph_argument_takes_a_literal_or_an_edge_list_path(
        argv, literal, tmp_path, capsys, schema, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph, bad, binary, missing = (str(tmp_path / name) for name in (
        "graph.el", "bad.el", "binary.el", "missing.el"))
    save_edge_list(parse_pattern_literal(literal), graph)
    Path(bad).write_text("3 x\n")
    Path(binary).write_bytes(b"2 1\n0 \xff\n")
    rows = Path("rows.csv")

    def run(name):
        Path("spec.json").write_text(json.dumps({
            "family": "deletion", "pattern": name, "n": [30, 40, 50], "seeds": [1, 2]}))
        rows.unlink(missing_ok=True)
        code, out = run_cli(capsys, *(a.replace("{}", name) for a in argv))
        jsonschema.validate(json.loads(out), schema)
        csv_bytes = rows.read_bytes() if rows.exists() else None
        # the name is echoed only as a whole JSON string
        return code, out.replace(json.dumps(name), '"{}"'), csv_bytes

    code, out, csv_bytes = run(literal)
    assert code == EXIT_OK and (csv_bytes is not None) == (argv[0] == "experiment")
    assert run(graph) == (code, out, csv_bytes)
    for path in (bad, binary):
        code, out, csv_bytes = run(path)
        obj = json.loads(out)
        assert (code, obj["code"], csv_bytes) == (EXIT_VALIDATION, "invalid-input", None)
        assert obj["message"].startswith(f"{path}: ")
    code, out, csv_bytes = run(missing)
    assert (code, json.loads(out)["code"], csv_bytes) == (EXIT_IO, "io-error", None)


def test_experiment_pattern_may_be_a_graph_with_no_literal(tmp_path, capsys, schema,
                                                           monkeypatch):
    # The wheel K_1 v C_4, a K_s v C_l of thm46_join_cycle, meets the thm15
    # conditions at (u, r) = (2, 3).
    monkeypatch.chdir(tmp_path)
    text = "5 8\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n1 4\n"
    Path("wheel.el").write_text(text)
    Path("spec.json").write_text(json.dumps(
        {"family": "deletion", "pattern": "wheel.el", "n": [30, 40, 50]}))
    code, obj = run_json(capsys, schema, "experiment", "spec.json", "--csv", "rows.csv")
    assert code == EXIT_OK and obj["rows"] == 3
    assert obj["predictedExponent"] == thm15_general(
        2, 3, Pattern(read_edge_list(text))).value


_DELETION_SPEC = {"family": "deletion", "n": [30, 40, 50]}


@pytest.mark.parametrize("spec", [_DELETION_SPEC] + [
    {**_DELETION_SPEC, "pattern": value} for value in (5, ["K3_4"], None, "")])
def test_experiment_refuses_a_pattern_that_names_no_graph(
        spec, tmp_path, capsys, schema, monkeypatch):
    message = refuse_experiment(spec, tmp_path, capsys, schema, monkeypatch)
    assert message == ("experiment spec: pattern must be a literal or an edge-list "
                       f"path, got {spec.get('pattern')!r}")


def test_exit_codes(capsys, schema):
    code, obj = run_json(capsys, schema, "frobnicate")
    assert code == EXIT_USAGE and obj["code"] == "unknown-command"
    code, obj = run_json(capsys, schema, "count", "--input", "/no/such/file.el",
                         "--max-clique", "3")
    assert code == EXIT_IO and obj["code"] == "io-error"
    code, obj = run_json(capsys, schema, "count", "--input", "K5")
    assert code == EXIT_VALIDATION and obj["code"] == "usage"
    code, obj = run_json(capsys, schema, "count", "--input", "K5",
                         "--max-clique", "0")
    assert code == EXIT_VALIDATION
    for threads in ("0", "4"):  # no such option
        code, obj = run_json(capsys, schema, "--threads", threads, "count",
                             "--input", "K5", "--max-clique", "3")
        assert code == EXIT_VALIDATION and obj["code"] == "usage"


@pytest.mark.parametrize("argv", [[], ["construct"], ["oracle"]])
def test_a_missing_subcommand_is_a_usage_error(argv, capsys, schema):
    code, obj = run_json(capsys, schema, *argv)
    assert code == EXIT_VALIDATION and obj["code"] == "usage"


def test_main_gives_the_same_results_run_again_in_one_process(tmp_path, capsys):
    # One parser serves every call, so no call may depend on the ones before.
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    k8 = inputs / "k8.el"
    save_edge_list(complete(8), k8)
    spec = inputs / "spec.json"
    spec.write_text(json.dumps({"family": "tripartite", "n": [16, 32, 64]}))
    argvs = [
        ["count", "--input", str(k8), "--max-clique", "3", "--out", str(out / "c.json")],
        ["count", "--input", str(inputs / "missing.el"), "--max-clique", "3"],
        ["count", "--input", "K5"],
        ["participation", "--input", "K4", "--r", "3"],
        ["pattern-count", "--pattern", "C4", "--input", "K2_3"],
        ["free-check", "--pattern", "K3", "--input", "S5"],
        ["extract", "--input", str(k8), "--r", "3", "--alpha", "1", "--C", "0.2",
         "--report", str(out / "rep.json"), "--out", str(out / "x.el")],
        ["extract", "--input", "K8", "--r", "21", "--alpha", "1", "--C", "1"],
        ["bounds", "--formula", "cor14_kst", "--params", "r=3,s=3"],
        ["bounds", "--formula", "nope"],
        ["construct", "norm-graph", "--q", "5", "--s", "2", "--out", str(out / "h.el")],
        ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
         "--n", "40", "--seed", "1", "--out", str(out / "g.el"),
         "--report", str(out / "del.json")],
        ["construct"],
        ["oracle", "mex", "--m", "4", "--target", "K1_2", "--forbidden", "K2_2"],
        ["oracle", "ex", "--n", "5", "--target", "K3", "--forbidden", "K2_2"],
        ["oracle"],
        ["experiment", str(spec), "--csv", str(out / "rows.csv")],
        ["frobnicate"],
        ["--threads", "4", "count", "--input", "K5", "--max-clique", "3"],
        [],
    ]
    assert {argv[0] for argv in argvs if argv} >= set(_COMMANDS)

    def run(argv):
        code = main(list(argv))
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        for path in out.iterdir():
            path.unlink()
        return code, capsys.readouterr().out, files

    forward = [run(argv) for argv in argvs]
    backward = [run(argv) for argv in reversed(argvs)][::-1]
    for argv, first, again in zip(argvs, forward, backward):
        assert first == again, argv
    assert {code for code, _, _ in forward} == {EXIT_OK, EXIT_VALIDATION, EXIT_USAGE,
                                                EXIT_IO}
    assert sum(len(files) for _, _, files in forward) == 7  # every file asked for


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = _Parser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Parser, "__init__", counted_init)
    _build_parser()
    assert len(built) > 1  # the counter sees the top parser and its subparsers
    built.clear()
    for argv in (["bounds", "--formula", "cor14_kst", "--params", "r=3,s=2"],
                 ["count", "--input", "K4", "--max-clique", "3"],
                 ["construct"], ["count"], ["frobnicate"], []):
        main(argv)
    capsys.readouterr()
    assert built == []


def test_deep_clique_sizes_exit_zero(capsys, schema):
    # Both used to recurse once per clique vertex and end in a RecursionError
    # traceback with exit 1.
    code, obj = run_json(capsys, schema, "count", "--input", "K1100",
                         "--max-clique", "1100")
    assert code == EXIT_OK
    assert [obj[f"k{r}"] for r in range(1, 1101)] == [
        math.comb(1100, r) for r in range(1, 1101)]
    with recursion_headroom(60):
        code, out = run_cli(capsys, "participation", "--input", "K70", "--r", "70")
    obj = json.loads(out)
    jsonschema.validate(obj, schema)
    assert code == EXIT_OK and len(obj["participation"]) == 70 * 69 // 2
    assert {count for _, _, count in obj["participation"]} == {1}


# Literal hosts of at most 60 vertices, plus names that are not hosts.  A
# multipartite host has at most 4 parts: it has the product of its part sizes
# as maximal cliques, and the clique tree visits each of them.
_FUZZ_HOSTS = st.one_of(
    st.integers(0, 60).map(lambda n: f"K{n}"),
    st.integers(0, 60).map(lambda n: f"C{n}"),
    st.integers(0, 59).map(lambda n: f"S{n}"),
    st.lists(st.integers(1, 15), min_size=2, max_size=4).map(
        lambda sizes: "K" + "_".join(map(str, sizes))),
    st.sampled_from(["K", "C_3", "no-such-host.el"]))
_FUZZ_BUDGET_S = 5.0


def run_fuzz_case(argv, schema):
    """Run argv in process: the exit code is a documented one, stdout is
    one strict-JSON report of the schema, and the run keeps the budget.
    Returns the exit code and the report."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_IO), argv
    report = json.loads(buf.getvalue(), parse_constant=pytest.fail)
    jsonschema.Draft202012Validator(schema).validate(report)
    assert elapsed < _FUZZ_BUDGET_S, (argv, elapsed)
    return code, report


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from([("count", "--max-clique"), ("participation", "--r")]),
       host=_FUZZ_HOSTS,
       size=st.one_of(st.integers(-5, 70), st.integers(-5, 10 ** 6)))
def test_count_and_participation_argv_fuzz(command, host, size, schema):
    name, flag = command
    run_fuzz_case([name, "--input", host, flag, str(size)], schema)


# Hosts for pattern-count and free-check: literals of at most 14 vertices,
# G(n, p) samples given as edge-list files, and a missing file.
_FUZZ_COPY_HOSTS = st.one_of(
    st.integers(0, 14).map(lambda n: f"K{n}"),
    st.integers(3, 14).map(lambda n: f"C{n}"),
    st.integers(0, 13).map(lambda n: f"S{n}"),
    st.lists(st.integers(1, 5), min_size=2, max_size=4).map(
        lambda sizes: "K" + "_".join(map(str, sizes))),
    st.builds(gnp, st.integers(0, 14), st.sampled_from([0.2, 0.35, 0.5, 0.7]),
              st.integers(0, 2 ** 32)),
    st.just("no-such-host.el"))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["pattern-count", "free-check"]),
       pat=st.sampled_from(LITERALS + ["K0", "S0", "C2", "K13", "K17"]),
       host=_FUZZ_COPY_HOSTS)
def test_pattern_count_and_free_check_argv_fuzz(command, pat, host, schema):
    with tempfile.TemporaryDirectory() as tmp:
        g = host
        if isinstance(host, str):
            g = parse_pattern_literal(host)
        else:
            host = os.path.join(tmp, "host.el")
            save_edge_list(g, host)
        try:
            f = parse_pattern_literal(pat)
        except ValueError:  # C2
            f = None
        if f is not None and g is not None and g.n > 1:
            # as in the embedding tests: few injective maps expected
            assume(math.perm(g.n, f.n) * (2 * g.m / (g.n * (g.n - 1))) ** f.m <= 20000)
        run_fuzz_case([command, "--pattern", pat, "--input", host], schema)


def test_threads_environment_variable_is_ignored(capsys, monkeypatch):
    argv = ("count", "--input", "K3", "--max-clique", "2")
    _, plain = run_cli(capsys, *argv)
    monkeypatch.setenv("MEXLAB_THREADS", "abc")
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK and out == plain


def test_construct_deletion_stops_at_copy_cap(tmp_path, schema):
    # c = 10 clamps p toward 1: the host holds millions of K3_4 copies
    src = Path(mexlab.__file__).resolve().parent.parent
    out = tmp_path / "g.el"
    proc = subprocess.run(
        [sys.executable, "-m", "mexlab.cli", "construct", "deletion",
         "--pattern", "K3_4", "--u", "2", "--r", "3", "--n", "200",
         "--seed", "1", "--c", "10", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=30)
    assert proc.returncode == EXIT_VALIDATION and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj["code"] == "invalid-params" and "10000 copies" in obj["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
     "--n", "10", "--seed", "1", "--c", "nan"],
    ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
     "--n", "10", "--seed", "1", "--c", "inf"],
    ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
     "--n", "10", "--seed", "1", "--c", "0"],
    ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
     "--n", "10", "--seed", "1", "--c", "-1"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "1", "--C", "1e308"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "1", "--C", "1e-320"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "1", "--C", "inf"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "1", "--C", "nan"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "nan", "--C", "1"],
    ["extract", "--input", "K6", "--r", "3", "--alpha", "inf", "--C", "1"],
    ["count", "--input", "K100000", "--max-clique", "2"],
    ["count", "--input", "C100000000", "--max-clique", "2"],
    ["count", "--input", "K3", "--max-clique", "1000000000000"],
    ["participation", "--input", "K3", "--r", "1000000000000"],
    ["extract", "--input", "K6", "--r", "1000000000000", "--alpha", "1", "--C", "1"],
    ["bounds", "--formula", "cor14_kst", "--params", "r=3,s=1001"],
    ["bounds", "--formula", "cor14_kst", "--params", "r=3,s=2000"],
    ["bounds", "--formula", "cor14_kst", "--params", "r=3,s=100000000"],
])
def test_cli_rejects_out_of_range_parameters(argv, tmp_path, capsys, schema):
    out = tmp_path / "g.el"
    code, obj = run_json(capsys, schema, *argv, "--out", str(out))
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"
    assert not out.exists()  # rejected before any result was computed


def test_cli_rejects_huge_edge_list_header(tmp_path, capsys, schema):
    path = tmp_path / "big.el"
    path.write_text("100000000000 1\n0 1\n")
    code, obj = run_json(capsys, schema, "count", "--input", str(path),
                         "--max-clique", "2")
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-input"


def test_oracle_mex_rejects_target_with_isolated_vertex(tmp_path, capsys, schema):
    path = tmp_path / "k2_plus_k1.el"
    path.write_text("3 1\n0 1\n")
    code, obj = run_json(capsys, schema, "oracle", "mex", "--m", "3",
                         "--target", str(path), "--forbidden", "K3")
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"
    # ex fixes the vertex count, so the same target has a finite maximum there
    code, obj = run_json(capsys, schema, "oracle", "ex", "--n", "4",
                         "--target", str(path), "--forbidden", "K3")
    assert code == EXIT_OK and obj["value"] == 8


def test_oracle_ex_refuses_when_even_the_edgeless_graph_is_forbidden(tmp_path, capsys,
                                                                     schema):
    # 3K1 lies in every graph on 3 vertices, the edgeless one too
    path = tmp_path / "three_k1.el"
    path.write_text("3 0\n")
    code, obj = run_json(capsys, schema, "oracle", "ex", "--n", "3",
                         "--target", "K2", "--forbidden", str(path))
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "no admissible graph on the requested vertex count"}
    code, obj = run_json(capsys, schema, "oracle", "ex", "--n", "2",
                         "--target", "K2", "--forbidden", str(path))
    assert code == EXIT_OK and obj["value"] == 1


def test_extract_rejects_r_beyond_the_lemma_constants_at_once(tmp_path, capsys,
                                                              schema, monkeypatch):
    path = tmp_path / "dense.el"
    save_edge_list(gnp(60, 0.5, 1), path)

    def participation_pass(g, r):
        raise AssertionError("r = 21 reached the participation pass")

    monkeypatch.setattr("mexlab.extraction.edge_clique_participation",
                        participation_pass)
    code, obj = run_json(capsys, schema, "extract", "--input", str(path),
                         "--r", "21", "--alpha", "1", "--C", "1")
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-params"


@pytest.mark.parametrize("mode", ["mex", "ex"])
def test_oracle_help_names_the_accepted_range(mode, capsys):
    with pytest.raises(SystemExit):
        main(["oracle", mode, "--help"])
    assert f"at most {ORACLE_MAX_GRAPHS:,} graphs" in capsys.readouterr().out


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n", [10000, 100000])
def test_experiment_refuses_an_oversized_tripartite_n_at_once(n, tmp_path, schema):
    # n = 100000 is a complete tripartite graph on 100,362 vertices with
    # about 3.6e7 edges, and n = 10000 has 1,212,100 edges, as many as its
    # refused K10000_100_21 literal; neither may be built.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "tripartite", "n": [8, 9, n]}))
    csv_path = tmp_path / "rows.csv"
    src = Path(mexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mexlab.cli", "experiment", str(spec),
         "--csv", str(csv_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5, preexec_fn=_limit_address_space)
    assert proc.returncode == EXIT_VALIDATION and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj["code"] == "invalid-params"
    assert not csv_path.exists()


def test_experiment_refuses_too_many_instances_at_once(tmp_path, schema):
    # 3 n values times 40 seeds is 120 deletions on hosts of up to 500
    # vertices; the spec is refused before the first host is sampled.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "deletion", "n": [300, 400, 500],
                                "pattern": "K2_2_2", "c": 1.5,
                                "seeds": list(range(40))}))
    csv_path = tmp_path / "rows.csv"
    src = Path(mexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mexlab.cli", "experiment", str(spec),
         "--csv", str(csv_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5)
    assert proc.returncode == EXIT_VALIDATION and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj["code"] == "invalid-params"
    assert obj["message"] == (f"need 3..{EXPERIMENT_MAX_INSTANCES} instances "
                              "to fit a slope, got 120")
    assert not csv_path.exists()


def test_experiment_rejects_deeply_nested_json(tmp_path, capsys, schema):
    spec = tmp_path / "spec.json"
    spec.write_text("[" * 100000)
    code, obj = run_json(capsys, schema, "experiment", str(spec),
                         "--csv", str(tmp_path / "rows.csv"))
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-input"


@pytest.mark.parametrize("raw, message", [
    (b'{"family": ', "Expecting value: line 1 column 12 (char 11)"),
    (b'{"family": "tripartite"}\xff', "'ascii' codec can't decode byte 0xff"),
], ids=["truncated", "byte-0xff"])
def test_experiment_rejects_a_spec_that_is_not_ascii_json(raw, message, tmp_path,
                                                          capsys, schema):
    # a malformed spec file is reported as an edge-list file is: the
    # input's fault, with its path in front
    spec, csv_path = tmp_path / "spec.json", tmp_path / "rows.csv"
    spec.write_bytes(raw)
    code, obj = run_json(capsys, schema, "experiment", str(spec), "--csv", str(csv_path))
    assert code == EXIT_VALIDATION and obj["code"] == "invalid-input"
    assert obj["message"].startswith(f"{spec}: {message}")
    assert not csv_path.exists()


# Values of the wrong type, non-integral or non-finite numbers, and
# integers far out of range, for any field of an experiment spec.
_SPEC_ODD = st.sampled_from([-1, 0, 10 ** 12, 10 ** 400, 2 ** 61 - 1, 2.5, 3.0,
                             float("nan"), float("inf"), -float("inf"), 1e308,
                             "3", "é", None, True, [3], {"a": 1}])
# Runnable fields per family, kept small: norm graphs with q <= 11 and
# s <= 3 have at most 1210 vertices, tripartite n <= 300, deletion n <= 60.
_SPEC_VALID = {
    "norm_graph": {"q": st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=3,
                                 max_size=5, unique=True),
                   "s": st.sampled_from([2, 3]), "u": st.just(2),
                   "r": st.sampled_from([3, 4])},
    "tripartite": {"n": st.lists(st.integers(1, 300), min_size=3, max_size=5,
                                 unique=True),
                   "u": st.sampled_from([2, 3]), "r": st.sampled_from([3, 4])},
    "deletion": {"n": st.lists(st.integers(8, 60), min_size=1, max_size=3, unique=True),
                 "seeds": st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=3),
                 "pattern": st.sampled_from(["K3_4", "K2_2_2"]), "u": st.just(2),
                 "r": st.just(3), "c": st.sampled_from([0.5, 1.0, 1.3, 2])},
}


@st.composite
def experiment_specs(draw):
    """A spec of a runnable family with some fields or list entries spoilt,
    or of an unknown family, as file bytes that may end in non-ASCII or
    malformed text."""
    family = draw(st.sampled_from(
        sorted(_SPEC_VALID) * 3 + ["Tripartite", "gnp", None]))
    spec = {"family": family}
    for key, valid in _SPEC_VALID.get(family, _SPEC_VALID["tripartite"]).items():
        roll = draw(st.integers(0, 19))
        value = draw(valid)
        if roll == 0:
            continue  # the field's default
        if roll == 1:
            value = draw(_SPEC_ODD)
        elif roll == 2 and isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = draw(_SPEC_ODD)
        spec[key] = value
    text = json.dumps(spec).encode()  # NaN and Infinity as Python writes them
    tail = draw(st.sampled_from([b""] * 12 + [b"\xff\xfe", "é".encode(), b"}", b"\x00"]))
    return spec, text + tail


@settings(max_examples=200, deadline=None)
@given(case=experiment_specs())
def test_experiment_argv_fuzz(case, schema):
    spec, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path, csv_path = Path(tmp, "spec.json"), Path(tmp, "rows.csv")
        path.write_bytes(raw)
        code, report = run_fuzz_case(["experiment", str(path), "--csv", str(csv_path)],
                                     schema)
        assert code == EXIT_OK or not csv_path.exists(), spec
    try:
        json.loads(raw.decode("ascii"))
    except ValueError:  # not ASCII, or not JSON: the file's fault
        assert report["code"] == "invalid-input", (raw, report)


# Values out of range, non-finite, huge or malformed for --r, --alpha and
# --C; each flag takes one about a quarter of the time.
_EXTRACT_ODD = st.one_of(
    st.floats().map(repr), st.integers(-2, 22).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1e-320", "5e-324", "-0.0",
                     "1e308", "1000000", "10" * 200, "3.0", "x"]))
_EXTRACT_VALID = {"--r": st.integers(3, 8).map(str),
                  "--alpha": st.floats(0.7, 1.0).map(repr),
                  "--C": st.floats(1e-3, 1e3).map(repr)}


@st.composite
def extract_argvs(draw):
    argv = ["extract", "--input", draw(_FUZZ_HOSTS)]
    for flag, valid in _EXTRACT_VALID.items():
        argv += [flag, draw(_EXTRACT_ODD if draw(st.integers(0, 3)) == 1 else valid)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=extract_argvs())
def test_extract_argv_fuzz(argv, schema):
    run_fuzz_case(argv, schema)


@pytest.mark.parametrize("q, s", [(127, 2), (37, 3), (11, 4), (7, 5)])
def test_construct_norm_graph_refuses_over_the_edge_cap_at_once(q, s, tmp_path,
                                                                schema):
    # Each pair has under NORM_GRAPH_MAX_VERTICES vertices but from 1.0 to
    # 33.7 million edges; it is refused before the field is built.  (127, 2)
    # is the first prime past the field's prime cap that s = 2 refuses.
    out = tmp_path / "norm.el"
    src = Path(mexlab.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mexlab.cli", "construct", "norm-graph",
         "--q", str(q), "--s", str(s), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=5, preexec_fn=_limit_address_space)
    assert proc.returncode == EXIT_VALIDATION and not proc.stderr
    obj = json.loads(proc.stdout)
    jsonschema.validate(obj, schema)
    assert obj["code"] == "invalid-params"
    assert "above cap" in obj["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for the construct and oracle fuzzes, holding a 2K2 edge
    list; each case removes the outputs of the case before it."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "2K2.el").write_text("4 2\n0 1\n2 3\n")
    return path


def run_fuzz_case_writing(argv, out, schema):
    """run_fuzz_case for a command that writes out on success and only then."""
    out.unlink(missing_ok=True)
    code, _ = run_fuzz_case(argv + ["--out", str(out)], schema)
    assert out.exists() == (code == EXIT_OK), argv
    if code == EXIT_OK:
        load_edge_list(out)
    return code


def _spoilt(draw, valid, odd):
    """A draw of valid, or of odd about one time in five."""
    return draw(odd if draw(st.integers(0, 4)) == 0 else valid)


# Patterns that meet the thm15 conditions for (u, r) = (2, 3) (K3_4, K2_2_2,
# K4_4, K3_5) or also for (2, 4) and (3, 4) (K8); the odd ones fail them
# (K3_3, K4, C4) or are not patterns.  K4_4_4 also meets them, but its
# slowest known case, the CLI run of n = 58, seed 26695, c = 1.47 (9,624
# copies), takes 2.4 to 3.0 s in process, 1.8 to 2.4 s of it in
# iter_copies: above half the fuzz budget.  60 random K4_4_4 argvs drawn
# as below, and 40 more with n in 30..60 and c in 1.1..1.8, took at most
# 0.9 and 1.2 s.
_DELETION_PATTERNS = (
    st.sampled_from(["K3_4", "K2_2_2", "K4_4", "K3_5", "K8"]),
    st.sampled_from(["K3_3", "K4", "C4", "K0", "S0", "C2", "K13", "K17",
                     "no-such-pattern.el"]))


@st.composite
def deletion_argvs(draw):
    u, r = _spoilt(draw, st.sampled_from([(2, 3)] * 4 + [(2, 4), (3, 4)]),
                   st.tuples(st.integers(-1, 5), st.integers(-1, 7)))
    n = _spoilt(draw, st.integers(1, 60), st.sampled_from([-1, 0, 501, 10 ** 30]))
    c = _spoilt(draw, st.floats(0.1, 3.0).map(repr), st.sampled_from(
        ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320", "-0.0", "x", "3,5"]))
    return ["construct", "deletion", "--pattern", _spoilt(draw, *_DELETION_PATTERNS),
            "--u", str(u), "--r", str(r), "--n", str(n),
            "--seed", str(draw(st.integers(-2 ** 70, 2 ** 70))), "--c", c]


@settings(max_examples=150, deadline=None)
@given(argv=deletion_argvs())
def test_construct_deletion_argv_fuzz(argv, fuzz_dir, schema):
    run_fuzz_case_writing(argv, fuzz_dir / "deletion.el", schema)


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@st.composite
def norm_graph_qs(draw):
    """(q, s): a valid pair of at most 1500 vertices, with q or s spoilt by
    a non-prime, a value around the vertex cap or far beyond it, or flag
    text that is not an integer."""
    q, s = draw(st.sampled_from([(q, s) for q in _PRIMES for s in range(2, 6)
                                 if q ** (s - 1) * (q - 1) <= 1500]))
    odd_text = st.sampled_from(["x", "3.0", "1e3", "", "0x7"])
    q = _spoilt(draw, st.just(q), st.integers(-3, 40) | odd_text | st.sampled_from(
        [49999, 50021, 10 ** 6, 2 ** 61 - 1, 10 ** 400]))
    s = _spoilt(draw, st.just(s), st.integers(-2, 8) | odd_text | st.sampled_from(
        [16, 17, 100, 10 ** 9]))
    if (isinstance(q, int) and isinstance(s, int)
            and 2 <= q <= NORM_GRAPH_MAX_VERTICES + 1 and 2 <= s <= 16):
        # a valid instance under both caps but past 1500 vertices takes
        # seconds to build; one over either cap is refused at once
        n = q ** (s - 1) * (q - 1)
        assume(not (1500 < n <= NORM_GRAPH_MAX_VERTICES
                    and n * (q ** (s - 1) - 1) // 2 <= LITERAL_MAX_EDGES))
    return str(q), str(s)


@settings(max_examples=150, deadline=None)
@given(qs=norm_graph_qs())
def test_construct_norm_graph_argv_fuzz(qs, fuzz_dir, schema):
    q, s = qs
    out = fuzz_dir / "norm.el"
    run_fuzz_case_writing(["construct", "norm-graph", "--q", q, "--s", s], out, schema)


# Oracle targets and forbidden graphs: the literals, the empty graph K0, a
# single vertex S0, a 2K2 edge list and a missing path.  K0 and S0 are not
# forbidden graphs, and neither is a target of mex.
_ORACLE_PATTERNS = st.sampled_from(LITERALS + ["K0", "S0", "2K2.el", "no-such.el"])
# a valid query above these sizes runs past the fuzz budget
_ORACLE_FAST = {"mex": 8, "ex": 7}


@st.composite
def oracle_argvs(draw):
    mode = draw(st.sampled_from(sorted(_ORACLE_FAST)))
    size = draw(st.integers(-3, 12) if mode == "mex" else st.integers(-3, 10))
    target = draw(_ORACLE_PATTERNS)
    if size > _ORACLE_FAST[mode]:
        forbidden = draw(st.sampled_from(["K0", "S0", "no-such.el"]))
    else:
        forbidden = draw(_ORACLE_PATTERNS)
    return mode, ["oracle", mode, "--m" if mode == "mex" else "--n", str(size),
                  "--target", target, "--forbidden", forbidden]


@settings(max_examples=150, deadline=None)
@given(case=oracle_argvs())
def test_oracle_argv_fuzz(case, fuzz_dir, schema):
    mode, argv = case
    argv = [str(fuzz_dir / a) if a == "2K2.el" else a for a in argv]
    code, _ = run_fuzz_case(argv, schema)
    size, forbidden = int(argv[3]), argv[-1]
    if forbidden in ("K0", "S0"):
        assert code in (EXIT_VALIDATION, EXIT_IO), argv
    if size > _ORACLE_FAST[mode]:
        assert code != EXIT_OK, argv


def test_free_check_refuses_the_empty_pattern_as_pattern_count_does(capsys, schema):
    for command in "pattern-count", "free-check":
        code, obj = run_json(capsys, schema, command, "--pattern", "K0", "--input", "K3")
        assert code == EXIT_VALIDATION and obj == {
            "code": "invalid-params", "message": "pattern must have at least one vertex"}


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False, default=_encode)


_SCALARS = (st.none() | st.booleans()
            | st.integers(-10 ** 40, 10 ** 40) | st.sampled_from([2 ** 200, -3 ** 150])
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 5e-324])
            | st.text(max_size=6) | st.sampled_from(["é", "日本", "\x00\"\\\n", "\U0001f600"]))
_INTS = st.integers(-10 ** 20, 10 ** 20)
# Lists of int lists of one length (the participation rows), of ragged
# lengths, and with a bool among the ints; and the objects _encode writes.
_ROWS = (st.integers(0, 3).flatmap(lambda k: st.lists(
    st.lists(_INTS, min_size=k, max_size=k) | st.tuples(*[_INTS] * k), max_size=4))
    | st.lists(st.lists(_INTS | st.booleans(), max_size=3), max_size=4))
_OBJECTS = (st.fractions(max_denominator=10 ** 6)
            | st.builds(gnp, st.integers(0, 6), st.just(0.5), st.integers(0, 99))
            | st.builds(lambda c: CliqueVector(len(c), (0, *c)), st.lists(_INTS, max_size=3)))
_JSONISH = st.recursive(
    _SCALARS | _ROWS | _OBJECTS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.lists(_INTS, max_size=5)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(obj=_JSONISH)
def test_json_writer_matches_json_dumps(obj):
    assert _json(obj) == dumps(obj)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_writer_refuses_non_finite_floats_as_json_does(value):
    for obj in value, [1, value], {"a": [value]}:
        with pytest.raises(ValueError) as mine:
            _json(obj)
        with pytest.raises(ValueError) as theirs:
            dumps(obj)
        assert str(mine.value) == str(theirs.value)


def test_a_non_finite_report_value_exits_invalid_params(capsys, schema, monkeypatch):
    monkeypatch.setattr("mexlab.cli.count_cliques", lambda g, R: {"k1": math.inf})
    code, obj = run_json(capsys, schema, "count", "--input", "K3", "--max-clique", "1")
    assert code == EXIT_VALIDATION and obj == {
        "code": "invalid-params",
        "message": "Out of range float values are not JSON compliant: inf"}


@pytest.mark.parametrize("argv", [
    ["count", "--input", "G60", "--max-clique", "8"],
    ["participation", "--input", "G60", "--r", "4"],
    ["pattern-count", "--pattern", "C4", "--input", "G60"],
    ["free-check", "--pattern", "K4", "--input", "G60"],
    ["extract", "--input", "G60", "--r", "3", "--alpha", "1", "--C", "0.1",
     "--out", "OUT"],
    ["bounds", "--formula", "thm15_general", "--params", "u=2,r=3,f=K3_4"],
    ["construct", "norm-graph", "--q", "5", "--s", "3", "--out", "OUT"],
    ["construct", "deletion", "--pattern", "K3_4", "--u", "2", "--r", "3",
     "--n", "40", "--seed", "1", "--out", "OUT"],
    ["oracle", "mex", "--m", "6", "--target", "K3", "--forbidden", "K4"],
    ["oracle", "ex", "--n", "6", "--target", "K3", "--forbidden", "C4"],
    ["experiment", "SPEC", "--csv", "OUT"],
], ids=lambda argv: "-".join(a for a in argv[:2] if not a.startswith("-")))
def test_each_subcommand_leaves_no_cyclic_garbage(argv, tmp_path):
    host = tmp_path / "g60.el"
    save_edge_list(gnp(60, 0.5, 1), host)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "tripartite", "n": [8, 16, 32]}))
    paths = {"G60": str(host), "SPEC": str(spec), "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in argv]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK

    assert cyclic_garbage(call) == 0
