"""Serialization round-trips, canonical output, and the CLI surface."""

import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conclab
from conclab import PrecisionLimitError, _intervals, cli, jsonio, obstruct, seifert
from conclab._intervals import RatInterval
from conclab.abgroup import FiniteAbelianGroup
from conclab.cli import COMMON_FIELDS, OPERATIONS, main
from conclab.dinv import (DTable, VSequence, dbar_vanishing_obstruction,
                          large_surgery_d_table, lens_d_table)
from conclab.errors import ValidationError, excerpt
from conclab.polyalg import LaurentPoly, PolySet, normalize_alexander
from conclab.seifert import (FIGURE_EIGHT, TREFOIL, SeifertMatrix,
                             jump_function, scale_jump_function)

from conftest import cable_matrix, random_genuine_matrix, torus_2_strand_matrix

FIVE_TWO = SeifertMatrix.from_rows([[-1, 1], [0, -2]])


# --- round trips -------------------------------------------------------------

def test_poly_roundtrip():
    for f in (LaurentPoly.one(), normalize_alexander([1, -1, 1]),
              LaurentPoly.from_dict({-3: 2, 0: -1, 5: 7})):
        assert jsonio.poly_from_json(jsonio.poly_to_json(f)) == f


def test_polyset_roundtrip():
    ps = PolySet.of(LaurentPoly.one(), normalize_alexander([1, -3, 1]))
    assert jsonio.polyset_from_json(jsonio.polyset_to_json(ps)) == ps


def test_seifert_roundtrip():
    for a in (TREFOIL, FIGURE_EIGHT,
              SeifertMatrix.from_rows([["1/2", 0], [1, "-3/4"]], "gen")):
        assert jsonio.seifert_from_json(jsonio.seifert_to_json(a)) == a


def test_jump_function_roundtrip_exact_and_numeric():
    jf = scale_jump_function(jump_function(TREFOIL, 1), 3)
    assert jsonio.jump_function_from_json(jsonio.jump_function_to_json(jf)) == jf
    numeric = jump_function(FIVE_TWO, 1)
    again = jsonio.jump_function_from_json(jsonio.jump_function_to_json(numeric))
    assert again == numeric
    assert again.exactness == numeric.exactness


def test_dtable_roundtrip():
    t = lens_d_table(9, 1)
    assert jsonio.dtable_from_json(jsonio.dtable_to_json(t)) == t
    partial = DTable.from_values(FiniteAbelianGroup((9,)), {(3,): Fraction(2)},
                                 provenance="external bound")
    again = jsonio.dtable_from_json(jsonio.dtable_to_json(partial))
    assert again == partial


def test_external_table_with_mixed_denominators():
    # values over 3, 4 and 1 share the denominator 12, and the JSON comes
    # back byte for byte; dbar is nonzero at 3 and 6 in the first table,
    # zero there in the second
    obstructed = {"group": {"invariant_factors": [9]},
                  "values": {"0": "0", "1": "2", "3": "1/3", "6": "-5/4"},
                  "provenance": "mixed"}
    passes = {"group": {"invariant_factors": [9]},
              "values": {"0": "0", "1": "-5/4", "2": "1/3", "3": "0", "4": "2", "6": "0"},
              "provenance": None}
    for obj in (obstructed, passes):
        t = jsonio.dtable_from_json(obj)
        assert t.denominator == 12
        assert jsonio.canonical_dumps(jsonio.dtable_to_json(t)) == jsonio.canonical_dumps(obj)
    verdict = dbar_vanishing_obstruction(jsonio.dtable_from_json(obstructed), 3)
    assert verdict.status == "OBSTRUCTED"
    assert jsonio.metabolizer_verdict_to_json(verdict)["candidates"][0]["dbar_violations"] \
        == [["3", "1/3"], ["6", "-5/4"]]
    verdict = dbar_vanishing_obstruction(jsonio.dtable_from_json(passes), 3)
    assert verdict.status == "PASSES"
    assert verdict.witness.sorted_elements() == [(0,), (3,), (6,)]


def test_group_roundtrip_and_validation():
    g = FiniteAbelianGroup((3, 9))
    assert jsonio.group_from_json(jsonio.group_to_json(g)) == g
    with pytest.raises(ValidationError) as exc:
        jsonio.group_from_json({"invariant_factors": [3, "x"]})
    assert "invariant_factors[1]" in str(exc.value)


def test_validation_error_paths():
    with pytest.raises(ValidationError) as exc:
        jsonio.poly_from_json({"coeffs": [[0, 1], [0, 2]]})
    assert "coeffs[1]" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        jsonio.seifert_from_json({"matrix": [[1, 2], [3]]})
    assert "matrix[1]" in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        jsonio.dtable_from_json({"group": {"invariant_factors": [9]},
                                 "values": {"1,2": "1/2"}})
    assert "'1,2'" in str(exc.value)


def test_canonical_rationals():
    assert jsonio.rational_str(Fraction(4, 8)) == "1/2"
    assert jsonio.rational_str(Fraction(-3, 1)) == "-3"
    assert jsonio.parse_rational("6/4") == Fraction(3, 2)
    with pytest.raises(ValidationError):
        jsonio.parse_rational("1/0")
    with pytest.raises(ValidationError):
        jsonio.parse_rational("a/b")


def _oversize_as_text(obj):
    """obj with every OversizeInt replaced by a comparable marker."""
    if isinstance(obj, jsonio.OversizeInt):
        return ("oversize", obj.text)
    if isinstance(obj, dict):
        return {k: _oversize_as_text(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_oversize_as_text(v) for v in obj]
    return obj


def test_loads_matches_the_parse_through_parse_int_text_at_the_digit_limit():
    # the C scanner parses a document whose integers fit the limit; one
    # with a literal past it is parsed through parse_int_text, which keeps
    # that literal as OversizeInt, so both give what the hooked parse gives
    for digits in (4299, 4300, 4301):
        for sign in ("", "-"):
            lit = sign + "7" * digits
            for text in (lit, f"[{lit}, 1, -2]", f'{{"a": {lit}, "b": [2, {lit}], "c": "1/2"}}',
                         f'{{"matrix": [[1, {lit}], [0, 3]], "x": 1.5}}'):
                expected = json.loads(text, parse_int=jsonio.parse_int_text)
                got = jsonio.loads(text)
                assert _oversize_as_text(got) == _oversize_as_text(expected)
                assert type(got) is type(expected)
        oversize = isinstance(jsonio.loads("7" * digits), jsonio.OversizeInt)
        assert oversize == (digits > sys.get_int_max_str_digits() > 0)
    for bad in ("[" + "7" * 4301 + ",", "[1, " + "7" * 4301 + "]]", "[1,]"):
        with pytest.raises(json.JSONDecodeError):
            jsonio.loads(bad)


def test_rational_str_lifts_the_digit_limit_only_past_it():
    limit = sys.get_int_max_str_digits()
    big = 10 ** 5000 + 7
    for x in (Fraction(3, 4), -5, 0, Fraction(big, 3), Fraction(-3, big), big,
              Fraction(10 ** 4299, 7), 10 ** 4299 - 1):
        with jsonio.exact_digits():
            expected = str(Fraction(x))
        assert jsonio.rational_str(x) == expected
        assert sys.get_int_max_str_digits() == limit


# --- CLI ---------------------------------------------------------------------

def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_rd(capsys):
    code, out = run_cli(capsys, "rd", "--poly", "t^2-t+1", "--d", "2")
    assert code == 0
    assert json.loads(out)["r_d"] == 3


def test_cli_rd_deterministic(capsys):
    _, first = run_cli(capsys, "rd", "--poly", "t^2-t+1", "--d", "2")
    _, second = run_cli(capsys, "rd", "--poly", "t^2 - t + 1", "--d", "2")
    assert first == second


def test_cli_primeset(capsys):
    code, out = run_cli(capsys, "primeset", "--D", "t^2-3t+1", "--d", "2")
    assert code == 0
    assert json.loads(out)["excluded"] == [5]


def test_cli_signature_and_jumps(capsys):
    code, out = run_cli(capsys, "signature", "--seifert", "trefoil", "--t", "1/2")
    assert code == 0 and json.loads(out)["signature"] == -2
    code, out = run_cli(capsys, "jumps", "--seifert", "trefoil")
    data = json.loads(out)
    assert data["jump_function"]["jumps"] == \
        [{"position": "1/6", "value": -2}, {"position": "5/6", "value": 2}]
    assert data["locations"] == ["1/6", "5/6"]


def test_cli_period_roundtrip(capsys, tmp_path):
    _, out = run_cli(capsys, "jumps", "--seifert", "trefoil")
    jf = json.loads(out)["jump_function"]
    path = tmp_path / "jf.json"
    path.write_text(json.dumps(jf))
    code, out = run_cli(capsys, "period", "--jumps", f"@{path}")
    assert code == 0
    assert json.loads(out) == {"kind": "exact", "minimal_period": "1"}


def test_cli_sum_and_scale(capsys, tmp_path):
    code, out = run_cli(capsys, "sum", "--A", "trefoil", "--B", "trefoil",
                        "--reverse-b")
    assert code == 0
    matrix = json.loads(out)["sum"]["matrix"]
    assert matrix == [[-1, 1, 0, 0], [0, -1, 0, 0],
                      [0, 0, -1, 0], [0, 0, 1, -1]]
    _, jf_out = run_cli(capsys, "jumps", "--seifert", "trefoil")
    path = tmp_path / "jf.json"
    path.write_text(json.dumps(json.loads(jf_out)["jump_function"]))
    code, out = run_cli(capsys, "scale", "--jumps", f"@{path}", "--q", "3")
    assert json.loads(out)["jump_function"]["jumps"][0]["position"] == "1/2"


def test_cli_dlens_vseq_dsurgery_dbar(capsys, tmp_path):
    code, out = run_cli(capsys, "dlens", "--p", "2", "--q", "1")
    assert json.loads(out)["table"]["values"] == {"0": "1/4", "1": "-1/4"}
    code, out = run_cli(capsys, "dlens", "--p", "3", "--q", "1", "--i", "0")
    assert json.loads(out)["d"] == "1/2"
    code, out = run_cli(capsys, "vseq", "--poly", "T(2,3)")
    assert json.loads(out)["v_sequence"] == [1, 0]
    code, out = run_cli(capsys, "dsurgery", "--n", "9", "--poly", "T(2,3)")
    table = json.loads(out)["table"]
    assert table["values"]["0"] == "0"
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "dbar", "--table", f"@{path}")
    assert json.loads(out)["dbar"]["values"]["3"] == "0"


def test_cli_dbar_of_a_lens_table_is_based_at_label_0(capsys):
    # dbar subtracts the value at label 0 whatever the table; dlens keeps
    # the Euclidean recursion's labels, where the conjugation of L(p, q) is
    # i -> q - 1 - i, so label 0 is a spin structure (fixed by conjugation)
    # only when q = 1 or p <= 2.  Pinned on the printed tables of every
    # coprime pair p <= 40, through one batch of dlens and one of dbar.
    pairs = [(p, q) for p in range(1, 41) for q in range(p) if gcd(p, q) == 1]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(
        {"jobs": [{"op": "dlens", "p": p, "q": q} for p, q in pairs]}))
    assert code == 0
    tables = [r["result"]["table"] for r in json.loads(out)["results"]]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(
        {"jobs": [{"op": "dbar", "table": json.dumps(t)} for t in tables]}))
    assert code == 0
    for (p, q), table, r in zip(pairs, tables, json.loads(out)["results"]):
        dbar = {int(k or 0): Fraction(v) for k, v in r["result"]["dbar"]["values"].items()}
        d = {int(k or 0): Fraction(v) for k, v in table["values"].items()}
        assert dbar == {i: d[i] - d[0] for i in range(p)}, (p, q)
        assert all(dbar[(q - 1 - i) % p] == dbar[i] for i in range(p)), (p, q)
        spin = [i for i in range(p) if (q - 1 - i) % p == i]
        assert (0 in spin) == (q == 1 or p <= 2), (p, q)
        assert all(dbar[-i % p] == dbar[i] for i in range(p)) == (q == 1 or p <= 2), (p, q)


def test_cli_metabolizers(capsys):
    code, out = run_cli(capsys, "metabolizers", "--group", "9", "--q", "3")
    data = json.loads(out)
    assert data["candidates"][0]["elements"] == [[0], [3], [6]]


def test_cli_obstruct_top(capsys):
    code, out = run_cli(capsys, "obstruct-top", "--m", "1", "--J", "trefoil",
                        "--D", "unit")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "OBSTRUCTED"
    assert data["minimal_period"] == {"kind": "exact", "value": "3"}
    code, out = run_cli(capsys, "obstruct-top", "--m", "1", "--J", "unknot",
                        "--D", "unit")
    assert json.loads(out)["verdict"] == "NOT_OBSTRUCTED"


def test_cli_obstruct_top_genus_16_torus_matches_closed_form(capsys):
    # J = T(2,33), a 32 x 32 Seifert matrix: J # J^r has roots at
    # t = (2j+1)/66 away from 1/2, covering jumps -4 below 1/2 and +4 above,
    # at positions q t, and minimal period q
    seifert._circle_data.cache_clear()
    j = json.dumps(jsonio.seifert_to_json(torus_2_strand_matrix(16)))
    code, out = run_cli(capsys, "obstruct-top", "--m", "2", "--J", j, "--D", "unit")
    data = json.loads(out)
    q, n = 5, 33
    want = [{"position": str(q * Fraction(2 * k + 1, 2 * n)),
             "value": -4 if 2 * k + 1 < n else 4}
            for k in range(n) if 2 * k + 1 != n]
    assert code == 0 and data["verdict"] == "OBSTRUCTED"
    assert data["covering_jump_function"] == {
        "ambient_period": "5", "exactness": "exact", "jumps": want}
    assert data["minimal_period"] == {"kind": "exact", "value": "5"}


def test_cli_obstruct_top_large_genus_stdout_is_pinned(capsys):
    # sha256 of the stdout of obstruct-top --D unit on T(2,33), T(2,65)
    # and the reverse of T(2,49), recorded before fraction-free
    # elimination deferred its zero-multiplier rows; T(2,129) recorded
    # while the pencil was still interpolated from n/2 + 1 determinants
    pinned = {
        (33, False, 2): "3050f79905159dd0957818464180a1a0fa942a274807602a3b67fdaec81c8ae2",
        (65, False, 3): "318bed63659421eba67e63fd58eb95de0bf8e4356deec3bfc07206fb81aa17de",
        (49, True, 5): "4960a532c0f32da6331f2b0a6232f009c1f6bd445409fd820a319374e82a667b",
        (129, False, 1): "32e327808681cd5fa670c8f5124cde5a4a96c9cc18eb973469b4ca60f0bd7b44",
    }
    for (n, reversed_, m), digest in pinned.items():
        a = torus_2_strand_matrix((n - 1) // 2)
        if reversed_:
            a = seifert.reverse(a)
        j = json.dumps({"matrix": [list(row) for row in a.entries]})
        code, out = run_cli(capsys, "obstruct-top", "--m", str(m), "--J", j, "--D", "unit")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, (n, reversed_)


def test_cli_jumps_and_obstruct_top_stdout_is_pinned(capsys):
    # sha256 of the stdout of jumps and of obstruct-top --m 1 --D unit, at
    # the default precision and at --precision 64, recorded while root
    # isolation and refinement still had a rational fallback.  [[2, 0],
    # [-1, 2]] has Delta = 4t^2 - 7t + 4, whose circle root x = 7/4 is a
    # bisection midpoint of (-2, 2); the rational matrix has its only
    # location at t = 1/2; each random genuine matrix has two
    # non-cyclotomic circle roots
    hit = SeifertMatrix.from_rows([[2, 0], [-1, 2]])
    inputs = {
        "hit": hit,
        "hit # trefoil": seifert.connected_sum(hit, TREFOIL),
        "half": SeifertMatrix.from_rows([["1/2", 1], [0, "1/2"]]),
        "genus 3": random_genuine_matrix(random.Random(21), 3),
        "genus 4": random_genuine_matrix(random.Random(7), 4),
    }
    pinned = {
        ("hit", "jumps", None): "d2f5f313b997eba49917537b41d3b7d9601e71f9290b71f62febd233c9f5d163",
        ("hit", "obstruct-top", None): "63935d1dfcbd587478590afc3351a8e5f4b95bd623123d79c7a44a164bfe4df9",
        ("hit", "jumps", 64): "022f4b432f130c0d3344000d0a14222b9583f90ddd39ec8e3e5e3d376d5ad708",
        ("hit", "obstruct-top", 64): "54de3a07eb7fce803568d50a7871373cb87739672d0f48a30c3e2024872046cd",
        ("hit # trefoil", "jumps", None): "76730c58cd1e435f452a9e2cda2a8bba91ed9033b4046ab83915d3fefc396da5",
        ("hit # trefoil", "obstruct-top", None): "c9c70884520b5f8e27dc34de13f72bf8a093b4b49e62cd3a3f96f69dcd286e5d",
        ("hit # trefoil", "jumps", 64): "79c79df73e778cdb37c9a56ebbf20c006be4571058c436fb841f0fa224e4c886",
        ("hit # trefoil", "obstruct-top", 64): "e166cc2e54d61c0e4ba8e6bf8a926d12e45c1605687e434c56af3f2113341fc5",
        ("half", "jumps", None): "4b08e85674145b2bb5e88d43745e86053ee2a8393ced0ca07e0d09d08c30aea5",
        ("half", "obstruct-top", None): "ace9807dcd8f771def29f203ebe033eaeb764d058e58d44a138004b839064f18",
        ("half", "jumps", 64): "4b08e85674145b2bb5e88d43745e86053ee2a8393ced0ca07e0d09d08c30aea5",
        ("half", "obstruct-top", 64): "ace9807dcd8f771def29f203ebe033eaeb764d058e58d44a138004b839064f18",
        ("genus 3", "jumps", None): "8f00c1e1f7bbe8641ba1c0863d0dc73a1e295c461aa43626716683fa4d18a971",
        ("genus 3", "obstruct-top", None): "8b76e185d7a40bbd781bc0908d1550ce7b06b9c9255affd5b949a39aaae9e7b7",
        ("genus 3", "jumps", 64): "14e549a72faa053a7b3eedc36cde620b2e81f9d647e06c93aeace5ca093236bd",
        ("genus 3", "obstruct-top", 64): "86a478d7de06a437c77c3287374f490b5c817b813eaed5c07ac3021cd4deff68",
        ("genus 4", "jumps", None): "64bbdd8c90e2596bce665c5837a7af6f07dbde82ee68047eb4ca8ffae2ef1901",
        ("genus 4", "obstruct-top", None): "9b37f0a96b5de1c1c69bb5f11190c999e0fc84a9a9407c5553b9208fcf5aabb4",
        ("genus 4", "jumps", 64): "e2fb88b6a603910a54ad07b9f797a359b5ced89e85933ca4b20ec8895c5dbff3",
        ("genus 4", "obstruct-top", 64): "55ecfc7f2827e1b0244824f9e7b9a206a34bbffdd0adb44786ea55f7c557c2c2",
    }
    for (name, op, precision), digest in pinned.items():
        j = json.dumps(jsonio.seifert_to_json(inputs[name]))
        argv = ["jumps", "--seifert", j] if op == "jumps" else \
            ["obstruct-top", "--m", "1", "--J", j, "--D", "unit"]
        if precision:
            argv += ["--precision", str(precision)]
        code, out = run_cli(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, \
            (name, op, precision)
    rem = [r for r in seifert._circle_data(inputs["genus 3"]).roots
           if isinstance(r, seifert._RemRoot)]
    assert len(rem) == 2


def test_jump_function_exactness_is_exact_or_numeric_of_positive_bits(capsys):
    base = {"ambient_period": "1",
            "jumps": [{"position": {"interval": ["1/8", "1/4"]}, "value": 2},
                      {"position": {"interval": ["3/4", "7/8"]}, "value": -2}]}
    assert jsonio.jump_function_from_json(dict(base, exactness="numeric(64)")) \
        .exactness == "numeric(64)"
    # an explicit exactness must agree with the positions; an omitted one
    # is inferred from them
    with pytest.raises(ValidationError, match=r"^jumps\.exactness: 'exact' contradicts "
                       r"the interval position jumps\.jumps\[0\]\.position"):
        jsonio.jump_function_from_json(dict(base, exactness="exact"))
    assert jsonio.jump_function_from_json(base).exactness == "numeric(128)"
    rational = {"ambient_period": "1", "jumps": [{"position": "1/8", "value": 2},
                                                 {"position": "3/4", "value": -2}]}
    assert jsonio.jump_function_from_json(rational).exactness == "exact"
    assert jsonio.jump_function_from_json(dict(rational, exactness="exact")).exactness == "exact"
    for contradicting, reason in [(dict(base, exactness="exact"), "'exact' contradicts"),
                                  (dict(rational, exactness="numeric(64)"),
                                   "'numeric(64)' but no position is an interval")]:
        code = main(["scale", "--jumps", json.dumps(contradicting), "--q", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: jumps.exactness: " + reason)
    for bad in ("numeric(12", "numeric(0)", "numeric(-5)", "numeric(012)",
                "numeric( 8)", "garbage", 5, None):
        with pytest.raises(ValidationError, match=r"^jumps\.exactness: malformed"):
            jsonio.jump_function_from_json(dict(base, exactness=bad))
        code = main(["scale", "--jumps", json.dumps(dict(base, exactness=bad)), "--q", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: jumps.exactness: malformed"), bad


def test_unreadable_inputs_and_outputs_exit_2_and_batch_continues(capsys, tmp_path):
    not_utf8 = tmp_path / "matrix.json"
    not_utf8.write_bytes(b"\xff" + json.dumps({"matrix": [[-1, 1], [0, -1]]}).encode())
    for spec, reason in [(f"@{tmp_path}", f"seifert: cannot read {tmp_path}: "),
                         (f"@{not_utf8}", f"seifert: {not_utf8} is not UTF-8 text")]:
        code = main(["jumps", "--seifert", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: " + reason)
    code = main(["batch", "--jobs", f"@{tmp_path}"])
    assert code == 2 and capsys.readouterr().err.startswith("error: jobs: cannot read")
    # the first job fails on its file, the second still runs
    jobs = [{"op": "jumps", "seifert": f"@{tmp_path}"},
            {"op": "jumps", "seifert": "trefoil"}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(jobs))
    first, second = json.loads(out)["results"]
    assert code == 0 and not first["ok"] and first["error_kind"] == "ValidationError"
    assert first["error"].startswith("seifert: cannot read")
    assert second["ok"] and second["result"]["locations"] == ["1/6", "5/6"]
    code = main(["jumps", "--seifert", f"@{not_utf8}", "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    code = main(["jumps", "--seifert", "trefoil", "--output", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: output: cannot write {tmp_path}: ")


def test_huge_dense_degree_exits_2_and_batch_continues(capsys):
    # a sparse polynomial or torus knot whose dense form would not fit is
    # refused before any allocation; degree 3 * 10^6 is still computed
    huge = [{"op": "rd", "poly": "t^99999999999+1", "d": 2},
            {"op": "rd", "poly": {"coeffs": [[99999999999, 1], [0, 1]]}, "d": 2},
            {"op": "rd", "poly": "T(100000,99999)", "d": 2},
            {"op": "vseq", "poly": "t^99999999999-1+t^-99999999999"}]
    for job in huge:
        options = {k: v if isinstance(v, str) else json.dumps(v)
                   for k, v in job.items() if k != "op"}
        code = main([job["op"]] + [x for k, v in options.items() for x in (f"--{k}", v)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: polynomial of degree ")
        assert "exceeds the dense-degree bound" in captured.err
    jobs = huge + [{"op": "rd", "poly": "t^3000000+1", "d": 2}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(jobs))
    results = json.loads(out)["results"]
    assert code == 0 and len(results) == 5
    assert all(not r["ok"] and r["error_kind"] == "SizeBoundError" for r in results[:4])
    assert results[4]["ok"] and results[4]["result"]["r_d"] == 4


def test_table_past_the_enumeration_bound_exits_2_and_batch_continues(capsys, monkeypatch):
    # the surgery model bounds Z_{q^2} before it builds T(q, q - 1), whose
    # degree-(q - 1)(q - 2) polynomial takes minutes at q = 1009
    def unbuilt(p, q):
        raise AssertionError(f"T({p}, {q}) built past the table bound")
    monkeypatch.setattr(obstruct, "torus_knot_alexander", unbuilt)
    data_file = Path(__file__).resolve().parents[1] / \
        "src" / "conclab" / "data" / "hlr_dbar_q3.json"
    huge = [({"op": "dlens", "p": 100000000001, "q": 1}, 100000000001),
            ({"op": "dsurgery", "n": 100000000001, "v": "0"}, 100000000001),
            ({"op": "obstruct-smooth", "m": 504, "D": "unit", "computed": True}, 1018081),
            ({"op": "obstruct-smooth", "m": 504, "D": "unit", "dbar": f"@{data_file}"},
             1018081)]
    for job, order in huge:
        argv = [job["op"]]
        for key, value in job.items():
            if key != "op":
                argv += [f"--{key}"] + ([] if value is True else [str(value)])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (f"error: table of order {order} exceeds the "
                                "enumeration bound 1000000\n")
    jobs = [job for job, _ in huge] + [{"op": "dlens", "p": 5, "q": 1}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(jobs))
    results = json.loads(out)["results"]
    assert code == 0 and len(results) == 5
    assert all(not r["ok"] and r["error_kind"] == "SizeBoundError" for r in results[:4])
    assert results[4]["ok"] and len(results[4]["result"]["table"]["values"]) == 5


def test_cli_start_up_loads_no_mpmath():
    # mpmath is a test oracle only; a fresh interpreter shows what the CLI
    # itself imports
    src = Path(conclab.__file__).resolve().parents[1]
    probe = ("import sys; from conclab import cli; "
             "print(cli.__file__); print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    where, loaded = run.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(src) and loaded == "False"


def test_python_m_conclab_reads_sys_argv():
    # the entry point takes argv from sys.argv, which the in-process tests skip
    src = Path(conclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "conclab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    listing = run("--help")
    assert listing.returncode == 0 and listing.stderr == ""
    assert all(f"\n  {name} " in listing.stdout for name in OPERATIONS)
    fields = run("obstruct-top", "--help")
    assert fields.returncode == 0 and fields.stderr == ""
    assert all(f"\n  --{name} " in fields.stdout
               for name in ("m", "J", "D", "J0", "format", "output", "precision"))
    for argv in ((), ("obstruct-top", "--m", "1", "--D", "unit", "--d", "2")):
        failed = run(*argv)
        assert failed.returncode == 2 and failed.stdout == "", argv
        assert failed.stderr.startswith("error: ") and failed.stderr.count("\n") == 1, argv
        assert "Traceback" not in failed.stderr
    argv = ["obstruct-top", "--m", "1", "--J", "trefoil", "--D", "unit"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    ran = run(*argv)
    assert ran.returncode == 0 and ran.stdout == out.getvalue() and ran.stderr == ""


def test_int_and_fraction_entry_matrices_agree(capsys):
    rows = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
    a = SeifertMatrix.from_rows(rows)
    b = SeifertMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))
    assert all(type(x) is int for row in a.entries + b.entries for x in row)
    assert a == b and hash(a) == hash(b)
    assert a.cleared == b.cleared == (1, a.entries) and a.cleared[1] is a.entries
    assert seifert.connected_sum(a, b) == seifert.connected_sum(b, a)
    half = SeifertMatrix.from_rows([[Fraction(1, 2), 1], ["4/2", "-3/2"]])
    assert half.entries == ((Fraction(1, 2), 1), (2, Fraction(-3, 2)))
    assert [type(x) for row in half.entries for x in row] == [Fraction, int, int, Fraction]
    assert half.cleared == (2, ((1, 2), (4, -3)))
    # JSON ints and the same integers as rational strings give one stdout
    as_ints = json.dumps({"matrix": rows})
    as_strings = json.dumps({"matrix": [[f"{2 * x}/2" for x in row] for row in rows]})
    for argv in (["alexander", "--seifert"], ["jumps", "--seifert"],
                 ["obstruct-top", "--m", "2", "--D", "unit", "--J"]):
        outs = []
        for spec in (as_ints, as_strings):
            seifert._circle_data.cache_clear()
            code, out = run_cli(capsys, *argv, spec)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1], argv
    with pytest.raises(ValidationError, match=r"J\.matrix\[0\]\[1\]: expected a rational, got a boolean"):
        jsonio.seifert_from_json({"matrix": [[1, True], [0, 1]]})


def test_cli_obstruct_smooth_with_data_file(capsys):
    data_file = Path(__file__).resolve().parents[1] / \
        "src" / "conclab" / "data" / "hlr_dbar_q3.json"
    code, out = run_cli(capsys, "obstruct-smooth", "--m", "1", "--D", "unit",
                        "--dbar", f"@{data_file}")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "OBSTRUCTED"
    witnesses = data["metabolizer_search"]["candidates"]
    assert witnesses[0]["subgroup"]["elements"] == [[0], [3], [6]]


def test_cli_computed_flag_changes_nothing(capsys):
    # without --dbar the table is computed either way; the flag is read
    # only to refuse it beside --dbar
    plain = run_cli(capsys, "obstruct-smooth", "--m", "1", "--D", "unit")
    flagged = run_cli(capsys, "obstruct-smooth", "--m", "1", "--D", "unit", "--computed")
    assert plain == flagged and plain[0] == 0
    assert json.loads(plain[1])["dbar_source"].startswith("computed")


def test_cli_obstruct_smooth_strict_inconclusive(capsys, tmp_path):
    partial = {"group": {"invariant_factors": [9]}, "values": {"3": "0"},
               "provenance": "partial"}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(partial))
    code, out = run_cli(capsys, "obstruct-smooth", "--m", "1", "--D", "unit",
                        "--dbar", f"@{path}", "--strict")
    assert code == 3
    assert json.loads(out)["verdict"] == "INCONCLUSIVE"
    # without --strict the same run exits 0
    code, _ = run_cli(capsys, "obstruct-smooth", "--m", "1", "--D", "unit",
                      "--dbar", f"@{path}")
    assert code == 0


def test_cli_validation_exit_code(capsys):
    code = main(["rd", "--poly", "t^2-t+1", "--d", "0"])
    err = capsys.readouterr().err
    assert code == 2 and "error:" in err
    code = main(["signature", "--seifert", "nosuchknot", "--t", "1/2"])
    assert code == 2
    code = main(["period", "--jumps", '{"bad": []}'])
    assert code == 2


def test_cli_precision_limit_exits_2_and_batch_continues(capsys, monkeypatch):
    # an isolating interval that never tightens exhausts the precision cap
    monkeypatch.setattr(seifert._RemRoot, "enclosure",
                        lambda self, prec: RatInterval(self.lo, self.hi))
    seifert._circle_data.cache_clear()
    five_two = json.dumps(jsonio.seifert_to_json(FIVE_TWO))
    code = main(["jumps", "--seifert", five_two])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    jobs = json.dumps({"jobs": [{"op": "jumps", "seifert": five_two},
                                {"op": "jumps", "seifert": "trefoil"}]})
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    results = json.loads(out)["results"]
    assert code == 0 and not results[0]["ok"] and "bits" in results[0]["error"]
    assert results[0]["error_kind"] == "PrecisionLimitError"
    assert results[1]["ok"] and "error_kind" not in results[1]
    seifert._circle_data.cache_clear()


def test_every_precision_loop_reads_the_one_cap(capsys, monkeypatch):
    # each loop below is forced to a second rung, 128 or 256 bits, which a
    # 64-bit cap forbids
    monkeypatch.setattr(_intervals, "MAX_PRECISION_BITS", 64)
    a = random_genuine_matrix(random.Random(21), 3)
    five_two = json.dumps(jsonio.seifert_to_json(FIVE_TWO))
    enclosure, invert = seifert._RemRoot.enclosure, seifert.invert_two_cos

    def vague_below_128(self, prec):
        return RatInterval(Fraction(-2), Fraction(2)) if prec < 128 \
            else enclosure(self, prec)

    def cells_below_256(cell):
        return lambda x_encl, prec: cell if prec < 256 else invert(x_encl, prec)

    seifert._circle_data.cache_clear()
    try:
        # the start precision is tried even above the cap
        cell = _intervals.invert_two_cos(lambda p: RatInterval.point(Fraction(1)), 256)
        assert cell.lo < Fraction(1, 6) < cell.hi
        data = seifert._circle_data(a)
        # signature at a gap point: separating it from a root
        monkeypatch.setattr(seifert._RemRoot, "enclosure", vague_below_128)
        with pytest.raises(PrecisionLimitError, match="parameter from root"):
            seifert.signature_at(a, Fraction(1, 3))
        # root ordering, directly and through jumps on the CLI
        seifert._circle_data.cache_clear()
        with pytest.raises(PrecisionLimitError, match="separate circle roots"):
            seifert._circle_data(a)
        code = main(["jumps", "--seifert", five_two])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "separate circle roots within 64 bits" in captured.err
        monkeypatch.setattr(seifert._RemRoot, "enclosure", enclosure)
        # position inversion: a cell touching 0, then cells that overlap
        monkeypatch.setattr(seifert, "invert_two_cos",
                            cells_below_256(RatInterval(Fraction(0), Fraction(1, 4))))
        with pytest.raises(PrecisionLimitError, match="position enclosure"):
            seifert._remainder_position(data, 0, 128)
        monkeypatch.setattr(seifert, "invert_two_cos", cells_below_256(
            RatInterval(Fraction(1, 100), Fraction(49, 100))))
        with pytest.raises(PrecisionLimitError, match="separate jump positions"):
            seifert.jump_locations(a)
    finally:
        seifert._circle_data.cache_clear()


def test_cli_reversed_interval_exits_2_and_batch_continues(capsys):
    jf = {"ambient_period": "1", "jumps": [
        {"position": {"interval": ["1/2", "1/3"]}, "value": 2},
        {"position": "3/4", "value": -2}]}
    for argv in (["period", "--jumps", json.dumps(jf)],
                 ["scale", "--jumps", json.dumps(jf), "--q", "2"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "jumps.jumps[0].position.interval" in captured.err
    jobs = json.dumps({"jobs": [{"op": "period", "jumps": jf},
                                {"op": "rd", "poly": "t^2-t+1", "d": 2}]})
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    results = json.loads(out)["results"]
    assert code == 0 and not results[0]["ok"]
    assert "position.interval" in results[0]["error"]
    assert results[1]["ok"] and results[1]["result"]["r_d"] == 3


def test_point_interval_position_exits_2_and_batch_continues(capsys):
    # [1/2, 1/2] is the rational 1/2; read as an interval it hid the
    # period 1/2 from the translation test, which printed a false period 1
    def jumps(mid):
        return {"ambient_period": "1", "jumps": [
            {"position": "0", "value": 2}, {"position": "1/4", "value": -2},
            {"position": mid, "value": 2}, {"position": "3/4", "value": -2}]}
    point = jumps({"interval": ["1/2", "1/2"]})
    message = "jump position [1/2, 1/2] is a point; give it as a rational"
    for argv in (["period", "--jumps", json.dumps(point)],
                 ["scale", "--jumps", json.dumps(point), "--q", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    jobs = json.dumps([{"op": "period", "jumps": point},
                       {"op": "period", "jumps": jumps("1/2")}])
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    refused, exact = json.loads(out)["results"]
    assert code == 0 and not refused["ok"] and refused["error"] == message
    assert exact["result"] == {"kind": "exact", "minimal_period": "1/2"}
    with pytest.raises(ValidationError, match="is a point"):
        seifert.JumpFunction(Fraction(1), (seifert.Jump(RatInterval.point(Fraction(1, 2)), 2),
                                           seifert.Jump(Fraction(3, 4), -2)))


def test_cli_non_integer_v_entry_exits_2_and_batch_continues(capsys):
    code = main(["dsurgery", "--n", "1", "--v", "1,x"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: v[1]: ")
    jobs = json.dumps({"jobs": [{"op": "dsurgery", "n": 1, "v": "1,x"},
                                {"op": "dsurgery", "n": 1, "v": 5},
                                {"op": "dsurgery", "n": 1, "v": "1,0"}]})
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    results = json.loads(out)["results"]
    assert code == 0 and [r["ok"] for r in results] == [False, False, True]


def test_cli_dsurgery_below_the_old_large_surgery_threshold(capsys):
    # genus 3 once needed n >= 5; Ni-Wu's formula holds for every n >= 1
    code, out = run_cli(capsys, "dsurgery", "--n", "4", "--v", "2,1,1,0")
    assert code == 0
    assert json.loads(out)["table"]["values"] == {"0": "-13/4", "1": "-2",
                                                  "2": "-9/4", "3": "-2"}
    code, out = run_cli(capsys, "dsurgery", "--n", "1", "--v", "2,1,1,0")
    assert code == 0 and json.loads(out)["table"]["values"] == {"": "-4"}


def test_batch_dsurgery_below_the_old_large_surgery_threshold(capsys):
    jobs = json.dumps([{"op": "dsurgery", "n": 4, "v": "2,1,1,0"}])
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    [res] = json.loads(out)["results"]
    assert code == 0 and res["ok"]
    assert res["result"]["table"]["values"]["2"] == "-9/4"


def test_expression_errors_name_their_field(capsys):
    cases = [(["rd", "--poly", "(t", "--d", "2"], "poly: expected close, got end"),
             (["vseq", "--poly", "t+%"], "poly: unexpected character '%' at offset 2"),
             (["primeset", "--D", "1;t^2-t+1;(t", "--d", "2"], "D[2]: expected close, got end"),
             (["primeset", "--D", "t+);1", "--d", "2"], "D[0]: unexpected close"),
             (["obstruct-top", "--m", "1", "--J", "trefoil", "--D", "unit", "--J0", "t+%"],
              "J0: unexpected character '%' at offset 2")]
    jobs = []
    for argv, message in cases:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        jobs.append(dict(op=argv[0], **{k[2:]: v for k, v in zip(argv[1::2], argv[2::2])}))
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps(jobs))
    assert code == 0
    assert [r["error"] for r in json.loads(out)["results"]] == [m for _, m in cases]
    # library callers keep the generic name
    with pytest.raises(ValidationError, match="^polynomial expression: expected close"):
        conclab.parse_poly("(t")


def test_list_parts_are_numbered_by_written_position(capsys):
    # an empty part is skipped but still counted, for ';' and ',' alike
    cases = [("primeset", {"D": "1;;(t", "d": 2}, "D[2]: expected close, got end"),
             ("metabolizers", {"group": "3,,x", "q": 3},
              "group[2]: expected an integer, got 'x'"),
             ("dsurgery", {"n": 9, "v": "1,,x"}, "v[2]: expected an integer, got 'x'")]
    for op, fields, message in cases:
        assert _cli_error(capsys, op, fields) == message
        assert _batch_error(capsys, dict(op=op, **fields)) == message
    # empty parts are skipped: "9,,27" is the group Z_9 + Z_27
    code, out = run_cli(capsys, "metabolizers", "--group", "9,,27", "--q", "3")
    assert code == 0 and json.loads(out)["group"]["invariant_factors"] == [9, 27]


def test_cli_closed_stdout_exits_2_without_traceback():
    # 98 KB of output, more than a pipe buffer holds, to a reader that is gone
    src = Path(conclab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "conclab", "dlens", "--p", "5000",
                             "--q", "7"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err == "error: output: cannot write stdout: Broken pipe\n"


def test_polyset_one_normal_form_for_every_input_form(capsys):
    # text, uncentered JSON and negated JSON forms of t - 1 + t^-1
    outs = []
    for spec in ("t^2-t+1", '{"polys":[{"coeffs":[[0,1],[1,-1],[2,1]]}]}',
                 '{"polys":[{"coeffs":[[-1,-1],[0,1],[1,-1]]}]}'):
        code, out = run_cli(capsys, "primeset", "--D", spec, "--d", "2")
        assert code == 0
        outs.append(out)
    assert outs == ['{"D":{"polys":[{"coeffs":[[-1,1],[0,-1],[1,1]]}]},"d":2,"excluded":[3]}\n'] * 3


def test_cli_precision_validation(capsys, monkeypatch):
    code = main(["rd", "--poly", "1", "--d", "2", "--precision", "32"])
    assert code == 2
    monkeypatch.setenv("CONCLAB_PRECISION", "not-a-number")
    code = main(["rd", "--poly", "1", "--d", "2"])
    assert code == 2
    monkeypatch.setenv("CONCLAB_PRECISION", "256")
    code = main(["rd", "--poly", "1", "--d", "2"])
    assert code == 0
    capsys.readouterr()
    # the cap of every refinement ladder bounds the first rung too
    for bits in ("65537", "1000000"):
        code = main(["rd", "--poly", "1", "--d", "2", "--precision", bits])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: precision {bits} above the maximum 65536\n"
        monkeypatch.setenv("CONCLAB_PRECISION", bits)
        assert main(["rd", "--poly", "1", "--d", "2"]) == 2
        assert capsys.readouterr().err == captured.err
    monkeypatch.setenv("CONCLAB_PRECISION", "65536")
    assert main(["rd", "--poly", "1", "--d", "2"]) == 0


def test_cli_batch(capsys, tmp_path):
    jobs = {"jobs": [
        {"op": "rd", "poly": "t^2-t+1", "d": 2},
        {"op": "obstruct-top", "m": 1, "J": "trefoil", "D": "unit"},
        {"op": "rd", "poly": "0", "d": 2},
    ]}
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, out = run_cli(capsys, "batch", "--jobs", f"@{path}")
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0]["ok"] and results[0]["result"]["r_d"] == 3
    assert results[1]["result"]["verdict"] == "OBSTRUCTED"
    assert results[2] == {"op": "rd", "ok": False, "error_kind": "ValidationError",
                          "error": "zero polynomial has no homology order"}


def test_batch_error_kinds_are_documented():
    # both ways: the documented classes are exactly the ConclabError
    # subclasses, and each is exported and raised somewhere, so a deleted
    # or never-raised class lingers neither in the code nor in the docs
    import conclab.errors as errors
    kinds = {name for name, obj in vars(errors).items() if isinstance(obj, type)
             and issubclass(obj, errors.ConclabError) and obj is not errors.ConclabError}
    root = Path(__file__).resolve().parents[1]
    documented = set(re.findall(r"`(\w+Error)`", (root / "docs" / "format.md").read_text()))
    assert documented == kinds
    assert all(getattr(conclab, k) is getattr(errors, k) for k in kinds)
    code = "".join(p.read_text() for p in (root / "src" / "conclab").rglob("*.py"))
    assert [k for k in sorted(kinds) if f"raise {k}(" not in code] == []


def test_cli_output_file_and_human(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "rd", "--poly", "1", "--d", "5",
                      "--output", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["r_d"] == 1
    code, out = run_cli(capsys, "rd", "--poly", "1", "--d", "5",
                        "--format", "human")
    assert "r_d: 1" in out


def test_cli_emitted_json_reparses_canonically(capsys):
    _, out = run_cli(capsys, "obstruct-top", "--m", "1", "--J", "trefoil",
                     "--D", "unit")
    payload = json.loads(out)
    assert jsonio.canonical_dumps(payload) == out.strip()


def test_cli_subcommand_surface():
    assert set(OPERATIONS) == {"rd", "primeset", "alexander", "signature", "jumps",
                               "period", "sum", "scale", "dlens", "vseq", "dsurgery",
                               "dbar", "metabolizers", "obstruct-top", "obstruct-smooth",
                               "batch"}
    assert [a.dest for a in COMMON_FIELDS] == ["format", "output", "strict", "precision"]
    for name, entry in OPERATIONS.items():
        assert callable(entry.handler) and entry.help, name
        dests = [a.dest for a in entry.fields]
        assert len(set(dests)) == len(dests), name
        assert not set(dests) & {"op", "format", "output", "strict", "precision"}, name
        # a switch is off unless given; a required field has no default
        assert all(a.default is False for a in entry.fields if a.switch), name
        assert all(a.default is None for a in entry.fields if a.required), name


def test_cli_batch_with_inline_table(capsys, tmp_path):
    jobs = {"jobs": [{
        "op": "obstruct-smooth", "m": 1, "D": "unit",
        "dbar": {"group": {"invariant_factors": [9]},
                 "values": {"3": "2", "6": "2"},
                 "provenance": "inline"}}]}
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, out = run_cli(capsys, "batch", "--jobs", f"@{path}")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["ok"] and result["result"]["verdict"] == "OBSTRUCTED"


def test_cli_reuses_the_one_operation_table(capsys, monkeypatch):
    # the table is built once, at import: a call declares no field
    def no_new_field(*args, **kwargs):
        raise AssertionError("main declared a field")
    monkeypatch.setattr(cli.Field, "__init__", no_new_field)
    table, entry = OPERATIONS, OPERATIONS["rd"]
    for _ in range(2):
        code, out = run_cli(capsys, "rd", "--poly", "t^2-t+1", "--d", "2")
        assert code == 0 and json.loads(out)["r_d"] == 3
    assert cli.OPERATIONS is table and table["rd"] is entry


TREFOIL_JUMPS = json.dumps({"ambient_period": "1", "exactness": "exact",
                            "jumps": [{"position": "1/6", "value": -2},
                                      {"position": "5/6", "value": 2}]})

# one sample input per subcommand, as field -> value; True is a flag
AGREEMENT_SAMPLES = {
    "rd": {"poly": "t^2-t+1", "d": 16},
    "primeset": {"D": "t^2-3t+1", "d": 2},
    "alexander": {"seifert": "figure-eight"},
    "signature": {"seifert": "trefoil", "t": "1/3"},
    "jumps": {"seifert": "trefoil", "c": 3},
    "period": {"jumps": TREFOIL_JUMPS},
    "sum": {"A": "trefoil", "B": "figure-eight", "reverse_a": True, "mirror_b": True},
    "scale": {"jumps": TREFOIL_JUMPS, "q": 5},
    "dlens": {"p": 7, "q": 3, "orientation": -1},
    "vseq": {"poly": "T(3,4)"},
    "dsurgery": {"n": 25, "v": "1,0"},
    "dbar": {"table": json.dumps(jsonio.dtable_to_json(lens_d_table(5, 2)))},
    "metabolizers": {"group": "3,9", "q": 3},
    "obstruct-top": {"m": 2, "J": "trefoil", "D": "unit"},
    "obstruct-smooth": {"m": 1, "D": "unit", "computed": True},
}

INTEGER_FIELDS = {"d", "c", "q", "p", "i", "orientation", "n", "m"}


def test_cli_and_batch_agree_on_every_subcommand(capsys):
    """``conclab <op> --f v ...`` prints what the batch job {"op": op, "f": v}
    gives as its result: both read the subcommand's one declaration."""
    assert set(AGREEMENT_SAMPLES) == set(OPERATIONS) - {"batch"}
    for op, fields in AGREEMENT_SAMPLES.items():
        code, out = run_cli(capsys, *_argv(op, fields))
        assert code == 0, op
        jobs = json.dumps({"jobs": [dict(fields, op=op)]})
        code, batch_out = run_cli(capsys, "batch", "--jobs", jobs)
        (result,) = json.loads(batch_out)["results"]
        assert code == 0 and result["ok"], (op, result)
        assert result["result"] == json.loads(out), op
    # and they refuse a malformed integer with the same message
    seen = set()
    for op, sample in AGREEMENT_SAMPLES.items():
        for name in (a.dest for a in OPERATIONS[op].fields):
            if name in INTEGER_FIELDS:
                fields = dict(sample, **{name: "abc"})
                message = f"{name}: expected an integer, got 'abc'"
                assert _cli_error(capsys, op, fields) == message
                assert _batch_error(capsys, dict(fields, op=op)) == message
                seen.add(name)
    assert seen == INTEGER_FIELDS
    # and a batch flag is JSON true or false, nothing else
    seen = set()
    for op, sample in AGREEMENT_SAMPLES.items():
        for a in OPERATIONS[op].fields:
            if a.switch:
                for bad in ("yes", None, 0, "false"):
                    message = f"{a.dest}: expected true or false, got {bad!r}"
                    assert _batch_error(capsys, dict(sample, op=op, **{a.dest: bad})) == message
                seen.add(a.dest)
    assert seen == {"reverse_a", "mirror_a", "reverse_b", "mirror_b", "computed"}
    # and a JSON null fails its job by the field's name, unless the field
    # is optional with no default
    seen = set()
    for op, sample in AGREEMENT_SAMPLES.items():
        for a in OPERATIONS[op].fields:
            if not a.switch and (a.required or a.default is not None):
                message = _batch_error(capsys, dict(sample, op=op, **{a.dest: None}))
                assert message.startswith(f"{a.dest}: expected "), (op, a.dest, message)
                seen.add(a.dest)
    assert seen == {"poly", "d", "D", "seifert", "t", "c", "jumps", "A", "B", "q", "p",
                    "orientation", "n", "table", "group", "m", "J", "J0"}
    assert _cli_error(capsys, "rd", dict(AGREEMENT_SAMPLES["rd"], precision="abc")) == \
        "precision: expected an integer, got 'abc'"
    assert _batch_error(capsys, dict(AGREEMENT_SAMPLES["rd"], op="rd", precision=128)) == \
        "rd has no field 'precision'"
    # every loaded field refuses a JSON array by its name
    loaded = {"J": "obstruct-top", "J0": "obstruct-top", "seifert": "alexander", "A": "sum",
              "poly": "rd", "D": "primeset", "jumps": "period", "table": "dbar",
              "dbar": "obstruct-smooth", "group": "metabolizers"}
    for name, op in loaded.items():
        job = dict(AGREEMENT_SAMPLES[op], op=op, **{name: [1]})
        job.pop("computed", None)
        assert _batch_error(capsys, job) == f"{name}: expected an object, got list"


def test_batch_flag_false_is_the_switch_left_off(capsys):
    # a flag is read by its value, never by truthiness
    code, out = run_cli(capsys, "sum", "--A", "trefoil", "--B", "trefoil")
    jobs = [{"op": "sum", "A": "trefoil", "B": "trefoil", "reverse_a": False, "mirror_b": False}]
    code, batch_out = run_cli(capsys, "batch", "--jobs", json.dumps(jobs))
    (plain,) = json.loads(batch_out)["results"]
    assert code == 0 and plain == {"op": "sum", "ok": True, "result": json.loads(out)}


def test_every_declared_field_is_read_by_its_kind(monkeypatch):
    """``cli._read`` names the reader of every field that is not an
    integer, and reads every switch as a flag; it looks its readers up
    when it runs, so a wrapper put on a loader's module name sees the read
    (the benchmark's hooks wrap them after conclab.cli is imported)."""
    for name in ("load_poly", "load_polyset", "load_seifert", "load_jump_function",
                 "load_dtable", "load_group", "_int_list", "_int_arg", "_flag"):
        monkeypatch.setattr(cli, name, lambda spec, what, name=name: (name, what))
    monkeypatch.setattr(jsonio, "parse_rational", lambda spec, what: ("parse_rational", what))
    for op, entry in OPERATIONS.items():
        for a in entry.fields:
            reader = cli._read(a.dest, "raw")
            if a.switch:
                assert reader == ("_flag", a.dest), (op, a.dest)
            elif a.dest in INTEGER_FIELDS:
                assert reader == ("_int_arg", a.dest), (op, a.dest)
            elif a.dest == "jobs":
                assert reader == "raw"
            else:
                assert reader[0] != "_int_arg" and reader[1] == a.dest, (op, a.dest)


def test_rationals_are_p_or_p_over_q_only(capsys):
    # a decimal or exponent form is refused before Fraction sees it, so
    # 1e-5000 never builds its 5000-digit denominator
    for text in ("0.5", "1e-5000", "1e3", ".5", "1_0", "1/2.0"):
        message = f"t: malformed rational {text!r}"
        assert _cli_error(capsys, "signature", {"seifert": "trefoil", "t": text}) == message
        assert _batch_error(capsys, {"op": "signature", "seifert": "trefoil",
                                     "t": text}) == message
    assert [jsonio.parse_rational(x, "t") for x in ("1/2", " 3/4 ", "-2", "+5")] == \
        [Fraction(1, 2), Fraction(3, 4), Fraction(-2), Fraction(5)]
    code, out = run_cli(capsys, "signature", "--seifert", "trefoil", "--t", " 3/4 ")
    assert code == 0 and json.loads(out) == {"signature": -2, "t": "3/4"}


def test_fields_are_read_before_cross_field_checks(capsys):
    # every field is read, in declaration order, before an op compares them
    message = _cli_error(capsys, "dsurgery", {"n": 25, "poly": "t^", "v": "1,0"})
    assert message.startswith("poly: ")
    message = _cli_error(capsys, "obstruct-smooth", {"m": 1, "D": "unit",
                                                     "dbar": "@no-such-file.json",
                                                     "computed": True})
    assert message == "dbar: file not found: no-such-file.json"
    assert _cli_error(capsys, "dsurgery", {"n": 25, "poly": "t^2-t+1", "v": "1,0"}) == \
        "give either a polynomial or a V-sequence, not both"


def _argv(op: str, fields: dict) -> list[str]:
    """The command line of a batch job's fields; True is a flag."""
    argv = [op]
    for name, value in fields.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _cli_error(capsys, op: str, fields: dict) -> str:
    """The message of a command line that exits 2, without its 'error: '."""
    code = main(_argv(op, fields))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", (op, fields)
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    return captured.err[len("error: "):-1]


def _batch_error(capsys, job: dict) -> str:
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps([job]))
    (result,) = json.loads(out)["results"]
    assert code == 0 and not result["ok"] and result["error_kind"] == "ValidationError"
    return result["error"]


@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_one_message_for_one_mistake(capsys, op):
    """A command line is read as its batch job: a missing required field or
    an unknown one is the message the job reports, and an abbreviation is
    an unknown field."""
    sample = AGREEMENT_SAMPLES.get(op, {"jobs": "[]"})

    def same_error(fields):
        message = _cli_error(capsys, op, fields)
        if op == "batch":       # a batch job cannot be a batch
            return message
        assert _batch_error(capsys, dict(fields, op=op)) == message
        return message
    for a in OPERATIONS[op].fields:
        if a.required:
            fields = {k: v for k, v in sample.items() if k != a.dest}
            assert same_error(fields) == f"{op} requires the field {a.dest!r}"
        if len(a.dest) > 1 and a.dest[:-1] not in {f.dest for f in OPERATIONS[op].fields}:
            fields = dict(sample, **{a.dest[:-1]: "1"})
            assert same_error(fields) == f"{op} has no field {a.dest[:-1]!r}"
    assert same_error(dict(sample, bogus="1")) == f"{op} has no field 'bogus'"
    # --name=value is --name value
    code, out = run_cli(capsys, *_argv(op, sample))
    assert code == 0
    joined = [op] + ["--" + k.replace("_", "-") + ("" if v is True else f"={v}")
                     for k, v in sample.items()]
    assert run_cli(capsys, *joined) == (0, out)
    assert _cli_error(capsys, op, dict(sample, format="xml")) == \
        "format: expected json or human, got 'xml'"


def test_command_line_mistakes_are_validation_errors(capsys):
    # an unknown name is reported as such, wherever it stands
    for fields in ({"m": 1, "D": "unit", "comp": True}, {"comp": True, "m": 1, "D": "unit"}):
        assert _cli_error(capsys, "obstruct-smooth", fields) == \
            "obstruct-smooth has no field 'comp'"
    for argv, message in (([], "expected an operation, got none"),
                          (["bogus"], "expected an operation, got 'bogus'"),
                          (["rd", "--poly", "t", "--d"], "d: expected a value"),
                          (["rd", "--poly", "t", "2"], "unexpected argument '2'"),
                          (["rd", "-d", "2"], "unexpected argument '-d'"),
                          (["obstruct-smooth", "--m", "1", "--D", "unit", "--computed=yes"],
                           "computed: expected true or false, got 'yes'"),
                          (["rd", "--poly", "t", "--d", "2", "--strict=1"],
                           "strict: expected true or false, got '1'"),
                          (["rd", "--poly", "t", "--d", "2", "--op", "dlens"],
                           "rd has no field 'op'")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    # a value is the next argument verbatim, a leading dash included; the
    # last of a repeated option wins
    code, out = run_cli(capsys, "primeset", "--D", "-t + 3 - t^-1", "--d", "4", "--d", "2")
    assert code == 0 and json.loads(out) == {
        "D": {"polys": [{"coeffs": [[-1, -1], [0, 3], [1, -1]]}]}, "d": 2, "excluded": [5]}
    # -h anywhere prints help, from the table
    for argv in (["-h"], ["--help"], ["rd", "--poly", "t", "-h"], ["dbar", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: conclab ")
    assert main(["dbar", "-h"]) == 0
    assert OPERATIONS["dbar"].fields[0].help in capsys.readouterr().out
    assert "spin structure" in OPERATIONS["dbar"].fields[0].help


def test_refused_inputs_exit_2_with_their_message_and_batch_continues(capsys, tmp_path):
    # one refusal per loader or check that no other test reaches: the
    # command line exits 2 with the message, and as a batch job the message
    # is the job's error and the next job still runs
    table = tmp_path / "t.json"
    table.write_text(json.dumps(jsonio.dtable_to_json(lens_d_table(5, 2))))
    z5 = '{"group":{"invariant_factors":[5]},"values":'
    cases = [
        ("alexander", {"seifert": "{"}, "seifert: malformed JSON ("),
        ("obstruct-smooth", {"m": 1, "D": "unit", "dbar": f"@{table}", "computed": True},
         "give either an external dbar table or --computed, not both"),
        ("rd", {"poly": '{"coeffs":[[1]]}', "d": 2},
         "poly.coeffs[0]: expected [exponent, coefficient]"),
        ("rd", {"poly": '{"coeffs":3}', "d": 2}, "poly.coeffs: expected an array, got int"),
        ("alexander", {"seifert": '{"matrix":[[1]],"label":3}'},
         "seifert.label: expected a string"),
        ("period", {"jumps": '{"ambient_period":"1","jumps":[{"position":'
                             '{"interval":["0","1/4","1/2"]},"value":1}]}'},
         "jumps.jumps[0].position.interval: expected [lo, hi]"),
        ("dbar", {"table": z5 + '{"a":"0"}}'}, "table.values['a']: malformed element key 'a'"),
        ("dbar", {"table": z5 + '{"0":"0"},"provenance":3}'},
         "table.provenance: expected a string"),
        ("obstruct-top", {"m": 0, "J": "trefoil", "D": "unit"},
         "twisting parameter m must be >= 1"),
        ("obstruct-top", {"m": 1, "J": "trefoil", "D": "unit", "J0": "t+2"},
         "J0 polynomial is not Alexander-normalized"),
        ("obstruct-top", {"m": 1, "J": "trefoil", "D": "t+2"},
         "polys[0]: not Alexander-normalized ("),
        ("primeset", {"D": ";", "d": 2}, "polynomial collection must be nonempty"),
        ("metabolizers", {"group": "9", "q": 4}, "4 is not prime"),
    ]
    for op, fields, message in cases:
        assert _cli_error(capsys, op, fields).startswith(message), (op, fields)
        code, out = run_cli(capsys, "batch", "--jobs", json.dumps(
            [dict(fields, op=op), {"op": "rd", "poly": "t^2-t+1", "d": 2}]))
        refused, after = json.loads(out)["results"]
        assert code == 0 and not refused["ok"] and refused["error_kind"] == "ValidationError"
        assert refused["error"].startswith(message), (op, fields)
        assert after["ok"] and after["result"]["r_d"] == 3
    assert _cli_error(capsys, "batch", {"jobs": '{"jobs":3}'}) == \
        "jobs: expected an array of job objects"


def test_batch_job_with_an_undeclared_field_fails(capsys):
    # a misspelt field is not dropped: "C" is not jumps' "c"
    jobs = [{"op": "jumps", "seifert": "trefoil", "C": 3},
            {"op": "rd", "poly": "t^2-t+1", "d": 2, "precision": 128},
            {"op": "rd", "poly": "t^2-t+1", "d": 2, "format": "human"},
            {"op": "jumps", "seifert": "trefoil", "c": 3}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    results = json.loads(out)["results"]
    assert code == 0
    for res, field in zip(results, ("'C'", "'precision'", "'format'")):
        assert not res["ok"] and res["error_kind"] == "ValidationError"
        assert field in res["error"]
    assert results[3]["ok"]
    assert results[3]["result"]["jump_function"]["ambient_period"] == "3"


def test_batch_job_without_a_required_field_fails(capsys):
    # obstruct-top requires J, as --J does on the command line
    jobs = [{"op": "obstruct-top", "m": 1, "D": "unit"},
            {"op": "obstruct-top", "m": 1, "J": "unknot", "D": "unit"}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    missing, given = json.loads(out)["results"]
    assert code == 0
    assert not missing["ok"] and missing["error_kind"] == "ValidationError"
    assert "'J'" in missing["error"]
    assert given["ok"] and given["result"]["verdict"] == "NOT_OBSTRUCTED"


def test_batch_malformed_job_fails_alone(capsys):
    # a job that is not an object, or names no known op, is its own failure
    jobs = [{"op": "rd", "poly": "t", "d": 2}, {"op": "bogus"}, 5, {"poly": "t"},
            {"op": 7}, {"op": "batch", "jobs": []}, {"op": "rd", "poly": "t^2-t+1", "d": 2}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    results = json.loads(out)["results"]
    assert code == 0 and len(results) == len(jobs)
    assert results[0]["ok"] and results[6]["ok"] and results[6]["result"]["r_d"] == 3
    assert results[1:6] == [
        {"op": op, "ok": False, "error_kind": "ValidationError", "error": error}
        for op, error in (
            ("bogus", "jobs[1].op: unknown operation 'bogus'"),
            (None, "jobs[2]: expected an object with an 'op' field"),
            (None, "jobs[3]: expected an object with an 'op' field"),
            (None, "jobs[4].op: unknown operation 7"),
            ("batch", "jobs[5].op: unknown operation 'batch'"))]


def test_dsurgery_refuses_v_with_poly(capsys):
    code = main(["dsurgery", "--n", "9", "--v", "1,0", "--poly", "T(2,5)"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: give either a polynomial or a V-sequence, not both\n"
    jobs = [{"op": "dsurgery", "n": 9, "v": "1,0", "poly": "T(2,5)"},
            {"op": "dsurgery", "n": 9, "v": "1,0"}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    both, v_only = json.loads(out)["results"]
    assert code == 0 and not both["ok"] and both["error_kind"] == "ValidationError"
    assert v_only["ok"] and v_only["result"]["v_sequence"] == [1, 0]
    assert main(["obstruct-top", "--m", "1", "--D", "unit"]) == 2
    assert capsys.readouterr().err == "error: obstruct-top requires the field 'J'\n"


def test_dsurgery_needs_v_or_poly(capsys):
    code = main(["dsurgery", "--n", "9"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == \
        "error: one of --poly and --v is needed: a polynomial or a V-sequence\n"
    jobs = [{"op": "dsurgery", "n": 9}, {"op": "dsurgery", "n": 9, "poly": "T(2,3)"}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    neither, poly = json.loads(out)["results"]
    assert code == 0 and not neither["ok"] and neither["error_kind"] == "ValidationError"
    assert "one of --poly and --v" in neither["error"]
    assert poly["ok"] and poly["result"]["v_sequence"] == [1, 0]


def test_deep_nesting_exits_2_and_batch_continues(capsys):
    # 3000 levels are past the interpreter's recursion limit
    deep_poly = "(" * 3000 + "t" + ")" * 3000
    deep_matrix = '{"matrix": ' + "[" * 3000 + "]" * 3000 + "}"
    for argv, message in (
            (["rd", "--poly", deep_poly, "--d", "2"],
             "poly: parentheses nested deeper than 100"),
            (["rd", "--poly", "(" * 101 + "t" + ")" * 101, "--d", "2"],
             "poly: parentheses nested deeper than 100"),
            (["signature", "--seifert", deep_matrix, "--t", "1/2"],
             "seifert: malformed JSON (nested too deeply)")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
    code, out = run_cli(capsys, "rd", "--poly", "(" * 100 + "t" + ")" * 100, "--d", "2")
    assert code == 0 and json.loads(out)["r_d"] == 1
    jobs = [{"op": "rd", "poly": "t^2-t+1", "d": 2},
            {"op": "rd", "poly": deep_poly, "d": 2},
            {"op": "signature", "seifert": deep_matrix, "t": "1/2"},
            {"op": "rd", "poly": "t^2-t+1", "d": 2}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    results = json.loads(out)["results"]
    assert code == 0 and [r["ok"] for r in results] == [True, False, False, True]
    assert all(r["error_kind"] == "ValidationError" for r in results[1:3])
    assert main(["batch", "--jobs", "[" * 3000 + "]" * 3000]) == 2
    assert capsys.readouterr().err == "error: jobs: malformed JSON (nested too deeply)\n"


def test_dlens_orientation_is_checked_for_a_single_label_too(capsys):
    # the check lives in the op, so a batch job cannot scale d by 3
    assert main(["dlens", "--p", "5", "--q", "1", "--i", "0", "--orientation", "3"]) == 2
    assert "orientation" in capsys.readouterr().err
    jobs = [{"op": "dlens", "p": 5, "q": 1, "i": 0, "orientation": 3},
            {"op": "dlens", "p": 5, "q": 1, "i": 0, "orientation": -1}]
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
    bad, good = json.loads(out)["results"]
    assert code == 0 and not bad["ok"] and bad["error_kind"] == "ValidationError"
    assert good["ok"] and good["result"]["d"] == "-1"


def test_dlens_single_label_at_a_large_order_builds_no_table(capsys):
    # one label takes the O(log p) recursion; a table of this order would
    # be refused by the enumeration bound
    start = time.perf_counter()
    code, out = run_cli(capsys, "dlens", "--p", "1000000000000037", "--q", "5", "--i", "7")
    assert time.perf_counter() - start < 0.5
    assert code == 0 and json.loads(out)["d"] == \
        "50000000000002850000000000042/1000000000000037"


def test_dbar_table_naming_one_element_twice_exits_2(capsys):
    # 12 = 3 in Z_9: whichever key came last used to win
    for order in (("0", "3", "6", "12"), ("0", "12", "3", "6")):
        values = {"0": "0", "3": "0", "6": "0", "12": "2"}
        table = json.dumps({"group": {"invariant_factors": [9]},
                            "values": {k: values[k] for k in order}})
        code = main(["obstruct-smooth", "--m", "1", "--J", "trefoil", "--D", "unit",
                     "--dbar", table])
        err = capsys.readouterr().err
        assert code == 2 and "'3'" in err and "'12'" in err and "element 3" in err
        jobs = [{"op": "obstruct-smooth", "m": 1, "J": "trefoil", "D": "unit",
                 "dbar": json.loads(table)},
                {"op": "rd", "poly": "t^2-t+1", "d": 2}]
        code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
        bad, good = json.loads(out)["results"]
        assert code == 0 and not bad["ok"] and bad["error_kind"] == "ValidationError"
        assert good["ok"] and good["result"]["r_d"] == 3


def test_dtable_loader_refuses_two_keys_of_one_element(capsys):
    # the loader is the one place that reduces a table's labels: two keys
    # of one element are refused by both keys and the element, on the
    # command line and in batch, where the other jobs still run
    g9 = {"invariant_factors": [9]}
    for first, second, elem in (("3", "12", "3"), ("0", "9", "0"), ("3", "-6", "3")):
        table = json.dumps({"group": g9, "values": {first: "0", second: "2"}})
        message = f"keys '{first}' and '{second}' both name the element {elem}"
        assert main(["dbar", "--table", table]) == 2
        assert capsys.readouterr() == ("", f"error: table.values: {message}\n")
        assert main(["obstruct-smooth", "--m", "1", "--D", "unit", "--dbar", table]) == 2
        assert capsys.readouterr() == ("", f"error: dbar.values: {message}\n")
        jobs = [{"op": "rd", "poly": "t^2-t+1", "d": 2},
                {"op": "dbar", "table": json.loads(table)},
                {"op": "dbar", "table": {"group": g9, "values": {"0": "1", "3": "2"}}}]
        code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": jobs}))
        first_job, bad, last = json.loads(out)["results"]
        assert code == 0 and not bad["ok"] and bad["error"] == f"table.values: {message}"
        assert first_job["result"]["r_d"] == 3
        assert last["result"]["dbar"]["values"] == {"0": "0", "3": "1"}
    # one key per element is reduced and put in label order
    loaded = jsonio.dtable_from_json({"group": g9, "values": {"12": "2", "-9": "0"}})
    assert list(loaded.numerators.items()) == [((0,), 0), ((3,), 2)]
    assert loaded.denominator == 1


def test_cli_alexander_matches_torus_closed_form(capsys):
    # T(2, 2g+1) has Alexander polynomial sum_{k=-g}^{g} (-1)^(k+g) t^k
    for genus in range(1, 6):
        matrix = json.dumps(jsonio.seifert_to_json(torus_2_strand_matrix(genus)))
        code, out = run_cli(capsys, "alexander", "--seifert", matrix)
        data = json.loads(out)
        assert code == 0 and data["normalized"] is True
        assert data["alexander"]["coeffs"] == \
            [[k, (-1) ** (k + genus)] for k in range(-genus, genus + 1)]
        names = ["1" if k == 0 else "t" if k == 1 else f"t^{k}"
                 for k in range(genus, -genus - 1, -1)]
        assert data["display"] == names[0] + "".join(
            (" - " if i % 2 else " + ") + name for i, name in enumerate(names) if i)


def test_cli_batch_strict_inconclusive_exits_3(capsys):
    cable = jsonio.seifert_to_json(cable_matrix(FIVE_TWO, 2))
    partial = {"group": {"invariant_factors": [9]}, "values": {"3": "0"},
               "provenance": "partial"}
    for job in ({"op": "obstruct-top", "m": 1, "J": cable, "D": "unit"},
                {"op": "obstruct-smooth", "m": 1, "D": "unit", "dbar": partial}):
        jobs = json.dumps({"jobs": [{"op": "rd", "poly": "t^2-t+1", "d": 2}, job]})
        code, out = run_cli(capsys, "batch", "--jobs", jobs, "--strict")
        results = json.loads(out)["results"]
        assert code == 3 and results[1]["result"]["verdict"] == "INCONCLUSIVE"
        assert results[0]["result"]["r_d"] == 3
        code, again = run_cli(capsys, "batch", "--jobs", jobs)
        assert code == 0 and again == out


def test_cli_big_integers_print_exactly_and_batch_continues(capsys):
    # |Res(3, t^d - 1)| = 3^d has 4772 digits at d = 10000, past the
    # interpreter's default int/str limit of 4300
    code, out = run_cli(capsys, "rd", "--poly", "3", "--d", "10000")
    assert code == 0
    with jsonio.exact_digits():
        assert json.loads(out)["r_d"] == 3 ** 10000
    code, out = run_cli(capsys, "rd", "--poly", "3", "--d", "10000",
                        "--format", "human")
    with jsonio.exact_digits():
        assert code == 0 and f"r_d: {3 ** 10000}" in out
    jobs = json.dumps({"jobs": [{"op": "rd", "poly": "3", "d": 10000},
                                {"op": "rd", "poly": "t^2-t+1", "d": 2}]})
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    with jsonio.exact_digits():
        results = json.loads(out)["results"]
    assert code == 0 and results[0]["result"]["r_d"] == 3 ** 10000
    assert results[1]["ok"] and results[1]["result"]["r_d"] == 3
    # interval positions at 15000 bits have denominators of 4516 digits
    five_two = json.dumps(jsonio.seifert_to_json(FIVE_TWO))
    code, out = run_cli(capsys, "jumps", "--seifert", five_two,
                        "--precision", "15000")
    with jsonio.exact_digits():
        fine = jsonio.jump_function_from_json(json.loads(out)["jump_function"])
    coarse = jump_function(FIVE_TWO, 1)
    assert code == 0 and fine.exactness == "numeric(15000)"
    for f, c in zip(fine.jumps, coarse.jumps, strict=True):
        assert c.position.lo <= f.position.lo < f.position.hi <= c.position.hi
        assert f.value == c.value


def test_cli_oversize_integer_inputs_exit_2_with_field_path(capsys, monkeypatch):
    # literals past the digit limit in expressions, JSON and strings
    # (option values, batch strings, rationals, comma lists, the
    # environment) are reported by field and length, never echoed
    big = "7" * 5000
    limit = "exceeds the interpreter's digit limit"
    for argv, field in (
            (["rd", "--poly", f"{big}*t+1", "--d", "2"], "poly"),
            (["rd", "--poly", f"t^{big}", "--d", "2"], "poly"),
            (["rd", "--poly", f"T({big},3)", "--d", "2"], "poly"),
            (["primeset", "--D", f"1;{big}", "--d", "2"], "D[1]"),
            (["rd", "--poly", f'{{"coeffs": [[0, {big}]]}}', "--d", "2"],
             "poly.coeffs[0][1]"),
            (["signature", "--seifert", f'{{"matrix": [[{big}]]}}', "--t", "1/2"],
             "seifert.matrix[0][0]"),
            (["metabolizers", "--group", f'{{"invariant_factors": [{big}]}}',
              "--q", "3"], "group.invariant_factors[0]"),
            (["rd", "--poly", "t", "--d", big], "d"),
            (["rd", "--poly", "t", "--d", "2", "--precision", big], "precision"),
            (["jumps", "--seifert", "trefoil", "--c", f" {big} "], "c"),
            (["metabolizers", "--group", f"9,{big}", "--q", "3"], "group[1]"),
            (["dbar", "--table", f'{{"group": {{"invariant_factors": [9]}}, '
                                 f'"values": {{"{big}": "0"}}}}'],
             f"table.values[{excerpt(big)}]")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {field}: integer literal of 5000 characters {limit}\n"
    assert main(["signature", "--seifert", "trefoil", "--t", f"1/{big}"]) == 2
    assert capsys.readouterr().err == \
        f"error: t: rational literal of 5002 characters {limit}\n"
    monkeypatch.setenv("CONCLAB_PRECISION", big)
    assert main(["rd", "--poly", "t", "--d", "2"]) == 2
    assert capsys.readouterr().err == \
        f"error: CONCLAB_PRECISION: integer literal of 5000 characters {limit}\n"
    monkeypatch.delenv("CONCLAB_PRECISION")
    jobs = (f'{{"jobs": [{{"op": "rd", "poly": "t", "d": {big}}}, '
            f'{{"op": "signature", "seifert": "trefoil", "t": {big}}}, '
            f'{{"op": "rd", "poly": "t", "d": "{big}"}}, '
            f'{{"op": "dlens", "p": 5, "q": "1", "i": "-{big}"}}, '
            '{"op": "rd", "poly": "t^2-t+1", "d": "2"}]}')
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    results = json.loads(out)["results"]
    assert code == 0 and len(out) < 1000
    assert [r.pop("error_kind", None) for r in results] == ["ValidationError"] * 4 + [None]
    assert [r["error"] for r in results[:4]] == [
        f"{field}: integer literal of {k} characters {limit}"
        for field, k in (("d", 5000), ("t", 5000), ("d", 5000), ("i", 5001))]
    assert results[4]["ok"] and results[4]["result"]["r_d"] == 3
    # a malformed value reads the same on the command line and in batch
    assert main(["rd", "--poly", "t", "--d", "abc"]) == 2
    assert capsys.readouterr().err == "error: d: expected an integer, got 'abc'\n"
    code, out = run_cli(capsys, "batch", "--jobs",
                        '{"jobs": [{"op": "rd", "poly": "t", "d": "x"}]}')
    assert json.loads(out)["results"][0]["error"] == "d: expected an integer, got 'x'"
    # a field read without a size check still reports the literal by its
    # length, never by an object address
    code, out = run_cli(capsys, "batch", "--jobs", f'{{"jobs": [{{"op": {big}}}]}}')
    assert code == 0 and json.loads(out)["results"][0]["error"] == (
        "jobs[0].op: unknown operation <integer literal of 5000 characters>")
    # a literal given where an object belongs is refused by its length too
    code, out = run_cli(capsys, "batch", "--jobs", f'[{{"op": "alexander", "seifert": {big}}}]')
    assert code == 0 and json.loads(out)["results"][0]["error"] == \
        f"seifert: integer literal of 5000 characters {limit}"


def test_long_malformed_inputs_are_echoed_as_short_excerpts(capsys):
    # a long string that is not a number is shown by its first characters
    # and its length, from the integer and the rational parser alike
    junk = "x" * 5000
    shown = f"'{'x' * 39}... (5000 characters)"
    assert main(["rd", "--poly", "t", "--d", junk]) == 2
    err = capsys.readouterr().err
    assert len(err) < 400 and err == f"error: d: expected an integer, got {shown}\n"
    code = main(["signature", "--seifert", "trefoil", "--t", junk])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: t: malformed rational {shown}\n"
    code, out = run_cli(capsys, "batch", "--jobs",
                        json.dumps({"jobs": [{"op": "rd", "poly": "t", "d": junk}]}))
    assert code == 0
    assert json.loads(out)["results"][0]["error"] == f"d: expected an integer, got {shown}"
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": [{"op": junk}]}))
    assert code == 0 and json.loads(out)["results"][0]["error"] == \
        f"jobs[0].op: unknown operation {shown}"
    # an op that is not a string is an unknown operation, not a traceback
    code, out = run_cli(capsys, "batch", "--jobs", json.dumps({"jobs": [{"op": [junk]}]}))
    assert code == 0 and json.loads(out)["results"][0]["error"] == \
        f"jobs[0].op: unknown operation ['{'x' * 38}... (5004 characters)"


def test_nonpositive_orders_exit_2_and_batch_continues(capsys):
    for p in (0, -3):
        with pytest.raises(ValidationError):
            lens_d_table(p, 1)
    for n in (0, -4):
        with pytest.raises(ValidationError):
            large_surgery_d_table(n, VSequence((0,)))
    for argv in (["dlens", "--p", "0", "--q", "1"], ["dlens", "--p", "-3", "--q", "2"],
                 ["dsurgery", "--n", "-4", "--v", "0"], ["dsurgery", "--n", "0", "--v", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
    jobs = json.dumps({"jobs": [{"op": "dlens", "p": 0, "q": 1},
                                {"op": "dsurgery", "n": -4, "v": "0"},
                                {"op": "dlens", "p": 2, "q": 1}]})
    code, out = run_cli(capsys, "batch", "--jobs", jobs)
    results = json.loads(out)["results"]
    assert code == 0 and [r["ok"] for r in results] == [False, False, True]
    assert results[2]["result"]["table"]["values"] == {"0": "1/4", "1": "-1/4"}


def readme_cli_examples():
    """(argv, expected stdout or None) for each `conclab ...` line of the
    README's "Command line" section; a following "# ..." line is the
    output it shows."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = section.strip().splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("conclab "):
            shown = lines[i + 1] if i + 1 < len(lines) else ""
            out.append((shlex.split(line)[1:],
                        shown[2:] + "\n" if shown.startswith("# ") else None))
    return out


def test_readme_command_line_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    examples = readme_cli_examples()
    assert len(examples) >= 7 and any(shown for _, shown in examples)
    for argv, shown in examples:
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        if shown is not None:
            assert out == shown, argv


# --- CLI fuzz ----------------------------------------------------------------

_RATIONALS = st.sampled_from(["0", "1/3", "1/2", "2/3", "1", "3/2", "-1/4", "x"])
_INT_TEXT = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["x", "1.5", ""]))
_V_TEXT = st.lists(st.sampled_from(["0", "1", "2", "-1", "x", "1.5", " "]),
                   max_size=5).map(",".join)
_POLY_TEXT = st.one_of(
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), min_size=1, max_size=4)
    .map(lambda c: json.dumps({"coeffs": [[e, a] for e, a in c.items()]})),
    st.sampled_from(["t^", "x", "1/2", "t^-1+", "0", "T(2,3)", "T(2,4)"]))
_JUMPS = st.fixed_dictionaries({
    "ambient_period": _RATIONALS,
    "jumps": st.lists(st.fixed_dictionaries({
        "position": st.one_of(_RATIONALS, st.fixed_dictionaries(
            {"interval": st.lists(_RATIONALS, min_size=2, max_size=2)})),
        "value": st.integers(-4, 4)}), max_size=4)})
_JOB = st.one_of(
    st.fixed_dictionaries({"op": st.just("rd"), "poly": _POLY_TEXT, "d": _INT_TEXT}),
    st.fixed_dictionaries({"op": st.just("dsurgery"), "n": _INT_TEXT,
                           "v": st.one_of(_V_TEXT, st.lists(_INT_TEXT, max_size=4))}),
    st.fixed_dictionaries({"op": st.just("period"), "jumps": _JUMPS}),
    st.fixed_dictionaries({"op": st.just("scale"), "jumps": _JUMPS, "q": _INT_TEXT}))
_ARGV = st.one_of(
    st.tuples(st.just("rd"), st.just("--poly"), _POLY_TEXT, st.just("--d"), _INT_TEXT),
    st.tuples(st.just("dsurgery"), st.just("--n"), _INT_TEXT, st.just("--v"), _V_TEXT),
    st.tuples(st.just("period"), st.just("--jumps"), _JUMPS.map(json.dumps)),
    st.tuples(st.just("scale"), st.just("--jumps"), _JUMPS.map(json.dumps),
              st.just("--q"), _INT_TEXT),
    st.tuples(st.just("dlens"), st.just("--p"), _INT_TEXT, st.just("--q"), _INT_TEXT),
    st.tuples(st.just("batch"), st.just("--jobs"),
              st.lists(_JOB, max_size=3).map(lambda jobs: json.dumps({"jobs": jobs}))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ARGV)
def test_cli_fuzz_exits_0_2_or_3_without_traceback(argv):
    # every failure is a typed error with a documented exit code, returned
    # by main: a command-line mistake raises no SystemExit either
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if argv[0] == "batch" and code == 0:
        assert len(json.loads(out.getvalue())["results"]) == \
            len(json.loads(argv[2])["jobs"])
