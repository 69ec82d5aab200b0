"""Canonical JSON serialization for every public type.

Rationals are "p/q" strings with q > 0 and gcd(p, q) = 1 (plain "p" for
integers, matching ``str(Fraction)``).  Serialization is deterministic:
sorted keys, fixed separators, ASCII output; identical values produce
byte-identical documents.  Parsers validate shapes and report offending
field paths.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from ._intervals import RatInterval
from .abgroup import Element, FiniteAbelianGroup, Subgroup
from .dinv import (CandidateReport, DTable, MetabolizerVerdict)
from .errors import ValidationError
from .obstruct import (LinkFamilySpec, PeriodCheck, SmoothVerdict,
                       SurgeryModel, TopologicalVerdict)
from .polyalg import LaurentPoly, PolySet, PrimeSetComplement
from .seifert import (Jump, JumpFunction, MinimalPeriod, SeifertMatrix)


def canonical_dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def rational_str(x: Fraction | int) -> str:
    return str(Fraction(x))


def parse_rational(text: Any, path: str = "value") -> Fraction:
    if isinstance(text, bool):
        raise ValidationError(f"{path}: expected a rational, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{path}: malformed rational {text!r}") from None
    raise ValidationError(f"{path}: expected a rational string, got {type(text).__name__}")


def _expect_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{path}: expected an array, got {type(obj).__name__}")
    return obj


def _expect_int(obj: Any, path: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{path}: expected an integer, got {obj!r}")
    return obj


# --- polynomials -----------------------------------------------------------


def poly_to_json(f: LaurentPoly) -> dict:
    return {"coeffs": [[e, c] for e, c in f.pairs]}


def poly_from_json(obj: Any, path: str = "poly") -> LaurentPoly:
    d = _expect_dict(obj, path)
    pairs = _expect_list(d.get("coeffs"), f"{path}.coeffs")
    coeffs: dict[int, int] = {}
    for i, pair in enumerate(pairs):
        row = _expect_list(pair, f"{path}.coeffs[{i}]")
        if len(row) != 2:
            raise ValidationError(f"{path}.coeffs[{i}]: expected [exponent, coefficient]")
        e = _expect_int(row[0], f"{path}.coeffs[{i}][0]")
        c = _expect_int(row[1], f"{path}.coeffs[{i}][1]")
        if e in coeffs:
            raise ValidationError(f"{path}.coeffs[{i}]: duplicate exponent {e}")
        coeffs[e] = c
    return LaurentPoly.from_dict(coeffs)


def polyset_to_json(ps: PolySet) -> dict:
    return {"polys": [poly_to_json(f) for f in ps.polys]}


def polyset_from_json(obj: Any, path: str = "D") -> PolySet:
    d = _expect_dict(obj, path)
    items = _expect_list(d.get("polys"), f"{path}.polys")
    return PolySet(tuple(poly_from_json(p, f"{path}.polys[{i}]")
                         for i, p in enumerate(items)))


def primeset_to_json(ps: PrimeSetComplement) -> dict:
    return {"d": ps.d, "excluded": ps.sorted_excluded()}


# --- Seifert matrices and jump functions -----------------------------------


def seifert_to_json(a: SeifertMatrix) -> dict:
    rows = []
    for row in a.entries:
        rows.append([int(x) if x.denominator == 1 else rational_str(x) for x in row])
    out: dict[str, Any] = {"matrix": rows}
    if a.label:
        out["label"] = a.label
    return out


def seifert_from_json(obj: Any, path: str = "J") -> SeifertMatrix:
    d = _expect_dict(obj, path)
    rows = _expect_list(d.get("matrix"), f"{path}.matrix")
    parsed = []
    for i, row in enumerate(rows):
        entries = _expect_list(row, f"{path}.matrix[{i}]")
        parsed.append([parse_rational(x, f"{path}.matrix[{i}][{j}]")
                       for j, x in enumerate(entries)])
        if len(entries) != len(rows):
            raise ValidationError(
                f"{path}.matrix[{i}]: expected {len(rows)} entries, got {len(entries)}")
    label = d.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError(f"{path}.label: expected a string")
    return SeifertMatrix.from_rows(parsed, label)


def position_to_json(p) -> Any:
    if isinstance(p, Fraction):
        return rational_str(p)
    return {"interval": [rational_str(p.lo), rational_str(p.hi)]}


def _position_from_json(obj: Any, path: str):
    if isinstance(obj, (str, int)):
        return parse_rational(obj, path)
    d = _expect_dict(obj, path)
    iv = _expect_list(d.get("interval"), f"{path}.interval")
    if len(iv) != 2:
        raise ValidationError(f"{path}.interval: expected [lo, hi]")
    return RatInterval(parse_rational(iv[0], f"{path}.interval[0]"),
                       parse_rational(iv[1], f"{path}.interval[1]"))


def jump_function_to_json(jf: JumpFunction) -> dict:
    return {
        "ambient_period": rational_str(jf.ambient_period),
        "jumps": [{"position": position_to_json(j.position), "value": j.value}
                  for j in jf.jumps],
        "exactness": jf.exactness,
    }


def jump_function_from_json(obj: Any, path: str = "jumps") -> JumpFunction:
    d = _expect_dict(obj, path)
    period = parse_rational(d.get("ambient_period"), f"{path}.ambient_period")
    items = _expect_list(d.get("jumps"), f"{path}.jumps")
    jumps = []
    for i, item in enumerate(items):
        jd = _expect_dict(item, f"{path}.jumps[{i}]")
        pos = _position_from_json(jd.get("position"), f"{path}.jumps[{i}].position")
        val = _expect_int(jd.get("value"), f"{path}.jumps[{i}].value")
        jumps.append(Jump(pos, val))
    precision = None
    exactness = d.get("exactness", "exact")
    if isinstance(exactness, str) and exactness.startswith("numeric("):
        try:
            precision = int(exactness[8:-1])
        except ValueError:
            raise ValidationError(f"{path}.exactness: malformed {exactness!r}") from None
    return JumpFunction(period, tuple(jumps), precision)


def minimal_period_to_json(mp: MinimalPeriod) -> dict:
    return {"kind": mp.kind,
            "value": rational_str(mp.value) if mp.value is not None else None}


# --- groups and tables ------------------------------------------------------


def group_to_json(g: FiniteAbelianGroup) -> dict:
    return {"invariant_factors": list(g.invariant_factors)}


def group_from_json(obj: Any, path: str = "group") -> FiniteAbelianGroup:
    d = _expect_dict(obj, path)
    facs = _expect_list(d.get("invariant_factors"), f"{path}.invariant_factors")
    return FiniteAbelianGroup(tuple(
        _expect_int(x, f"{path}.invariant_factors[{i}]") for i, x in enumerate(facs)))


def element_key(x: Element) -> str:
    return ",".join(str(c) for c in x)


def element_from_key(key: str, group: FiniteAbelianGroup, path: str) -> Element:
    if key == "":
        coords: tuple[int, ...] = ()
    else:
        try:
            coords = tuple(int(c) for c in key.split(","))
        except ValueError:
            raise ValidationError(f"{path}: malformed element key {key!r}") from None
    if len(coords) != group.rank:
        raise ValidationError(
            f"{path}: element {key!r} has {len(coords)} coordinates, "
            f"group has rank {group.rank}")
    return group.reduce(coords)


def subgroup_to_json(s: Subgroup) -> dict:
    return {"generators": [list(g) for g in s.generators],
            "order": s.order,
            "elements": [list(x) for x in s.sorted_elements()]}


def dtable_to_json(t: DTable) -> dict:
    return {"group": group_to_json(t.group),
            "values": {element_key(k): rational_str(v) for k, v in t.values},
            "provenance": t.provenance}


def dtable_from_json(obj: Any, path: str = "table") -> DTable:
    d = _expect_dict(obj, path)
    group = group_from_json(d.get("group"), f"{path}.group")
    vals = _expect_dict(d.get("values"), f"{path}.values")
    mapping = {}
    for key, raw in vals.items():
        elem = element_from_key(key, group, f"{path}.values[{key!r}]")
        mapping[elem] = parse_rational(raw, f"{path}.values[{key!r}]")
    provenance = d.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ValidationError(f"{path}.provenance: expected a string")
    return DTable.from_map(group, mapping, provenance)


# --- verdict records ---------------------------------------------------------


def period_check_to_json(pc: PeriodCheck) -> dict:
    return {"verdict": pc.verdict,
            "smallest_integer_period": pc.smallest_integer_period,
            "offending_primes": list(pc.offending_primes),
            "witness_period": pc.witness_period}


def family_spec_to_json(spec: LinkFamilySpec) -> dict:
    return {"m": spec.m, "q": spec.q,
            "J": seifert_to_json(spec.J),
            "J0_alexander": poly_to_json(spec.J0_alexander)}


def topological_verdict_to_json(v: TopologicalVerdict) -> dict:
    return {
        "pipeline": "topological",
        "verdict": v.verdict,
        "family": family_spec_to_json(v.spec),
        "covering_degree": v.covering_degree,
        "excluded_primes": primeset_to_json(v.excluded),
        "covering_jump_function": jump_function_to_json(v.jumps),
        "minimal_period": minimal_period_to_json(v.minimal),
        "period_check": period_check_to_json(v.period_check) if v.period_check else None,
        "note": v.note,
    }


def metabolizer_verdict_to_json(m: MetabolizerVerdict) -> dict:
    return {
        "status": m.status,
        "q": m.search.q,
        "primary_order": m.search.primary_order,
        "primary_order_is_square": m.search.is_square,
        "candidates": [candidate_report_to_json(r) for r in m.reports],
        "witness": subgroup_to_json(m.witness) if m.witness else None,
    }


def candidate_report_to_json(r: CandidateReport) -> dict:
    return {
        "subgroup": subgroup_to_json(r.subgroup),
        "dbar_violations": [[element_key(x), rational_str(v)] for x, v in r.violations],
        "missing": [element_key(x) for x in r.missing],
        "vanishes": r.vanishes,
    }


def surgery_model_to_json(model: SurgeryModel) -> dict:
    return {
        "n": model.n,
        "core_polynomial": poly_to_json(model.core_polynomial),
        "h1_M": group_to_json(model.h1_m),
        "h1_M0_order": model.h1_m0_order,
    }


def smooth_verdict_to_json(v: SmoothVerdict) -> dict:
    return {
        "pipeline": "smooth",
        "verdict": v.verdict,
        "family": family_spec_to_json(v.spec),
        "excluded_primes": primeset_to_json(v.excluded),
        "surgery_model": surgery_model_to_json(v.model),
        "dbar_source": v.dbar_source,
        "dbar": dtable_to_json(v.dbar) if v.dbar is not None else None,
        "metabolizer_search": metabolizer_verdict_to_json(v.metabolizer),
        "note": v.note,
    }
