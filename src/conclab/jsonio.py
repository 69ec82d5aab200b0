"""Canonical JSON serialization for every public type.

Rationals are "p/q" strings with q > 0 and gcd(p, q) = 1 (plain "p" for
integers, matching ``str(Fraction)``).  Serialization is deterministic:
sorted keys, fixed separators, ASCII output; identical values produce
byte-identical documents.  Parsers validate shapes and report offending
field paths.

Integers print exactly however long they are: the interpreter's int/str
digit limit is lifted while a document is rendered (``exact_digits``),
and by ``rational_str`` only for a value past it.  On input it stays: an
integer literal past it is left unparsed by ``loads`` and rejected by
the parser of its field, with that field's path.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Any

from ._intervals import RatInterval
from .abgroup import Element, FiniteAbelianGroup, Subgroup
from .dinv import (CandidateReport, DTable, MetabolizerVerdict)
from .errors import ValidationError, excerpt, int_literal
from .obstruct import (LinkFamilySpec, PeriodCheck, SmoothVerdict,
                       SurgeryModel, TopologicalVerdict)
from .polyalg import LaurentPoly, PolySet, PrimeSetComplement
from .seifert import (Jump, JumpFunction, MinimalPeriod, SeifertMatrix)


@contextlib.contextmanager
def exact_digits():
    """Lift the int/str digit limit for the duration, then restore it.
    Pythons older than 3.10.7 have no limit, and nothing is done."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def canonical_dumps(payload: Any) -> str:
    with exact_digits():
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True)


def rational_str(x: Fraction | int) -> str:
    """str(Fraction(x)), the digit limit lifted only for a value past it."""
    return ratio_str(x.numerator, x.denominator)


def ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for coprime p and q > 0, without building the
    Fraction; the digit limit is lifted only for a value past it."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:   # past the int/str digit limit
        with exact_digits():
            return str(p) if q == 1 else f"{p}/{q}"


class OversizeInt:
    """A JSON integer literal past the digit limit, left unparsed so that
    the parser of its field can reject it by path (``check_size``)."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"<integer literal of {len(self.text)} characters>"


def loads(text: str) -> Any:
    """json.loads, with oversize integer literals kept as OversizeInt."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:   # the C scanner refused a literal past the digit limit
        return json.loads(text, parse_int=parse_int_text)


_INT_TEXT = re.compile(r"\s*[+-]?\d(?:_?\d)*\s*")
_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*")


def parse_int_text(text: str) -> int | OversizeInt:
    """int(text), except that a well-formed literal past the digit limit
    is kept as OversizeInt, for ``check_size`` to reject by field path.
    Other text that is not an integer raises ValueError.

    >>> parse_int_text(" -12 "), parse_int_text("7" * 5000)
    (-12, <integer literal of 5000 characters>)
    """
    try:
        return int(text)
    except ValueError:
        if _INT_TEXT.fullmatch(text):
            return OversizeInt(text.strip())
        raise


def check_size(obj: Any, path: str) -> None:
    if isinstance(obj, OversizeInt):
        int_literal(obj.text, path)  # raises: the literal is past the limit


def parse_rational(text: Any, path: str = "value") -> Fraction:
    check_size(text, path)
    if isinstance(text, bool):
        raise ValidationError(f"{path}: expected a rational, got a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        # only "p" and "p/q": Fraction would also read decimal and exponent
        # forms, and "1e-1000000000" builds its integer before any check
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValidationError(f"{path}: malformed rational {excerpt(text)}")
        try:
            return Fraction(text)
        except ValueError:   # well formed, so past the digit limit
            raise ValidationError(
                f"{path}: rational literal of {len(text.strip())} characters "
                "exceeds the interpreter's digit limit") from None
        except ZeroDivisionError:
            raise ValidationError(f"{path}: malformed rational {excerpt(text)}") from None
    raise ValidationError(f"{path}: expected a rational string, got {type(text).__name__}")


def _expect_dict(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        check_size(obj, path)
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj: Any, path: str) -> list:
    if not isinstance(obj, list):
        check_size(obj, path)
        raise ValidationError(f"{path}: expected an array, got {type(obj).__name__}")
    return obj


def _expect_int(obj: Any, path: str) -> int:
    check_size(obj, path)
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{path}: expected an integer, got {excerpt(obj)}")
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
    out: dict[str, Any] = {"matrix": [[x if type(x) is int else rational_str(x) for x in row]
                                      for row in a.entries]}
    if a.label:
        out["label"] = a.label
    return out


def seifert_from_json(obj: Any, path: str = "J") -> SeifertMatrix:
    d = _expect_dict(obj, path)
    rows = _expect_list(d.get("matrix"), f"{path}.matrix")
    parsed = []
    for i, row in enumerate(rows):
        entries = _expect_list(row, f"{path}.matrix[{i}]")
        # plain JSON ints pass through; a path is built only to parse or
        # reject anything else (bools, strings, oversize literals)
        parsed.append([x if type(x) is int else parse_rational(x, f"{path}.matrix[{i}][{j}]")
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
    lo = parse_rational(iv[0], f"{path}.interval[0]")
    hi = parse_rational(iv[1], f"{path}.interval[1]")
    if lo > hi:
        raise ValidationError(f"{path}.interval: lower end {lo} above upper end {hi}")
    return RatInterval(lo, hi)


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
    if "exactness" not in d:   # inferred from the positions
        return JumpFunction(period, tuple(jumps))
    exactness = d["exactness"]
    numeric = re.fullmatch(r"numeric\(([1-9][0-9]*)\)", exactness) \
        if isinstance(exactness, str) else None
    if exactness != "exact" and numeric is None:
        raise ValidationError(f"{path}.exactness: malformed {excerpt(exactness)}")
    interval = next((i for i, j in enumerate(jumps)
                     if isinstance(j.position, RatInterval)), None)
    if numeric is None and interval is not None:
        raise ValidationError(f"{path}.exactness: 'exact' contradicts the interval "
                              f"position {path}.jumps[{interval}].position")
    if numeric is not None and interval is None:
        raise ValidationError(f"{path}.exactness: {excerpt(exactness)} but no "
                              "position is an interval")
    precision = int_literal(numeric[1], f"{path}.exactness") if numeric else None
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
    return str(x[0]) if len(x) == 1 else ",".join(map(str, x))


def element_from_key(key: str, group: FiniteAbelianGroup, path: str) -> Element:
    coords: tuple[int, ...] = ()
    if key != "":
        try:
            coords = tuple(parse_int_text(c) for c in key.split(","))
        except ValueError:
            raise ValidationError(f"{path}: malformed element key {excerpt(key)}") from None
        for c in coords:
            check_size(c, path)
    if len(coords) != group.rank:
        raise ValidationError(
            f"{path}: element {excerpt(key)} has {len(coords)} coordinates, "
            f"group has rank {group.rank}")
    return group.reduce(coords)


def subgroup_to_json(s: Subgroup) -> dict:
    return {"generators": [list(g) for g in s.generators],
            "order": s.order,
            "elements": [list(x) for x in s.sorted_elements()]}


def dtable_to_json(t: DTable) -> dict:
    """The table's JSON, each distinct value formatted once."""
    nums, den = t.numerators, t.denominator
    text = {}
    for n in set(nums.values()):
        g = gcd(n, den)
        text[n] = ratio_str(n // g, den // g)
    values = dict(zip(map(element_key, nums), [text[n] for n in nums.values()]))
    return {"group": group_to_json(t.group), "values": values, "provenance": t.provenance}


def dtable_from_json(obj: Any, path: str = "table") -> DTable:
    d = _expect_dict(obj, path)
    group = group_from_json(d.get("group"), f"{path}.group")
    vals = _expect_dict(d.get("values"), f"{path}.values")
    mapping, keys = {}, {}
    for key, raw in vals.items():
        elem = element_from_key(key, group, f"{path}.values[{excerpt(key)}]")
        if elem in keys:
            raise ValidationError(f"{path}.values: keys {excerpt(keys[elem])} and "
                                  f"{excerpt(key)} both name the element {element_key(elem)}")
        keys[elem] = key
        mapping[elem] = parse_rational(raw, f"{path}.values[{excerpt(key)}]")
    provenance = d.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise ValidationError(f"{path}.provenance: expected a string")
    return DTable.from_values(group, dict(sorted(mapping.items())), provenance)


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
