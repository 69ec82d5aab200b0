"""Command-line front end.

Every operation of ``OPERATIONS`` is a subcommand with JSON output
(canonical: sorted keys, fixed separators, rationals as "p/q" strings), so
identical inputs produce byte-identical documents.  A command line runs as
a batch job: ``rd --poly t --d 2`` is {"op": "rd", "poly": "t", "d": "2"}.
Exit status is 0 for any successful computation regardless of verdict, 2
for input validation errors, and 3 for an INCONCLUSIVE verdict under --strict.

Inputs may be named objects (trefoil, figure-eight, unknot, T(a,b),
"unit"), inline JSON, polynomial expressions, or @path references to JSON
files.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

from . import jsonio
from ._intervals import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS
from ._value import Value
from .abgroup import FiniteAbelianGroup, square_root_subgroups
from .dinv import (DTable, VSequence, dbar_table, large_surgery_d_table,
                   lens_d_invariant, lens_d_table, lspace_v_sequence)
from .errors import ConclabError, ValidationError, excerpt
from .exprparse import parse_poly
from .obstruct import (LinkFamilySpec, obstruct_smooth, obstruct_topological)
from .polyalg import LaurentPoly, PolySet, branched_homology_order, excluded_primes
from .seifert import (FIGURE_EIGHT, TREFOIL, UNKNOT, JumpFunction, SeifertMatrix,
                      alexander_from_seifert, connected_sum, jump_function,
                      jump_locations, minimal_period, mirror, reverse,
                      scale_jump_function, signature_at)

MIN_PRECISION_BITS = 64


# ---------------------------------------------------------------------------
# field loaders: one path from a raw value, a command-line string or a
# batch job's JSON value, to its object


def _load_json_source(spec: str, what: str) -> Any:
    text = spec
    if spec.startswith("@"):
        path = Path(spec[1:])
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ValidationError(f"{what}: file not found: {path}") from None
        except OSError as e:
            raise ValidationError(f"{what}: cannot read {path}: {e.strerror or e}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"{what}: {path} is not UTF-8 text") from None
    try:
        return jsonio.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{what}: malformed JSON ({e})") from None
    except RecursionError:
        raise ValidationError(f"{what}: malformed JSON (nested too deeply)") from None


def _load(spec: Any, what: str, from_json: Callable, from_text: Callable | None = None):
    """A field's object: a string starting with '{' or '@' is inline JSON
    or a JSON file, any other string is the field's text form (JSON when
    it has none), and every JSON value goes to ``from_json``."""
    if not isinstance(spec, str):
        return from_json(spec, what)
    if from_text is None or spec.lstrip().startswith("{") or spec.startswith("@"):
        return from_json(_load_json_source(spec, what), what)
    return from_text(spec, what)


NAMED_SEIFERT = {"unknot": UNKNOT, "trefoil": TREFOIL,
                 "figure-eight": FIGURE_EIGHT, "figure8": FIGURE_EIGHT}


def _named_seifert(name: str, what: str) -> SeifertMatrix:
    try:
        return NAMED_SEIFERT[name.strip().lower()]
    except KeyError:
        raise ValidationError(
            f"{what}: unknown knot {excerpt(name)} (try unknot, trefoil, figure-eight, "
            "inline JSON, or @file)") from None


def load_seifert(spec: Any, what: str = "J") -> SeifertMatrix:
    return _load(spec, what, jsonio.seifert_from_json, _named_seifert)


def load_poly(spec: Any, what: str = "poly") -> LaurentPoly:
    return _load(spec, what, jsonio.poly_from_json, parse_poly)


def _polyset_text(spec: str, what: str) -> PolySet:
    """'unit', or ';'-separated polynomial expressions."""
    if spec.strip().lower() == "unit":
        return PolySet.of(LaurentPoly.one())
    return PolySet(tuple(parse_poly(part, f"{what}[{i}]")
                         for i, part in enumerate(spec.split(";")) if part.strip()))


def load_polyset(spec: Any, what: str = "D") -> PolySet:
    return _load(spec, what, jsonio.polyset_from_json, _polyset_text)


def load_jump_function(spec: Any, what: str = "jumps") -> JumpFunction:
    return _load(spec, what, jsonio.jump_function_from_json)


def load_dtable(spec: Any, what: str = "table") -> DTable:
    return _load(spec, what, jsonio.dtable_from_json)


def _int_arg(spec: Any, what: str) -> int:
    """An integer field, from JSON or a string; an over-long literal is
    rejected by its length, never echoed."""
    if isinstance(spec, bool) or spec is None:
        raise ValidationError(f"{what}: expected an integer")
    try:
        value = jsonio.parse_int_text(spec) if isinstance(spec, str) else spec
        jsonio.check_size(value, what)
        return value if isinstance(value, int) else int(str(value))
    except ValueError:
        raise ValidationError(f"{what}: expected an integer, got {excerpt(spec)}") from None


def _int_list(spec: Any, what: str) -> tuple[int, ...]:
    """Comma-separated integers, or a JSON array of them.  An element is
    named by its written position, empty parts counted, as in
    ``_polyset_text``."""
    if isinstance(spec, str):
        parts = [(i, x) for i, x in enumerate(spec.split(",")) if x.strip()]
    elif isinstance(spec, list):
        parts = enumerate(spec)
    else:
        raise ValidationError(f"{what}: expected a comma-separated string or an array")
    return tuple(_int_arg(x, f"{what}[{i}]") for i, x in parts)


def load_group(spec: Any, what: str = "group") -> FiniteAbelianGroup:
    return _load(spec, what, jsonio.group_from_json,
                 lambda text, what: FiniteAbelianGroup(_int_list(text, what)))


def _flag(spec: Any, what: str) -> bool:
    """A flag field: JSON true or false, or the command line's switch."""
    if not isinstance(spec, bool):
        raise ValidationError(f"{what}: expected true or false, got {excerpt(spec)}")
    return spec


def _read(dest: str, spec: Any) -> Any:
    """The object of field ``dest``, read by the field's kind; a field not
    named here is an integer.  The readers are looked up at each call, so
    a wrapper put on a loader's module name sees every read."""
    reader = {"poly": load_poly, "J0": load_poly, "D": load_polyset,
              "seifert": load_seifert, "A": load_seifert, "B": load_seifert,
              "J": load_seifert, "jumps": load_jump_function, "table": load_dtable,
              "dbar": load_dtable, "group": load_group, "v": _int_list,
              "t": jsonio.parse_rational, "reverse_a": _flag, "mirror_a": _flag,
              "reverse_b": _flag, "mirror_b": _flag, "computed": _flag,
              "jobs": lambda spec, what: spec}.get(dest, _int_arg)
    return reader(spec, dest)


def _oriented(a: SeifertMatrix, reversed_: bool, mirrored: bool) -> SeifertMatrix:
    if reversed_:
        a = reverse(a)
    if mirrored:
        a = mirror(a)
    return a


# ---------------------------------------------------------------------------
# operations (shared by the command line and batch jobs); each receives
# every field it declares as its object (see ``_job_params``)


def op_rd(params: dict, precision: int) -> dict:
    f = params["poly"]
    d = params["d"]
    return {"poly": jsonio.poly_to_json(f), "d": d,
            "r_d": branched_homology_order(f, d)}


def op_primeset(params: dict, precision: int) -> dict:
    ps = params["D"]
    d = params["d"]
    out = jsonio.primeset_to_json(excluded_primes(ps, d))
    out["D"] = jsonio.polyset_to_json(ps)
    return out


def op_alexander(params: dict, precision: int) -> dict:
    a = params["seifert"]
    f = alexander_from_seifert(a)
    with jsonio.exact_digits():
        display = str(f)
    return {"seifert": jsonio.seifert_to_json(a),
            "alexander": jsonio.poly_to_json(f),
            "display": display,
            "normalized": f.is_alexander_normalized}


def op_signature(params: dict, precision: int) -> dict:
    a = params["seifert"]
    t = params["t"]
    return {"t": jsonio.rational_str(t), "signature": signature_at(a, t)}


def op_jumps(params: dict, precision: int) -> dict:
    a = params["seifert"]
    c = params["c"]
    jf = jump_function(a, c, precision)
    locs = jump_locations(a, precision)
    return {"jump_function": jsonio.jump_function_to_json(jf),
            "locations": [jsonio.position_to_json(p) for p in locs]}


def op_period(params: dict, precision: int) -> dict:
    jf = params["jumps"]
    mp = minimal_period(jf)
    out = jsonio.minimal_period_to_json(mp)
    return {"kind": out["kind"], "minimal_period": out["value"]}


def op_sum(params: dict, precision: int) -> dict:
    a = _oriented(params["A"], params["reverse_a"], params["mirror_a"])
    b = _oriented(params["B"], params["reverse_b"], params["mirror_b"])
    return {"sum": jsonio.seifert_to_json(connected_sum(a, b))}


def op_scale(params: dict, precision: int) -> dict:
    jf = params["jumps"]
    q = params["q"]
    return {"jump_function": jsonio.jump_function_to_json(scale_jump_function(jf, q))}


def op_dlens(params: dict, precision: int) -> dict:
    p = params["p"]
    q = params["q"]
    orientation = params["orientation"]
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    if params["i"] is not None:
        i = params["i"]
        val = orientation * lens_d_invariant(p, q, i)
        return {"p": p, "q": q, "i": i, "d": jsonio.rational_str(val)}
    return {"p": p, "q": q, "table": jsonio.dtable_to_json(lens_d_table(p, q, orientation))}


def op_vseq(params: dict, precision: int) -> dict:
    f = params["poly"]
    v = lspace_v_sequence(f)
    return {"poly": jsonio.poly_to_json(f), "v_sequence": list(v.values),
            "genus": v.genus}


def op_dsurgery(params: dict, precision: int) -> dict:
    n = params["n"]
    raw = params["v"]
    if raw is not None and params["poly"] is not None:
        raise ValidationError("give either a polynomial or a V-sequence, not both")
    if raw is None and params["poly"] is None:
        raise ValidationError("one of --poly and --v is needed: a polynomial or a V-sequence")
    v = VSequence(raw) if raw is not None else lspace_v_sequence(params["poly"])
    return {"n": n, "v_sequence": list(v.values),
            "table": jsonio.dtable_to_json(large_surgery_d_table(n, v))}


def op_dbar(params: dict, precision: int) -> dict:
    t = params["table"]
    return {"dbar": jsonio.dtable_to_json(dbar_table(t))}


def op_metabolizers(params: dict, precision: int) -> dict:
    g = params["group"]
    q = params["q"]
    res = square_root_subgroups(g, q)
    return {"group": jsonio.group_to_json(g), "q": q,
            "primary_order": res.primary_order,
            "primary_order_is_square": res.is_square,
            "candidates": [jsonio.subgroup_to_json(s) for s in res.candidates]}


def op_obstruct_top(params: dict, precision: int) -> dict:
    spec = LinkFamilySpec(params["m"], params["J"], params["J0"])
    ps = params["D"]
    return jsonio.topological_verdict_to_json(
        obstruct_topological(spec, ps, precision))


def op_obstruct_smooth(params: dict, precision: int) -> dict:
    spec = LinkFamilySpec(params["m"], params["J"], params["J0"])
    ps = params["D"]
    if params["dbar"] is not None and params["computed"]:
        raise ValidationError("give either an external dbar table or --computed, not both")
    return jsonio.smooth_verdict_to_json(obstruct_smooth(spec, ps, params["dbar"]))


def op_batch(params: dict, precision: int) -> dict:
    jobs_spec = params["jobs"]
    if isinstance(jobs_spec, str):
        jobs_spec = _load_json_source(jobs_spec, "jobs")
    if isinstance(jobs_spec, dict):
        jobs_spec = jobs_spec.get("jobs")
    if not isinstance(jobs_spec, list):
        raise ValidationError("jobs: expected an array of job objects")
    results = []
    for i, job in enumerate(jobs_spec):
        op = job.get("op") if isinstance(job, dict) else None
        try:
            if not isinstance(job, dict) or "op" not in job:
                raise ValidationError(f"jobs[{i}]: expected an object with an 'op' field")
            if not isinstance(op, str) or op not in OPERATIONS or op == "batch":
                raise ValidationError(f"jobs[{i}].op: unknown operation {excerpt(op)}")
            given = {key: value for key, value in job.items() if key != "op"}
            result = OPERATIONS[op].handler(_job_params(op, given), precision)
            results.append({"op": op, "ok": True, "result": result})
        except ConclabError as e:
            results.append({"op": op if isinstance(op, str) else None, "ok": False,
                            "error": str(e), "error_kind": type(e).__name__})
    return {"results": results}


def _job_params(op: str, given: Mapping) -> dict:
    """A job's params: exactly its operation's fields, each given or at its
    default, read by ``_read``; an optional field with default None may stay None."""
    fields = OPERATIONS[op].fields
    declared = {a.dest for a in fields}
    for key in given:
        if key not in declared:
            raise ValidationError(f"{op} has no field {excerpt(key)}")
    for a in fields:
        if a.required and a.dest not in given:
            raise ValidationError(f"{op} requires the field {a.dest!r}")
    return {a.dest: None if not a.required and a.default is None and given.get(a.dest) is None
            else _read(a.dest, given.get(a.dest, a.default)) for a in fields}


# ---------------------------------------------------------------------------
# the operation table, and the command line read as a job


class Field(Value):
    """A field: ``--dest`` on the command line (a dash for each underscore),
    ``"dest"`` in a job; a switch is bare there and true or false here."""

    __slots__ = _fields = ("dest", "required", "default", "switch", "help")
    _defaults = {"required": False, "default": None, "switch": False, "help": ""}


class Operation(Value):
    __slots__ = _fields = ("handler", "help", "fields")


# the one declaration of every operation, read by ``main`` and ``op_batch``
OPERATIONS = {
    "rd": Operation(op_rd, "homology order of the d-fold branched cover", (
        Field("poly", required=True, help="polynomial expression, JSON, or @file"),
        Field("d", required=True, help="covering degree"))),
    "primeset": Operation(op_primeset, "primes excluded by a polynomial collection", (
        Field("D", required=True, help="'unit', 'f1;f2;...', JSON, or @file"),
        Field("d", required=True, help="prime-power covering degree"))),
    "alexander": Operation(op_alexander, "Alexander polynomial of a Seifert matrix", (
        Field("seifert", required=True, help="named knot, JSON, or @file"),)),
    "signature": Operation(op_signature, "signature at a rational circle parameter", (
        Field("seifert", required=True),
        Field("t", required=True, help="rational in (0,1), e.g. 1/2"))),
    "jumps": Operation(op_jumps, "signature jump function and jump locations", (
        Field("seifert", required=True),
        Field("c", default=1, help="complexity reparametrization"))),
    "period": Operation(op_period, "minimal period of a jump function", (
        Field("jumps", required=True, help="jump function JSON or @file"),)),
    "sum": Operation(op_sum, "connected sum of Seifert matrices", (
        Field("A", required=True), Field("B", required=True),
        *(Field(dest, default=False, switch=True)
          for dest in ("reverse_a", "mirror_a", "reverse_b", "mirror_b")))),
    "scale": Operation(op_scale, "rescale a jump function by a positive integer", (
        Field("jumps", required=True), Field("q", required=True))),
    "dlens": Operation(op_dlens, "lens space correction terms", (
        Field("p", required=True), Field("q", required=True),
        Field("i", help="single label (default: full table)"),
        Field("orientation", default=1, help="1 or -1"))),
    "vseq": Operation(op_vseq, "V-sequence of an L-space knot polynomial", (
        Field("poly", required=True),)),
    "dsurgery": Operation(op_dsurgery, "n-surgery correction-term table, any n >= 1 (Ni-Wu)", (
        Field("n", required=True), Field("poly", help="L-space knot polynomial"),
        Field("v", help="explicit V-sequence, e.g. '1,0'"))),
    "dbar": Operation(op_dbar, "reduced table d(s) - d(0), based at label 0", (
        Field("table", required=True, help="correction table JSON or @file; the base "
              "point is label 0, not the spin structure of a dlens table "
              "with q != 1 (mod p)"),)),
    "metabolizers": Operation(op_metabolizers, "square-root-order subgroups of a primary part", (
        Field("group", required=True, help="invariant factors, e.g. '9' or '3,3'"),
        Field("q", required=True))),
    "obstruct-top": Operation(op_obstruct_top, "topological pipeline on the L(m,J) family", (
        Field("m", required=True), Field("J", required=True), Field("D", required=True),
        Field("J0", default="1"))),
    "obstruct-smooth": Operation(op_obstruct_smooth, "smooth correction-term pipeline on L(m,J)", (
        Field("m", required=True), Field("J", default="unknot"),
        Field("D", required=True), Field("J0", default="1"),
        Field("dbar", help="external reduced table JSON or @file"),
        Field("computed", default=False, switch=True,
              help="no effect: without --dbar the table is computed anyway "
              "(requires J = unknot); refused beside --dbar"))),
    "batch": Operation(op_batch, "run a list of jobs from JSON", (
        Field("jobs", required=True, help="JSON array of jobs or @file"),)),
}

# the command line's own options, which no job field shares
COMMON_FIELDS = (
    Field("format", default="json", help="json or human"),
    Field("output", help="write the report to a file"),
    Field("strict", default=False, switch=True, help="exit 3 on INCONCLUSIVE verdicts"),
    Field("precision", help=f"bits for interval fallbacks (default {DEFAULT_PRECISION_BITS}, "
          f"min {MIN_PRECISION_BITS}, max {MAX_PRECISION_BITS}; env CONCLAB_PRECISION)"))


def _command(argv: list[str]) -> tuple[str, dict]:
    """The operation and fields of a command line: ``--name value``, ``--name=value``
    or a bare switch, the value verbatim; a dash in a name stands for an underscore."""
    if not argv or argv[0] not in OPERATIONS:
        raise ValidationError(f"expected an operation, got {excerpt(argv[0]) if argv else 'none'}")
    op, rest = argv[0], iter(argv[1:])
    switch = {a.dest: a.switch for a in OPERATIONS[op].fields + COMMON_FIELDS}
    given: dict[str, Any] = {}
    for arg in rest:
        name, eq, value = arg.partition("=")
        if not name.startswith("--"):
            raise ValidationError(f"unexpected argument {excerpt(arg)}")
        dest = name[2:].replace("-", "_")
        if dest in switch and not eq:
            value = True if switch[dest] else next(rest, None)
            if value is None:
                raise ValidationError(f"{dest}: expected a value")
        given[dest] = value
        if dest not in switch:      # the job's own check names it
            break
    return op, given


def _help(op: str | None) -> str:
    """The -h/--help text: the operations, or one's fields and the options."""
    if op is None:
        head = ("usage: conclab OPERATION --FIELD VALUE ...\n\nExact link-concordance "
                "obstruction calculator.  Operations (OPERATION --help lists its fields):")
        rows = [(name, entry.help) for name, entry in OPERATIONS.items()]
    else:
        head = f"usage: conclab {op} --FIELD VALUE ...\n\n{OPERATIONS[op].help}.  Fields:"
        rows = [("--" + a.dest.replace("_", "-") + ("" if a.switch else " " + a.dest.upper()),
                 a.help + (" (required)" if a.required else "" if a.default in (None, False)
                           else f" (default {a.default})"))
                for a in OPERATIONS[op].fields + COMMON_FIELDS]
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([head] + [f"  {name:<{width}}{text.strip()}".rstrip() for name, text in rows])


def _render_human(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if not isinstance(value, (dict, list)):
        return [f"{pad}{json.dumps(value)}"]
    items = [(f"{k}:", value[k]) for k in sorted(value)] if isinstance(value, dict) \
        else [("-", v) for v in value]
    lines: list[str] = []
    for head, v in items:
        if isinstance(v, (dict, list)) and v:
            lines += [f"{pad}{head}"] + _render_human(v, indent + 1)
        else:
            lines.append(f"{pad}{head} {json.dumps(v)}")
    return lines


def _resolve_precision(given: Any) -> int:
    if given is not None:
        precision = _int_arg(given, "precision")
    else:
        env = os.environ.get("CONCLAB_PRECISION")
        precision = DEFAULT_PRECISION_BITS if env is None \
            else _int_arg(env, "CONCLAB_PRECISION")
    if precision < MIN_PRECISION_BITS:
        raise ValidationError(
            f"precision {precision} below the minimum {MIN_PRECISION_BITS}")
    if precision > MAX_PRECISION_BITS:
        raise ValidationError(
            f"precision {precision} above the maximum {MAX_PRECISION_BITS}")
    return precision


def _verdict_inconclusive(payload: dict) -> bool:
    return payload.get("verdict") == "INCONCLUSIVE" or any(
        isinstance(res, dict) and isinstance(res.get("result"), dict)
        and res["result"].get("verdict") == "INCONCLUSIVE"
        for res in payload.get("results", []))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help(argv[0] if argv[0] in OPERATIONS else None))
        return 0
    try:
        op, given = _command(argv)
        opts = {a.dest: given.pop(a.dest, a.default) for a in COMMON_FIELDS}
        if opts["format"] not in ("json", "human"):
            raise ValidationError(f"format: expected json or human, got {excerpt(opts['format'])}")
        strict = _flag(opts["strict"], "strict")
        precision = _resolve_precision(opts["precision"])
        payload = OPERATIONS[op].handler(_job_params(op, given), precision)
    except ConclabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if opts["format"] == "json":
        text = jsonio.canonical_dumps(payload)
    else:
        with jsonio.exact_digits():
            text = "\n".join(_render_human(payload))
    if opts["output"]:
        try:
            Path(opts["output"]).write_text(text + "\n")
        except OSError as e:
            print(f"error: output: cannot write {opts['output']}: {e.strerror or e}",
                  file=sys.stderr)
            return 2
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError as e:
            # the reader is gone: send what is still buffered to devnull, so
            # the flush at exit stays silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: output: cannot write stdout: {e.strerror or e}", file=sys.stderr)
            return 2
    if strict and _verdict_inconclusive(payload):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
