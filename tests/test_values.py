"""Value semantics of conclab's records, and the import footprint of the CLI."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conclab import seifert
from conclab._intervals import RatInterval
from conclab._value import Value
from conclab.abgroup import FiniteAbelianGroup, generated_subgroup, square_root_subgroups
from conclab.dinv import DTable, VSequence, dbar_vanishing_obstruction, lens_d_table
from conclab.obstruct import (LinkFamilySpec, SmoothVerdict, build_surgery_model,
                              obstruct_smooth, obstruct_topological,
                              period_coprimality_check)
from conclab.polyalg import LaurentPoly, PolySet, PrimeSetComplement
from conclab.seifert import (TREFOIL, UNKNOT, Jump, MinimalPeriod, SeifertMatrix,
                             jump_function)

_UNIT = PolySet.of(LaurentPoly.one())
_Z9 = FiniteAbelianGroup((9,))
_SMOOTH = obstruct_smooth(LinkFamilySpec(1, UNKNOT), _UNIT)
_VANISHING = dbar_vanishing_obstruction(DTable.from_values(_Z9, {(3,): Fraction(2), (6,): Fraction(2)}), 3)
_FIG8 = [[1, 1], [0, -1]]


def _samples():
    """One record of each class, with a second one built apart from it
    from equal fields."""
    records = [
        RatInterval(Fraction(1), Fraction(2)),
        LaurentPoly.from_dict({1: 1, 0: -1, -1: 1}),
        _UNIT,
        PrimeSetComplement(2, frozenset({3, 5})),
        FiniteAbelianGroup((3, 9)),
        generated_subgroup(_Z9, [(3,)]),
        square_root_subgroups(_Z9, 3),
        LinkFamilySpec(1, TREFOIL),
        period_coprimality_check(Fraction(3), PrimeSetComplement(2, frozenset())),
        obstruct_topological(LinkFamilySpec(1, TREFOIL), _UNIT),
        build_surgery_model(LinkFamilySpec(1, UNKNOT)),
        _SMOOTH,
        SmoothVerdict(*(getattr(_SMOOTH, f) for f in SmoothVerdict._fields[:6])),
        VSequence((1, 0)),
        lens_d_table(2, 1),
        _VANISHING.reports[0],
        _VANISHING,
        seifert._CycRoot(6, 1),
        seifert._RemRoot((-2, 0, 1), Fraction(1), Fraction(2)),
        seifert._circle_data(TREFOIL),
        Jump(Fraction(1, 2), -2),
        jump_function(TREFOIL),
        MinimalPeriod("exact", Fraction(1)),
    ]
    pairs = [(r, type(r)(*(getattr(r, f) for f in r._fields))) for r in records]
    pairs.append((SeifertMatrix.from_rows(_FIG8, "4_1"),
                  SeifertMatrix(tuple(tuple(map(Fraction, row)) for row in _FIG8), "4_1")))
    return pairs


_PAIRS = _samples()


def test_samples_cover_every_record_class():
    def subclasses(cls):
        return {cls} | {c for s in cls.__subclasses__() for c in subclasses(s)}
    records = subclasses(Value) - {Value}
    assert {type(a) for a, _ in _PAIRS} == records
    # value semantics come from Value alone; a record may only refuse hashing
    for cls in records:
        assert not {"__eq__", "__reduce__"} & set(vars(cls)), cls
        assert vars(cls).get("__hash__") is None, cls


@pytest.mark.parametrize("a, b", _PAIRS, ids=lambda r: type(r).__name__)
def test_record_value_semantics(a, b):
    assert a is not b and a == b and not a != b
    if type(a).__hash__ is None or getattr(a, "dbar", None) is not None:
        # a table holds a dict, the circle data lists
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    other = type("Other", (type(a),), {})(*(getattr(a, f) for f in a._fields))
    assert a != other and other != a
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == (f"{type(a).__name__}("
                       + ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields) + ")")
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a and type(twin) is type(a) and twin == a
    fields = {f: getattr(a, f) for f in a._fields}
    assert type(a)(**fields) == a
    with pytest.raises(TypeError):
        type(a)(**fields, no_such_field=None)
    with pytest.raises(TypeError):
        type(a)(*fields.values(), **{a._fields[0]: fields[a._fields[0]]})
    with pytest.raises(TypeError):
        type(a)()


def test_kept_caches_stay_outside_equality_and_repr():
    assert repr(RatInterval(Fraction(1), Fraction(2))) == \
        "RatInterval(lo=Fraction(1, 1), hi=Fraction(2, 1))"
    root = seifert._RemRoot((-2, 0, 1), Fraction(1), Fraction(2))
    fresh = seifert._RemRoot((-2, 0, 1), Fraction(1), Fraction(2))
    assert root.enclosure(64).width <= Fraction(1, 2) ** 64
    assert root._enclosures and not fresh._enclosures
    assert root == fresh and hash(root) == hash(fresh)
    assert repr(root) == "_RemRoot(poly_sf=(-2, 0, 1), lo=Fraction(1, 1), hi=Fraction(2, 1))"


def test_cli_import_loads_no_code_generation_modules():
    # dataclasses and what it imports cost a fresh CLI process tens of ms
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); import conclab.cli; "
            "conclab.cli._build_parser(); print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "conclab.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(added)
