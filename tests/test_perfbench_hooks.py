"""The benchmark's hooks name functions of conclab by "module:attr"; a
renamed function would silently turn a layer metric null.  This reads
perfbench/hooks.py (without installing anything) and resolves every name."""

import importlib
import importlib.util
import re
from pathlib import Path

HOOKS = Path(__file__).resolve().parents[1] / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target: str) -> list:
    """Every object a "module:attr" target names: one for "attr" and
    "Class.attr", all callables whose names end in the suffix for "*suffix"."""
    modname, attr = target.split(":")
    module = importlib.import_module(f"conclab.{modname}")
    if attr.startswith("*"):
        return [v for k, v in vars(module).items() if k.endswith(attr[1:]) and callable(v)]
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return [obj] if callable(obj) else []


def test_every_hooked_name_resolves_in_conclab():
    hooks = load_hooks()
    targets = [t for ts in hooks.SPAN_HOOKS.values() for t in ts]
    targets += list(hooks.COUNT_HOOKS.values()) + list(hooks.PRECISION_HOOKS)
    targets += list(hooks.CACHES.values())
    # names written inline elsewhere in the code, e.g. the metabolizer hook
    code = "\n".join(line for line in HOOKS.read_text().splitlines()
                     if not line.lstrip().startswith("#"))
    quoted = set(re.findall(r'"(\w+:[\w.*]+)"', code))
    assert set(targets) <= quoted
    missing = [t for t in sorted(quoted) if not resolve(t)]
    assert missing == []
    assert len(resolve("jsonio:*_to_json")) >= 10
    for target in hooks.CACHES.values():
        assert hasattr(resolve(target)[0], "cache_info"), target


def test_cyclotomic_trials_count_divisions_inside_the_circle_split(monkeypatch):
    # perfbench's seifert.cyclotomic_trials counts the _poly.divides calls
    # made inside seifert._circle_data, and cyclotomic_yield the share of
    # them that split off a factor: every factor must still take exactly
    # one successful call, and the test at +-2 may only skip trials
    from conftest import torus_2_strand_matrix
    from conclab import _poly, seifert
    calls = []
    original = _poly.divides

    def counting(q, p):
        calls.append(original(q, p))
        return calls[-1]

    monkeypatch.setattr(_poly, "divides", counting)
    # T(2, n): Delta is the product of Phi_2e over the divisors e > 1 of n
    for n, factors in ((15, 3), (17, 1)):
        a = torus_2_strand_matrix((n - 1) // 2)
        rep = seifert.SeifertMatrix(min(a.entries, tuple(zip(*a.entries))))
        calls.clear()
        data = seifert._circle_data.__wrapped__(rep)
        assert sum(calls) == factors
        assert len(calls) >= factors
        found = {r.d for r in data.roots if isinstance(r, seifert._CycRoot)}
        assert found == {2 * e for e in range(3, n + 1, 2) if n % e == 0}
