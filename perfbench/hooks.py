"""Spans and counters recorded from outside the program.

The benchmark's child process installs these hooks after conclab is
imported: it replaces each module-level function at a stage boundary with
a wrapper that records a span (layer name, start, end, parent span, job
id) or bumps a counter.  The replacement is made in every conclab module
that holds the same function object, so ``from x import f`` copies are
wrapped too.  Nothing under ``src/`` changes.

A hooked name that no longer exists is recorded as missing; the layer
metrics fed by it are then reported as ``null`` and the run continues.
"""

from __future__ import annotations

import sys
import time

# layer -> functions whose spans make up that layer ("module:attr";
# "module:Class.attr" for methods)
SPAN_HOOKS = {
    "seifert.pencil": ["seifert:pencil_polynomial"],
    "seifert.circle_split": ["seifert:_circle_data"],
    "seifert.root_isolation": ["_poly:isolate_roots", "_poly:refine_root_interval"],
    "seifert.gap_signature": ["seifert:_signature_at_c"],
    "seifert.position": ["seifert:_materialize_sorted"],
    "seifert.minimal_period": ["seifert:minimal_period"],
    "polyalg.excluded_primes": ["polyalg:excluded_primes"],
    "polyalg.homology_order": ["polyalg:branched_homology_order"],
    "dinv.surgery_table": ["dinv:lspace_v_sequence", "dinv:large_surgery_d_table",
                           "dinv:dbar_table"],
    "dinv.vanishing": ["dinv:dbar_vanishing_obstruction"],
    "abgroup.metabolizer_search": ["abgroup:square_root_subgroups"],
    "jsonio.load": ["cli:load_seifert", "cli:load_poly", "cli:load_polyset",
                    "cli:load_jump_function", "cli:load_dtable", "cli:load_group",
                    "cli:_load_json_source"],
    "jsonio.dump": ["jsonio:canonical_dumps", "jsonio:*_to_json"],
    "obstruct": ["obstruct:obstruct_topological", "obstruct:obstruct_smooth"],
}

# counter -> function whose calls it counts
COUNT_HOOKS = {
    "cyclotomic_trials": "_poly:divides",
    "sturm_chains": "_poly:sturm_chain",
    "gap_signatures": "seifert:_signature_at_c",
    "invert_calls": "_intervals:invert_two_cos",
    "homology_order_calls": "polyalg:branched_homology_order",
    "closures": "abgroup:generated_subgroup",
}

# functions whose precision argument feeds intervals.max_bits
PRECISION_HOOKS = ["_intervals:two_cos_two_pi", "_intervals:invert_two_cos",
                   "seifert:_CycRoot.enclosure", "seifert:_RemRoot.enclosure"]

# lru caches read at the end of a job list
CACHES = {"circle": "seifert:_circle_data", "lens": "dinv:_lens_rec"}


class Recorder:
    """In-memory spans and counters of one child process."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNT_HOOKS}
        self.counts.update(cyclotomic_factors=0, candidates=0, max_bits=0)
        self.job = -1
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}

    # -- wrappers --------------------------------------------------------

    def span(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def cyclotomic_trial(self, fn):
        # a trial division inside _circle_data; a True result splits off
        # one cyclotomic factor
        counts, spans, stack = self.counts, self.spans, self.stack

        def wrapper(*args, **kwargs):
            found = fn(*args, **kwargs)
            if stack and spans[stack[-1]][0] == "seifert.circle_split":
                counts["cyclotomic_trials"] += 1
                counts["cyclotomic_factors"] += bool(found)
            return found
        return wrapper

    def precision(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            # the precision is the second positional parameter of every
            # hooked function (after ``self`` for the enclosure methods)
            bits = args[1] if len(args) > 1 else kwargs.get("prec_bits", kwargs.get("prec", 0))
            if isinstance(bits, int) and bits > counts["max_bits"]:
                counts["max_bits"] = bits
            return fn(*args, **kwargs)
        return wrapper

    def metabolizer(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["candidates"] += len(res.candidates)
            return res
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked name; counters innermost, spans outermost."""
        for name, target in COUNT_HOOKS.items():
            if name == "cyclotomic_trials":
                self._patch(target, self.cyclotomic_trial)
            else:
                self._patch(target, lambda fn, name=name: self.counter(name, fn))
        for target in PRECISION_HOOKS:
            self._patch(target, self.precision)
        self._patch("abgroup:square_root_subgroups", self.metabolizer)
        for layer, targets in SPAN_HOOKS.items():
            for target in targets:
                self._patch(target, lambda fn, layer=layer: self.span(layer, fn))
        for target in CACHES.values():
            if _resolve(target) is None:
                self._note_missing(target)

    def _patch(self, target: str, make) -> None:
        modname, attr = target.split(":")
        mod = sys.modules.get(f"conclab.{modname}")
        if mod is None:
            self._note_missing(target)
            return
        if attr.startswith("*"):
            names = [n for n in vars(mod) if n.endswith(attr[1:])
                     and callable(getattr(mod, n))]
        else:
            names = [attr]
        if not names:
            self._note_missing(target)
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self._note_missing(f"{modname}:{name}")
                    continue
                setattr(cls, meth, make(fn))
                continue
            fn = getattr(mod, name, None)
            if fn is None:
                self._note_missing(f"{modname}:{name}")
                continue
            self.originals.setdefault(f"{modname}:{name}", fn)
            wrapped = make(fn)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("conclab"):
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)

    def _note_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    def cache_infos(self) -> dict:
        out = {}
        for key, target in CACHES.items():
            fn = self.originals.get(target) or _resolve(target)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[key] = None if info is None else {
                "hits": info.hits, "misses": info.misses, "size": info.currsize}
        return out


def _resolve(target: str):
    modname, attr = target.split(":")
    mod = sys.modules.get(f"conclab.{modname}")
    return getattr(mod, attr, None) if mod is not None else None


# ---------------------------------------------------------------------------
# aggregation (used by the parent process)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the part of it covered
    by its children's spans (children clipped to the parent, overlaps
    merged)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for layer, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_layer, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per layer, over every span of the list."""
    totals = {layer: 0.0 for layer in SPAN_HOOKS}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def missing_layers(missing: list[str]) -> set[str]:
    """Layers fed by at least one hook that could not be installed."""
    return {layer for layer, targets in SPAN_HOOKS.items()
            if any(t in missing for t in targets)}
