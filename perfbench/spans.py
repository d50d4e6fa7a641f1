"""Spans around the calls into each cclab layer, for the traced pass.

`install(tracer)` replaces each traced function by a span wrapper wherever
callers look it up: in every loaded `cclab.*` module that holds the
function under any name (`from .types import negate` makes a second
binding), and inside `rewrite.LS_ENGINE`/`C_ENGINE`, whose frozen
dataclasses bind `find`, `step`, `canon` and `typeof` at import time and
are therefore rebuilt with the wrappers.

Several traced functions recurse through their own module-global name
(`negate`, `substitute`, `free_vars`, `infer`, `bracket_abstract`), so a
span is recorded only at the outermost call: a wrapper re-entered while its
span name is open calls straight through.

Spans are aggregated in memory by name, as calls, total seconds and self
seconds, because a pass makes millions of calls. A span's self time is its
duration minus the durations of the spans opened directly inside it; a
layer's self time is the sum over its spans. Time spent in untraced helpers
counts towards the nearest traced caller.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("types", "syntax", "lambda_sym", "ccl", "rewrite", "translate", "gen")

# (module, function, span name). Functions sharing a span name share one
# outermost-only span: nested print_type inside print_ls is syntax.print.
TRACED = (
    ("types", "negate", "types.negate"),
    ("types", "unify", "types.unify"),
    ("lambda_sym", "find_redexes", "lambda_sym.find_redexes"),
    ("lambda_sym", "reduce_at", "lambda_sym.reduce_at"),
    ("lambda_sym", "canonical", "lambda_sym.canonical"),
    ("lambda_sym", "alpha_eq", "lambda_sym.alpha_eq"),
    ("lambda_sym", "infer", "lambda_sym.infer"),
    ("lambda_sym", "substitute", "lambda_sym.substitute"),
    ("lambda_sym", "free_vars", "lambda_sym.free_vars"),
    ("ccl", "find_redexes_c", "ccl.find_redexes_c"),
    ("ccl", "reduce_at_c", "ccl.reduce_at_c"),
    ("ccl", "infer_c", "ccl.infer_c"),
    ("ccl", "ground_type_of", "ccl.ground_type_of"),
    ("ccl", "substitute_c", "ccl.substitute_c"),
    ("ccl", "term_vars", "ccl.term_vars"),
    ("syntax", "parse_ls", "syntax.parse"),
    ("syntax", "parse_c", "syntax.parse"),
    ("syntax", "print_ls", "syntax.print"),
    ("syntax", "print_c", "syntax.print"),
    ("syntax", "print_type", "syntax.print"),
    ("rewrite", "reaches", "rewrite.reaches"),
    ("rewrite", "check_sn", "rewrite.check_sn"),
    ("translate", "phi", "translate.phi"),
    ("translate", "psi", "translate.psi"),
    ("translate", "bracket_abstract", "translate.bracket_abstract"),
    ("translate", "bracket_typed", "translate.bracket_abstract"),
    ("translate", "pi_macro", "translate.pi_macro"),
    ("translate", "pair_app", "translate.pair_app"),
    ("gen", "enumerate_ls", "gen.enumerate"),
    ("gen", "enumerate_c", "gen.enumerate"),
    ("gen", "enumerate_pre_terms", "gen.enumerate"),
    ("gen", "enumerate_star_terms", "gen.enumerate"),
    ("gen", "types_to_depth", "gen.enumerate"),
)

ENGINE_FIELDS = ("find", "step", "canon", "typeof")
FINDS = ("lambda_sym.find_redexes", "ccl.find_redexes_c")


class Tracer:
    """Span statistics by name, plus the counters measured at the same calls."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.open: set[str] = set()
        self._inner = [0.0]  # per open span: seconds spent in spans inside it

    def wrap(self, name: str, fn, hook=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_, inner, clock = self.open, self._inner, time.perf_counter

        def span(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            open_.add(name)
            inner.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                open_.discard(name)
                nested = inner.pop()
                inner[-1] += d
                stats[0] += 1
                stats[1] += d
                stats[2] += d - nested
            if hook is not None:
                hook(result, d)
            return result

        return span

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
        }


def _hooks(tracer: Tracer) -> dict:
    counts, open_ = tracer.counts, tracer.open

    def find(name):
        def hook(result, _):
            counts[name + ".redexes"] += len(result)
            if "rewrite.reaches" in open_:
                counts["rewrite.reaches.finds"] += 1
        return hook

    def reaches(_, d):
        tracer.durations["rewrite.reaches"].append(d)

    def check_sn(result, _):
        counts["rewrite.check_sn.classes"] += result.classes_seen
        key = "rewrite.check_sn.max_path"
        counts[key] = max(counts[key], result.max_path or 0)

    hooks = {name: find(name) for name in FINDS}
    hooks["rewrite.reaches"] = reaches
    hooks["rewrite.check_sn"] = check_sn
    return hooks


def install(tracer: Tracer) -> None:
    """Route every call into the traced layers through the tracer's spans."""
    hooks = _hooks(tracer)
    replaced: dict[int, tuple[object, object]] = {}
    for module, fn_name, span_name in TRACED:
        fn = getattr(importlib.import_module(f"cclab.{module}"), fn_name)
        replaced[id(fn)] = (fn, tracer.wrap(span_name, fn, hooks.get(span_name)))

    rewrite = importlib.import_module("cclab.rewrite")
    for engine in (rewrite.LS_ENGINE, rewrite.C_ENGINE):
        swaps = {}
        for f in ENGINE_FIELDS:
            got = replaced.get(id(getattr(engine, f)))
            if got is not None:
                swaps[f] = got[1]
        replaced[id(engine)] = (engine, dataclasses.replace(engine, **swaps))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cclab" and not mod_name.startswith("cclab."):
            continue
        for attr, value in list(vars(module).items()):
            got = replaced.get(id(value))
            if got is not None and got[0] is value:
                setattr(module, attr, got[1])


def _diff(after: dict, before: dict) -> dict:
    spans = {}
    for name, (calls, total, self_s) in after["spans"].items():
        b = before["spans"].get(name, [0, 0.0, 0.0])
        spans[name] = [calls - b[0], total - b[1], self_s - b[2]]
    return spans


def layer_self(spans: dict) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in spans.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def per_layer_metrics(whole: dict, setup: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    `whole` is the tracer's snapshot at the end of the pass and `setup` the
    snapshot when the inputs were ready. Function metrics cover the whole
    pass, so set-up work such as enumeration shows; layer self times and
    shares cover the checked instances only.
    """
    spans, counts = whole["spans"], whole["counts"]

    def calls(name):
        return spans.get(name, [0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("ccl.find_redexes_c", "ccl.reduce_at_c", "rewrite.reaches",
                 "lambda_sym.find_redexes", "lambda_sym.reduce_at", "lambda_sym.canonical",
                 "lambda_sym.infer", "lambda_sym.substitute", "rewrite.check_sn",
                 "ccl.infer_c", "types.unify", "types.negate", "syntax.parse", "syntax.print"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    for name in ("translate.phi", "translate.psi", "translate.bracket_abstract", "gen.enumerate"):
        m[name + ".self_s"] = self_s(name)
    for name in FINDS:
        m[name + ".redexes"] = counts.get(name + ".redexes", 0)
    m["ccl.redex_use"] = ratio(calls("ccl.reduce_at_c"), m["ccl.find_redexes_c.redexes"])
    m["lambda_sym.redex_use"] = ratio(calls("lambda_sym.reduce_at"), m["lambda_sym.find_redexes.redexes"])
    reach = sorted(whole["durations"].get("rewrite.reaches", ()))
    m["rewrite.reaches.p99_us"] = percentile(reach, 99) * 1e6 if reach else 0.0
    m["rewrite.reaches.find_per_call"] = ratio(counts.get("rewrite.reaches.finds", 0),
                                               calls("rewrite.reaches"))
    m["rewrite.check_sn.classes"] = counts.get("rewrite.check_sn.classes", 0)
    m["rewrite.check_sn.max_path"] = counts.get("rewrite.check_sn.max_path", 0)
    checked = layer_self(_diff(whole, setup))
    total = sum(checked.values())
    for layer, s in checked.items():
        m[f"layer.{layer}.self_s"] = s
        m[f"layer.{layer}.share"] = ratio(s, total)
    return m


def rank(n: int, pct: int) -> int:
    """The 1-based nearest rank of the pct-th percentile of n values."""
    return max(1, -(-pct * n // 100))


def percentile(ordered: list[float], pct: int) -> float:
    """Nearest-rank percentile of a non-empty ascending list."""
    return ordered[rank(len(ordered), pct) - 1]
