"""Calculus-generic reduction: strategies, graphs, reachability, SN checks.

Both calculi are non-confluent by design, so "reduces to" means reaching a
term in the reduction graph. Each calculus yields its redexes lazily, by
pre-order position of the path and then rule priority; leftmost-outermost
is the first, leftmost-innermost the first in post-order, and omega (lambda
side only) skips those under a lambda. Every search is built on ``trace``,
which follows the redexes a pick function chooses, and ``search``, which
expands each alpha class once, breadth-first.

Because reduction is finitely branching and (for typed terms) strongly
normalizing, exhaustive exploration modulo alpha-equivalence terminates;
budgets exist to keep untyped or adversarial inputs from spinning.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Union

from . import ccl, lambda_sym
from .syntax import print_c, print_ls
from .types import Ty

Term = Union[lambda_sym.LsTerm, ccl.CTerm]
Context = Mapping[str, Ty]
Redex = Union[lambda_sym.LsRedex, ccl.CRedex]


@dataclass(frozen=True, slots=True)
class Engine:
    name: str
    rules: tuple[str, ...]
    find: Callable  # (ctx, t) -> list of every redex, in the order of redexes
    redexes: Callable  # (ctx, t) -> the same redexes, lazily
    step: Callable
    canon: Callable
    show: Callable
    typeof: Callable
    size: Callable
    subterm_at: Callable


LS_ENGINE = Engine(
    name="ls",
    rules=lambda_sym.LS_RULES,
    find=lambda_sym.find_redexes,
    redexes=lambda_sym.iter_redexes,
    step=lambda_sym.reduce_at,
    canon=lambda_sym.canonical,
    show=print_ls,
    typeof=lambda_sym.infer,
    size=lambda_sym.term_size,
    subterm_at=lambda_sym.subterm_at,
)

C_ENGINE = Engine(
    name="ccl",
    rules=ccl.C_RULES,
    find=ccl.find_redexes_c,
    redexes=ccl.iter_redexes_c,
    step=ccl.reduce_at_c,
    canon=lambda t: t,  # no binders, terms are their own alpha class
    show=print_c,
    typeof=ccl.infer_c,
    size=ccl.term_size,
    subterm_at=ccl.subterm_at,
)


def engine_for(calculus: str) -> Engine:
    if calculus == "ls":
        return LS_ENGINE
    if calculus == "ccl":
        return C_ENGINE
    raise ValueError(f"unknown calculus {calculus!r}")


class Strategy(enum.Enum):
    LEFTMOST_OUTERMOST = "lo"
    LEFTMOST_INNERMOST = "li"
    OMEGA = "omega"


class FuelExhausted(Exception):
    def __init__(self, term: Term, steps: int):
        self.term = term
        self.steps = steps
        super().__init__(f"no normal form within {steps} steps")


def omega_redexes(engine: Engine, ctx: Optional[Context], t: Term) -> Iterator[Redex]:
    """Redexes not in the scope of a lambda (proper ancestors only), lazily."""
    for r in engine.redexes(ctx, t):
        if not any(isinstance(engine.subterm_at(t, r.path[:k]), lambda_sym.Lam)
                   for k in range(len(r.path))):
            yield r


def pick_redex(engine: Engine, ctx: Optional[Context], t: Term,
               strategy: Strategy) -> Optional[Redex]:
    """The redex strategy contracts next in t, or None at a normal form."""
    if strategy is Strategy.LEFTMOST_OUTERMOST:
        return next(engine.redexes(ctx, t), None)
    if strategy is Strategy.LEFTMOST_INNERMOST:
        # Post-order puts a path after every extension of it. min keeps the
        # first of equal paths, which has the highest rule priority.
        return min(engine.redexes(ctx, t), key=lambda r: r.path + (math.inf,),
                   default=None)
    if engine.name != "ls":
        raise ValueError("omega strategy only applies to the lambda side")
    return next(omega_redexes(engine, ctx, t), None)


def trace(engine: Engine, t: Term, pick: Callable, fuel: int) -> Iterator[tuple[Redex, Term]]:
    """Follow the redexes pick chooses from t, for at most fuel steps.

    Yields (redex, reduct) per step and stops early at a term where pick
    returns None.
    """
    for _ in range(fuel):
        r = pick(t)
        if r is None:
            return
        t = engine.step(t, r)
        yield r, t


@dataclass
class NormalizeResult:
    term: Term
    steps: int
    trace: list[tuple[str, tuple[int, ...], Term]]


def normalize(engine: Engine, ctx: Optional[Context], t: Term,
              strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
              fuel: int = 1000, want_trace: bool = False) -> NormalizeResult:
    pick = lambda u: pick_redex(engine, ctx, u, strategy)
    log: list[tuple[str, tuple[int, ...], Term]] = []
    steps, cur = 0, t
    for r, cur in trace(engine, t, pick, fuel):
        steps += 1
        if want_trace:
            log.append((r.rule, r.path, cur))
    if steps < fuel or pick(cur) is None:
        return NormalizeResult(cur, steps, log)
    raise FuelExhausted(cur, fuel)


@dataclass(frozen=True, slots=True)
class Edge:
    source: Term  # canonical
    rule: str
    path: tuple[int, ...]
    target: Term  # canonical


@dataclass
class ReductionGraph:
    engine: Engine
    root: Term  # canonical
    nodes: dict  # canonical -> representative term
    edges: list[Edge] = field(default_factory=list)
    normal_forms: list = field(default_factory=list)  # canonical, in discovery order
    truncated: bool = False
    reason: Optional[str] = None

    @classmethod
    def rooted_at(cls, engine: Engine, t: Term) -> "ReductionGraph":
        root = engine.canon(t)
        return cls(engine, root, {root: t})

    def normal_form_strings(self) -> list[str]:
        return sorted(self.engine.show(n) for n in self.normal_forms)


def search(graph: ReductionGraph, ctx: Optional[Context], node_budget: int,
           depth_budget: Optional[int] = None) -> Iterator[Edge]:
    """Expand each alpha class reachable from graph.root once, breadth-first.

    Yields an Edge for every contraction of an expanded term; a target
    missing from graph.nodes is one the node budget kept out. Terms at
    depth_budget are not expanded. Normal forms go to graph.normal_forms,
    and a budget that cuts the search sets graph.truncated and graph.reason.
    """
    engine = graph.engine
    frontier = deque([(graph.nodes[graph.root], graph.root, 0)])  # term, key, depth
    while frontier:
        t, key, depth = frontier.popleft()
        if depth_budget is not None and depth >= depth_budget:
            graph.truncated, graph.reason = True, "depth budget"
            continue
        normal = True
        for r in engine.redexes(ctx, t):
            normal = False
            u = engine.step(t, r)
            u_key = engine.canon(u)
            if u_key not in graph.nodes:
                if len(graph.nodes) < node_budget:
                    graph.nodes[u_key] = u
                    frontier.append((u, u_key, depth + 1))
                else:
                    graph.truncated, graph.reason = True, "node budget"
            yield Edge(key, r.rule, r.path, u_key)
        if normal:
            graph.normal_forms.append(key)


def explore(engine: Engine, ctx: Optional[Context], t: Term,
            node_budget: int = 100_000,
            depth_budget: Optional[int] = None) -> ReductionGraph:
    graph = ReductionGraph.rooted_at(engine, t)
    graph.edges = [e for e in search(graph, ctx, node_budget, depth_budget)
                   if e.target in graph.nodes]
    return graph


@dataclass(frozen=True, slots=True)
class ReachabilityQuery:
    source: Term
    target: Term
    max_steps: int = 50
    require_nonempty: bool = False


def reaches(engine: Engine, ctx: Optional[Context], q: ReachabilityQuery,
            node_budget: int = 200_000) -> tuple[bool, Optional[list]]:
    """Is q.target reachable from q.source within q.max_steps reductions?

    Returns (answer, witness); the witness is a list of (rule, path) steps.
    Tries the leftmost-outermost trace first (it usually passes straight
    through the targets the simulation lemmas predict), then searches
    breadth-first over alpha classes and gives up when the node budget
    cuts the search. A search witness follows the edges that first
    reached each class.
    """
    target_c = engine.canon(q.target)
    if not q.require_nonempty and engine.canon(q.source) == target_c:
        return True, []

    witness = []
    lo = lambda u: next(engine.redexes(ctx, u), None)
    for r, u in trace(engine, q.source, lo, q.max_steps):
        witness.append((r.rule, r.path))
        if engine.canon(u) == target_c:
            return True, witness

    graph = ReductionGraph.rooted_at(engine, q.source)
    parent: dict = {graph.root: None}
    for e in search(graph, ctx, node_budget, depth_budget=q.max_steps):
        if e.target == target_c:
            witness = []
            while e is not None:
                witness.append((e.rule, e.path))
                e = parent[e.source]
            return True, witness[::-1]
        if graph.reason == "node budget":
            return False, None
        parent.setdefault(e.target, e)
    return False, None


@dataclass
class SNResult:
    terminating: bool
    max_path: Optional[int] = None
    classes_seen: int = 0
    reason: Optional[str] = None


class _Budget(Exception):
    pass


def check_sn(engine: Engine, ctx: Optional[Context], t: Term,
             node_budget: int = 100_000) -> SNResult:
    """Exhaustive DFS over reduction sequences, memoized by alpha class.

    Returns the longest reduction path length when every sequence ends.
    A cycle would disprove termination and is reported as such.
    """
    memo: dict = {}
    on_stack: set = set()
    seen = 0

    def longest(term, key) -> int:
        nonlocal seen
        if key in memo:
            return memo[key]
        if key in on_stack:
            raise _Cycle()
        if seen >= node_budget:
            raise _Budget()
        seen += 1
        on_stack.add(key)
        best = 0
        for r in engine.find(ctx, term):
            nxt = engine.step(term, r)
            best = max(best, 1 + longest(nxt, engine.canon(nxt)))
        on_stack.discard(key)
        memo[key] = best
        return best

    try:
        n = longest(t, engine.canon(t))
        return SNResult(True, n, seen)
    except _Budget:
        return SNResult(False, None, seen, "node budget exceeded")
    except _Cycle:
        return SNResult(False, None, seen, "reduction cycle found")


class _Cycle(Exception):
    pass


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: ReductionGraph) -> str:
    """Render the graph in DOT; nodes are labeled with representative terms."""
    show = graph.engine.show
    keys = sorted(graph.nodes, key=lambda k: show(graph.nodes[k]))
    ids = {k: f"n{i}" for i, k in enumerate(keys)}
    lines = ["digraph reduction {", "  rankdir=LR;"]
    nf = set(graph.normal_forms)
    for k in keys:
        attrs = [f"label={_dot_quote(show(graph.nodes[k]))}"]
        if k == graph.root:
            attrs.append("shape=box")
        if k in nf:
            attrs.append("peripheries=2")
        lines.append(f"  {ids[k]} [{', '.join(attrs)}];")
    for e in sorted(
        graph.edges, key=lambda e: (show(e.source), e.rule, e.path, show(e.target))
    ):
        label = _dot_quote(e.rule)
        lines.append(f"  {ids[e.source]} -> {ids[e.target]} [label={label}];")
    if graph.truncated:
        lines.append(f"  truncated [label={_dot_quote('truncated: ' + (graph.reason or ''))}, shape=note];")
    lines.append("}")
    return "\n".join(lines)
