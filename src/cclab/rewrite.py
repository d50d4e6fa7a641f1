"""Calculus-generic reduction: strategies, graphs, reachability, SN checks.

Both calculi are non-confluent by design, so "reduces to" means reaching a
term in the reduction graph. Each calculus lists its redexes in one walk,
by pre-order position of the path and then rule priority; leftmost-outermost
is the first, leftmost-innermost the first in post-order, rightmost-outermost
the last that no other redex contains, and omega (lambda side only) skips
those under a lambda. Every search is built on ``trace``, which follows a
step function, a term to its next ``(redex, reduct)`` or None, and
``search``, which expands each alpha class once, breadth-first. The
leftmost-outermost step is ``Engine.first``: on the combinator side one
walk that finds and contracts the redex together, on the lambda side a
walk that stops at the first redex, then ``step``. ``stepping`` turns any
other pick of a redex into a step function. ``reaches`` tries four
traces in order, lo, li, ro and the macro spine, each deciding a hit by
``Engine.same`` (alpha-equality, one walk), then ``search``: only
searches build ``Engine.canon`` keys. ``check_sn`` is ``search``
followed by a longest path in topological order (Kahn's algorithm).

Because reduction is finitely branching and (for typed terms) strongly
normalizing, exhaustive exploration modulo alpha-equivalence terminates.
Every search stops at ``NODE_BUDGET`` alpha classes unless its caller asks
for another budget, so a looping input ends there within seconds, not on
the recursion limit. No suite comes near it: at full size a search holds at
most 34 classes in ``reaches``, 4 in ``check_sn`` and 9 in ``explore``.

An ``Engine`` holds what differs between the calculi: the redex finder,
the step (which checks the redex it is handed), the leftmost-outermost
step, the alpha key and test, the printer and the typer. Paths into
terms of either calculus are read with ``node.subterm_at``. Every step
recorded here, in a ``normalize`` trace, an ``Edge`` or a ``reaches``
witness, is a ``node.Redex``, so ``Engine.step`` replays it on either side.
"""

from __future__ import annotations

import enum
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import ccl, lambda_sym
from .node import Redex, subterm_at
from .syntax import print_c, print_ls
from .types import Context

Term = Union[lambda_sym.LsTerm, ccl.CTerm]
NODE_BUDGET = 4_000  # alpha classes; the default of every search, see the module doc


@dataclass(frozen=True, slots=True)
class Engine:
    name: str
    find: Callable  # (ctx, t) -> every redex, pre-order by path, then rule priority
    step: Callable  # (t, redex) -> its reduct; raises StaleRedex on a redex that does not fit
    first: Callable  # (ctx, t) -> leftmost-outermost (redex, reduct) or None; one walk on ccl
    canon: Callable  # t -> the key of its alpha class, for the search's visited set
    same: Callable  # (s, t) -> canon(s) == canon(t), decided without building keys
    show: Callable
    typeof: Callable


def _ls_first(ctx: Optional[Context], t: lambda_sym.LsTerm):
    found = lambda_sym.find_redexes(ctx, t, first=True)
    return (found[0], lambda_sym.reduce_at(t, found[0])) if found else None


LS_ENGINE = Engine(
    name="ls",
    find=lambda_sym.find_redexes,
    step=lambda_sym.reduce_at,
    first=_ls_first,
    canon=lambda_sym.canonical,
    same=lambda_sym.alpha_eq,
    show=print_ls,
    typeof=lambda_sym.infer,
)

C_ENGINE = Engine(
    name="ccl",
    find=ccl.find_redexes_c,
    step=ccl.reduce_at_c,
    first=ccl.first_step_c,
    canon=lambda t: t,  # no binders, terms are their own alpha class
    same=operator.eq,
    show=print_c,
    typeof=ccl.infer_c,
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
    RIGHTMOST_OUTERMOST = "ro"
    OMEGA = "omega"


class FuelExhausted(Exception):
    def __init__(self, term: Term, steps: int):
        self.term = term
        self.steps = steps
        super().__init__(f"no normal form within {steps} steps")


def omega_redexes(engine: Engine, ctx: Optional[Context], t: Term) -> list[Redex]:
    """Redexes not in the scope of a lambda (proper ancestors only)."""
    return [r for r in engine.find(ctx, t) if not any(
        isinstance(subterm_at(t, r.path[:k]), lambda_sym.Lam) for k in range(len(r.path)))]


def pick_redex(engine: Engine, ctx: Optional[Context], t: Term,
               strategy: Strategy) -> Optional[Redex]:
    """The redex strategy contracts next in t, or None at a normal form."""
    if strategy is Strategy.OMEGA and engine.name != "ls":
        raise ValueError("omega strategy only applies to the lambda side")
    found = omega_redexes(engine, ctx, t) if strategy is Strategy.OMEGA else engine.find(ctx, t)
    best = None
    if strategy is Strategy.LEFTMOST_INNERMOST:
        # post-order keeps pre-order but puts a path after its extensions
        for r in found:
            if best is None or len(r.path) > len(best.path) and r.path[:len(best.path)] == best.path:
                best = r  # inside best's subterm, so before it
            elif r.path != best.path:  # an equal path has a lower rule priority
                break  # past best's subterm: after it, as is every later redex
        return best
    if strategy is Strategy.RIGHTMOST_OUTERMOST:
        for r in found:
            if best is None or r.path[:len(best.path)] != best.path:  # not in best's subterm,
                best = r  # nor at its path, where best's rule has the higher priority
        return best
    return found[0] if found else None  # leftmost-outermost, or omega's first


def _macro_spine(t: Term, at: tuple = ()) -> list[tuple]:
    """Beta positions along the application-macro spine, innermost first.

    A macro node is \\y:~B. u * <v, y>; the spine follows u, plus both
    sides of a top star. Arguments inside pairs are never entered, and a
    combinator term has no spine.
    """
    if (
        isinstance(t, lambda_sym.Lam)
        and isinstance(t.body, lambda_sym.Star)
        and isinstance(t.body.right, lambda_sym.Pair)
        and t.body.right.right == lambda_sym.Var(t.var)
    ):
        return _macro_spine(t.body.left, at + (0, 0)) + [at + (0,)]
    if isinstance(t, lambda_sym.Star):
        return _macro_spine(t.left, at + (0,)) + _macro_spine(t.right, at + (1,)) + [at]
    return []


_CLEANUP_RULES = frozenset(("pi1", "pi2", "pi1_perp", "pi2_perp", "eta", "eta_perp"))


def _macro_pick(engine: Engine, ctx: Optional[Context], source: Term) -> Callable:
    """Contract the macro spine, then projections and eta steps only.

    This is the reduction order the simulation argument prescribes: feed
    each macro its argument pair, then let the projections dig the
    components out, leaving inner macros intact. A spine position without
    a beta redex is skipped. Each pick finds t's redexes once.
    """
    spine = iter(_macro_spine(source))

    def pick(t):
        found = engine.find(ctx, t)
        for path in spine:
            for r in found:
                if r.path == path and r.rule in ("beta", "beta_perp"):
                    return r
        return next((r for r in found if r.rule in _CLEANUP_RULES), None)

    return pick


def stepping(engine: Engine, pick: Callable) -> Callable:
    """The step function that contracts, with engine.step, the redex pick chooses."""
    def step(t):
        r = pick(t)
        return None if r is None else (r, engine.step(t, r))
    return step


def trace(t: Term, step: Callable, fuel: int) -> Iterator[tuple[Redex, Term]]:
    """Follow step from t, for at most fuel steps.

    step maps a term to (redex, reduct), or to None where it takes no step;
    trace yields each pair and stops early at such a term.
    """
    for _ in range(fuel):
        s = step(t)
        if s is None:
            return
        yield s
        t = s[1]


@dataclass
class NormalizeResult:
    term: Term
    steps: int
    trace: list[tuple[Redex, Term]]


def normalize(engine: Engine, ctx: Optional[Context], t: Term,
              strategy: Strategy = Strategy.LEFTMOST_OUTERMOST,
              fuel: int = 1000, want_trace: bool = False) -> NormalizeResult:
    if strategy is Strategy.LEFTMOST_OUTERMOST:
        step = partial(engine.first, ctx)
    else:
        step = stepping(engine, lambda u: pick_redex(engine, ctx, u, strategy))
    log: list[tuple[Redex, Term]] = []
    steps, cur = 0, t
    for r, cur in trace(t, step, fuel):
        steps += 1
        if want_trace:
            log.append((r, cur))
    if steps < fuel or step(cur) is None:
        return NormalizeResult(cur, steps, log)
    raise FuelExhausted(cur, fuel)


class Edge(NamedTuple):  # a tuple, cheap to build: search makes one per contraction
    source: Term  # canonical
    redex: Redex
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
           depth_budget: Optional[int] = None,
           root_redexes: Optional[list] = None) -> Iterator[Edge]:
    """Expand each alpha class reachable from graph.root once, breadth-first.

    Yields an Edge for every contraction of an expanded term; a target
    missing from graph.nodes is one the node budget kept out. Terms at
    depth_budget are not expanded. Normal forms go to graph.normal_forms,
    and a budget that cuts the search sets graph.truncated and graph.reason.
    root_redexes, when given, are the root's redexes, already found.
    """
    engine = graph.engine
    frontier = deque([(graph.nodes[graph.root], graph.root, 0)])  # term, key, depth
    while frontier:
        t, key, depth = frontier.popleft()
        if depth_budget is not None and depth >= depth_budget:
            graph.truncated, graph.reason = True, "depth budget"
            continue
        redexes = engine.find(ctx, t) if root_redexes is None else root_redexes
        root_redexes = None
        if not redexes:
            graph.normal_forms.append(key)
        for r in redexes:
            u = engine.step(t, r)
            u_key = engine.canon(u)
            if u_key not in graph.nodes:
                if len(graph.nodes) < node_budget:
                    graph.nodes[u_key] = u
                    frontier.append((u, u_key, depth + 1))
                else:
                    graph.truncated, graph.reason = True, "node budget"
            yield Edge(key, r, u_key)


def explore(engine: Engine, ctx: Optional[Context], t: Term, node_budget: int = NODE_BUDGET,
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
            node_budget: int = NODE_BUDGET) -> tuple[bool, Optional[list[Redex]]]:
    """Is q.target reachable from q.source within q.max_steps reductions?

    Returns (answer, witness); the witness lists the steps, each a Redex.
    No single strategy is complete for a non-confluent system, so this is
    a portfolio, cheapest first, of four traces: leftmost-outermost (it
    usually passes straight through the targets the simulation lemmas
    predict), leftmost-innermost, rightmost-outermost and the macro spine;
    then a breadth-first search over alpha classes that gives up when the
    node budget cuts it. A trace hit returns that trace's steps; a search
    witness follows the edges that first reached each class.
    """
    if not q.require_nonempty and engine.same(q.source, q.target):
        return True, []

    def steps():  # each stage's step is built only when the stages before it miss
        yield partial(engine.first, ctx)
        for s in (Strategy.LEFTMOST_INNERMOST, Strategy.RIGHTMOST_OUTERMOST):
            yield stepping(engine, partial(pick_redex, engine, ctx, strategy=s))
        yield stepping(engine, _macro_pick(engine, ctx, q.source))

    for step in steps():
        witness = []
        for r, u in trace(q.source, step, q.max_steps):
            witness.append(r)
            if engine.same(u, q.target):
                return True, witness

    graph, target_c = ReductionGraph.rooted_at(engine, q.source), engine.canon(q.target)
    parent: dict = {graph.root: None}
    for e in search(graph, ctx, node_budget, depth_budget=q.max_steps):
        if e.target == target_c:
            witness = []
            while e is not None:
                witness.append(e.redex)
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


def check_sn(engine: Engine, ctx: Optional[Context], t: Term,
             node_budget: int = NODE_BUDGET) -> SNResult:
    """Does every reduction sequence from t end, and how long is the longest?

    A root with no redex is one class, settled without canonicalising it.
    Otherwise ``search`` expands each class once, the root from its redexes
    already found, and Kahn's algorithm orders the classes, numbered as they
    appear: one it cannot order lies on a reduction cycle. The longest path
    is relaxed along that order. The root is keyed by itself; a reduct
    alpha-equal to it closes a cycle among canonical keys.
    """
    if node_budget < 1:
        return SNResult(False, None, 0, "node budget exceeded")
    root_redexes = engine.find(ctx, t)
    if not root_redexes:
        return SNResult(True, 0, 1)
    graph = ReductionGraph(engine, t, {t: t})
    ids, succ, indegree = {t: 0}, [[]], [0]  # class -> number; by number
    for e in search(graph, ctx, node_budget, root_redexes=root_redexes):
        if graph.truncated:
            return SNResult(False, None, len(graph.nodes), "node budget exceeded")
        j = ids.setdefault(e.target, len(succ))
        if j == len(succ):
            succ.append([])
            indegree.append(0)
        succ[ids[e.source]].append(j)
        indegree[j] += 1
    depth = [0] * len(succ)  # longest path from the root, final once ordered
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # grows as classes lose their last predecessor
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    if len(order) < len(succ):
        return SNResult(False, None, len(succ), "reduction cycle found")
    return SNResult(True, max(depth), len(succ))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: ReductionGraph) -> str:
    """Render the graph in DOT; nodes are labeled with representative terms.

    Each class is printed once: its representative labels its node, and
    its canonical key orders the edges.
    """
    show = graph.engine.show
    labels = {k: show(t) for k, t in graph.nodes.items()}
    printed = {k: labels[k] if k is t else show(k) for k, t in graph.nodes.items()}
    keys = sorted(graph.nodes, key=labels.__getitem__)
    ids = {k: f"n{i}" for i, k in enumerate(keys)}
    lines = ["digraph reduction {", "  rankdir=LR;"]
    nf = set(graph.normal_forms)
    for k in keys:
        attrs = [f"label={_dot_quote(labels[k])}"]
        if k == graph.root:
            attrs.append("shape=box")
        if k in nf:
            attrs.append("peripheries=2")
        lines.append(f"  {ids[k]} [{', '.join(attrs)}];")
    for e in sorted(
        graph.edges, key=lambda e: (printed[e.source], e.redex.rule, e.redex.path, printed[e.target])
    ):
        label = _dot_quote(e.redex.rule)
        lines.append(f"  {ids[e.source]} -> {ids[e.target]} [label={label}];")
    if graph.truncated:
        lines.append(f"  truncated [label={_dot_quote('truncated: ' + (graph.reason or ''))}, shape=note];")
    lines.append("}")
    return "\n".join(lines)
