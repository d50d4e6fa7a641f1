"""The combinatory calculus: six typed combinators, application, star.

Combinators are typed by axiom schemes over m-type parameters, with
application (modus ponens) and star (cut) as the only rules.
``_Inference.collect`` is the one structural typing walk. An occurrence
may carry an explicit instantiation (``K[a, b]``); otherwise the
parameters become metavariables, and the walk records the occurrence for
the solve. An application whose function type is already ``~A | B`` at an
argument of type ``A``, or a star whose sides are already dual, is checked
on the spot and adds no equation, so a fully instantiated term collects
nothing and ``_solve`` returns at once. The solve never defaults a
residual metavariable: if any parameter stays unresolved the term is
reported as ambiguous so the caller can supply ``inst``. ``infer_c``,
``elaborate``, ``ground_type_of`` (the type check of ``translate.psi``)
and the simp side condition are entries on that one solve. Schemes are
kept in a bounded table, so equal instantiations share one type; a second
table checks each explicit instantiation for metavariables once.

``simp`` is the combinatory analogue of the lambda side's triv rule and is
equally non-local: a typable term of type bottom with a ``(C (K U) (K V))``
subterm at a non-root path contracts, as a whole, to ``U * V``. Only the
star rule concludes bottom, so the walks type a term only when its root
is a star, and test no node for the simp shape otherwise. Rule
matching ignores instantiations (reduction is syntactic) and dispatches on
the spine head: the head combinator of an application, or of each side of
a star. App and CStar nodes keep their structural hash after the first use.

``first_step_c`` is the leftmost-outermost step in one walk: it visits
nodes in ``find_redexes_c``'s pre-order, with the same simp condition, and
contracts at the first node a rule matches, so a trace never walks a term
once to find its redex and again to contract it. ``reduce_at_c`` contracts
a redex given from outside and checks it first. Like them, ``substitute_c``
copies only the path to each occurrence of ``x`` and shares the rest.

Each node class names its child fields in ``KIDS``; paths, sizes,
rebuilding and the ``Redex`` record come from ``node``, and ``reduce_at_c``
raises its ``StaleRedex``. Nodes are slotted dataclasses, not frozen ones,
and never written after construction except for the ``_hash`` slot.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .node import Redex, StaleRedex, children, replace_at
from .types import (
    BOTTOM,
    Bottom,
    Conj,
    Context,
    Disj,
    MetaVar,
    MType,
    Substitution,
    Ty,
    TypingError,
    metavar_idents,
    negate,
    unify,
)


class CTerm:
    __slots__ = ()
    KIDS = ()


@dataclass(slots=True, unsafe_hash=True)
class CVar(CTerm):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Comb(CTerm):
    which: str  # K S C P Q1 Q2
    inst: Optional[tuple[MType, ...]] = None


class _Compound(CTerm):
    """App or CStar: hashed on demand, not at construction, then kept."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(children(self))  # the hash a dataclass would compute
            self._hash = h
            return h


@dataclass(slots=True)
class App(_Compound):
    KIDS = ("fun", "arg")
    fun: CTerm
    arg: CTerm
    __hash__ = _Compound.__hash__


@dataclass(slots=True)
class CStar(_Compound):
    KIDS = ("left", "right")
    left: CTerm
    right: CTerm
    __hash__ = _Compound.__hash__


SCHEME_ARITY = {"K": 2, "S": 3, "C": 2, "P": 2, "Q1": 2, "Q2": 2}

# Each combinator's axiom scheme over its type parameters.
_SCHEMES = {
    "K": lambda a, b: Disj(negate(a), Disj(b, a)),
    "S": lambda a, b, c: Disj(Conj(a, Conj(b, negate(c))),
                              Disj(Conj(a, negate(b)), Disj(negate(a), c))),
    "C": lambda a, b: Disj(Conj(a, b), Disj(Conj(a, negate(b)), negate(a))),
    "P": lambda a, b: Disj(negate(a), Disj(negate(b), Conj(a, b))),
    "Q1": lambda a, b: Disj(negate(a), Disj(a, b)),
    "Q2": lambda a, b: Disj(negate(b), Disj(a, b)),
}

C_RULES = ("k", "s", "c_r", "c_l", "e_r", "e_l", "pq1", "pq2", "qp1", "qp2", "simp")

# I is parser sugar and a reduction-rule constant, not a combinator of its own.
IDENT = App(App(Comb("S"), Comb("K")), Comb("K"))


class TermClass(enum.Enum):
    PRE_TERM = "pre-term"
    STAR_TERM = "star-term"
    NEITHER = "neither"


class AmbiguousTypeError(TypingError):
    """Typable, but scheme parameters remain unconstrained; supply inst."""


@lru_cache(maxsize=4096)  # a scheme is a pure function of its arguments; share it
def scheme_type(which: str, params: tuple[MType, ...]) -> MType:
    if which not in SCHEME_ARITY:
        raise TypingError(f"unknown combinator {which}")
    if len(params) != SCHEME_ARITY[which]:
        raise TypingError(
            f"{which} takes {SCHEME_ARITY[which]} type parameters, got {len(params)}"
        )
    return _SCHEMES[which](*params)


@lru_cache(maxsize=4096)
def _inst_type(which: str, inst: tuple[MType, ...]) -> Optional[MType]:
    """The scheme at an explicit instantiation; None when it holds a metavariable."""
    if any(map(metavar_idents, inst)):
        return None
    return scheme_type(which, inst)


def term_vars(t: CTerm) -> frozenset[str]:
    if type(t) is CVar:
        return frozenset((t.name,))
    return frozenset().union(*[term_vars(c) for c in children(t)])


def substitute_c(t: CTerm, x: str, v: CTerm) -> CTerm:
    """t[x := v], textual as no binder can capture; t itself when x is absent."""
    c = type(t)
    if c is App:
        f, a = substitute_c(t.fun, x, v), substitute_c(t.arg, x, v)
        return t if f is t.fun and a is t.arg else App(f, a)
    if c is CStar:
        l, r = substitute_c(t.left, x, v), substitute_c(t.right, x, v)
        return t if l is t.left and r is t.right else CStar(l, r)
    return v if c is CVar and t.name == x else t


def contains_star(t: CTerm) -> bool:
    while type(t) is App:  # down the argument spine, into each function
        if contains_star(t.fun):
            return True
        t = t.arg
    return type(t) is CStar


def classify(t: CTerm) -> TermClass:
    if not contains_star(t):
        return TermClass.PRE_TERM
    match t:
        case CStar(l, r) if not contains_star(l) and not contains_star(r):
            return TermClass.STAR_TERM
    return TermClass.NEITHER


def is_identity(t: CTerm) -> bool:
    match t:
        case App(App(Comb("S", _), Comb("K", _)), Comb("K", _)):
            return True
    return False


class _Inference:
    """One constraint-collection pass; shared by every entry on the solve."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.counter = itertools.count()
        self.constraints: list[tuple[MType, MType]] = []
        # the uninstantiated combinators: only their parameters need solving
        self.occurrences: list[tuple[tuple[int, ...], str, tuple[MType, ...]]] = []

    def fresh(self) -> MType:
        return MetaVar(next(self.counter))

    def collect(self, t: CTerm, path: tuple[int, ...]) -> Ty:
        """t's type, up to the equations and occurrences recorded for the solve."""
        c = type(t)
        if c is App:
            ft = self.collect(t.fun, path + (0,))
            at = self.collect(t.arg, path + (1,))
            if type(ft) is Bottom:
                raise TypingError("a term of type # cannot be applied")
            if type(at) is Bottom:
                raise TypingError("a term of type # cannot be an argument")
            nat = negate(at)
            if type(ft) is Disj and ft.left == nat:
                return ft.right  # modus ponens as it stands: nothing to solve
            result = self.fresh()
            self.constraints.append((ft, Disj(nat, result)))
            return result
        if c is CStar:
            lt = self.collect(t.left, path + (0,))
            rt = self.collect(t.right, path + (1,))
            if type(lt) is Bottom or type(rt) is Bottom:
                raise TypingError("both sides of * must have m-types")
            nrt = negate(rt)
            if lt != nrt:
                self.constraints.append((lt, nrt))
            return BOTTOM
        if c is CVar:
            if t.name not in self.ctx:
                raise TypingError(f"unbound variable '{t.name}'")
            return self.ctx[t.name]
        if c is Comb:
            if t.inst is not None:
                ty = _inst_type(t.which, t.inst)
                if ty is None:
                    raise TypingError("inst types must be concrete")
                return ty
            # an unknown name gets no parameters; scheme_type rejects it
            params = tuple(self.fresh() for _ in range(SCHEME_ARITY.get(t.which, 0)))
            ty = scheme_type(t.which, params)
            self.occurrences.append((path, t.which, params))
            return ty
        raise TypeError(f"not a term: {t!r}")


def _solve(ctx: Context, t: CTerm) -> tuple[Ty, Substitution, _Inference]:
    inf = _Inference(ctx)
    root = inf.collect(t, ())
    if not inf.constraints:
        return root, Substitution({}), inf
    subst = unify(inf.constraints)
    return subst.apply_ty(root), subst, inf


def _ground(ctx: Context, t: CTerm) -> tuple[Ty, dict[tuple[int, ...], Comb]]:
    """The principal type, and each uninstantiated combinator instantiated,
    by path, all required ground. Without such combinators every
    metavariable was an application's result, bound by the solve."""
    root, subst, inf = _solve(ctx, t)
    if not inf.occurrences:
        return root, {}
    solved, residual = {}, []
    for path, sym, params in inf.occurrences:
        resolved = tuple(map(subst.apply, params))
        solved[path] = Comb(sym, resolved)
        if any(map(metavar_idents, resolved)):
            residual.append((path, sym))
    if not isinstance(root, Bottom) and metavar_idents(root):
        residual.append(((), "result"))
    if residual:
        where = ", ".join(f"{sym} at {list(path)}" for path, sym in residual[:4])
        raise AmbiguousTypeError(
            f"type is ambiguous; unconstrained parameters remain ({where}); "
            "supply inst on the combinators involved"
        )
    return root, solved


def infer_c(ctx: Context, t: CTerm) -> Ty:
    """Principal type, required ground.

    Raises TypingError on clash/occurs/unbound, AmbiguousTypeError when the
    constraints solve but some scheme parameter (or the root) stays open.
    """
    return _ground(ctx, t)[0]


def elaborate(ctx: Context, t: CTerm) -> tuple[Ty, CTerm]:
    """Like infer_c but also returns t with every combinator fully inst'ed;
    t itself when it already is."""
    root, solved = _ground(ctx, t)
    for path, comb in solved.items():
        t = replace_at(t, path, comb)
    return root, t


def ground_type_of(ctx: Context, t: CTerm) -> Ty:
    """The type of a fully instantiated term: the one solve, which has
    nothing to solve on such a term, and the rule that every combinator
    carries its instantiation."""
    root, _, inf = _solve(ctx, t)
    if inf.occurrences:
        raise TypingError(f"{inf.occurrences[0][1]} lacks a type instantiation")
    return root


def _typable_bottom(ctx: Context, t: CTerm) -> bool:
    # A derivation exists with conclusion bottom iff constraints solve and
    # the root is a star. Residual parameters are fine here: any
    # instantiation of them completes a derivation.
    if not isinstance(t, CStar):
        return False
    try:
        root, _, _ = _solve(ctx, t)
    except TypingError:
        return False
    return isinstance(root, Bottom)


def _head(t: CTerm, n: int) -> Optional[str]:
    """The combinator at the head of t when t applies it to exactly n arguments."""
    for _ in range(n):
        if type(t) is not App:
            return None
        t = t.fun
    return t.which if type(t) is Comb else None


def _local_rules(node: CTerm) -> tuple[str, ...]:
    """The rules other than simp that match at node, in priority order.

    Dispatches on the spine head: a leaf matches nothing, an application
    only by its head combinator, a star only by the heads of its sides.
    """
    if type(node) is App:
        head = node.fun.fun if type(node.fun) is App else None
        if type(head) is Comb:
            if head.which == "K":
                return ("k",)
            if head.which == "C":
                if _head(node.fun.arg, 1) == "K" and is_identity(node.arg):
                    return ("e_r",)
                if is_identity(node.fun.arg) and _head(node.arg, 1) == "K":
                    return ("e_l",)
        elif type(head) is App and _head(head, 1) == "S":
            return ("s",)
        return ()
    if type(node) is not CStar:
        return ()
    left, right = _head(node.left, 2), _head(node.right, 2)
    if left == "C":
        return ("c_r", "c_l") if right == "C" else ("c_r",)
    if right == "C":
        return ("c_l",)
    if left == "P":
        return {"Q1": ("pq1",), "Q2": ("pq2",)}.get(_head(node.right, 1), ())
    if right == "P":
        return {"Q1": ("qp1",), "Q2": ("qp2",)}.get(_head(node.left, 1), ())
    return ()


def _simp_shaped(node: CTerm) -> bool:
    """node is C (K u) (K v)."""
    return (_head(node, 2) == "C" and _head(node.fun.arg, 1) == "K"
            and _head(node.arg, 1) == "K")


def find_redexes_c(ctx: Optional[Context], t: CTerm) -> list[Redex]:
    """Every redex of t, pre-order by path, then rule priority.

    simp needs a typing derivation of the whole term with conclusion
    bottom, which only a star root has, so it is only offered when a
    context is given and t is a star; t is typed once, when the walk first
    meets a simp-shaped node.
    """
    out, stack = [], []  # the redexes; the right children still to visit
    if not isinstance(t, _Compound):
        return out
    typable = None if ctx is not None and type(t) is CStar else False
    path, node = (), t
    while True:
        for rule in _local_rules(node):
            out.append(Redex(rule, path))
        if typable is not False and _simp_shaped(node):
            if typable is None:
                typable = _typable_bottom(ctx, t)
            if typable:
                out.append(Redex("simp", path))
        if type(node) is App:
            left, right = node.fun, node.arg
        else:
            left, right = node.left, node.right
        if isinstance(right, _Compound):
            stack.append((path + (1,), right))
        if isinstance(left, _Compound):
            path, node = path + (0,), left
        elif stack:
            path, node = stack.pop()
        else:
            return out


# The reduct of each local rule at a node it matches.
_CONTRACT = {
    "k": lambda n: n.fun.arg,  # K u v -> u
    "s": lambda n: App(App(n.fun.fun.arg, n.arg), App(n.fun.arg, n.arg)),  # S u v w -> u w (v w)
    "c_r": lambda n: CStar(App(n.left.fun.arg, n.right), App(n.left.arg, n.right)),  # C u v * w -> u w * v w
    "c_l": lambda n: CStar(App(n.right.fun.arg, n.left), App(n.right.arg, n.left)),  # w * C u v -> u w * v w
    "e_r": lambda n: n.fun.arg.arg,  # C (K u) I -> u
    "e_l": lambda n: n.arg.arg,  # C I (K u) -> u
    "pq1": lambda n: CStar(n.left.fun.arg, n.right.arg),  # P u v * Q1 w -> u * w
    "pq2": lambda n: CStar(n.left.arg, n.right.arg),  # P u v * Q2 w -> v * w
    "qp1": lambda n: CStar(n.left.arg, n.right.fun.arg),  # Q1 w * P u v -> w * u
    "qp2": lambda n: CStar(n.left.arg, n.right.arg),  # Q2 w * P u v -> w * v
}


def _descend(t: CTerm, path: tuple[int, ...]) -> tuple[list[CTerm], CTerm]:
    """The ancestors of the node at path, from t down, and that node."""
    above, node = [], t
    for i in path:
        above.append(node)
        if type(node) is App:
            node = node.arg if i else node.fun
        elif type(node) is CStar:
            node = node.right if i else node.left
        else:
            raise StaleRedex(f"path {path} does not exist")
    return above, node


def _plug(above: list[CTerm], path: tuple[int, ...], new: CTerm) -> CTerm:
    """The term whose ancestors along path are above, with new at path:
    only the spine is rebuilt."""
    for i, up in zip(reversed(path), reversed(above)):
        if type(up) is App:
            new = App(up.fun, new) if i else App(new, up.arg)
        else:
            new = CStar(up.left, new) if i else CStar(new, up.right)
    return new


def reduce_at_c(t: CTerm, redex: Redex) -> CTerm:
    """Contract redex in t in one walk down its path and back up; a redex
    that does not match t raises StaleRedex."""
    path = redex.path
    above, node = _descend(t, path)
    if redex.rule == "simp" and path and _simp_shaped(node):
        return CStar(node.fun.arg.arg, node.arg.arg)  # whole-term collapse
    if redex.rule not in _local_rules(node):
        raise StaleRedex(f"{redex.rule} does not match at {path}")
    return _plug(above, path, _CONTRACT[redex.rule](node))


def first_step_c(ctx: Optional[Context], t: CTerm) -> Optional[tuple[Redex, CTerm]]:
    """The leftmost-outermost step of t, found and contracted in one walk:
    ``(r, reduce_at_c(t, r))`` for the first redex ``r`` of
    ``find_redexes_c(ctx, t)``, or None at a normal form.

    The walk is find_redexes_c's, with its simp condition: only a star t
    with a context is typed, and only then is a node tested for the simp
    shape. At the first node a rule matches it contracts by that rule's
    ``_CONTRACT`` entry, read at call time, and rebuilds the spine above it.
    """
    if not isinstance(t, _Compound):
        return None
    typable = None if ctx is not None and type(t) is CStar else False
    stack = []  # the right children still to visit
    path, node = (), t
    while True:
        rules = _local_rules(node)
        if rules:
            above, _ = _descend(t, path)
            return Redex(rules[0], path), _plug(above, path, _CONTRACT[rules[0]](node))
        if typable is not False and _simp_shaped(node):
            if typable is None:
                typable = _typable_bottom(ctx, t)
            if typable:
                return Redex("simp", path), CStar(node.fun.arg.arg, node.arg.arg)
        if type(node) is App:
            left, right = node.fun, node.arg
        else:
            left, right = node.left, node.right
        if isinstance(right, _Compound):
            stack.append((path + (1,), right))
        if isinstance(left, _Compound):
            path, node = path + (0,), left
        elif stack:
            path, node = stack.pop()
        else:
            return None
