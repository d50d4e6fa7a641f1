"""The combinatory calculus: six typed combinators, application, star.

Combinators are typed by axiom schemes over m-type parameters. An
occurrence may carry an explicit instantiation (``K[a, b]``); otherwise the
parameters become metavariables and the checker solves for them. The
checker never defaults a residual metavariable: if any parameter stays
unresolved the term is reported as ambiguous so the caller can supply
``inst``.

``simp`` is the combinatory analogue of the lambda side's triv rule and is
equally non-local: a typable term of type bottom with a ``(C (K U) (K V))``
subterm at a non-root path contracts, as a whole, to ``U * V``. Pattern
matching for all rules ignores instantiations (reduction is syntactic).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .types import (
    BOTTOM,
    Bottom,
    Conj,
    Disj,
    MetaVar,
    MType,
    Substitution,
    Ty,
    TypingError,
    UnificationError,
    metavar_idents,
    negate,
    unify,
)


@dataclass(frozen=True, slots=True)
class CTerm:
    pass


@dataclass(frozen=True, slots=True)
class CVar(CTerm):
    name: str
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Comb(CTerm):
    which: str  # K S C P Q1 Q2
    inst: Optional[tuple[MType, ...]] = None
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class App(CTerm):
    fun: CTerm
    arg: CTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class CStar(CTerm):
    left: CTerm
    right: CTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


SCHEME_ARITY = {"K": 2, "S": 3, "C": 2, "P": 2, "Q1": 2, "Q2": 2}

C_RULES = ("k", "s", "c_r", "c_l", "e_r", "e_l", "pq1", "pq2", "qp1", "qp2", "simp")

# I is parser sugar and a reduction-rule constant, not a combinator of its own.
IDENT = App(App(Comb("S"), Comb("K")), Comb("K"))


class TermClass(enum.Enum):
    PRE_TERM = "pre-term"
    STAR_TERM = "star-term"
    NEITHER = "neither"


@dataclass(frozen=True, slots=True)
class CRedex:
    rule: str
    path: tuple[int, ...]


class StaleRedex(Exception):
    pass


class AmbiguousTypeError(TypingError):
    """Typable, but scheme parameters remain unconstrained; supply inst."""


def scheme_type(which: str, params: Sequence[MType]) -> MType:
    if len(params) != SCHEME_ARITY[which]:
        raise TypingError(
            f"{which} takes {SCHEME_ARITY[which]} type parameters, got {len(params)}"
        )
    match which:
        case "K":
            a, b = params
            return Disj(negate(a), Disj(b, a))
        case "S":
            a, b, c = params
            return Disj(
                Conj(a, Conj(b, negate(c))),
                Disj(Conj(a, negate(b)), Disj(negate(a), c)),
            )
        case "C":
            a, b = params
            return Disj(Conj(a, b), Disj(Conj(a, negate(b)), negate(a)))
        case "P":
            a, b = params
            return Disj(negate(a), Disj(negate(b), Conj(a, b)))
        case "Q1":
            a, b = params
            return Disj(negate(a), Disj(a, b))
        case "Q2":
            a, b = params
            return Disj(negate(b), Disj(a, b))
    raise TypingError(f"unknown combinator {which}")


def children(t: CTerm) -> tuple[CTerm, ...]:
    match t:
        case CVar() | Comb():
            return ()
        case App(f, a):
            return (f, a)
        case CStar(l, r):
            return (l, r)
    raise TypeError(f"not a term: {t!r}")


def _rebuild(t: CTerm, kids: tuple[CTerm, ...]) -> CTerm:
    match t:
        case App(_, _):
            return App(kids[0], kids[1])
        case CStar(_, _):
            return CStar(kids[0], kids[1])
    raise TypeError(f"not a compound term: {t!r}")


def subterm_at(t: CTerm, path: tuple[int, ...]) -> CTerm:
    for i in path:
        kids = children(t)
        if i >= len(kids):
            raise StaleRedex(f"path {path} does not exist")
        t = kids[i]
    return t


def replace_at(t: CTerm, path: tuple[int, ...], new: CTerm) -> CTerm:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return _rebuild(t, tuple(kids))


def term_size(t: CTerm) -> int:
    return 1 + sum(term_size(c) for c in children(t))


def term_vars(t: CTerm) -> frozenset[str]:
    match t:
        case CVar(x):
            return frozenset((x,))
        case _:
            out: frozenset[str] = frozenset()
            for c in children(t):
                out |= term_vars(c)
            return out


def substitute_c(t: CTerm, x: str, v: CTerm) -> CTerm:
    """t[x := v]. No binders on this side, so purely textual."""
    match t:
        case CVar(y):
            return v if y == x else t
        case CVar() | Comb():
            return t
        case _:
            return _rebuild(t, tuple(substitute_c(c, x, v) for c in children(t)))


def contains_star(t: CTerm) -> bool:
    match t:
        case CStar(_, _):
            return True
        case _:
            return any(contains_star(c) for c in children(t))


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


Context = Mapping[str, Ty]


class _Inference:
    """One constraint-collection pass; shared by infer_c / elaborate / simp."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.counter = itertools.count()
        self.constraints: list[tuple[MType, MType]] = []
        self.occurrences: list[tuple[tuple[int, ...], str, tuple[MType, ...]]] = []

    def fresh(self) -> MType:
        return MetaVar(next(self.counter))

    def collect(self, t: CTerm, path: tuple[int, ...]) -> Ty:
        match t:
            case CVar(x):
                if x not in self.ctx:
                    raise TypingError(f"unbound variable '{x}'", t.span)
                return self.ctx[x]
            case Comb(sym, inst):
                if sym not in SCHEME_ARITY:
                    raise TypingError(f"unknown combinator {sym}", t.span)
                if inst is not None:
                    if len(inst) != SCHEME_ARITY[sym]:
                        raise TypingError(
                            f"{sym} takes {SCHEME_ARITY[sym]} type parameters",
                            t.span,
                        )
                    for p in inst:
                        if metavar_idents(p):
                            raise TypingError("inst types must be concrete", t.span)
                    params = inst
                else:
                    params = tuple(self.fresh() for _ in range(SCHEME_ARITY[sym]))
                self.occurrences.append((path, sym, params))
                return scheme_type(sym, params)
            case App(f, a):
                ft = self.collect(f, path + (0,))
                at = self.collect(a, path + (1,))
                if isinstance(ft, Bottom):
                    raise TypingError("a term of type # cannot be applied", t.span)
                if isinstance(at, Bottom):
                    raise TypingError("a term of type # cannot be an argument", t.span)
                result = self.fresh()
                self.constraints.append((ft, Disj(negate(at), result)))
                return result
            case CStar(l, r):
                lt = self.collect(l, path + (0,))
                rt = self.collect(r, path + (1,))
                if isinstance(lt, Bottom) or isinstance(rt, Bottom):
                    raise TypingError("both sides of * must have m-types", t.span)
                self.constraints.append((lt, negate(rt)))
                return BOTTOM
        raise TypeError(f"not a term: {t!r}")


def _solve(ctx: Context, t: CTerm) -> tuple[Ty, Substitution, _Inference]:
    inf = _Inference(ctx)
    root = inf.collect(t, ())
    subst = unify(inf.constraints)
    return subst.apply_ty(root), subst, inf


def infer_c(ctx: Context, t: CTerm) -> Ty:
    """Principal type, required ground.

    Raises TypingError on clash/occurs/unbound, AmbiguousTypeError when the
    constraints solve but some scheme parameter (or the root) stays open.
    """
    root, subst, inf = _solve(ctx, t)
    residual = []
    for path, sym, params in inf.occurrences:
        for p in params:
            if metavar_idents(subst.apply(p)):
                residual.append((path, sym))
                break
    if not isinstance(root, Bottom) and metavar_idents(root):
        residual.append(((), "result"))
    if residual:
        where = ", ".join(f"{sym} at {list(path)}" for path, sym in residual[:4])
        raise AmbiguousTypeError(
            f"type is ambiguous; unconstrained parameters remain ({where}); "
            "supply inst on the combinators involved"
        )
    return root


def elaborate(ctx: Context, t: CTerm) -> tuple[Ty, CTerm]:
    """Like infer_c but also returns t with every combinator fully inst'ed."""
    root, subst, inf = _solve(ctx, t)
    solved: dict[tuple[int, ...], tuple[MType, ...]] = {}
    for path, sym, params in inf.occurrences:
        resolved = tuple(subst.apply(p) for p in params)
        for p in resolved:
            if metavar_idents(p):
                raise AmbiguousTypeError(
                    f"cannot elaborate: {sym} at {list(path)} has unconstrained "
                    "parameters; supply inst"
                )
        solved[path] = resolved
    if not isinstance(root, Bottom) and metavar_idents(root):
        raise AmbiguousTypeError("cannot elaborate: result type is unconstrained")

    def rebuild(node: CTerm, path: tuple[int, ...]) -> CTerm:
        match node:
            case Comb(sym, _):
                return Comb(sym, solved[path])
            case CVar():
                return node
            case _:
                kids = tuple(
                    rebuild(c, path + (i,)) for i, c in enumerate(children(node))
                )
                return _rebuild(node, kids)

    return root, rebuild(t, ())


def ground_type_of(ctx: Context, t: CTerm) -> Ty:
    """Fast synthesizer for fully-inst'ed terms; no unification involved."""
    match t:
        case CVar(x):
            if x not in ctx:
                raise TypingError(f"unbound variable '{x}'", t.span)
            return ctx[x]
        case Comb(sym, inst):
            if inst is None:
                raise TypingError(f"{sym} lacks inst; cannot type without solving")
            return scheme_type(sym, inst)
        case App(f, a):
            ft = ground_type_of(ctx, f)
            at = ground_type_of(ctx, a)
            if not isinstance(ft, Disj):
                raise TypingError("function position must have a disjunction type")
            if isinstance(at, Bottom) or negate(ft.left) != at:
                raise TypingError("argument type does not match the function")
            return ft.right
        case CStar(l, r):
            lt = ground_type_of(ctx, l)
            rt = ground_type_of(ctx, r)
            if isinstance(lt, Bottom) or isinstance(rt, Bottom) or lt != negate(rt):
                raise TypingError("sides of * are not dual m-types")
            return BOTTOM
    raise TypeError(f"not a term: {t!r}")


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


def _local_rules(node: CTerm) -> tuple[str, ...]:
    """The rules other than simp that match at node, in priority order."""
    match node:
        case App(App(Comb("K", _), _), _):
            return ("k",)
        case App(App(App(Comb("S", _), _), _), _):
            return ("s",)
        case App(App(Comb("C", _), App(Comb("K", _), _)), i) if is_identity(i):
            return ("e_r",)
        case App(App(Comb("C", _), i), App(Comb("K", _), _)) if is_identity(i):
            return ("e_l",)
        case CStar(App(App(Comb("C", _), _), _), App(App(Comb("C", _), _), _)):
            return ("c_r", "c_l")
        case CStar(App(App(Comb("C", _), _), _), _):
            return ("c_r",)
        case CStar(_, App(App(Comb("C", _), _), _)):
            return ("c_l",)
        case CStar(App(App(Comb("P", _), _), _), App(Comb("Q1", _), _)):
            return ("pq1",)
        case CStar(App(App(Comb("P", _), _), _), App(Comb("Q2", _), _)):
            return ("pq2",)
        case CStar(App(Comb("Q1", _), _), App(App(Comb("P", _), _), _)):
            return ("qp1",)
        case CStar(App(Comb("Q2", _), _), App(App(Comb("P", _), _), _)):
            return ("qp2",)
    return ()


def iter_redexes_c(ctx: Optional[Context], t: CTerm) -> Iterator[CRedex]:
    """Every redex of t, lazily: pre-order by path, then rule priority.

    simp needs a typing derivation of the whole term with conclusion
    bottom, so it is only offered when a context is given, and t is typed
    once, when the walk first meets a simp-shaped node below the root.
    """
    typable = None
    stack = [((), t)]
    while stack:
        path, node = stack.pop()
        for rule in _local_rules(node):
            yield CRedex(rule, path)
        match node:
            case App(App(Comb("C", _), App(Comb("K", _), _)), App(Comb("K", _), _)) if path:
                if typable is None:
                    typable = ctx is not None and _typable_bottom(ctx, t)
                if typable:
                    yield CRedex("simp", path)
        match node:
            case App(l, r) | CStar(l, r):
                stack.append((path + (1,), r))
                stack.append((path + (0,), l))


def find_redexes_c(ctx: Optional[Context], t: CTerm) -> list[CRedex]:
    """Every redex of t, in the order of iter_redexes_c."""
    return list(iter_redexes_c(ctx, t))


def reduce_at_c(t: CTerm, redex: CRedex) -> CTerm:
    node = subterm_at(t, redex.path)
    match redex.rule, node:
        case ("k", App(App(Comb("K", _), u), _)):
            return replace_at(t, redex.path, u)
        case ("s", App(App(App(Comb("S", _), u), v), w)):
            return replace_at(t, redex.path, App(App(u, w), App(v, w)))
        case ("c_r", CStar(App(App(Comb("C", _), u), v), w)):
            return replace_at(t, redex.path, CStar(App(u, w), App(v, w)))
        case ("c_l", CStar(w, App(App(Comb("C", _), u), v))):
            return replace_at(t, redex.path, CStar(App(u, w), App(v, w)))
        case ("e_r", App(App(Comb("C", _), App(Comb("K", _), u)), i)) if is_identity(i):
            return replace_at(t, redex.path, u)
        case ("e_l", App(App(Comb("C", _), i), App(Comb("K", _), u))) if is_identity(i):
            return replace_at(t, redex.path, u)
        case ("pq1", CStar(App(App(Comb("P", _), u), _), App(Comb("Q1", _), w))):
            return replace_at(t, redex.path, CStar(u, w))
        case ("pq2", CStar(App(App(Comb("P", _), _), v), App(Comb("Q2", _), w))):
            return replace_at(t, redex.path, CStar(v, w))
        case ("qp1", CStar(App(Comb("Q1", _), w), App(App(Comb("P", _), u), _))):
            return replace_at(t, redex.path, CStar(w, u))
        case ("qp2", CStar(App(Comb("Q2", _), w), App(App(Comb("P", _), _), v))):
            return replace_at(t, redex.path, CStar(w, v))
        case ("simp", App(App(Comb("C", _), App(Comb("K", _), u)), App(Comb("K", _), v))) if redex.path:
            return CStar(u, v)  # whole-term collapse
    raise StaleRedex(f"{redex.rule} does not match at {redex.path}")
