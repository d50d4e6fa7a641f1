"""The combinatory calculus: six typed combinators, application, star.

Combinators are typed by axiom schemes over m-type parameters. An
occurrence may carry an explicit instantiation (``K[a, b]``); otherwise the
parameters become metavariables and the checker solves for them. The
checker never defaults a residual metavariable: if any parameter stays
unresolved the term is reported as ambiguous so the caller can supply
``inst``. ``infer_c`` and ``elaborate`` share that one solve and its one
ambiguity message; ``ground_type_of`` types fully instantiated terms
without solving and is the type check of ``translate.psi``.

``simp`` is the combinatory analogue of the lambda side's triv rule and is
equally non-local: a typable term of type bottom with a ``(C (K U) (K V))``
subterm at a non-root path contracts, as a whole, to ``U * V``. Rule
matching ignores instantiations (reduction is syntactic) and dispatches on
the spine head: the head combinator of an application, or of each side of
a star. App and CStar nodes keep their structural hash after the first use.

Each node class names its child fields in ``KIDS``; paths, sizes and
rebuilding come from ``node``, and ``reduce_at_c`` raises its ``StaleRedex``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .node import StaleRedex, children, rebuild
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
    metavar_idents,
    negate,
    unify,
)


@dataclass(frozen=True, slots=True)
class CTerm:
    KIDS = ()


@dataclass(frozen=True, slots=True)
class CVar(CTerm):
    name: str
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Comb(CTerm):
    which: str  # K S C P Q1 Q2
    inst: Optional[tuple[MType, ...]] = None
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


class _Compound(CTerm):
    """App or CStar: hashed on demand, not at construction, then kept."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(children(self))  # the hash a dataclass would compute
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True, slots=True)
class App(_Compound):
    KIDS = ("fun", "arg")
    fun: CTerm
    arg: CTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)
    __hash__ = _Compound.__hash__


@dataclass(frozen=True, slots=True)
class CStar(_Compound):
    KIDS = ("left", "right")
    left: CTerm
    right: CTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)
    __hash__ = _Compound.__hash__


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


class AmbiguousTypeError(TypingError):
    """Typable, but scheme parameters remain unconstrained; supply inst."""


def scheme_type(which: str, params: Sequence[MType]) -> MType:
    if which not in SCHEME_ARITY:
        raise TypingError(f"unknown combinator {which}")
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


def term_vars(t: CTerm) -> frozenset[str]:
    if type(t) is CVar:
        return frozenset((t.name,))
    return frozenset().union(*[term_vars(c) for c in children(t)])


def substitute_c(t: CTerm, x: str, v: CTerm) -> CTerm:
    """t[x := v]. No binders on this side, so purely textual."""
    match t:
        case CVar(y):
            return v if y == x else t
        case CVar() | Comb():
            return t
        case _:
            return rebuild(t, [substitute_c(c, x, v) for c in children(t)])


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


def _ground(ctx: Context, t: CTerm) -> tuple[Ty, dict[tuple[int, ...], tuple[MType, ...]]]:
    """The one solve behind infer_c and elaborate: the principal type, and
    each combinator occurrence's parameters by path, all required ground."""
    root, subst, inf = _solve(ctx, t)
    solved, residual = {}, []
    for path, sym, params in inf.occurrences:
        solved[path] = resolved = tuple(map(subst.apply, params))
        for p in resolved:
            if metavar_idents(p):
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
    return root, solved


def infer_c(ctx: Context, t: CTerm) -> Ty:
    """Principal type, required ground.

    Raises TypingError on clash/occurs/unbound, AmbiguousTypeError when the
    constraints solve but some scheme parameter (or the root) stays open.
    """
    return _ground(ctx, t)[0]


def elaborate(ctx: Context, t: CTerm) -> tuple[Ty, CTerm]:
    """Like infer_c but also returns t with every combinator fully inst'ed."""
    root, solved = _ground(ctx, t)

    def fill(node: CTerm, path: tuple[int, ...]) -> CTerm:
        match node:
            case Comb(sym, _):
                return Comb(sym, solved[path])
            case CVar():
                return node
            case _:
                return rebuild(node, [fill(c, path + (i,)) for i, c in enumerate(children(node))])

    return root, fill(t, ())


def ground_type_of(ctx: Context, t: CTerm) -> Ty:
    """Fast synthesizer for fully-inst'ed terms; no unification involved."""
    match t:
        case CVar(x):
            if x not in ctx:
                raise TypingError(f"unbound variable '{x}'", t.span)
            return ctx[x]
        case Comb(sym, inst):
            if inst is None:
                raise TypingError(f"{sym} lacks a type instantiation")
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


def iter_redexes_c(ctx: Optional[Context], t: CTerm) -> Iterator[CRedex]:
    """Every redex of t, lazily: pre-order by path, then rule priority.

    simp needs a typing derivation of the whole term with conclusion
    bottom, so it is only offered when a context is given, and t is typed
    once, when the walk first meets a simp-shaped node below the root.
    """
    typable = None
    stack = [((), t)] if isinstance(t, _Compound) else []
    while stack:
        path, node = stack.pop()
        for rule in _local_rules(node):
            yield CRedex(rule, path)
        if path and _simp_shaped(node):
            if typable is None:
                typable = ctx is not None and _typable_bottom(ctx, t)
            if typable:
                yield CRedex("simp", path)
        left, right = (node.fun, node.arg) if type(node) is App else (node.left, node.right)
        if isinstance(right, _Compound):
            stack.append((path + (1,), right))
        if isinstance(left, _Compound):
            stack.append((path + (0,), left))


def find_redexes_c(ctx: Optional[Context], t: CTerm) -> list[CRedex]:
    """Every redex of t, in the order of iter_redexes_c."""
    return list(iter_redexes_c(ctx, t))


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


def reduce_at_c(t: CTerm, redex: CRedex) -> CTerm:
    """Contract redex in t in one walk down its path and back up."""
    path = redex.path
    above, node = [], t
    for i in path:
        above.append(node)
        if type(node) is App:
            node = node.arg if i else node.fun
        elif type(node) is CStar:
            node = node.right if i else node.left
        else:
            raise StaleRedex(f"path {path} does not exist")
    if redex.rule == "simp" and path and _simp_shaped(node):
        return CStar(node.fun.arg.arg, node.arg.arg)  # whole-term collapse
    if redex.rule not in _local_rules(node):
        raise StaleRedex(f"{redex.rule} does not match at {path}")
    new = _CONTRACT[redex.rule](node)
    for i, up in zip(reversed(path), reversed(above)):
        if type(up) is App:
            new = App(up.fun, new) if i else App(new, up.arg)
        else:
            new = CStar(up.left, new) if i else CStar(new, up.right)
    return new
