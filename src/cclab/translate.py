"""The two encodings between the calculi.

Lambda to combinators (phi) eliminates binders by bracket abstraction;
combinators to lambda (psi) expands each combinator into a closed lambda
term built from projection and application macros.

phi comes in two modes. With a context it emits fully instantiated
combinators, so the image type-checks without any solving; the
instantiations are read off the source typing derivation (binder type on
the lambda, argument and result types at each application). Without a
context it emits the bare combinator skeleton, which is enough for
reduction experiments on open or untyped terms.

psi always needs types: the macro for an application (U V) binds a
variable at the result type, and the combinator images bind at the
negated scheme type, so every combinator must carry its instantiation
(use ccl.elaborate first if it does not).

Neither translation checks types itself, so `translate` reports the errors
`check` reports, in both directions: typed phi runs lambda_sym.infer first,
and psi the one combinator solve, ccl.ground_type_of. They then read each
node's type off the accepted term; bracket_typed types what it abstracts in
the same fold. Typed phi's only error of its own is an abstraction over a
bottom-typed variable, which has no combinator image.

A combinator's image depends only on its name and instantiation, so
psi_comb keeps the 4,096 most recently used images in a bounded table,
and every occurrence of an instantiated combinator shares one image
object. psi's output is therefore a DAG of immutable nodes, not a tree:
a closed image may appear at several places of one term, and of many.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional

from .ccl import (
    App,
    Comb,
    CStar,
    CTerm,
    CVar,
    IDENT,
    contains_star,
    ground_type_of,
    scheme_type,
    term_vars,
)
from .lambda_sym import (
    Inj1,
    Inj2,
    Lam,
    LsTerm,
    Pair,
    Star,
    Var,
    _fresh,
    free_vars,
    infer,
)
from .types import (
    BOTTOM,
    Bottom,
    Conj,
    Disj,
    MType,
    Ty,
    negate,
)


class TranslationError(Exception):
    pass


# ---- lambda -> combinators ----


def bracket_abstract(x: str, t: CTerm) -> CTerm:
    """l_x on bare (uninstantiated) combinator terms."""
    match t:
        case CVar(y) if y == x:
            return IDENT
        case CStar(l, r):
            return App(App(Comb("C"), bracket_abstract(x, l)), bracket_abstract(x, r))
    if x not in term_vars(t):
        if contains_star(t):
            raise TranslationError(
                "cannot abstract over a term that is neither a pre-term "
                "nor a star of pre-terms"
            )
        return App(Comb("K"), t)
    # x occurs in t, which is neither x nor a star: an application
    return App(App(Comb("S"), bracket_abstract(x, t.fun)), bracket_abstract(x, t.arg))


def i_term_at(a: MType) -> CTerm:
    """((S K) K) instantiated to have type a⊥ | a.

    The inner K's second parameter is otherwise unconstrained; it is
    pinned to `a` so the result is fully ground.
    """
    dd = Disj(a, a)
    return App(
        App(Comb("S", (a, dd, a)), Comb("K", (a, negate(dd)))),
        Comb("K", (a, a)),
    )


def bracket_typed(x: str, a: MType, t: CTerm, ctx_c: dict) -> CTerm:
    """l_x t at x : a, for an instantiated t that types in ctx_c. One fold
    returns each subterm's type with its abstraction, None where x does not
    occur; the parent K-wraps such a subterm at the type just read off."""
    na = negate(a)

    def wrap(ty: Ty, u: CTerm, lu: Optional[CTerm]) -> CTerm:
        if lu is not None:
            return lu
        if isinstance(ty, Bottom):
            raise TranslationError(
                "cannot abstract over a bottom-typed subterm that is not a star"
            )
        return App(Comb("K", (ty, na)), u)

    def go(u: CTerm) -> tuple[Ty, Optional[CTerm]]:
        match u:
            case CVar(y):
                return (a, i_term_at(a)) if y == x else (ctx_c[y], None)
            case Comb(which, inst):
                return scheme_type(which, inst), None
            case App(f, arg):
                (ft, lf), (d, larg) = go(f), go(arg)
                if lf is None and larg is None:
                    return ft.right, None
                s = Comb("S", (a, d, ft.right))
                return ft.right, App(App(s, wrap(ft, f, lf)), wrap(d, arg, larg))
            case CStar(l, r):
                # the C clause applies to a star even when x is absent
                (lt, ll), (d, lr) = go(l), go(r)
                return BOTTOM, App(App(Comb("C", (a, d)), wrap(lt, l, ll)), wrap(d, r, lr))
        raise TypeError(f"not a term: {u!r}")

    ty, lx = go(t)
    return wrap(ty, t, lx)


def phi(t: LsTerm, ctx: Optional[Mapping[str, Ty]] = None) -> CTerm:
    """Translate a lambda-side term; instantiated when a context is given."""
    if ctx is None:
        return _phi_untyped(t)
    infer(ctx, t)  # the one type check; raises infer's own errors
    return _phi_typed(ctx, t)[1]


def _phi_untyped(t: LsTerm) -> CTerm:
    match t:
        case Var(x):
            return CVar(x)
        case Lam(x, _, body):
            return bracket_abstract(x, _phi_untyped(body))
        case Star(l, r):
            return CStar(_phi_untyped(l), _phi_untyped(r))
        case Pair(l, r):
            return App(App(Comb("P"), _phi_untyped(l)), _phi_untyped(r))
        case Inj1(b, _):
            return App(Comb("Q1"), _phi_untyped(b))
        case Inj2(b, _):
            return App(Comb("Q2"), _phi_untyped(b))
    raise TypeError(f"not a term: {t!r}")


def _phi_typed(ctx: Mapping[str, Ty], t: LsTerm) -> tuple[Ty, CTerm]:
    """(type, image) of a term that infer accepts in ctx."""
    match t:
        case Var(x):
            return ctx[x], CVar(x)
        case Lam(x, ann, body):
            inner = {**ctx, x: ann}
            return negate(ann), bracket_typed(x, ann, _phi_typed(inner, body)[1], inner)
        case Star(l, r):
            return BOTTOM, CStar(_phi_typed(ctx, l)[1], _phi_typed(ctx, r)[1])
        case Pair(l, r):
            (lt, li), (rt, ri) = _phi_typed(ctx, l), _phi_typed(ctx, r)
            return Conj(lt, rt), App(App(Comb("P", (lt, rt)), li), ri)
        case Inj1(b, ann) | Inj2(b, ann):
            q = "Q1" if type(t) is Inj1 else "Q2"
            return ann, App(Comb(q, (ann.left, ann.right)), _phi_typed(ctx, b)[1])
    raise TypeError(f"not a term: {t!r}")


# ---- combinators -> lambda ----


def pi_macro(i: int, t: LsTerm, conj: Conj) -> LsTerm:
    """Projection as a lambda term: \\z:~Ai. t * si(z : ~A1 | ~A2)."""
    comp = conj.left if i == 1 else conj.right
    ann = Disj(negate(conj.left), negate(conj.right))
    z = _fresh("_z", free_vars(t))
    inj = Inj1(Var(z), ann) if i == 1 else Inj2(Var(z), ann)
    return Lam(z, negate(comp), Star(t, inj))


def pi_path(indices: str, t: LsTerm, ty: MType) -> tuple[LsTerm, MType]:
    """pi_{i1 i2 ... in} t, applied right to left; returns term and type."""
    term, cur = t, ty
    for ch in reversed(indices):
        i = int(ch)
        term = pi_macro(i, term, cur)
        cur = cur.left if i == 1 else cur.right
    return term, cur


def pair_app(u: LsTerm, v: LsTerm, result: MType) -> LsTerm:
    """[u, v] = \\x:~B. u * <v, x>, the application macro at result type B."""
    x = _fresh("_x", free_vars(u) | free_vars(v))
    return Lam(x, negate(result), Star(u, Pair(v, Var(x))))


@lru_cache(maxsize=4096)
def psi_comb(which: str, inst: tuple[MType, ...]) -> LsTerm:
    """The lambda image of one instantiated combinator, built once per
    (which, inst) and shared: the image is closed and never changes."""
    scheme = scheme_type(which, inst)
    t0 = negate(scheme)
    x = Var("x")

    def p(indices: str) -> tuple[LsTerm, MType]:
        return pi_path(indices, x, t0)

    match which:
        case "K":
            body = Star(p("1")[0], p("22")[0])
        case "S":
            u1, ty1 = p("1")  # ~A | (~B | C)
            u2, ty2 = p("12")  # ~A | B
            w, _ = p("122")  # A
            inner1 = pair_app(u1, w, ty1.right)
            inner2 = pair_app(u2, w, ty2.right)
            outer = pair_app(inner1, inner2, ty1.right.right)
            body = Star(outer, p("222")[0])
        case "C":
            u1, ty1 = p("1")
            u2, ty2 = p("12")
            w, _ = p("22")
            body = Star(pair_app(u1, w, ty1.right), pair_app(u2, w, ty2.right))
        case "P":
            body = Star(Pair(p("1")[0], p("12")[0]), p("22")[0])
        case "Q1":
            a, b = inst
            body = Star(Inj1(p("1")[0], Disj(a, b)), p("2")[0])
        case "Q2":
            a, b = inst
            body = Star(Inj2(p("1")[0], Disj(a, b)), p("2")[0])
    return Lam("x", t0, body)


def psi(t: CTerm, ctx: Mapping[str, Ty]) -> LsTerm:
    """Translate a combinatory term; every combinator must carry inst."""
    ground_type_of(ctx, t)  # the one type check; raises its own errors
    return _psi(t, ctx)[1]


def _psi(node: CTerm, ctx: Mapping[str, Ty]) -> tuple[Ty, LsTerm]:
    """node's type and image, for a node of a term that types in ctx."""
    match node:
        case CVar(x):
            return ctx[x], Var(x)
        case Comb(which, inst):
            return scheme_type(which, inst), psi_comb(which, inst)
        case App(f, a):
            ft, fi = _psi(f, ctx)
            return ft.right, pair_app(fi, _psi(a, ctx)[1], ft.right)
        case CStar(l, r):
            return BOTTOM, Star(_psi(l, ctx)[1], _psi(r, ctx)[1])
    raise TypeError(f"not a term: {node!r}")
