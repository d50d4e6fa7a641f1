"""The two encodings between the calculi.

Lambda to combinators (phi) eliminates binders by bracket abstraction;
combinators to lambda (psi) expands each combinator into a closed lambda
term built from projection and application macros.

phi is one fold whose types are optional, and so is bracket abstraction
(bracket_typed). With a context phi emits fully instantiated combinators,
so the image type-checks without any solving; the instantiations are read
off the source typing derivation (binder type on the lambda, argument and
result types at each application). Without a context the same folds run
with every type None and emit the bare combinator skeleton, which is
enough for reduction experiments on open or untyped terms: erasing the
instantiations of a typed image gives the untyped one. Untyped phi's one
error is a lambda whose body's image is not in bracket_abstract's domain.

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
    TermClass,
    classify,
    ground_type_of,
    scheme_type,
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
    """l_x on bare combinator terms: bracket_typed without types. Its domain
    is the pre-terms and the stars of pre-terms."""
    if classify(t) is TermClass.NEITHER:
        raise TranslationError(
            "cannot abstract over a term that is neither a pre-term "
            "nor a star of pre-terms"
        )
    return bracket_typed(x, None, t, {})


def i_term_at(a: Optional[MType]) -> CTerm:
    """((S K) K) instantiated to have type a⊥ | a; bare when a is None.

    The inner K's second parameter is otherwise unconstrained; it is
    pinned to `a` so the result is fully ground.
    """
    if a is None:
        return IDENT
    dd = Disj(a, a)
    return App(
        App(Comb("S", (a, dd, a)), Comb("K", (a, negate(dd)))),
        Comb("K", (a, a)),
    )


def bracket_typed(x: str, a: Optional[MType], t: CTerm, ctx_c: Mapping[str, Ty]) -> CTerm:
    """l_x t at x : a, for an instantiated t that types in ctx_c. One fold
    returns each subterm's type with its abstraction, None where x does not
    occur; the parent K-wraps such a subterm at the type just read off.

    With a None the fold is untyped, as bracket_abstract runs it: every type
    is None (`a and ...` skips it) and every combinator it builds is bare."""
    na = a and negate(a)
    return _wrap(na, *_fold(x, a, na, ctx_c, t), t)


def _wrap(na: Optional[MType], ty: Optional[Ty], lu: Optional[CTerm], u: CTerm) -> CTerm:
    if lu is not None:
        return lu
    if isinstance(ty, Bottom):
        raise TranslationError(
            "cannot abstract over a bottom-typed subterm that is not a star"
        )
    return App(Comb("K", na and (ty, na)), u)


def _fold(x: str, a: Optional[MType], na: Optional[MType], ctx_c: Mapping[str, Ty],
          u: CTerm) -> tuple[Optional[Ty], Optional[CTerm]]:
    """bracket_typed's fold: u's type, and l_x u or None where x does not occur."""
    match u:
        case CVar(y):
            return (a, i_term_at(a)) if y == x else (a and ctx_c[y], None)
        case Comb(which, inst):
            return a and scheme_type(which, inst), None
        case App(f, arg):
            (ft, lf), (d, larg) = _fold(x, a, na, ctx_c, f), _fold(x, a, na, ctx_c, arg)
            b = ft and ft.right
            if lf is None and larg is None:
                return b, None
            s = Comb("S", a and (a, d, b))
            return b, App(App(s, _wrap(na, ft, lf, f)), _wrap(na, d, larg, arg))
        case CStar(l, r):
            # the C clause applies to a star even when x is absent
            (lt, ll), (d, lr) = _fold(x, a, na, ctx_c, l), _fold(x, a, na, ctx_c, r)
            c = Comb("C", a and (a, d))
            return BOTTOM, App(App(c, _wrap(na, lt, ll, l)), _wrap(na, d, lr, r))
    raise TypeError(f"not a term: {u!r}")


def phi(t: LsTerm, ctx: Optional[Mapping[str, Ty]] = None) -> CTerm:
    """Translate a lambda-side term; instantiated when a context is given."""
    if ctx is not None:
        infer(ctx, t)  # the one type check; raises infer's own errors
    return _phi(ctx, t)[1]


def _phi(ctx: Optional[Mapping[str, Ty]], t: LsTerm) -> tuple[Optional[Ty], CTerm]:
    """(type, image) of a term that infer accepts in ctx. Without a context
    the fold is untyped: every type is None and every combinator bare."""
    match t:
        case Var(x):
            return None if ctx is None else ctx[x], CVar(x)
        case Lam(x, ann, body):
            if ctx is None:
                return None, bracket_abstract(x, _phi(None, body)[1])
            inner = {**ctx, x: ann}
            return negate(ann), bracket_typed(x, ann, _phi(inner, body)[1], inner)
        case Star(l, r):
            return None if ctx is None else BOTTOM, CStar(_phi(ctx, l)[1], _phi(ctx, r)[1])
        case Pair(l, r):
            (lt, li), (rt, ri) = _phi(ctx, l), _phi(ctx, r)
            return lt and Conj(lt, rt), App(App(Comb("P", lt and (lt, rt)), li), ri)
        case Inj1(b, ann) | Inj2(b, ann):
            ty = None if ctx is None else ann
            q = "Q1" if type(t) is Inj1 else "Q2"
            return ty, App(Comb(q, ty and (ty.left, ty.right)), _phi(ctx, b)[1])
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
        case "Q1" | "Q2":
            inj = Inj1 if which == "Q1" else Inj2
            body = Star(inj(p("1")[0], Disj(*inst)), p("2")[0])
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
