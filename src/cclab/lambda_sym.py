"""The symmetric lambda calculus: terms, typing, and the nine reduction rules.

Terms carry Church-style annotations (binder types on lambdas, the full
disjunction on injections) so inference is syntax-directed and total up to
the error cases. ``star`` is the cut/contradiction former: its two sides
must have dual m-types and the whole has type bottom.

The ``triv`` rule is non-local. A well-typed term t of type bottom has a
triv redex at path p when the subterm there is ``Lam(y, A, v)`` with v a
star, y not free in v, p not the root, and no enclosing binder of p
capturing a free variable of v (otherwise t could not be decomposed as
u[x:=v] with a lone bottom-typed x under that lambda). Contracting
replaces the WHOLE term by v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Optional

from .types import BOTTOM, Bottom, Conj, Disj, MType, Ty, TypingError, negate


@dataclass(frozen=True, slots=True)
class LsTerm:
    pass


@dataclass(frozen=True, slots=True)
class Var(LsTerm):
    name: str
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Lam(LsTerm):
    var: str
    ann: MType
    body: LsTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Star(LsTerm):
    left: LsTerm
    right: LsTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Pair(LsTerm):
    left: LsTerm
    right: LsTerm
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Inj1(LsTerm):
    body: LsTerm
    ann: MType  # the full disjunction; body occupies the left disjunct
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class Inj2(LsTerm):
    body: LsTerm
    ann: MType  # the full disjunction; body occupies the right disjunct
    span: object = field(default=None, compare=False, repr=False, kw_only=True)


Context = Mapping[str, Ty]

LS_RULES = (
    "beta",
    "beta_perp",
    "eta",
    "eta_perp",
    "pi1",
    "pi2",
    "pi1_perp",
    "pi2_perp",
    "triv",
)


@dataclass(frozen=True, slots=True)
class LsRedex:
    rule: str
    path: tuple[int, ...]


class StaleRedex(Exception):
    """reduce_at was handed a redex that no longer matches the term."""


def children(t: LsTerm) -> tuple[LsTerm, ...]:
    match t:
        case Var():
            return ()
        case Lam(_, _, b):
            return (b,)
        case Star(l, r) | Pair(l, r):
            return (l, r)
        case Inj1(b, _) | Inj2(b, _):
            return (b,)
    raise TypeError(f"not a term: {t!r}")


def _rebuild(t: LsTerm, kids: tuple[LsTerm, ...]) -> LsTerm:
    match t:
        case Lam(x, a, _):
            return Lam(x, a, kids[0])
        case Star(_, _):
            return Star(kids[0], kids[1])
        case Pair(_, _):
            return Pair(kids[0], kids[1])
        case Inj1(_, a):
            return Inj1(kids[0], a)
        case Inj2(_, a):
            return Inj2(kids[0], a)
    raise TypeError(f"not a compound term: {t!r}")


def subterm_at(t: LsTerm, path: tuple[int, ...]) -> LsTerm:
    for i in path:
        kids = children(t)
        if i >= len(kids):
            raise StaleRedex(f"path {path} does not exist")
        t = kids[i]
    return t


def replace_at(t: LsTerm, path: tuple[int, ...], new: LsTerm) -> LsTerm:
    if not path:
        return new
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return _rebuild(t, tuple(kids))


def term_size(t: LsTerm) -> int:
    return 1 + sum(term_size(c) for c in children(t))


@lru_cache(maxsize=None)
def free_vars(t: LsTerm) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Lam(x, _, b):
            return free_vars(b) - {x}
        case _:
            out: frozenset[str] = frozenset()
            for c in children(t):
                out |= free_vars(c)
            return out


def _fresh(base: str, avoid) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(t: LsTerm, x: str, v: LsTerm) -> LsTerm:
    """Capture-avoiding t[x := v]; renames binders by appending primes."""
    if x not in free_vars(t):
        return t
    match t:
        case Var(_):
            return v  # free_vars said x occurs, so t is x itself
        case Lam(y, a, b):
            if y in free_vars(v):
                y2 = _fresh(y, free_vars(v) | free_vars(b) | {x})
                b = substitute(b, y, Var(y2))
                return Lam(y2, a, substitute(b, x, v))
            return Lam(y, a, substitute(b, x, v))
        case _:
            return _rebuild(t, tuple(substitute(c, x, v) for c in children(t)))


def canonical(t: LsTerm) -> LsTerm:
    """Alpha-canonical form: binders renamed !0, !1, ... in preorder."""

    def go(t: LsTerm, env: dict[str, str], n: int) -> tuple[LsTerm, int]:
        match t:
            case Var(x):
                return Var(env.get(x, x)), n
            case Lam(x, a, b):
                name = f"!{n}"
                b2, n2 = go(b, {**env, x: name}, n + 1)
                return Lam(name, a, b2), n2
            case Star(l, r):
                l2, n = go(l, env, n)
                r2, n = go(r, env, n)
                return Star(l2, r2), n
            case Pair(l, r):
                l2, n = go(l, env, n)
                r2, n = go(r, env, n)
                return Pair(l2, r2), n
            case Inj1(b, a):
                b2, n = go(b, env, n)
                return Inj1(b2, a), n
            case Inj2(b, a):
                b2, n = go(b, env, n)
                return Inj2(b2, a), n
        raise TypeError(f"not a term: {t!r}")

    return go(t, {}, 0)[0]


def alpha_eq(a: LsTerm, b: LsTerm) -> bool:
    return canonical(a) == canonical(b)


def infer(ctx: Context, t: LsTerm) -> Ty:
    """Syntax-directed type inference. Raises TypingError."""
    match t:
        case Var(x):
            if x not in ctx:
                raise TypingError(f"unbound variable '{x}'", t.span)
            return ctx[x]
        case Lam(x, a, b):
            bty = infer({**ctx, x: a}, b)
            if not isinstance(bty, Bottom):
                raise TypingError(
                    f"abstraction body must have type #, found otherwise for '{x}'",
                    t.span,
                )
            return negate(a)
        case Star(l, r):
            lt = infer(ctx, l)
            rt = infer(ctx, r)
            if isinstance(lt, Bottom) or isinstance(rt, Bottom):
                raise TypingError("both sides of * must have m-types", t.span)
            if lt != negate(rt):
                raise TypingError("sides of * are not dual m-types", t.span)
            return BOTTOM
        case Pair(l, r):
            lt = infer(ctx, l)
            rt = infer(ctx, r)
            if isinstance(lt, Bottom) or isinstance(rt, Bottom):
                raise TypingError("pair components must have m-types", t.span)
            return Conj(lt, rt)
        case Inj1(b, a):
            if not isinstance(a, Disj):
                raise TypingError("s1 annotation must be a disjunction", t.span)
            bty = infer(ctx, b)
            if bty != a.left:
                raise TypingError(
                    "s1 argument does not have the left disjunct type", t.span
                )
            return a
        case Inj2(b, a):
            if not isinstance(a, Disj):
                raise TypingError("s2 annotation must be a disjunction", t.span)
            bty = infer(ctx, b)
            if bty != a.right:
                raise TypingError(
                    "s2 argument does not have the right disjunct type", t.span
                )
            return a
    raise TypeError(f"not a term: {t!r}")


def _local_redexes(node: LsTerm) -> Iterator[str]:
    """The rules other than triv that match at node, in priority order."""
    match node:
        case Star(l, r):
            if isinstance(l, Lam):
                yield "beta"
            if isinstance(r, Lam):
                yield "beta_perp"
            match l, r:
                case (Pair(), Inj1()):
                    yield "pi1"
                case (Pair(), Inj2()):
                    yield "pi2"
                case (Inj1(), Pair()):
                    yield "pi1_perp"
                case (Inj2(), Pair()):
                    yield "pi2_perp"
        case Lam(x, _, Star(u, Var(y))) if y == x and x not in free_vars(u):
            yield "eta"
    match node:
        case Lam(x, _, Star(Var(y), u)) if y == x and x not in free_vars(u):
            yield "eta_perp"


def iter_redexes(ctx: Optional[Context], t: LsTerm) -> Iterator[LsRedex]:
    """Every redex of t, lazily: pre-order by path, then rule priority.

    triv needs the whole term well-typed with type bottom, so it is only
    offered when a context is given, and t is typed once, when the walk
    first meets a triv-shaped node below the root.
    """
    typed_bottom = None
    stack = [((), t, ())]  # path, node, variables bound above the node
    while stack:
        path, node, binders = stack.pop()
        for rule in _local_redexes(node):
            yield LsRedex(rule, path)
        match node:
            case Lam(y, _, body):
                if (path and ctx is not None and isinstance(body, Star)
                        and y not in free_vars(body) and free_vars(body).isdisjoint(binders)):
                    if typed_bottom is None:
                        try:
                            typed_bottom = isinstance(infer(ctx, t), Bottom)
                        except TypingError:
                            typed_bottom = False
                    if typed_bottom:
                        yield LsRedex("triv", path)
                stack.append((path + (0,), body, binders + (y,)))
            case Star(l, r) | Pair(l, r):
                stack.append((path + (1,), r, binders))
                stack.append((path + (0,), l, binders))
            case Inj1(b, _) | Inj2(b, _):
                stack.append((path + (0,), b, binders))


def find_redexes(ctx: Optional[Context], t: LsTerm) -> list[LsRedex]:
    """Every redex of t, in the order of iter_redexes."""
    return list(iter_redexes(ctx, t))


def reduce_at(t: LsTerm, redex: LsRedex) -> LsTerm:
    """Contract one redex. Raises StaleRedex if the pattern is not there."""
    node = subterm_at(t, redex.path)
    match redex.rule, node:
        case ("beta", Star(Lam(x, _, b), v)):
            return replace_at(t, redex.path, substitute(b, x, v))
        case ("beta_perp", Star(v, Lam(x, _, b))):
            return replace_at(t, redex.path, substitute(b, x, v))
        case ("eta", Lam(x, _, Star(u, Var(y)))) if y == x and x not in free_vars(u):
            return replace_at(t, redex.path, u)
        case ("eta_perp", Lam(x, _, Star(Var(y), u))) if y == x and x not in free_vars(u):
            return replace_at(t, redex.path, u)
        case ("pi1", Star(Pair(u, _), Inj1(w, _))):
            return replace_at(t, redex.path, Star(u, w))
        case ("pi2", Star(Pair(_, v), Inj2(w, _))):
            return replace_at(t, redex.path, Star(v, w))
        case ("pi1_perp", Star(Inj1(w, _), Pair(u, _))):
            return replace_at(t, redex.path, Star(w, u))
        case ("pi2_perp", Star(Inj2(w, _), Pair(_, v))):
            return replace_at(t, redex.path, Star(w, v))
        case ("triv", Lam(y, _, Star() as body)) if redex.path and y not in free_vars(body):
            return body  # the whole term collapses to the extracted star
    raise StaleRedex(f"{redex.rule} does not match at {redex.path}")
