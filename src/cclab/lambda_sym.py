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
replaces the WHOLE term by v. Only a star concludes bottom (an abstraction
has a negation, a pair a conjunction, an injection its disjunction, and a
variable has no subterm), so t is typed only when its root is a star.

Each node keeps its free variables once free_vars has computed them (the
``_fv`` slot), so repeated queries on a term cost one attribute read. The
slot lives as long as its node: for most terms that is the term itself,
but a combinator image that translate.psi_comb keeps in its table (and
shares between terms) keeps its ``_fv`` while the table holds it.
alpha_eq compares two terms in one lockstep walk, and skips a closed
subterm that both sides share as one object; canonical() builds the
renamed representative the search engines key their visited sets by.

find_redexes matches the eight syntactic rules inline, dispatching on the
class of each node and of its children, and never visits a Var child,
since a variable has no redex.

Each node class names its child fields in ``KIDS`` (annotations and binder
names are not children); paths, sizes, rebuilding and the ``Redex`` record
come from ``node``, and ``reduce_at`` raises its ``StaleRedex``. Nodes are
slotted dataclasses, not frozen ones, and never written after construction
except for the ``_fv`` slot; their generated hash is that of their compared
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .node import Redex, StaleRedex, children, rebuild, replace_at, subterm_at
from .types import BOTTOM, Bottom, Conj, Context, Disj, MType, Ty, TypingError, negate


class LsTerm:
    """A term node; ``_fv`` holds its free variables once free_vars asks."""

    __slots__ = ("_fv",)
    KIDS = ()


@dataclass(slots=True, unsafe_hash=True)
class Var(LsTerm):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Lam(LsTerm):
    KIDS = ("body",)
    var: str
    ann: MType
    body: LsTerm


@dataclass(slots=True, unsafe_hash=True)
class Star(LsTerm):
    KIDS = ("left", "right")
    left: LsTerm
    right: LsTerm


@dataclass(slots=True, unsafe_hash=True)
class Pair(LsTerm):
    KIDS = ("left", "right")
    left: LsTerm
    right: LsTerm


@dataclass(slots=True, unsafe_hash=True)
class Inj1(LsTerm):
    KIDS = ("body",)
    body: LsTerm
    ann: MType  # the full disjunction; body occupies the left disjunct


@dataclass(slots=True, unsafe_hash=True)
class Inj2(LsTerm):
    KIDS = ("body",)
    body: LsTerm
    ann: MType  # the full disjunction; body occupies the right disjunct


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


def free_vars(t: LsTerm) -> frozenset[str]:
    """The free variables of t, computed once per node and kept on it."""
    try:
        return t._fv
    except AttributeError:
        pass
    match t:
        case Var(x):
            out = frozenset((x,))
        case Lam(x, _, b):
            out = free_vars(b)
            if x in out:
                out = out - {x}
        case Star(l, r) | Pair(l, r):
            out = free_vars(l) | free_vars(r)
        case Inj1(b, _) | Inj2(b, _):
            out = free_vars(b)
        case _:
            raise TypeError(f"not a term: {t!r}")
    t._fv = out
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
            return rebuild(t, [substitute(c, x, v) for c in children(t)])


def canonical(t: LsTerm) -> LsTerm:
    """Alpha-canonical form: binders renamed !0, !1, ... in preorder."""
    return _canonical(t, {}, 0)[0]


def _canonical(t: LsTerm, env: dict[str, str], n: int) -> tuple[LsTerm, int]:
    """t renamed under env, binders numbered from n; and the next number."""
    cls = type(t)
    if cls is Var:
        return Var(env.get(t.name, t.name)), n
    if cls is Lam:
        name = f"!{n}"
        b2, n2 = _canonical(t.body, {**env, t.var: name}, n + 1)
        return Lam(name, t.ann, b2), n2
    kids = []
    for c in children(t):
        c2, n = _canonical(c, env, n)
        kids.append(c2)
    return rebuild(t, kids), n


def alpha_eq(a: LsTerm, b: LsTerm) -> bool:
    """Equal up to the names of bound variables.

    Walks both terms in step; each side maps its binders in scope to their
    nesting depth, so two bound variables agree when their binders sit at
    the same depth, and free variables agree by name. Unlike comparing
    canonical() forms, a free variable literally named ``!n`` never equals
    a bound one (the parser cannot produce such a name).
    """
    stack = [(a, b, {}, {}, 0)]  # a-side node, b-side node, both maps, depth
    while stack:
        s, t, s_env, t_env, depth = stack.pop()
        if s is t and not free_vars(s):
            continue
        cls = type(s)
        if cls is not type(t):
            return False
        if cls is Var:
            i, j = s_env.get(s.name), t_env.get(t.name)
            if i != j or (i is None and s.name != t.name):
                return False
        elif cls is Lam:
            if s.ann != t.ann:
                return False
            stack.append((s.body, t.body, {**s_env, s.var: depth},
                          {**t_env, t.var: depth}, depth + 1))
        elif cls is Star or cls is Pair:
            stack.append((s.right, t.right, s_env, t_env, depth))
            stack.append((s.left, t.left, s_env, t_env, depth))
        else:  # Inj1 or Inj2
            if s.ann != t.ann:
                return False
            stack.append((s.body, t.body, s_env, t_env, depth))
    return True


def infer(ctx: Context, t: LsTerm) -> Ty:
    """Syntax-directed type inference. Raises TypingError."""
    match t:
        case Var(x):
            if x not in ctx:
                raise TypingError(f"unbound variable '{x}'")
            return ctx[x]
        case Lam(x, a, b):
            bty = infer({**ctx, x: a}, b)
            if not isinstance(bty, Bottom):
                raise TypingError(f"abstraction body must have type #, found otherwise for '{x}'")
            return negate(a)
        case Star(l, r):
            lt = infer(ctx, l)
            rt = infer(ctx, r)
            if isinstance(lt, Bottom) or isinstance(rt, Bottom):
                raise TypingError("both sides of * must have m-types")
            if lt != negate(rt):
                raise TypingError("sides of * are not dual m-types")
            return BOTTOM
        case Pair(l, r):
            lt = infer(ctx, l)
            rt = infer(ctx, r)
            if isinstance(lt, Bottom) or isinstance(rt, Bottom):
                raise TypingError("pair components must have m-types")
            return Conj(lt, rt)
        case Inj1(b, a):
            if not isinstance(a, Disj):
                raise TypingError("s1 annotation must be a disjunction")
            bty = infer(ctx, b)
            if bty != a.left:
                raise TypingError("s1 argument does not have the left disjunct type")
            return a
        case Inj2(b, a):
            if not isinstance(a, Disj):
                raise TypingError("s2 annotation must be a disjunction")
            bty = infer(ctx, b)
            if bty != a.right:
                raise TypingError("s2 argument does not have the right disjunct type")
            return a
    raise TypeError(f"not a term: {t!r}")


def find_redexes(ctx: Optional[Context], t: LsTerm, first: bool = False) -> list[Redex]:
    """Every redex of t, pre-order by path, then rule priority; with first,
    only the first, and the walk stops there.

    The walk steps into the left (or only) child and stacks right ones.
    triv needs the whole term well-typed with type bottom, which only a
    star can have, so it is only offered, last at its node, when a context
    is given and t is a star; only then are binders collected, and t is
    typed once, when the walk first meets a triv-shaped node.
    """
    out, stack = [], []  # the redexes; the right children still to visit
    typed_bottom = None if ctx is not None and type(t) is Star else False
    path, node, binders = (), t, ()  # binders: the variables bound above node
    while True:
        cls = type(node)
        if cls is Star or cls is Pair:
            l, r = node.left, node.right
            lc, rc = type(l), type(r)
            if cls is Star:
                if lc is Lam:
                    out.append(Redex("beta", path))
                if rc is Lam:
                    out.append(Redex("beta_perp", path))
                if lc is Pair and (rc is Inj1 or rc is Inj2):
                    out.append(Redex("pi1" if rc is Inj1 else "pi2", path))
                elif rc is Pair and (lc is Inj1 or lc is Inj2):
                    out.append(Redex("pi1_perp" if lc is Inj1 else "pi2_perp", path))
            if rc is not Var:
                stack.append((path + (1,), r, binders))
            down = l if lc is not Var else None
        elif cls is Lam:
            y, body = node.var, node.body
            if type(body) is Star:
                l, r = body.left, body.right
                if type(r) is Var and r.name == y and y not in free_vars(l):
                    out.append(Redex("eta", path))
                if type(l) is Var and l.name == y and y not in free_vars(r):
                    out.append(Redex("eta_perp", path))
                if (typed_bottom is not False and y not in free_vars(body)
                        and free_vars(body).isdisjoint(binders)):
                    if typed_bottom is None:
                        try:
                            typed_bottom = isinstance(infer(ctx, t), Bottom)
                        except TypingError:
                            typed_bottom = False
                    if typed_bottom:
                        out.append(Redex("triv", path))
            down = body if type(body) is not Var else None
            if typed_bottom is not False:
                binders += (y,)
        else:  # Inj1 or Inj2, or a Var root
            down = node.body if cls is not Var and type(node.body) is not Var else None
        if first and out:
            return out[:1]
        if down is not None:
            path, node = path + (0,), down
        elif stack:
            path, node, binders = stack.pop()
        else:
            return out


def reduce_at(t: LsTerm, redex: Redex) -> LsTerm:
    """Contract one redex. Raises StaleRedex if the pattern is not there."""
    node = subterm_at(t, redex.path)
    match redex.rule, node:
        case ("beta", Star(Lam(x, _, b), v)) | ("beta_perp", Star(v, Lam(x, _, b))):
            reduct = substitute(b, x, v)
        case (("eta", Lam(x, _, Star(u, Var(y))))
              | ("eta_perp", Lam(x, _, Star(Var(y), u)))) if y == x and x not in free_vars(u):
            reduct = u
        case ("pi1", Star(Pair(u, _), Inj1(w, _))) | ("pi2", Star(Pair(_, u), Inj2(w, _))):
            reduct = Star(u, w)
        case ("pi1_perp", Star(Inj1(w, _), Pair(u, _))) | ("pi2_perp", Star(Inj2(w, _), Pair(_, u))):
            reduct = Star(w, u)
        case ("triv", Lam(y, _, Star() as body)) if redex.path and y not in free_vars(body):
            return body  # the whole term collapses to the extracted star
        case _:
            raise StaleRedex(f"{redex.rule} does not match at {redex.path}")
    return replace_at(t, redex.path, reduct)
