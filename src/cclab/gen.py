"""Deterministic term generation for both calculi.

The verification suites quantify over every typable term below a size
bound, so generation here is exhaustive and size-indexed rather than
sampled; a seeded random mode exists for smoke tests past the range
exhaustion can reach.

Size conventions. C-terms cost their node count: instantiations are
recoverable by inference, so they are free. Lambda terms cost node
count plus the size of every written annotation (binder types, the
disjunctions on injections): annotations are drawn from an unbounded
pool of types, and charging for them is what keeps a size bound
meaningful. Type size is node count.

A star has type bottom and both calculi type star sides at m-types, so
in a typable term the star can only sit at the root. The enumerators
exploit this: m-typed terms are built by a size-indexed dynamic
program, bottom-typed terms by pairing duals on top. Each level keeps
one list per type, filled in a fixed order, so the output order is
deterministic. The untyped corpora, pre-terms and stars of pre-terms,
are the combinator table over leaves typed None, which join with
anything: a Curry-style term is a Church-style one with its types
erased (Barendregt, "Lambda calculi with types", 1992).

Two consequences of the weights bound the lambda enumeration. No
annotation has more than ``max_size - 4`` nodes: a binder costs 1 plus
its annotation and its body is a star of weight at least 3, and an
injection's free half shares its weight with the injected term (at
least 1) and the ``Disj`` node; so the type levels stop there. Every
weight is odd (a leaf weighs 1, any other node 1 plus two odd parts: two
subterms, or an annotation of odd size and a subterm), so the size-10
corpus equals the size-9 one.
"""

from __future__ import annotations

import itertools
from random import Random
from typing import Callable, Iterable, Optional

from .ccl import SCHEME_ARITY, App, Comb, CStar, CTerm, CVar, scheme_type
from .lambda_sym import Inj1, Inj2, Lam, LsTerm, Pair, Star, Var
from .node import children, term_size
from .types import BOTTOM, Atom, Conj, Disj, MType, NegAtom, Ty, negate

ATOM_NAMES = "abcd"
_DUAL_VARS = ("uv", "pq", "rs", "mn")  # standard_context's pair for each atom


def atom_names(n: int) -> tuple[str, ...]:
    if not 1 <= n <= len(ATOM_NAMES):
        raise ValueError(f"supported atom counts are 1..{len(ATOM_NAMES)}")
    return tuple(ATOM_NAMES[:n])


def atom_pool(atoms: Iterable[str]) -> tuple[MType, ...]:
    """The signed atoms over the given names, positives first per name."""
    out: list[MType] = []
    for name in atoms:
        out.append(Atom(name))
        out.append(NegAtom(name))
    return tuple(out)


def standard_context(n_atoms: int = 2) -> dict[str, Ty]:
    """Dual variable pairs, one pair per atom: u:a, v:~a, p:b, q:~b, ..."""
    ctx: dict[str, Ty] = {}
    for a, (x, y) in zip(atom_names(n_atoms), _DUAL_VARS):
        ctx[x] = Atom(a)
        ctx[y] = NegAtom(a)
    return ctx


def types_by_size(atoms: Iterable[str], max_size: int) -> list[list[MType]]:
    """All m-types of each node count up to max_size, indexed by size.

    Leaves are the atoms and their negations; every compound size is
    odd, so even slots stay empty.
    """
    levels: list[list[MType]] = [[] for _ in range(max_size + 1)]
    if max_size >= 1:
        levels[1] = list(atom_pool(atoms))
    for s in range(3, max_size + 1):
        for ls in range(1, s - 1):
            for lt in levels[ls]:
                for rt in levels[s - 1 - ls]:
                    levels[s].append(Conj(lt, rt))
                    levels[s].append(Disj(lt, rt))
    return levels


def types_to_depth(atoms: Iterable[str], depth: int, signed: bool = False) -> list[MType]:
    """All m-types of depth <= depth (a leaf has depth 1).

    Grows doubly exponentially; depth 4 over two positive atoms is
    already 81,610 types.
    """
    leaves: list[MType] = list(atom_pool(atoms) if signed else tuple(Atom(a) for a in atoms))
    if depth < 1:
        return []
    cur = list(leaves)
    for _ in range(depth - 1):
        nxt = list(leaves)
        for l in cur:
            for r in cur:
                nxt.append(Conj(l, r))
                nxt.append(Disj(l, r))
        cur = nxt
    return cur


def combinator_variants(atoms: Iterable[str]) -> list[Comb]:
    """Every combinator instantiated over the signed atoms, fixed order."""
    pool = atom_pool(atoms)
    out: list[Comb] = []
    for which, arity in SCHEME_ARITY.items():
        for inst in itertools.product(pool, repeat=arity):
            out.append(Comb(which, tuple(inst)))
    return out


def ls_weight(t: LsTerm) -> int:
    ann = getattr(t, "ann", None)  # on lambdas and injections
    own = 1 if ann is None else 1 + term_size(ann)
    return own + sum([ls_weight(c) for c in children(t)])


def _combinator_table(leaves: list[tuple[Optional[Ty], CTerm]],
                      max_size: int) -> list[tuple[Optional[Ty], CTerm]]:
    """Every application and root star over the leaves, by size; a leaf
    typed None joins with anything, and its applications are typed None."""
    m: list[dict[Optional[Ty], list[CTerm]]] = [{} for _ in range(max_size + 1)]
    if max_size >= 1:
        for ty, t in leaves:
            m[1].setdefault(ty, []).append(t)
    for s in range(3, max_size + 1):
        for fs in range(1, s - 1):
            for ft, fl in m[fs].items():
                if ft is not None and not isinstance(ft, Disj):
                    continue
                # a bucket is taken only when it gets a term, so key order is first use
                args = m[s - 1 - fs].get(ft and negate(ft.left))
                if args:
                    m[s].setdefault(ft and ft.right, []).extend([App(f, a) for f in fl for a in args])
    out: list[tuple[Optional[Ty], CTerm]] = []
    for s in range(1, max_size + 1):
        out += [(ty, t) for ty, terms in m[s].items() for t in terms]
        # stars of this size: dual m-typed sides
        for ls in range(1, s - 1):
            for lt, ll in m[ls].items():
                rights = m[s - 1 - ls].get(lt and negate(lt), ())
                out += [(BOTTOM, CStar(l, r)) for l in ll for r in rights]
    return out


def enumerate_c(ctx: dict[str, Ty], max_size: int, atoms: Iterable[str]) -> list[tuple[Ty, CTerm]]:
    """Every typable c-term of size <= max_size over ctx, by size.

    Combinators appear fully instantiated over the signed atoms, so
    every result passes strict inference as-is.
    """
    leaves: list[tuple[Optional[Ty], CTerm]] = [(ty, CVar(x)) for x, ty in ctx.items()]
    leaves += [(scheme_type(c.which, c.inst), c) for c in combinator_variants(atoms)]
    return _combinator_table(leaves, max_size)


def enumerate_ls(ctx: dict[str, Ty], max_size: int, atoms: Iterable[str]) -> list[tuple[Ty, LsTerm]]:
    """Every typable lambda term of weighted size <= max_size over ctx.

    Binders are named b0, b1, ... by nesting depth, so distinct stacks
    never collide and output is deterministic. Annotations range over
    all m-types the weight budget leaves room for.
    """
    atoms = tuple(atoms)
    ty_levels = types_by_size(atoms, max(max_size - 4, 0))
    # memo: binder stack -> (m-typed levels, bottom-typed levels)
    memo: dict[tuple[Ty, ...], tuple[list[dict[Ty, list[LsTerm]]], list[list[LsTerm]]]] = {}

    def levels(stack: tuple[Ty, ...]):
        got = memo.get(stack)
        if got is not None:
            return got
        budget = max_size - sum(1 + term_size(a) for a in stack)
        binder = f"b{len(stack)}"
        m: list[dict[Ty, list[LsTerm]]] = [{} for _ in range(max(budget, 0) + 1)]
        b: list[list[LsTerm]] = [[] for _ in range(max(budget, 0) + 1)]
        if budget >= 1:
            for x, ty in ctx.items():
                m[1].setdefault(ty, []).append(Var(x))
            for i, ann in enumerate(stack):
                m[1].setdefault(ann, []).append(Var(f"b{i}"))
        # a bucket is taken only when it gets a term, so key order is first use
        for w in range(2, budget + 1):
            mw = m[w]
            for wl in range(1, w - 1):
                wr = w - 1 - wl
                for lt, ll in m[wl].items():
                    # pairs with every right side, stars with the duals
                    for rt, rl in m[wr].items():
                        mw.setdefault(Conj(lt, rt), []).extend([Pair(l, r) for l in ll for r in rl])
                    for r in m[wr].get(negate(lt), ()):
                        for l in ll:
                            b[w].append(Star(l, r))
            for wb in range(1, w - 2):
                for bty, bl in m[wb].items():
                    ts_other = w - 2 - wb - term_size(bty)
                    if not 1 <= ts_other < len(ty_levels):
                        continue
                    for other in ty_levels[ts_other]:
                        ann1, ann2 = Disj(bty, other), Disj(other, bty)
                        # one bucket when bty == other: Inj1/Inj2 interleave
                        b1, b2 = mw.setdefault(ann1, []), mw.setdefault(ann2, [])
                        for bt in bl:
                            b1.append(Inj1(bt, ann1))
                            b2.append(Inj2(bt, ann2))
            for ts_ann in range(1, w - 3):  # a bottom body is a star, never smaller than 3
                wb = w - 1 - ts_ann
                for ann in ty_levels[ts_ann]:
                    _, sub_b = levels(stack + (ann,))
                    bodies = sub_b[wb] if wb < len(sub_b) else ()
                    if bodies:
                        mw.setdefault(negate(ann), []).extend([Lam(binder, ann, t) for t in bodies])
        memo[stack] = (m, b)
        return m, b

    m, b = levels(())
    # levels holds itself through its closure, and with it the memo, so only
    # the cycle collector would free the other stacks' levels; free them now
    memo.clear()
    out: list[tuple[Ty, LsTerm]] = []
    for w in range(1, max_size + 1):
        for ty, terms in m[w].items():
            for t in terms:
                out.append((ty, t))
        for t in b[w]:
            out.append((BOTTOM, t))
    return out


def _untyped_table(names: Iterable[str], max_size: int) -> list[tuple[Optional[Ty], CTerm]]:
    leaves = [(None, CVar(x)) for x in names] + [(None, Comb(w)) for w in SCHEME_ARITY]
    return _combinator_table(leaves, max_size)


def enumerate_pre_terms(names: Iterable[str], max_size: int) -> list[CTerm]:
    """Every star-free applicative term over the names and bare combinators."""
    return [t for ty, t in _untyped_table(names, max_size) if ty is not BOTTOM]


def enumerate_star_terms(names: Iterable[str], max_size: int) -> list[CTerm]:
    """Every root star of two star-free terms, total size <= max_size."""
    return [t for ty, t in _untyped_table(names, max_size) if ty is BOTTOM]


def _draw(pool: list, max_size: int, rng: Random, star: Callable) -> tuple:
    """The last step of both samplers, from a pool of (type, term, size):
    half the time star the largest grown term with a dual that fits; else
    pick a grown term, and failing that a leaf."""
    grown = [e for e in pool if e[2] > 1]
    if grown and rng.random() < 0.5:
        ty, t, sz = max(grown, key=lambda e: e[2])
        duals = [e for e in pool if e[0] == negate(ty) and e[2] + sz + 1 <= max_size]
        if duals:
            return BOTTOM, star(t, rng.choice(duals)[1])
    ty, t, _ = rng.choice(grown or pool)
    return ty, t


def random_c(
    ctx: dict[str, Ty], atoms: Iterable[str], max_size: int, rng: Random
) -> Optional[tuple[Ty, CTerm]]:
    """One random typable c-term of size at most max_size, grown by random
    well-typed joins; None when not even a leaf fits.

    Coverage is best-effort: the walk only composes what earlier draws
    produced. Deterministic for a given rng state.
    """
    if max_size < 1:
        return None
    pool: list[tuple[Ty, CTerm, int]] = [(ty, CVar(x), 1) for x, ty in ctx.items()]
    pool += [(scheme_type(c.which, c.inst), c, 1) for c in combinator_variants(atoms)]
    for _ in range(16 * max_size):
        fns = [e for e in pool if isinstance(e[0], Disj)]
        if not fns:
            break
        ft, f, fs = rng.choice(fns)
        want = negate(ft.left)
        args = [e for e in pool if e[0] == want and e[2] + fs + 1 <= max_size]
        if not args:
            continue
        at, a, asz = rng.choice(args)
        pool.append((ft.right, App(f, a), fs + asz + 1))
    return _draw(pool, max_size, rng, CStar)


def random_ls(
    ctx: dict[str, Ty], atoms: Iterable[str], max_size: int, rng: Random
) -> Optional[tuple[Ty, LsTerm]]:
    """One random typable lambda term; same growth idea and bound as random_c."""
    if max_size < 1:
        return None
    pool: list[tuple[Ty, LsTerm, int]] = [(ty, Var(x), 1) for x, ty in ctx.items()]
    signed = atom_pool(atoms)
    fresh = itertools.count()
    for _ in range(16 * max_size):
        move = rng.randrange(4)
        lt, l, lsz = rng.choice(pool)
        if move == 0:
            rt, r, rsz = rng.choice(pool)
            if lsz + rsz + 1 <= max_size:
                pool.append((Conj(lt, rt), Pair(l, r), lsz + rsz + 1))
        elif move == 1:
            other = rng.choice(signed)
            first = rng.random() < 0.5
            ann = Disj(lt, other) if first else Disj(other, lt)
            w = 1 + term_size(ann) + lsz
            if w <= max_size:
                pool.append((ann, Inj1(l, ann) if first else Inj2(l, ann), w))
        else:
            # abstract: bind x at the left type, cut x against a dual
            duals = [e for e in pool if e[0] == negate(lt) and e[2] + lsz + 5 <= max_size]
            if duals:
                dt, d, dsz = rng.choice(duals)
                x = f"x{next(fresh)}"
                body = Star(Var(x), d) if move == 2 else Star(d, Var(x))
                w = 1 + term_size(lt) + 2 + dsz
                if w <= max_size:  # lsz bounds term_size(lt) only in atom contexts
                    pool.append((negate(lt), Lam(x, lt, body), w))
    return _draw(pool, max_size, rng, Star)
