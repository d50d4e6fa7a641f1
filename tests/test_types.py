import random

import pytest

from cclab import types
from cclab.types import (
    BOTTOM,
    Atom,
    Bottom,
    Conj,
    Disj,
    MetaVar,
    NegAtom,
    Substitution,
    TypingError,
    UnificationError,
    metavar_idents,
    negate,
    unify,
)


def enumerate_types(depth, atoms, signed_leaves=True):
    if depth == 1:
        leaves = [Atom(a) for a in atoms]
        if signed_leaves:
            leaves += [NegAtom(a) for a in atoms]
        return leaves
    smaller = enumerate_types(depth - 1, atoms, signed_leaves)
    out = list(smaller)
    for l in smaller:
        for r in smaller:
            out.append(Conj(l, r))
            out.append(Disj(l, r))
    return out


def test_negate_base_cases():
    assert negate(Atom("a")) == NegAtom("a")
    assert negate(NegAtom("a")) == Atom("a")
    assert negate(Conj(Atom("a"), Atom("b"))) == Disj(NegAtom("a"), NegAtom("b"))
    assert negate(Disj(Atom("a"), Atom("b"))) == Conj(NegAtom("a"), NegAtom("b"))


def test_negate_rejects_bottom():
    with pytest.raises(TypeError):
        negate(BOTTOM)


def test_involution_small_exhaustive():
    for ty in enumerate_types(3, ("a", "b")):
        assert negate(negate(ty)) == ty


def de_morgan(t):
    match t:
        case Atom(a):
            return NegAtom(a)
        case NegAtom(a):
            return Atom(a)
        case Conj(l, r):
            return Disj(de_morgan(l), de_morgan(r))
        case Disj(l, r):
            return Conj(de_morgan(l), de_morgan(r))
        case MetaVar(i, p):
            return MetaVar(i, not p)


def test_negate_matches_plain_de_morgan_through_its_table():
    # two separately built families: more distinct nodes than the table holds
    tys = enumerate_types(3, ("a", "b")) + enumerate_types(3, ("a", "b"))
    tys += [MetaVar(0), MetaVar(0, True)]
    assert len(tys) > types._NEG_TABLE_SIZE
    types._neg_table.clear()
    for _ in ("cold", "warm"):
        for ty in tys:
            n = negate(ty)
            assert n == de_morgan(ty)
            assert negate(n) is ty


def test_negate_injective_on_small_types():
    tys = enumerate_types(2, ("a", "b"))
    images = {negate(t) for t in tys}
    assert len(images) == len(tys)


def test_negate_flips_metavar_polarity():
    m = MetaVar(0)
    assert negate(m) == MetaVar(0, True)
    assert negate(negate(m)) == m


def random_ground_type(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice("abc")
        return Atom(name) if rng.random() < 0.5 else NegAtom(name)
    ctor = Conj if rng.random() < 0.5 else Disj
    return ctor(random_ground_type(rng, depth - 1), random_ground_type(rng, depth - 1))


def sprinkle_metavars(rng, ty, idents):
    # replace random leaves by metavariables
    if isinstance(ty, (Atom, NegAtom)):
        if rng.random() < 0.3:
            return MetaVar(rng.choice(idents), rng.random() < 0.5)
        return ty
    if isinstance(ty, Conj):
        return Conj(
            sprinkle_metavars(rng, ty.left, idents),
            sprinkle_metavars(rng, ty.right, idents),
        )
    if isinstance(ty, Disj):
        return Disj(
            sprinkle_metavars(rng, ty.left, idents),
            sprinkle_metavars(rng, ty.right, idents),
        )
    return ty


def test_unify_soundness_on_random_instances():
    # Build solvable systems by abstracting a ground type two ways, then
    # check the solver's substitution really equalizes every pair.
    rng = random.Random(20240817)
    solved = 0
    for _ in range(300):
        ground = random_ground_type(rng, 4)
        lhs = sprinkle_metavars(rng, ground, [0, 1, 2])
        rhs = sprinkle_metavars(rng, ground, [3, 4, 5])
        try:
            subst = unify([(lhs, rhs)])
        except UnificationError:
            # same ident sprinkled over unequal subtrees, or occurs; both fine
            continue
        assert subst.apply(lhs) == subst.apply(rhs)
        solved += 1
    assert solved > 200


def test_unify_clash():
    with pytest.raises(UnificationError):
        unify([(Atom("a"), Atom("b"))])
    with pytest.raises(UnificationError, match=r"^cannot unify a & b with a \| b$"):
        unify([(Conj(Atom("a"), Atom("b")), Disj(Atom("a"), Atom("b")))])
    with pytest.raises(UnificationError, match=r"^cannot unify a & b with a$"):
        unify([(Conj(Atom("a"), Atom("b")), Atom("a"))])
    with pytest.raises(UnificationError, match=r"^cannot unify a with ~a$"):  # surface syntax
        unify([(Atom("a"), NegAtom("a"))])


def test_unify_occurs_check():
    m = MetaVar(0)
    with pytest.raises(UnificationError, match=r"^occurs check: \?0 inside \?0 & a$"):
        unify([(m, Conj(m, Atom("a")))])


def test_unify_through_negated_metavar():
    # ?0⊥ = a∧b  forces  ?0 = a⊥∨b⊥
    m = MetaVar(0, True)
    subst = unify([(m, Conj(Atom("a"), Atom("b")))])
    assert subst.apply(MetaVar(0)) == Disj(NegAtom("a"), NegAtom("b"))


def test_unify_chains_resolve_fully():
    s = unify([(MetaVar(0), MetaVar(1)), (MetaVar(1), Atom("a"))])
    assert s.apply(MetaVar(0)) == Atom("a")
    assert s.apply(MetaVar(0, True)) == NegAtom("a")


def test_substitution_apply_ty_passes_bottom():
    s = Substitution({})
    assert s.apply_ty(BOTTOM) is BOTTOM


def test_metavar_idents_and_groundness():
    ty = Conj(MetaVar(3), Disj(Atom("a"), MetaVar(7, True)))
    assert metavar_idents(ty) == frozenset({3, 7})


def _rebuilt(t):
    """A fresh copy of t, built field by field."""
    if type(t) in (Atom, NegAtom):
        return type(t)(t.name)
    return type(t)(_rebuilt(t.left), _rebuilt(t.right))


def test_type_hashes_carry_the_class():
    from cclab.gen import types_by_size

    tys = [t for level in types_by_size(("a", "b"), 7) for t in level]
    assert len(tys) == 4 + 32 + 512 + 10240
    # no specific value: string hashes vary with PYTHONHASHSEED
    assert len({hash(t) for t in tys}) == len(tys)
    for t in tys:
        copy = _rebuilt(t)
        assert copy is not t and copy == t and hash(copy) == hash(t)
    x, y = Atom("a"), NegAtom("b")
    d = {Conj(x, y): "and", Disj(x, y): "or", Atom("a"): "pos", NegAtom("a"): "neg"}
    assert len(d) == 4
    assert d[Conj(Atom("a"), NegAtom("b"))] == "and" and d[Disj(x, y)] == "or"
    assert d[NegAtom("a")] == "neg"
