import pytest

from cclab import ccl, lambda_sym
from cclab.ccl import App, Comb, CRedex, CStar, CVar
from cclab.gen import atom_names, enumerate_c, enumerate_ls, standard_context, types_by_size
from cclab.lambda_sym import Inj1, Inj2, Lam, LsRedex, Pair, Star, Var, free_vars
from cclab.node import StaleRedex, children, rebuild, replace_at, subterm_at, term_size
from cclab.syntax import parse_c, parse_ls
from cclab.types import BOTTOM, Atom, Conj, Disj, MetaVar, NegAtom

a, na, b = Atom("a"), NegAtom("a"), Atom("b")

# one parsed instance of every term node class, so each carries a span
LS_SAMPLES = {
    Var: parse_ls("x"),
    Lam: parse_ls("\\x:a. x * y"),
    Star: parse_ls("x * y"),
    Pair: parse_ls("<x, y>"),
    Inj1: parse_ls("s1(x : a | b)"),
    Inj2: parse_ls("s2(y : a | b)"),
}
C_SAMPLES = {
    CVar: parse_c("x"),
    Comb: parse_c("K[a, b]"),
    App: parse_c("K x y"),
    CStar: parse_c("x * S y"),
}
TYPE_SAMPLES = [a, na, MetaVar(3, True), Conj(a, Disj(na, b)), Disj(Conj(a, b), na), BOTTOM]
ALL = list(LS_SAMPLES.values()) + list(C_SAMPLES.values()) + TYPE_SAMPLES


def test_samples_cover_every_class():
    for t, cls in [*((t, c) for c, t in LS_SAMPLES.items()),
                   *((t, c) for c, t in C_SAMPLES.items())]:
        assert type(t) is cls
        assert t.span is not None


@pytest.mark.parametrize("t", ALL, ids=lambda t: type(t).__name__)
def test_kids_name_fields_in_path_order(t):
    fields = type(t).__match_args__
    assert [f for f in fields if f in t.KIDS] == list(t.KIDS)


@pytest.mark.parametrize("t", ALL, ids=lambda t: type(t).__name__)
def test_rebuild_with_own_children_is_equal_and_spanless(t):
    hash(t)
    if isinstance(t, lambda_sym.LsTerm):
        free_vars(t)  # cache _fv on the original
    u = rebuild(t, children(t))
    assert u == t and hash(u) == hash(t)
    assert u is not t
    assert getattr(u, "span", None) is None
    assert children(u) == children(t)
    assert all(x is y for x, y in zip(children(u), children(t)))


@pytest.mark.parametrize("t", list(LS_SAMPLES.values()), ids=lambda t: type(t).__name__)
def test_rebuilt_lambda_node_computes_its_own_free_variables(t):
    before = free_vars(t)
    kids = children(t)
    if not kids:
        return
    u = rebuild(t, (Var("fresh"),) + kids[1:])
    with pytest.raises(AttributeError):
        u._fv  # nothing copied from t
    assert "fresh" in free_vars(u) and "fresh" not in before
    assert u != t


@pytest.mark.parametrize("t", [C_SAMPLES[App], C_SAMPLES[CStar]], ids=lambda t: type(t).__name__)
def test_rebuilt_compound_computes_its_own_hash(t):
    h = hash(t)  # cached in _hash
    u = rebuild(t, (CVar("fresh"), children(t)[1]))
    with pytest.raises(AttributeError):
        u._hash
    assert hash(u) == hash(children(u)) != h
    assert u != t


def test_rebuild_keeps_annotations_and_binders():
    lam = rebuild(LS_SAMPLES[Lam], (Star(Var("y"), Var("x")),))
    assert lam == Lam("x", a, Star(Var("y"), Var("x")))
    inj = rebuild(LS_SAMPLES[Inj2], (Var("z"),))
    assert inj == Inj2(Var("z"), Disj(a, b))
    assert rebuild(Conj(a, b), (b, na)) == Conj(b, na)


def _paths(t, at=()):
    yield at
    for i, c in enumerate(children(t)):
        yield from _paths(c, at + (i,))


def _corpus():
    ctx, atoms = standard_context(2), atom_names(2)
    yield from (t for _, t in enumerate_ls(ctx, 7, atoms))
    yield from (t for _, t in enumerate_c(ctx, 7, atoms))
    yield from (ty for level in types_by_size(("a", "b"), 7) for ty in level)


def test_replace_at_with_own_subterm_is_identity_on_the_corpora():
    n = 0
    for t in _corpus():
        for p in _paths(t):
            u = replace_at(t, p, subterm_at(t, p))
            assert u == t and hash(u) == hash(t), (t, p)
            n += 1
    assert n > 10_000


def test_term_size_counts_nodes_of_terms_and_types():
    assert term_size(parse_ls("\\x:a. x * y")) == 4  # the annotation is not a child
    assert term_size(parse_c("K[a, b] x y")) == 5  # nor is an instantiation
    assert term_size(Conj(a, Disj(na, b))) == 5
    assert term_size(BOTTOM) == 1
    for t in _corpus():
        assert term_size(t) == sum(1 for _ in _paths(t))


def test_a_path_past_a_leaf_is_stale_everywhere():
    assert ccl.StaleRedex is lambda_sym.StaleRedex is StaleRedex
    for t in ALL:
        leaf = next(p for p in _paths(t) if not children(subterm_at(t, p)))
        with pytest.raises(StaleRedex):
            subterm_at(t, leaf + (0,))
        with pytest.raises(StaleRedex):
            replace_at(t, leaf + (0,), t)
    with pytest.raises(StaleRedex):
        lambda_sym.reduce_at(parse_ls("x * y"), LsRedex("beta", (0, 0)))
    with pytest.raises(StaleRedex):
        ccl.reduce_at_c(parse_c("K x y"), CRedex("k", (1, 0)))
