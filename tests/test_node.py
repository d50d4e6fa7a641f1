import ast
import dataclasses
from pathlib import Path

import pytest

from cclab import ccl, lambda_sym, types
from cclab.ccl import App, Comb, CStar, CTerm, CVar
from cclab.gen import atom_names, enumerate_c, enumerate_ls, standard_context, types_by_size
from cclab.lambda_sym import Inj1, Inj2, Lam, LsTerm, Pair, Star, Var, free_vars
from cclab.node import Redex, StaleRedex, children, rebuild, replace_at, subterm_at, term_size
from cclab.syntax import parse_c, parse_ls
from cclab.types import BOTTOM, Atom, Bottom, Conj, Disj, MetaVar, MType, NegAtom

a, na, b = Atom("a"), NegAtom("a"), Atom("b")

# one parsed instance of every term node class
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
        lambda_sym.reduce_at(parse_ls("x * y"), Redex("beta", (0, 0)))
    with pytest.raises(StaleRedex):
        ccl.reduce_at_c(parse_c("K x y"), Redex("k", (1, 0)))


def test_both_calculi_list_the_one_redex_class():
    assert ccl.Redex is lambda_sym.Redex is Redex
    assert lambda_sym.find_redexes(None, parse_ls("(\\x:a. y * z) * w")) == [Redex("beta", ())]
    assert ccl.find_redexes_c(None, parse_c("K x y")) == [Redex("k", ())]


# one redex of each calculus, named for its calculus as the cases were
# when each calculus had its own redex class
REDEXES = [pytest.param(Redex("k", (1,)), id="CRedex"),
           pytest.param(Redex("beta", (0,)), id="LsRedex")]


def _hash_key(t) -> tuple:
    """The tuple whose hash is t's: its compared fields, led by the class
    for the four type classes that hash with it."""
    cls = type(t)
    if cls is App or cls is CStar:
        return children(t)
    fields = tuple([getattr(t, f.name) for f in dataclasses.fields(t) if f.compare])
    return (cls, *fields) if cls in (Atom, NegAtom, Conj, Disj) else fields


@pytest.mark.parametrize("t", ALL + REDEXES, ids=lambda t: type(t).__name__)
def test_hash_is_the_hash_of_the_compared_fields(t):
    assert hash(t) == hash(_hash_key(t))
    assert hash(t) == hash(_hash_key(t))  # App and CStar: once kept, the same


@pytest.mark.parametrize("t", ALL + REDEXES, ids=lambda t: type(t).__name__)
def test_every_node_field_is_compared(t):
    """A node holds only what == and hash read, and every field is positional."""
    for f in dataclasses.fields(t):
        assert f.compare and f.name in type(t).__match_args__, f.name


def test_classes_with_the_same_fields_never_compare_equal():
    x, y, cx, cy, ab = Var("x"), Var("y"), CVar("x"), CVar("y"), Disj(a, b)
    for s, t in [(Pair(x, y), Star(x, y)), (Inj1(x, ab), Inj2(x, ab)),
                 (App(cx, cy), CStar(cx, cy)), (Atom("a"), NegAtom("a")),
                 (Conj(a, b), Disj(a, b))]:
        assert s != t and t != s


# ---- nodes are never written after construction ----
#
# Node classes are slotted, not frozen, so nothing at run time stops a write
# to a field. translate.psi_comb shares one image between many terms, so a
# stray write would change every term that holds it. The guard below reads
# the package source and rejects every statement that could write a node
# field; the slots test makes every other attribute write to a node fail,
# except the two caches, ``_fv`` (free_vars) and ``_hash`` (_Compound).

NODE_CLASSES = {Bottom, Redex} | {
    c for m in (types, lambda_sym, ccl) for c in vars(m).values()
    if isinstance(c, type) and issubclass(c, (MType, LsTerm, CTerm))
}
FIELDS = {"span"} | {f for c in NODE_CLASSES for f in getattr(c, "__match_args__", ())}
CACHES = {"_fv", "_hash"}
SOURCES = sorted(Path(ccl.__file__).parent.glob("*.py"))


def _node_writes(source: str, node_classes: set[str]) -> list[str]:
    """Each setattr call in source, and each write to an attribute named
    like a node field other than ``self.<field>`` in a non-node class."""
    found = []

    def targets(t):
        if isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                yield from targets(e)
        elif isinstance(t, ast.Starred):
            yield from targets(t.value)
        else:
            yield t

    def visit(n, cls):
        if isinstance(n, ast.ClassDef):
            cls = n.name
        elif isinstance(n, ast.Call):
            f = n.func
            if ((isinstance(f, ast.Name) and f.id == "setattr")
                    or (isinstance(f, ast.Attribute) and f.attr == "__setattr__")):
                found.append(f"line {n.lineno}: {ast.unparse(n)}")
        elif isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            tops = n.targets if isinstance(n, (ast.Assign, ast.Delete)) else [n.target]
            for t in (t for top in tops for t in targets(top)):
                own = (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                       and t.value.id == "self" and cls is not None and cls not in node_classes)
                if isinstance(t, ast.Attribute) and t.attr in FIELDS and not own:
                    found.append(f"line {t.lineno}: {ast.unparse(t)}")
        for c in ast.iter_child_nodes(n):
            visit(c, cls)

    visit(ast.parse(source), None)
    return found


def test_no_source_writes_a_node_after_construction():
    names = {c.__name__ for c in NODE_CLASSES}
    assert {"Var", "Star", "App", "_Compound", "Atom", "MType", "Bottom", "Redex"} <= names
    assert {"left", "body", "fun", "ann", "inst", "ident", "path", "span"} <= FIELDS
    assert len(SOURCES) > 10
    for path in SOURCES:
        assert _node_writes(path.read_text(), names) == [], path.name


def test_the_write_guard_catches_writes():
    names = {c.__name__ for c in NODE_CLASSES}
    for bad in ["t.left = u", "t.body += u", "t.span, n = s, 1", "del t.name",
                "setattr(t, 'name', 'y')", "object.__setattr__(t, '_fv', fv)",
                "class Star:\n    def f(self):\n        self.left = 1",
                "class ParseError(Exception):\n    def f(self, e):\n        e.span = (0, 1)"]:
        assert len(_node_writes(bad, names)) == 1, bad
    for fine in ["t._fv = out", "self._hash = h", "left = t.left", "q[t.left] = 1",
                 "class ParseError(Exception):\n    def __init__(self, span):\n"
                 "        self.span = span"]:
        assert _node_writes(fine, names) == [], fine


@pytest.mark.parametrize("t", ALL + REDEXES, ids=lambda t: type(t).__name__)
def test_node_slots_are_its_fields_and_caches(t):
    slots = {s for c in type(t).__mro__ for s in c.__dict__.get("__slots__", ())}
    assert not hasattr(t, "__dict__")
    assert slots - FIELDS <= CACHES
    with pytest.raises(AttributeError):
        t.extra = 1
