import hashlib
from collections import Counter
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cclab.ccl import infer_c
from cclab.gen import (
    atom_names,
    enumerate_ls,
    enumerate_pre_terms,
    enumerate_star_terms,
    ls_weight,
    random_ls,
    standard_context,
)
from cclab.lambda_sym import (
    LS_RULES,
    Inj1,
    Inj2,
    Lam,
    Pair,
    Star,
    Var,
    alpha_eq,
    canonical,
    find_redexes,
    free_vars,
    infer,
    reduce_at,
    substitute,
)
from cclab.node import Redex, StaleRedex, children, subterm_at, term_size
from cclab.syntax import parse_ls, print_ls
from cclab.translate import psi_comb
from cclab.types import BOTTOM, Atom, Bottom, Conj, Disj, NegAtom, TypingError, print_type

a, na = Atom("a"), NegAtom("a")
b, nb = Atom("b"), NegAtom("b")


def test_free_vars():
    t = Lam("x", a, Star(Var("x"), Var("y")))
    assert free_vars(t) == frozenset({"y"})
    assert free_vars(Pair(Var("u"), Var("u"))) == frozenset({"u"})


def test_substitute_capture_avoiding():
    # (\y:a. x * y)[x := y] must rename the binder, not capture
    t = Lam("y", a, Star(Var("x"), Var("y")))
    r = substitute(t, "x", Var("y"))
    assert isinstance(r, Lam)
    assert r.var != "y"
    assert r.body == Star(Var("y"), Var(r.var))


def test_substitute_noop_when_absent():
    t = Lam("y", a, Star(Var("y"), Var("y")))
    assert substitute(t, "x", Var("z")) is t


def test_alpha_eq():
    t1 = Lam("x", a, Star(Var("x"), Var("w")))
    t2 = Lam("z", a, Star(Var("z"), Var("w")))
    t3 = Lam("z", b, Star(Var("z"), Var("w")))
    assert alpha_eq(t1, t2)
    assert not alpha_eq(t1, t3)  # annotation differs
    assert not alpha_eq(t1, Lam("z", a, Star(Var("w"), Var("z"))))
    assert not alpha_eq(t1, Lam("x", a, Star(Var("x"), Var("v"))))  # free names count
    assert not alpha_eq(Inj1(Var("u"), Disj(a, b)), Inj1(Var("u"), Disj(a, a)))
    assert not alpha_eq(Inj1(Var("u"), Disj(a, b)), Inj2(Var("u"), Disj(a, b)))


def test_alpha_eq_under_shadowing():
    # the inner x shadows the outer one: renaming it (and its uses) to z is
    # harmless, renaming the binder alone points x back at the outer one
    t = parse_ls("\\x:a. \\x:a. \\y:a. y * x")
    assert alpha_eq(t, parse_ls("\\x:a. \\z:a. \\y:a. y * z"))
    assert not alpha_eq(t, parse_ls("\\x:a. \\z:a. \\y:a. y * x"))
    assert alpha_eq(parse_ls("\\x:a. <\\x:a. x * x, x> * v"),
                    parse_ls("\\y:a. <\\z:a. z * z, y> * v"))
    assert not alpha_eq(parse_ls("\\x:a. <\\x:a. x * x, x> * v"),
                        parse_ls("\\y:a. <\\z:a. z * y, y> * v"))
    # a free variable is never equal to a bound one, whatever its name;
    # canonical forms cannot tell a free '!0' from the binder they rename
    free = Lam("x", a, Star(Var("x"), Var("!0")))
    bound = Lam("y", a, Star(Var("y"), Var("y")))
    assert canonical(free) == canonical(bound)
    assert not alpha_eq(free, bound)


def test_free_vars_are_kept_on_the_node_without_touching_its_hash():
    t = Lam("x", a, Star(Var("x"), Pair(Var("y"), Var("z"))))
    h = hash(t)
    assert h == hash(("x", a, t.body))  # the dataclass hash of the fields
    assert free_vars(t) == frozenset({"y", "z"})
    assert free_vars(t) is free_vars(t)
    assert free_vars(t.body.right) is free_vars(t.body.right)
    assert hash(t) == h
    assert t == Lam("x", a, Star(Var("x"), Pair(Var("y"), Var("z"))))


def _past_the_exhaustive_bound(seed: int, max_size: int):
    """The first random_ls term above size 9 from this seed, if any."""
    ctx, rng = standard_context(2), Random(seed)
    for _ in range(100):
        _, t = random_ls(ctx, atom_names(2), max_size, rng)
        if ls_weight(t) > 9:  # the suites cover every typable term up to 9
            return t
    return None


def _rename_binders(t, rng: Random, names):
    """t with every binder renamed to a name from names, uses following it.

    Not capture-avoiding: a name already in use can capture, so the result
    may or may not be alpha-equivalent to t.
    """
    def go(node, env):
        match node:
            case Var(x):
                return Var(env.get(x, x))
            case Lam(x, ann, body):
                y = rng.choice(names)
                return Lam(y, ann, go(body, {**env, x: y}))
            case Star(l, r):
                return Star(go(l, env), go(r, env))
            case Pair(l, r):
                return Pair(go(l, env), go(r, env))
            case Inj1(body, ann):
                return Inj1(go(body, env), ann)
            case Inj2(body, ann):
                return Inj2(go(body, env), ann)

    return go(t, {})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(11, 15))
def test_round_trip_past_the_exhaustive_bound(seed, max_size):
    t = _past_the_exhaustive_bound(seed, max_size)
    assume(t is not None)
    assert alpha_eq(parse_ls(print_ls(t)), t)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(11, 15))
def test_alpha_eq_agrees_with_canonical_forms(seed, other_seed, max_size):
    s = _past_the_exhaustive_bound(seed, max_size)
    t = _past_the_exhaustive_bound(other_seed, max_size)
    assume(s is not None and t is not None)
    rng = Random(seed ^ other_seed)
    fresh = _rename_binders(s, rng, [f"b{i}" for i in range(3)])
    clashing = _rename_binders(s, rng, ["x0", "x1", "u", "v"])
    assert alpha_eq(s, fresh) and alpha_eq(fresh, s)
    for x, y in [(s, t), (s, clashing), (fresh, clashing), (t, clashing), (s, s)]:
        assert alpha_eq(x, y) == (canonical(x) == canonical(y)), (print_ls(x), print_ls(y))


def test_alpha_eq_agrees_with_canonical_forms_on_the_small_corpus():
    """The property above on every term of size at most 7, against the next, its
    canonical form, a copy with its binders renamed and one with u renamed."""
    terms = [t for _, t in enumerate_ls(standard_context(2), 7, atom_names(2))]
    rng, outcomes = Random(7), set()
    for s, t in zip(terms, terms[1:]):
        renamed = _rename_binders(s, rng, ["x0", "x1", "b0", "u"])
        for y in (t, canonical(s), renamed, substitute(s, "u", Var("w"))):
            same = alpha_eq(s, y)
            assert same == (canonical(s) == canonical(y)) == alpha_eq(y, s), (s, y)
            outcomes.add(same)
    assert outcomes == {True, False}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(11, 15))
def test_alpha_eq_is_reflexive(seed, max_size):
    t = _past_the_exhaustive_bound(seed, max_size)
    assume(t is not None)
    assert alpha_eq(t, t)
    assert alpha_eq(Lam("y", a, Pair(t, Var("y"))), Lam("z", a, Pair(t, Var("z"))))


def test_alpha_eq_walks_a_shared_open_subterm():
    y = Var("y")
    assert not alpha_eq(Lam("y", a, Star(y, Var("w"))), Lam("z", a, Star(y, Var("w"))))
    shared = Pair(y, Var("w"))
    assert not alpha_eq(Lam("y", a, Lam("z", b, shared)), Lam("z", a, Lam("y", b, shared)))
    assert alpha_eq(Lam("z", a, Lam("y", b, shared)), Lam("x", a, Lam("y", b, shared)))


def test_alpha_eq_skips_a_shared_closed_subterm():
    image = psi_comb("K", (a, b))
    assert not free_vars(image)
    left = Lam("y", na, Lam("w", b, Star(Var("y"), Pair(image, Var("w")))))
    right = Lam("z", na, Lam("y", b, Star(Var("z"), Pair(image, Var("y")))))
    assert alpha_eq(left, right) and alpha_eq(right, left)
    swapped = Lam("z", na, Lam("y", b, Star(Var("y"), Pair(image, Var("z")))))
    assert not alpha_eq(left, swapped)
    assert alpha_eq(Star(image, Var("u")), Star(psi_comb.__wrapped__("K", (a, b)), Var("u")))


def test_canonical_is_stable_under_renaming():
    t1 = Lam("p", a, Lam("q", b, Star(Var("p"), Var("q"))))
    t2 = Lam("m", a, Lam("n", b, Star(Var("m"), Var("n"))))
    assert canonical(t1) == canonical(t2)
    # binders numbered in preorder, left child before right, through every class
    t = parse_ls(r"<\x:a. x * u, s1(\y:b. y * x : ~b | a)> * s2(\z:~a. u * z : b | a)")
    assert print_ls(canonical(t)) == (
        r"<\!0:a. !0 * u, s1(\!1:b. !1 * x : ~b | a)> * s2(\!2:~a. u * !2 : b | a)"
    )


def test_infer_basics():
    ctx = {"u": a, "v": na}
    assert infer(ctx, Var("u")) == a
    assert infer(ctx, Pair(Var("u"), Var("u"))) == Conj(a, a)
    assert infer(ctx, Star(Var("v"), Var("u"))) is BOTTOM
    assert infer(ctx, Lam("x", a, Star(Var("v"), Var("u")))) == na
    assert infer(ctx, Inj1(Var("u"), Disj(a, b))) == Disj(a, b)
    assert infer(ctx, Inj2(Var("u"), Disj(b, a))) == Disj(b, a)


def test_infer_rejections():
    ctx = {"u": a, "v": na}
    with pytest.raises(TypingError):
        infer(ctx, Var("w"))
    with pytest.raises(TypingError):
        infer(ctx, Star(Var("u"), Var("u")))  # not dual
    with pytest.raises(TypingError):
        infer(ctx, Lam("x", a, Var("u")))  # body not bottom
    with pytest.raises(TypingError):
        infer(ctx, Inj1(Var("u"), Disj(b, a)))  # u : a is not the left disjunct
    with pytest.raises(TypingError):
        infer(ctx, Pair(Star(Var("v"), Var("u")), Var("u")))  # bottom in a pair


def test_infer_allows_bottom_hypothesis():
    assert infer({"e": BOTTOM}, Var("e")) is BOTTOM


def test_beta_and_beta_perp():
    ctx = {"u": a, "v": na}
    lam = Lam("x", a, Star(Var("v"), Var("x")))
    t = Star(lam, Var("u"))
    rds = find_redexes(ctx, t)
    assert [(r.rule, r.path) for r in rds] == [("beta", ()), ("eta", (0,))]
    assert reduce_at(t, rds[0]) == Star(Var("v"), Var("u"))

    t2 = Star(Var("u"), Lam("x", na, Star(Var("x"), Var("u"))))
    rds2 = find_redexes(ctx, t2)
    assert [(r.rule, r.path) for r in rds2] == [("beta_perp", ()), ("eta_perp", (1,))]
    assert reduce_at(t2, rds2[0]) == Star(Var("u"), Var("u"))


def test_eta_both_sides():
    t = Lam("x", a, Star(Var("w"), Var("x")))
    rds = find_redexes({"w": na}, t)
    assert [r.rule for r in rds] == ["eta"]
    assert reduce_at(t, rds[0]) == Var("w")

    t2 = Lam("x", a, Star(Var("x"), Var("w")))
    rds2 = find_redexes({"w": a}, t2)
    assert [r.rule for r in rds2] == ["eta_perp"]
    assert reduce_at(t2, rds2[0]) == Var("w")

    # x occurs on both sides: neither eta applies
    assert find_redexes(None, Lam("x", a, Star(Var("x"), Var("x")))) == []


def test_pair_injection_rules():
    ctx = {"u": na, "v": nb, "w": a}
    t = Star(Pair(Var("u"), Var("v")), Inj1(Var("w"), Disj(a, b)))
    rds = find_redexes(ctx, t)
    assert [r.rule for r in rds] == ["pi1"]
    assert reduce_at(t, rds[0]) == Star(Var("u"), Var("w"))

    t2 = Star(Pair(Var("u"), Var("v")), Inj2(Var("w"), Disj(a, b)))
    assert reduce_at(t2, find_redexes(None, t2)[0]) == Star(Var("v"), Var("w"))

    t3 = Star(Inj1(Var("w"), Disj(a, b)), Pair(Var("u"), Var("v")))
    rds3 = find_redexes(ctx, t3)
    assert [r.rule for r in rds3] == ["pi1_perp"]
    assert reduce_at(t3, rds3[0]) == Star(Var("w"), Var("u"))

    t4 = Star(Inj2(Var("w"), Disj(a, b)), Pair(Var("u"), Var("v")))
    assert reduce_at(t4, find_redexes(None, t4)[0]) == Star(Var("w"), Var("v"))


def test_triv_requires_context_and_nonroot():
    ctx = {"u": a, "v": na, "p": b, "q": nb}
    inner = Lam("y", b, Star(Var("v"), Var("u")))  # y unused, body closed
    t = Star(Var("p"), inner)
    rds = find_redexes(ctx, t)
    by_rule = {r.rule: r for r in rds}
    assert "triv" in by_rule
    assert by_rule["triv"].path == (1,)
    # triv contracts the WHOLE term to the body
    assert reduce_at(t, by_rule["triv"]) == Star(Var("v"), Var("u"))

    # at the root it is not a redex
    assert all(r.rule != "triv" for r in find_redexes(ctx, inner))
    # without a context it is not scanned for
    assert all(r.rule != "triv" for r in find_redexes(None, t))


def test_triv_respects_enclosing_binders():
    # The candidate body mentions z, bound further out: extraction would
    # leave z dangling, so this must not count as a redex.
    ctx = {"u": a, "q": b, "v": na}
    inner = Lam("y", b, Star(Var("z"), Var("u")))
    t = Star(Lam("z", na, Star(Var("q"), inner)), Var("v"))
    assert infer(ctx, t) is BOTTOM
    assert all(r.rule != "triv" for r in find_redexes(ctx, t))

    # same shape, body closed w.r.t. binders: now it is a redex
    inner2 = Lam("y", b, Star(Var("v"), Var("u")))
    t2 = Star(Lam("z", na, Star(Var("q"), inner2)), Var("v"))
    by_rule = {r.rule: r for r in find_redexes(ctx, t2)}
    assert by_rule["triv"].path == (0, 0, 1)
    assert reduce_at(t2, by_rule["triv"]) == Star(Var("v"), Var("u"))


def test_triv_skipped_when_binder_used():
    ctx = {"u": a, "v": na}
    t = Star(Var("u"), Lam("y", na, Star(Var("y"), Var("u"))))
    assert all(r.rule != "triv" for r in find_redexes(ctx, t))


def test_redex_ordering_is_position_then_priority():
    # a lam whose body is both an eta and an eta_perp candidate via
    # different shapes: priority inside one path follows the rule table
    t = Lam("x", a, Star(Var("x"), Var("w")))
    rds = find_redexes(None, t)
    assert [r.rule for r in rds] == ["eta_perp"]
    assert find_redexes(None, Pair(Var("u"), Var("u"))) == []


def test_eta_listed_inside_larger_term():
    ctx = {"u": a, "v": na}
    lam = Lam("x", a, Star(Var("v"), Var("x")))
    t = Star(lam, Var("u"))
    all_rules = [(r.rule, r.path) for r in find_redexes(ctx, t)]
    assert ("beta", ()) in all_rules
    assert ("eta", (0,)) in all_rules
    assert all_rules.index(("beta", ())) < all_rules.index(("eta", (0,)))


def test_subject_reduction_spot_checks():
    ctx = {"u": a, "v": na, "p": b, "q": nb}
    terms = [
        Star(Lam("x", a, Star(Var("v"), Var("x"))), Var("u")),
        Star(Pair(Var("v"), Var("q")), Inj2(Var("p"), Disj(a, b))),
        Lam("x", a, Star(Var("v"), Var("x"))),
        Star(Var("p"), Lam("y", b, Star(Var("v"), Var("u")))),
    ]
    for t in terms:
        ty = infer(ctx, t)
        for r in find_redexes(ctx, t):
            assert infer(ctx, reduce_at(t, r)) == ty, (t, r)


def test_stale_redex():
    t = Star(Var("u"), Var("v"))
    with pytest.raises(StaleRedex):
        reduce_at(t, Redex("beta", ()))
    with pytest.raises(StaleRedex):
        subterm_at(t, (0, 0))


def test_term_size():
    assert term_size(Var("x")) == 1
    assert term_size(Lam("x", a, Star(Var("x"), Var("y")))) == 4


_SYNTACTIC = [r for r in LS_RULES if r != "triv"]


def _preorder_paths(t, at=()):
    yield at
    for i, c in enumerate(children(t)):
        yield from _preorder_paths(c, at + (i,))


def _expected_trivs(ctx, t):
    """The triv redexes of t by the rule's definition, without the walk: at
    a path below the root, Lam(y, _, v) with v a star, y not free in v, no
    binder above capturing a free variable of v, and t of type bottom."""
    try:
        if infer(ctx, t) != BOTTOM:
            return []
    except TypingError:
        return []
    found, stack = [], [((), t, frozenset())]  # path, node, binders above it
    while stack:
        p, node, binders = stack.pop()
        if (p and type(node) is Lam and type(node.body) is Star
                and node.var not in free_vars(node.body)
                and free_vars(node.body).isdisjoint(binders)):
            found.append(("triv", p))
        inner = binders | {node.var} if type(node) is Lam else binders
        stack += [(p + (i,), c, inner) for i, c in enumerate(children(node))]
    return found


def _check_redexes_by_brute_force(ctx, t):
    """Try every syntactic rule at every path of t with reduce_at.

    reduce_at re-matches patterns on its own before contracting, so it
    serves as an independent oracle for the eight syntactic rules; the
    expected trivs come from _expected_trivs, each last at its path, and
    each must contract. Returns the syntactic matches as (rule, path), in
    pre-order by path and then priority: the expected order of
    find_redexes(None, t).
    """
    position = {p: i for i, p in enumerate(_preorder_paths(t))}
    ordered = []
    for p in position:
        for rule in _SYNTACTIC:
            try:
                reduce_at(t, Redex(rule, p))
            except StaleRedex:
                continue
            ordered.append((rule, p))
    untyped = [(r.rule, r.path) for r in find_redexes(None, t)]
    assert untyped == ordered, print_ls(t)
    trivs = _expected_trivs(ctx, t)
    for rule, p in trivs:
        reduce_at(t, Redex(rule, p))
    typed = [(r.rule, r.path) for r in find_redexes(ctx, t)]
    assert typed == sorted(
        ordered + trivs, key=lambda x: (position[x[1]], LS_RULES.index(x[0]))
    ), print_ls(t)
    return ordered


def test_find_redexes_agrees_with_brute_force_matching():
    """Trying every rule at every path must recover exactly the redex list."""
    from cclab.gen import atom_names, enumerate_c, enumerate_ls, standard_context
    from cclab.translate import psi

    ctx = standard_context(2)
    terms = [t for _, t in enumerate_ls(ctx, 10, atom_names(2))]
    # translated combinators: larger terms, with redexes on both sides of a star
    terms += [psi(t, ctx) for _, t in enumerate_c(ctx, 3, atom_names(2))]
    # one triv shape under a root of each class: only the star has type bottom
    witnesses = [parse_ls(src) for src in (
        r"<p, \y:b. v * u>", r"s1(\y:b. v * u : ~b | b)",
        r"\x:b. <p, \y:b. v * u> * s1(q : ~b | b)", r"<p, \y:b. v * u> * s1(q : ~b | b)")]
    assert [_expected_trivs(ctx, t) for t in witnesses] == [[], [], [], [("triv", (0, 1))]]
    for t in terms + witnesses:
        _check_redexes_by_brute_force(ctx, t)
        assert find_redexes(ctx, t, first=True) == find_redexes(ctx, t)[:1], print_ls(t)
    assert any(_expected_trivs(ctx, t) for t in terms)  # the corpus has trivs too


def test_only_a_star_root_is_typed_for_triv(monkeypatch):
    """A root that is not a star cannot have type bottom, so the walk types
    no such root and offers no triv under it; a star root is typed once."""
    import cclab.lambda_sym as ls

    typed = []  # every term infer is asked about, the recursive calls too
    monkeypatch.setattr(ls, "infer", lambda c, u: typed.append(u) or infer(c, u))
    ctx = standard_context(2)
    pair = Pair(Var("p"), Lam("y", b, Star(Var("v"), Var("u"))))
    assert find_redexes(ctx, pair) == []
    assert not any(u is pair for u in typed)
    star = Star(pair, Inj1(Var("q"), Disj(nb, b)))
    assert Redex("triv", (0, 1)) in find_redexes(ctx, star)
    assert [u for u in typed if u is star] == [star]


def _untyped_ls(rng: Random, depth: int):
    """A random term that need not be typable, at most depth+1 nodes deep.

    Variables (x, y, z, and u, v of the standard context) fill every child
    position, and the root too. Half the abstractions have an eta shape,
    Lam x. (w * x) or Lam x. (x * w), where w is random and so may mention
    x. Pairs and injections are as frequent as abstractions, so pi and beta
    shapes and their near misses occur under binders as well.
    """
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice("xyzuv"))
    sub = lambda: _untyped_ls(rng, depth - 1)
    kind = rng.randrange(9)
    if kind < 2:
        x = rng.choice("xyz")
        if kind == 1:
            return Lam(x, a, sub())
        w = sub()
        return Lam(x, a, Star(w, Var(x)) if rng.random() < 0.5 else Star(Var(x), w))
    if kind < 4:
        return Pair(sub(), sub())
    if kind < 6:
        return (Inj1 if rng.random() < 0.5 else Inj2)(sub(), Disj(a, b))
    return Star(sub(), sub())


def test_find_redexes_agrees_with_brute_force_matching_on_untyped_terms():
    """The oracle above, on 2,000 seeded terms outside the typed corpus."""
    from cclab.gen import standard_context

    ctx, rng = standard_context(2), Random(8)
    terms = [_untyped_ls(rng, 5) for _ in range(2000)]
    rules, shapes = Counter(), Counter()
    for t in terms:
        rules.update(rule for rule, _ in _check_redexes_by_brute_force(ctx, t))
        shapes["var root"] += type(t) is Var
        stack = [(t, False)]  # node, under a binder
        while stack:
            node, bound = stack.pop()
            for field in node.KIDS:
                kid = getattr(node, field)
                shapes[f"var in {type(node).__name__}.{field}"] += type(kid) is Var
                stack.append((kid, bound or type(node) is Lam))
            if type(node) is Lam and type(node.body) is Star:
                body = node.body
                for x, w in ((body.right, body.left), (body.left, body.right)):
                    if x == Var(node.var) and node.var in free_vars(w):
                        shapes["eta near miss"] += 1
            if bound and type(node) is Star:
                kinds = {type(node.left), type(node.right)}
                shapes["pair and injection under a binder"] += (
                    Pair in kinds and bool(kinds & {Inj1, Inj2}))
    assert set(rules) == set(_SYNTACTIC), rules
    positions = {f"var in {c.__name__}.{f}" for c in (Lam, Star, Pair, Inj1, Inj2)
                 for f in c.KIDS}
    assert all(shapes[k] >= 20 for k in positions | {"var root", "eta near miss",
               "pair and injection under a binder"}), shapes


def _typing_outcomes(check, terms):
    """For each term, the error's class and text, or the printed type."""
    for t in terms:
        try:
            yield print_type(check(t))
        except TypingError as e:
            yield f"{type(e).__name__}: {e}"


def test_typing_error_text_is_pinned():
    """The text of every typing error over two corpora: combinator terms
    over u, v and an unbound x up to size 5, and the 2,000 seeded untyped
    lambda terms above."""
    ctx, rng = standard_context(2), Random(8)
    combinator = enumerate_pre_terms(("u", "v", "x"), 5) + enumerate_star_terms(("u", "v", "x"), 5)
    lam = [_untyped_ls(rng, 5) for _ in range(2000)]
    outcomes = [*_typing_outcomes(lambda t: infer_c(ctx, t), combinator),
                *_typing_outcomes(lambda t: infer(ctx, t), lam)]
    errors = [o for o in outcomes if "Error: " in o]
    assert len(outcomes) == len(combinator) + 2000 and len(set(errors)) > 10
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "5055eedef33c274c3153bd84de297919da755fdcab1341b7a19a5fc1c16f681d", digest
