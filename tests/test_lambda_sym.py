import pytest

from cclab.lambda_sym import (
    LS_RULES,
    Inj1,
    Inj2,
    Lam,
    LsRedex,
    Pair,
    StaleRedex,
    Star,
    Var,
    alpha_eq,
    canonical,
    find_redexes,
    free_vars,
    infer,
    reduce_at,
    substitute,
    subterm_at,
    term_size,
)
from cclab.types import BOTTOM, Atom, Bottom, Conj, Disj, NegAtom, TypingError

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


def test_canonical_is_stable_under_renaming():
    t1 = Lam("p", a, Lam("q", b, Star(Var("p"), Var("q"))))
    t2 = Lam("m", a, Lam("n", b, Star(Var("m"), Var("n"))))
    assert canonical(t1) == canonical(t2)


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
        reduce_at(t, LsRedex("beta", ()))
    with pytest.raises(StaleRedex):
        subterm_at(t, (0, 0))


def test_term_size():
    assert term_size(Var("x")) == 1
    assert term_size(Lam("x", a, Star(Var("x"), Var("y")))) == 4


def test_find_redexes_agrees_with_brute_force_matching():
    """Trying every rule at every path must recover exactly the redex list.

    reduce_at re-matches patterns on its own before contracting, so it
    serves as an independent oracle for the eight syntactic rules; triv
    needs typing and is checked as the only possible surplus.
    """
    from cclab.gen import atom_names, enumerate_c, enumerate_ls, standard_context
    from cclab.lambda_sym import children
    from cclab.translate import psi

    def paths_of(t, at=()):
        yield at
        for i, c in enumerate(children(t)):
            yield from paths_of(c, at + (i,))

    ctx = standard_context(2)
    syntactic = [r for r in LS_RULES if r != "triv"]
    terms = [t for _, t in enumerate_ls(ctx, 10, atom_names(2))]
    # translated combinators: larger terms, with redexes on both sides of a star
    terms += [psi(t, ctx) for _, t in enumerate_c(ctx, 3, atom_names(2))]
    for t in terms:
        # paths in pre-order, rules in priority order: the expected order
        position = {p: i for i, p in enumerate(paths_of(t))}
        ordered = []
        for p in position:
            for rule in syntactic:
                try:
                    reduce_at(t, LsRedex(rule, p))
                except StaleRedex:
                    continue
                ordered.append((rule, p))
        oracle = set(ordered)
        untyped = {(r.rule, r.path) for r in find_redexes(None, t)}
        assert untyped == oracle
        assert [(r.rule, r.path) for r in find_redexes(None, t)] == ordered
        typed = {(r.rule, r.path) for r in find_redexes(ctx, t)}
        surplus = typed - untyped
        assert all(rule == "triv" for rule, _ in surplus)
        for rule, p in surplus:
            reduce_at(t, LsRedex(rule, p))
        assert [(r.rule, r.path) for r in find_redexes(ctx, t)] == sorted(
            ordered + list(surplus), key=lambda x: (position[x[1]], LS_RULES.index(x[0]))
        )
