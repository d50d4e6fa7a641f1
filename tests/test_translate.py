import pytest

from cclab import translate, verify
from cclab.ccl import App, Comb, CStar, CVar, infer_c, scheme_type, substitute_c
from cclab.gen import atom_names, atom_pool, enumerate_c, enumerate_ls, standard_context
from cclab.lambda_sym import Pair, Star, Var, alpha_eq, infer, substitute
from cclab.node import children, rebuild
from cclab.rewrite import C_ENGINE, LS_ENGINE, ReachabilityQuery, normalize, reaches
from cclab.syntax import parse_c, parse_context, parse_ls, print_c, print_ls
from cclab.translate import (
    TranslationError,
    bracket_abstract,
    bracket_typed,
    i_term_at,
    pair_app,
    phi,
    pi_macro,
    psi,
    psi_comb,
)
from cclab.types import BOTTOM, Atom, Conj, Disj, NegAtom, TypingError, negate

a, na, b, nb, c = Atom("a"), NegAtom("a"), Atom("b"), NegAtom("b"), Atom("c")
CTX = parse_context("u : a, v : ~a, p : b, q : ~b")


def test_bracket_abstract_clauses():
    assert bracket_abstract("x", parse_c("x")) == parse_c("I")
    assert bracket_abstract("x", parse_c("y")) == parse_c("K y")
    assert bracket_abstract("x", parse_c("K")) == parse_c("K K")
    assert bracket_abstract("x", parse_c("y * x")) == parse_c("C (K y) I")
    assert bracket_abstract("x", parse_c("f x")) == parse_c("S (K f) I")
    # the C clause applies to stars even when x is absent
    assert bracket_abstract("x", parse_c("y * z")) == parse_c("C (K y) (K z)")


NEITHER = "cannot abstract over a term that is neither a pre-term nor a star of pre-terms"
BOTTOM_BODY = "cannot abstract over a bottom-typed subterm that is not a star"


@pytest.mark.parametrize("body", ["(x * y) * z", "(y * z) * w", "f (y * z)", "P (x * y) z"])
def test_bracket_abstract_rejects_a_body_outside_its_domain(body):
    # whether x occurs or not: the domain is pre-terms and stars of pre-terms
    with pytest.raises(TranslationError, match=f"^{NEITHER}$"):
        bracket_abstract("x", parse_c(body))


def test_phi_untyped_matches_expected_shape():
    t = parse_ls("\\x:a. y * x")
    assert print_c(phi(t)) == "C (K y) I"


def erase(t):
    """t with the instantiation of every combinator dropped."""
    return Comb(t.which) if type(t) is Comb else rebuild(t, [erase(k) for k in children(t)])


def test_erasing_the_types_of_the_typed_translations_gives_the_untyped_ones():
    # reduction ignores instantiations, so this carries bracket-reduction's
    # untyped check over to the typed images
    ctx = standard_context(2)
    corpus = verify._ls_corpus(9)
    assert len(corpus) == 32048
    for _, t in corpus:
        assert erase(phi(t, ctx)) == phi(t), print_ls(t)
    n = 0
    for x_type in atom_pool(atom_names(2)):
        ectx = {**ctx, "x": x_type}
        for _, t in enumerate_c(ectx, 5, atom_names(2)):
            n += 1
            image = bracket_typed("x", x_type, t, ectx)
            assert erase(image) == bracket_abstract("x", erase(t)), print_c(t)
    assert n == 1768  # the instances of the bracket-typing suite


def test_i_term_at_types():
    assert infer_c({}, i_term_at(a)) == Disj(na, a)
    big = Conj(a, nb)
    assert infer_c({}, i_term_at(big)) == Disj(negate(big), big)


def test_phi_typed_preserves_types():
    cases = [
        "u",
        "v * u",
        "<u, p>",
        "s1(u : a | b)",
        "s2(p : a | b)",
        "\\x:a. v * x",
        "\\x:a. <x, p> * s1(v : ~a | ~b)",  # pair and injection under a lambda
        "(\\x:a. v * x) * u",
    ]
    for src in cases:
        t = parse_ls(src)
        ty = infer(CTX, t)
        image = phi(t, CTX)
        assert infer_c(CTX, image) == ty, src


def test_phi_nested_lambda_instantiation():
    # the image of a closed nested lambda must be fully ground
    t = parse_ls("\\x:a. (\\y:a. v * y) * x")
    image = phi(t, CTX)
    assert infer_c(CTX, image) == na


def test_phi_rejects_bottom_var_abstraction():
    ctx = {"e": BOTTOM, **CTX}
    t = parse_ls("\\x:a. e")
    # the body is a bottom-typed variable; no combinator clause can type it
    with pytest.raises(TranslationError, match=f"^{BOTTOM_BODY}$"):
        phi(t, ctx)


def test_bracket_lemma_pre_term_forms():
    # (l_x U) V  reduces to  U[x := V]
    cases = [
        ("x", "y"),
        ("K x", "S"),
        ("f (g x)", "K y"),
        ("y", "z"),
    ]
    for u_src, v_src in cases:
        u, v = parse_c(u_src), parse_c(v_src)
        lhs = App(bracket_abstract("x", u), v)
        rhs = substitute_c(u, "x", v)
        ok, _ = reaches(C_ENGINE, None, ReachabilityQuery(lhs, rhs, 50, False))
        assert ok, (u_src, v_src)


def test_bracket_lemma_star_term_forms():
    for u_src, v_src in [("y * x", "z"), ("x * x", "K y"), ("y * z", "w")]:
        u, v = parse_c(u_src), parse_c(v_src)
        rhs = substitute_c(u, "x", v)
        lx = bracket_abstract("x", u)
        ok1, _ = reaches(C_ENGINE, None, ReachabilityQuery(CStar(lx, v), rhs, 50, False))
        ok2, _ = reaches(C_ENGINE, None, ReachabilityQuery(CStar(v, lx), rhs, 50, False))
        assert ok1 and ok2, (u_src, v_src)


def test_pi_macro_projects():
    t = Pair(Var("u"), Var("p"))
    p1 = pi_macro(1, t, Conj(a, b))
    assert infer(CTX, p1) == a
    res = normalize(LS_ENGINE, CTX, p1)
    assert res.term == Var("u")
    p2 = pi_macro(2, t, Conj(a, b))
    assert normalize(LS_ENGINE, CTX, p2).term == Var("p")


def test_pair_app_types():
    # u : ~a | b applied to a gives b
    ctx = parse_context("f : ~a | b, u : a")
    app = pair_app(Var("f"), Var("u"), b)
    assert infer(ctx, app) == b


def test_psi_comb_images_type_at_their_schemes():
    at2 = (a, b)
    at3 = (a, b, c)
    for which, inst in [
        ("K", at2), ("S", at3), ("C", at2), ("P", at2), ("Q1", at2), ("Q2", at2),
    ]:
        image = psi_comb(which, inst)
        assert infer({}, image) == scheme_type(which, inst), which
    # and at a compound instantiation
    inst = (Conj(a, nb), Disj(b, a))
    assert infer({}, psi_comb("K", inst)) == scheme_type("K", inst)


def test_psi_comb_shares_one_image_per_instantiation():
    inst = (Conj(a, nb), Disj(b, a))
    twin = (Conj(Atom("a"), NegAtom("b")), Disj(Atom("b"), Atom("a")))
    assert twin == inst and twin is not inst
    assert psi_comb("S", inst + (a,)) is psi_comb("S", twin + (a,))
    image = psi(parse_c("P[a, a] (K[a, b] u q) (K[a, b] u q)"), CTX)

    def walk(n):
        yield n
        for kid in children(n):
            yield from walk(kid)

    assert sum(n is psi_comb("K", (a, b)) for n in walk(image)) == 2


def test_psi_comb_table_stays_bounded():
    bound = psi_comb.cache_info().maxsize
    for i in range(bound + 10):
        psi_comb("K", (Atom(f"a{i}"), b))
    assert psi_comb.cache_info().currsize <= bound


def test_shared_psi_images_print_as_fresh_ones(monkeypatch):
    ctx = standard_context(2)
    corpus = [t for _, t in enumerate_c(ctx, 8, atom_names(2))]
    assert len(corpus) == 1384
    shared = [print_ls(psi(t, ctx)) for t in corpus]
    monkeypatch.setattr(translate, "psi_comb", psi_comb.__wrapped__)
    assert [print_ls(psi(t, ctx)) for t in corpus] == shared


def test_psi_preserves_types():
    cases = [
        ("u", CTX),
        ("K[a, b] u", CTX),
        ("v * u", CTX),
    ]
    for src, ctx in cases:
        t = parse_c(src)
        ty = infer_c(ctx, t)
        image = psi(t, ctx)
        assert infer(ctx, image) == ty, src


def test_psi_comb_rejects_an_unknown_combinator_as_a_type_error():
    with pytest.raises(TypingError, match="^unknown combinator X$"):
        psi_comb("X", ())


def test_psi_requires_inst():
    with pytest.raises(TypingError, match="K lacks a type instantiation"):
        psi(parse_c("K u"), CTX)


def _outcome(f, *args):
    """The class and message of what f(*args) raises, or None if it returns."""
    try:
        f(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def test_phi_and_psi_fail_exactly_when_their_typers_do():
    # the size<=6 corpora, typed where u and v have each other's types
    ctx = standard_context()
    swapped = {**ctx, "u": ctx["v"], "v": ctx["u"]}
    ls_terms = [t for _, t in enumerate_ls(ctx, 6, atom_names(2))]
    c_terms = [t for _, t in enumerate_c(ctx, 6, atom_names(2))]
    for f, typer, terms, show in [(phi, infer, ls_terms, print_ls),
                                  (psi, infer_c, c_terms, print_c)]:
        want = [_outcome(typer, swapped, t) for t in terms]
        assert None in want and any(want)  # both verdicts occur
        for t, w in zip(terms, want):
            assert _outcome(f, t, swapped) == w, show(t)


def test_psi_substitution_lemma_instances():
    ctx = parse_context("u : a, v : ~a, p : b, x : a")
    for u_src, v_src in [("K[a, b] x", "u"), ("x * v", "u"), ("P[a, b] x p", "u")]:
        big = parse_c(u_src)
        val = parse_c(v_src)
        lhs = psi(substitute_c(big, "x", val), ctx)
        rhs = substitute(psi(big, ctx), "x", psi(val, ctx))
        assert alpha_eq(lhs, rhs), (u_src, v_src)


def test_phi_substitution_lemma_instances():
    # phi(u[y:=v]) equals phi(u)[y:=phi(v)], instantiations included
    ctx = parse_context("u : a, v : ~a")
    big = parse_ls("\\x:b. v * y")
    val = parse_ls("u")
    ctx_y = {**ctx, "y": a}
    lhs = phi(substitute(big, "y", val), ctx)
    rhs = substitute_c(phi(big, ctx_y), "y", phi(val, ctx))
    assert lhs == rhs


def test_phi_simulation_smoke_beta():
    t = parse_ls("(\\x:a. v * x) * u")
    reduct = parse_ls("v * u")
    lhs = phi(t, CTX)
    rhs = phi(reduct, CTX)
    ok, _ = reaches(C_ENGINE, CTX, ReachabilityQuery(lhs, rhs, 50, True))
    assert ok


def test_phi_simulation_smoke_eta():
    t = parse_ls("\\x:a. v * x")
    lhs = phi(t, CTX)
    rhs = phi(parse_ls("v"), CTX)
    ok, witness = reaches(C_ENGINE, CTX, ReachabilityQuery(lhs, rhs, 50, True))
    assert ok and [r.rule for r in witness] == ["e_r"]


def test_psi_simulation_smoke_k():
    ctx = parse_context("u : a, w : ~b")
    t = parse_c("K[a, b] u w")
    assert infer_c(ctx, t) == a
    lhs = psi(t, ctx)
    rhs = psi(parse_c("u"), ctx)
    ok, _ = reaches(LS_ENGINE, ctx, ReachabilityQuery(lhs, rhs, 100, True))
    assert ok
