import pytest

from cclab.ccl import (
    C_RULES,
    IDENT,
    AmbiguousTypeError,
    App,
    Comb,
    CRedex,
    CStar,
    CVar,
    StaleRedex,
    TermClass,
    children,
    classify,
    elaborate,
    find_redexes_c,
    ground_type_of,
    infer_c,
    is_identity,
    reduce_at_c,
    scheme_type,
    term_size,
    term_vars,
)
from cclab.types import BOTTOM, Atom, Conj, Disj, NegAtom, TypingError

a, na = Atom("a"), NegAtom("a")
b, nb = Atom("b"), NegAtom("b")
CTX = {"u": a, "v": na, "p": b, "q": nb}


def test_scheme_types():
    assert scheme_type("K", (a, b)) == Disj(na, Disj(b, a))
    assert scheme_type("S", (a, b, a)) == Disj(
        Conj(a, Conj(b, na)), Disj(Conj(a, nb), Disj(na, a))
    )
    assert scheme_type("C", (a, b)) == Disj(Conj(a, b), Disj(Conj(a, nb), na))
    assert scheme_type("P", (a, b)) == Disj(na, Disj(nb, Conj(a, b)))
    assert scheme_type("Q1", (a, b)) == Disj(na, Disj(a, b))
    assert scheme_type("Q2", (a, b)) == Disj(nb, Disj(a, b))
    with pytest.raises(TypingError):
        scheme_type("K", (a,))


def test_infer_solves_inst_from_use():
    # closing the term forces every parameter
    t = CStar(App(App(Comb("K"), CVar("u")), CVar("p")), CVar("v"))
    assert infer_c(CTX, t) is BOTTOM

    ty, annotated = elaborate(CTX, t)
    assert ty is BOTTOM
    k = annotated.left.fun.fun
    assert isinstance(k, Comb) and k.inst == (a, nb)


def test_infer_reports_ambiguity():
    # (K u) leaves K's second parameter and the result open
    with pytest.raises(AmbiguousTypeError):
        infer_c(CTX, App(Comb("K"), CVar("u")))
    # bare I has an internal unconstrained parameter even when applied
    with pytest.raises(AmbiguousTypeError):
        infer_c(CTX, App(IDENT, CVar("u")))


def test_infer_errors():
    with pytest.raises(TypingError):
        infer_c(CTX, CVar("zz"))
    with pytest.raises(TypingError):
        infer_c(CTX, CStar(CVar("u"), CVar("u")))  # not dual
    with pytest.raises(TypingError):
        infer_c(CTX, App(CVar("u"), CVar("u")))  # u is not a disjunction... unsolvable
    bad = CStar(CStar(CVar("v"), CVar("u")), CVar("u"))
    with pytest.raises(TypingError):
        infer_c(CTX, bad)  # bottom on the left of *


def test_inst_annotations_are_checked():
    assert infer_c(CTX, App(App(Comb("K", (a, nb)), CVar("u")), CVar("p"))) == a
    with pytest.raises(TypingError):
        infer_c(CTX, App(App(Comb("K", (b, nb)), CVar("u")), CVar("p")))
    with pytest.raises(TypingError):
        infer_c(CTX, Comb("K", (a,)))


def test_ground_type_of():
    t = App(App(Comb("K", (a, nb)), CVar("u")), CVar("p"))
    assert ground_type_of(CTX, t) == a
    assert ground_type_of(CTX, CStar(CVar("v"), CVar("u"))) is BOTTOM
    with pytest.raises(TypingError):
        ground_type_of(CTX, Comb("K"))  # inst required
    with pytest.raises(TypingError):
        ground_type_of(CTX, App(CVar("u"), CVar("u")))


def test_classify():
    assert classify(Comb("K")) is TermClass.PRE_TERM
    assert classify(App(Comb("K"), CVar("x"))) is TermClass.PRE_TERM
    assert classify(CStar(CVar("u"), CVar("v"))) is TermClass.STAR_TERM
    assert classify(App(CVar("x"), CStar(CVar("u"), CVar("v")))) is TermClass.NEITHER
    assert classify(CStar(CStar(CVar("u"), CVar("v")), CVar("w"))) is TermClass.NEITHER


def test_is_identity_ignores_inst():
    assert is_identity(IDENT)
    assert is_identity(App(App(Comb("S", (a, b, a)), Comb("K", (a, b))), Comb("K", (a, a))))
    assert not is_identity(App(App(Comb("S"), Comb("K")), Comb("S")))


def test_k_and_s_rules():
    t = App(App(Comb("K"), CVar("x")), CVar("y"))
    rds = find_redexes_c(None, t)
    assert [r.rule for r in rds] == ["k"]
    assert reduce_at_c(t, rds[0]) == CVar("x")

    t2 = App(App(App(Comb("S"), CVar("f")), CVar("g")), CVar("x"))
    rds2 = find_redexes_c(None, t2)
    assert [r.rule for r in rds2] == ["s"]
    assert reduce_at_c(t2, rds2[0]) == App(
        App(CVar("f"), CVar("x")), App(CVar("g"), CVar("x"))
    )


def test_identity_reduces_in_two_steps():
    t = App(IDENT, CVar("u"))
    r1 = find_redexes_c(None, t)
    assert [r.rule for r in r1] == ["s"]
    t = reduce_at_c(t, r1[0])
    assert t == App(App(Comb("K"), CVar("u")), App(Comb("K"), CVar("u")))
    r2 = find_redexes_c(None, t)
    assert r2[0].rule == "k"
    assert reduce_at_c(t, r2[0]) == CVar("u")


def test_c_rules_both_sides():
    cuv = App(App(Comb("C"), CVar("f")), CVar("g"))
    t = CStar(cuv, CVar("w"))
    rds = find_redexes_c(None, t)
    assert [r.rule for r in rds] == ["c_r"]
    assert reduce_at_c(t, rds[0]) == CStar(
        App(CVar("f"), CVar("w")), App(CVar("g"), CVar("w"))
    )

    t2 = CStar(CVar("w"), cuv)
    rds2 = find_redexes_c(None, t2)
    assert [r.rule for r in rds2] == ["c_l"]
    assert reduce_at_c(t2, rds2[0]) == CStar(
        App(CVar("f"), CVar("w")), App(CVar("g"), CVar("w"))
    )

    # C on both sides: c_r is listed before c_l at the same path
    t3 = CStar(cuv, cuv)
    assert [r.rule for r in find_redexes_c(None, t3)] == ["c_r", "c_l"]


def test_e_rules():
    t = App(App(Comb("C"), App(Comb("K"), CVar("w"))), IDENT)
    rds = find_redexes_c(None, t)
    assert ("e_r", ()) in [(r.rule, r.path) for r in rds]
    assert reduce_at_c(t, [r for r in rds if r.rule == "e_r"][0]) == CVar("w")

    t2 = App(App(Comb("C"), IDENT), App(Comb("K"), CVar("w")))
    rds2 = find_redexes_c(None, t2)
    assert ("e_l", ()) in [(r.rule, r.path) for r in rds2]
    assert reduce_at_c(t2, [r for r in rds2 if r.rule == "e_l"][0]) == CVar("w")


def test_pq_and_qp_rules():
    puv = App(App(Comb("P"), CVar("x")), CVar("y"))
    q1 = App(Comb("Q1"), CVar("z"))
    q2 = App(Comb("Q2"), CVar("z"))

    t = CStar(puv, q1)
    assert [r.rule for r in find_redexes_c(None, t)] == ["pq1"]
    assert reduce_at_c(t, find_redexes_c(None, t)[0]) == CStar(CVar("x"), CVar("z"))

    t = CStar(puv, q2)
    assert reduce_at_c(t, find_redexes_c(None, t)[0]) == CStar(CVar("y"), CVar("z"))

    t = CStar(q1, puv)
    assert [r.rule for r in find_redexes_c(None, t)] == ["qp1"]
    assert reduce_at_c(t, find_redexes_c(None, t)[0]) == CStar(CVar("z"), CVar("x"))

    t = CStar(q2, puv)
    assert reduce_at_c(t, find_redexes_c(None, t)[0]) == CStar(CVar("z"), CVar("y"))


def test_simp_needs_context_root_star_and_nonroot_position():
    body = App(App(Comb("C"), App(Comb("K"), CVar("v"))), App(Comb("K"), CVar("u")))
    t = CStar(CVar("p"), body)
    rds = find_redexes_c(CTX, t)
    by_rule = {r.rule: r for r in rds}
    assert by_rule["simp"].path == (1,)
    # whole-term collapse
    assert reduce_at_c(t, by_rule["simp"]) == CStar(CVar("v"), CVar("u"))
    # c_l also matches at the root, with higher priority
    assert [r.rule for r in rds][0] == "c_l"

    # no context: no simp
    assert all(r.rule != "simp" for r in find_redexes_c(None, t))
    # at the root (not under a star): no simp
    assert all(r.rule != "simp" for r in find_redexes_c(CTX, body))
    # the pattern alone is not enough: this occurrence has no typing
    # derivation ((C (K v) (K v)) forces a /= ~a), so no simp
    bad_body = App(App(Comb("C"), App(Comb("K"), CVar("v"))), App(Comb("K"), CVar("v")))
    bad = CStar(CVar("p"), bad_body)
    with pytest.raises(TypingError):
        infer_c(CTX, bad)
    assert all(r.rule != "simp" for r in find_redexes_c(CTX, bad))


def test_subject_reduction_spot_checks():
    cases = [
        CStar(App(App(Comb("K"), CVar("v")), CVar("p")), CVar("u")),
        CStar(
            App(App(Comb("P"), CVar("u")), CVar("p")),
            App(Comb("Q1"), CVar("v")),
        ),
        CStar(CVar("p"), App(App(Comb("C"), App(Comb("K"), CVar("v"))), App(Comb("K"), CVar("u")))),
    ]
    for t in cases:
        ty = infer_c(CTX, t)
        for r in find_redexes_c(CTX, t):
            assert infer_c(CTX, reduce_at_c(t, r)) == ty, (t, r)


def test_stale_redex():
    with pytest.raises(StaleRedex):
        reduce_at_c(CVar("x"), CRedex("k", ()))


def test_size_and_vars():
    t = App(App(Comb("K", (a, b)), CVar("x")), CVar("y"))
    assert term_size(t) == 5  # inst does not add size
    assert term_vars(t) == frozenset({"x", "y"})
    assert term_size(IDENT) == 5


def _preorder_paths(t, at=()):
    yield at
    for i, c in enumerate(children(t)):
        yield from _preorder_paths(c, at + (i,))


def test_find_redexes_c_agrees_with_brute_force_matching():
    """Trying every rule at every path, in order, must give the redex list.

    reduce_at_c re-matches patterns on its own before contracting, so it
    serves as an independent oracle for the ten local rules; walking the
    paths in pre-order and the rules in C_RULES order gives the expected
    list order. simp needs typing and is checked as the only surplus, in
    its place: last among the redexes at its path.
    """
    from cclab.gen import atom_names, enumerate_c, enumerate_pre_terms, enumerate_star_terms
    from cclab.gen import standard_context
    from cclab.translate import bracket_abstract

    from cclab.syntax import parse_c, parse_context

    ctx = standard_context(2)
    names = ("x", "y")
    terms = [t for _, t in enumerate_c(ctx, 9, atom_names(2))]
    terms += enumerate_pre_terms(names, 5) + enumerate_star_terms(names, 5)
    terms += [App(bracket_abstract("x", u), v)
              for u in enumerate_pre_terms(names, 4) for v in enumerate_pre_terms(names, 2)]
    terms += [CStar(bracket_abstract("x", u), u) for u in enumerate_star_terms(names, 4)]
    cases = [(ctx, t) for t in terms]
    # simp needs a bottom-typed term larger than the enumerated corpus
    witness_ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b, u : a, v : ~a")
    for src in ("C (K y) (K z) * C (K y') (K z')", "C (K y) (K z) * u",
                "u * K (C (K y) (K z)) v", "C (K (C (K y) (K z) * u)) (K z) * u"):
        cases.append((witness_ctx, parse_c(src)))
    local = [r for r in C_RULES if r != "simp"]
    simps = 0
    for ctx, t in cases:
        position = {p: i for i, p in enumerate(_preorder_paths(t))}
        oracle = []
        for p in position:
            for rule in local:
                try:
                    reduce_at_c(t, CRedex(rule, p))
                except StaleRedex:
                    continue
                oracle.append((rule, p))
        untyped = [(r.rule, r.path) for r in find_redexes_c(None, t)]
        assert untyped == oracle, t
        typed = [(r.rule, r.path) for r in find_redexes_c(ctx, t)]
        surplus = [x for x in typed if x not in oracle]
        assert all(rule == "simp" for rule, _ in surplus)
        assert typed == sorted(oracle + surplus,
                               key=lambda x: (position[x[1]], C_RULES.index(x[0])))
        for rule, p in surplus:
            reduce_at_c(t, CRedex(rule, p))
        simps += len(surplus)
    assert simps  # the corpus exercises simp
