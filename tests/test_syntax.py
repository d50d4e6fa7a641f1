import pytest

from cclab.ccl import IDENT, App, Comb, CStar, CVar
from cclab.lambda_sym import Inj1, Inj2, Lam, Pair, Star, Var, alpha_eq
from cclab.syntax import (
    MAX_NESTING,
    ParseError,
    ReductionClaim,
    TypingClaim,
    parse_c,
    parse_claims,
    parse_context,
    parse_ls,
    parse_mtype,
    parse_term_auto,
    parse_type,
    print_c,
    print_ls,
    print_type,
)
from cclab.types import BOTTOM, Atom, Conj, Disj, NegAtom

a, na, b, nb = Atom("a"), NegAtom("a"), Atom("b"), NegAtom("b")


def test_parse_types():
    assert parse_type("a") == a
    assert parse_type("~a") == na
    assert parse_type("#") is BOTTOM
    assert parse_type("a & b | c") == Disj(Conj(a, b), Atom("c"))
    assert parse_type("a | b | c") == Disj(a, Disj(b, Atom("c")))
    assert parse_type("a & b & c") == Conj(a, Conj(b, Atom("c")))
    assert parse_type("(a | b) & c") == Conj(Disj(a, b), Atom("c"))
    assert parse_type("~a | (b | a)") == Disj(na, Disj(b, a))


def test_parse_type_unicode_aliases():
    assert parse_type("a ∧ b ∨ c") == Disj(Conj(a, b), Atom("c"))
    assert parse_type("a⊥") == na
    assert parse_type("⊥") is BOTTOM
    assert parse_type("(a ∧ b)⊥") == Disj(na, nb)


def test_parse_type_errors():
    with pytest.raises(ParseError):
        parse_type("a | #")
    with pytest.raises(ParseError):
        parse_type("~(a & b)")
    with pytest.raises(ParseError):
        parse_type("a &")
    with pytest.raises(ParseError):
        parse_mtype("#")


def test_parse_ls_terms():
    assert parse_ls("x") == Var("x")
    assert parse_ls("x * y") == Star(Var("x"), Var("y"))
    assert parse_ls("\\x:a. y * x") == Lam("x", a, Star(Var("y"), Var("x")))
    assert parse_ls("\\x:a.(y * x)") == Lam("x", a, Star(Var("y"), Var("x")))
    assert parse_ls("<u, v>") == Pair(Var("u"), Var("v"))
    assert parse_ls("s1(u : a | b)") == Inj1(Var("u"), Disj(a, b))
    assert parse_ls("s2(u : b | a)") == Inj2(Var("u"), Disj(b, a))
    # lam body extends maximally right
    t = parse_ls("u * \\x:a. v * x")
    assert t == Star(Var("u"), Lam("x", a, Star(Var("v"), Var("x"))))
    # unicode
    assert parse_ls("λx:a. y ⋆ x") == parse_ls("\\x:a. y * x")
    assert parse_ls("σ1(u : a ∨ b)") == parse_ls("s1(u : a | b)")
    assert parse_ls("⟨u, v⟩") == parse_ls("<u, v>")
    assert parse_ls("y′ * z'") == Star(Var("y'"), Var("z'"))


def test_parse_ls_errors():
    with pytest.raises(ParseError):
        parse_ls("x * y * z")  # non-associative
    with pytest.raises(ParseError):
        parse_ls("s1(u)")  # annotation required
    with pytest.raises(ParseError):
        parse_ls("s1(u : a)")  # not a disjunction
    with pytest.raises(ParseError):
        parse_ls("\\x:#. x")  # binder type must be an m-type
    with pytest.raises(ParseError):
        parse_ls("x y")  # no application on this side


def test_parse_c_terms():
    assert parse_c("x") == CVar("x")
    assert parse_c("K x y") == App(App(Comb("K"), CVar("x")), CVar("y"))
    assert parse_c("K[a, b]") == Comb("K", (a, b))
    assert parse_c("I") == IDENT
    assert parse_c("S K K") == IDENT
    assert parse_c("C (K y) I") == App(
        App(Comb("C"), App(Comb("K"), CVar("y"))), IDENT
    )
    assert parse_c("x * K y") == CStar(CVar("x"), App(Comb("K"), CVar("y")))
    assert parse_c("f x y") == App(App(CVar("f"), CVar("x")), CVar("y"))


def test_parse_c_errors():
    with pytest.raises(ParseError):
        parse_c("K[a]")  # arity
    with pytest.raises(ParseError):
        parse_c("I[a]")
    with pytest.raises(ParseError):
        parse_c("B x")  # unknown combinator
    with pytest.raises(ParseError):
        parse_c("x * y * z")
    with pytest.raises(ParseError):
        parse_c("\\x:a. x")


def test_parse_term_auto():
    calc, t = parse_term_auto("\\x:a. x * y")
    assert calc == "ls"
    calc, t = parse_term_auto("K x")
    assert calc == "ccl"
    calc, t = parse_term_auto("x * y")
    assert calc == "ls"  # parses in both; lambda side wins


def test_print_type_matches_expected_style():
    assert print_type(Disj(na, Disj(b, a))) == "~a | (b | a)"
    assert print_type(Disj(Conj(a, b), Atom("c"))) == "a & b | c"
    assert print_type(Conj(Disj(a, b), Atom("c"))) == "(a | b) & c"
    assert print_type(Conj(a, Conj(b, na))) == "a & (b & ~a)"
    assert print_type(BOTTOM) == "#"


def test_print_ls():
    t = Lam("x", a, Star(Var("y"), Var("x")))
    assert print_ls(t) == "\\x:a. y * x"
    assert print_ls(Star(t, Var("u"))) == "(\\x:a. y * x) * u"
    assert print_ls(Star(Var("u"), t)) == "u * \\x:a. y * x"
    assert print_ls(Pair(Var("u"), Star(Var("x"), Var("y")))) == "<u, x * y>"
    assert print_ls(Inj1(Var("u"), Disj(a, b))) == "s1(u : a | b)"


def test_print_c():
    t = App(App(Comb("C"), App(Comb("K"), CVar("y"))), IDENT)
    assert print_c(t) == "C (K y) I"
    assert print_c(Comb("K", (a, nb))) == "K[a, ~b]"
    assert print_c(CStar(App(Comb("K"), CVar("x")), CVar("y"))) == "K x * y"
    assert print_c(App(CVar("f"), App(CVar("g"), CVar("x")))) == "f (g x)"
    # inst-carrying identity shape prints longhand, not as I
    annotated = App(App(Comb("S", (a, Disj(a, a), a)), Comb("K", (a, Conj(na, na)))), Comb("K", (a, a)))
    assert print_c(annotated).startswith("S[")


def test_round_trip_hand_cases():
    ls_cases = [
        "x",
        "x * y",
        "\\x:a. y * x",
        "<u, \\x:a & b. u * v>",
        "s2(<u, v> : a & b | ~a)",
        "(\\x:a. x * u) * \\y:b. v * y",
    ]
    for s in ls_cases:
        t = parse_ls(s)
        assert parse_ls(print_ls(t)) == t, s
    c_cases = [
        "x",
        "K x y",
        "S (K x) (C f g) * P u v",
        "K[a, b | a] x",
        "I",
        "C (K y) I * Q1 (Q2 w)",
    ]
    for s in c_cases:
        t = parse_c(s)
        assert parse_c(print_c(t)) == t, s


def test_parse_context():
    ctx = parse_context("x : a, y : ~a & b, e : #")
    assert ctx == {"x": a, "y": Conj(na, b), "e": BOTTOM}
    assert parse_context("  ") == {}
    with pytest.raises(ParseError):
        parse_context("x : a, x : b")


def test_parse_claims():
    text = """
# a comment line
x : a, y : ~a |- x * y : #

@ctx u : a, v : ~a
<u, u> : a & a
K x y =>* x [max 5]
u : a |- \\z:a. v * u =>* v * u
"""
    claims = parse_claims(text)
    assert len(claims) == 4

    c0 = claims[0]
    assert isinstance(c0, TypingClaim)
    assert c0.calculus == "ls"
    assert c0.ctx == {"x": a, "y": na}
    assert c0.ty is BOTTOM
    assert c0.line_no == 3

    c1 = claims[1]
    assert isinstance(c1, TypingClaim)
    assert c1.ctx == {"u": a, "v": na}  # from the @ctx header
    assert c1.ty == Conj(a, a)

    c2 = claims[2]
    assert isinstance(c2, ReductionClaim)
    assert c2.calculus == "ccl"
    assert c2.max_steps == 5
    assert c2.ctx == {"u": a, "v": na}

    c3 = claims[3]
    assert isinstance(c3, ReductionClaim)
    assert c3.calculus == "ls"
    assert c3.ctx == {"u": a}  # explicit prefix overrides the header
    assert c3.max_steps is None


def test_parse_claims_reports_line():
    with pytest.raises(ParseError) as ei:
        parse_claims("x : a\n<oops : b\n")
    assert ei.value.line_no == 2


def test_spans_point_into_source():
    with pytest.raises(ParseError) as ei:
        parse_ls("x * (y &)")
    assert ei.value.span is not None
    src = "λx:a. y ⋆ x"
    t = parse_ls(src)
    s, e = t.span
    assert src.encode()[s:e].decode().startswith("λ")


@pytest.mark.parametrize("parse, nested", [
    (parse_c, lambda n: "(" * n + "x" + ")" * n),
    (parse_ls, lambda n: "(" * n + "x" + ")" * n),
    (parse_ls, lambda n: "\\x:a. " * n + "x * x"),
    (parse_type, lambda n: " & ".join(["a"] * (n + 1))),
    (parse_type, lambda n: "(" * n + "a" + ")" * n),
])
def test_nesting_past_the_limit_is_a_parse_error(parse, nested):
    parse(nested(MAX_NESTING))
    with pytest.raises(ParseError, match="nests deeper") as ei:
        parse(nested(MAX_NESTING + 1))
    assert ei.value.span is not None
