from collections import Counter
from itertools import count
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cclab import ccl
from cclab.ccl import (
    C_RULES,
    IDENT,
    SCHEME_ARITY,
    AmbiguousTypeError,
    App,
    Comb,
    CStar,
    CVar,
    TermClass,
    classify,
    elaborate,
    find_redexes_c,
    first_step_c,
    ground_type_of,
    infer_c,
    is_identity,
    reduce_at_c,
    scheme_type,
    substitute_c,
    term_vars,
)
from cclab.gen import atom_names, enumerate_c, random_c, standard_context
from cclab.node import Redex, StaleRedex, children, rebuild, replace_at, subterm_at, term_size
from cclab.syntax import parse_c, parse_context, print_c
from cclab.types import BOTTOM, Atom, Conj, Disj, MetaVar, NegAtom, TypingError

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


def test_infer_c_and_elaborate_give_one_ambiguity_message():
    t = App(Comb("K"), CVar("u"))
    with pytest.raises(AmbiguousTypeError) as inferred:
        infer_c(CTX, t)
    with pytest.raises(AmbiguousTypeError) as elaborated:
        elaborate(CTX, t)
    assert str(elaborated.value) == str(inferred.value)
    assert "(K at [0], result at [])" in str(inferred.value)


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
    with pytest.raises(TypingError, match="^K takes 2 type parameters, got 1$"):
        infer_c(CTX, Comb("K", (a,)))


def test_inst_with_a_metavariable_is_rejected_every_time():
    t = Comb("K", (MetaVar(0), a))
    for _ in range(2):  # the second check is answered from the cache
        with pytest.raises(TypingError, match="^inst types must be concrete$"):
            infer_c(CTX, t)


def test_ground_type_of():
    t = App(App(Comb("K", (a, nb)), CVar("u")), CVar("p"))
    assert ground_type_of(CTX, t) == a
    assert ground_type_of(CTX, CStar(CVar("v"), CVar("u"))) is BOTTOM
    with pytest.raises(TypingError):
        ground_type_of(CTX, Comb("K"))  # inst required
    with pytest.raises(TypingError):
        ground_type_of(CTX, App(CVar("u"), CVar("u")))
    with pytest.raises(TypingError, match="unknown combinator B"):
        ground_type_of(CTX, Comb("B", (a,)))


def _strip(t, keep):
    """t without the instantiation of each combinator whose pre-order
    index keep rejects."""
    index = count()

    def go(u):
        if type(u) is Comb:
            return u if keep(next(index)) else Comb(u.which)
        return rebuild(u, [go(c) for c in children(u)])

    return go(t)


def test_elaborate_restores_the_instantiations_it_can_solve():
    ctx = standard_context(2)
    corpus = enumerate_c(ctx, 8, atom_names(2))
    assert len(corpus) == 1384
    solved = ambiguous = 0
    for ty, t in corpus:
        assert elaborate(ctx, t)[1] is t
        for keep in (lambda i: False, lambda i: i % 2 == 1):
            try:
                assert elaborate(ctx, _strip(t, keep)) == (ty, t), print_c(t)
                solved += 1
            except AmbiguousTypeError:
                ambiguous += 1
    assert solved and ambiguous  # both outcomes occur


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
        reduce_at_c(CVar("x"), Redex("k", ()))
    body = App(App(Comb("C"), App(Comb("K"), CVar("v"))), App(Comb("K"), CVar("u")))
    with pytest.raises(StaleRedex):  # simp never applies at the root
        reduce_at_c(body, Redex("simp", ()))
    with pytest.raises(StaleRedex):
        reduce_at_c(CStar(CVar("p"), body), Redex("simp", (0,)))
    with pytest.raises(StaleRedex):
        reduce_at_c(CStar(CVar("p"), body), Redex("simp", (1, 0, 0)))


def test_size_and_vars():
    t = App(App(Comb("K", (a, b)), CVar("x")), CVar("y"))
    assert term_size(t) == 5  # inst does not add size
    assert term_vars(t) == frozenset({"x", "y"})
    assert term_size(IDENT) == 5


def _substitute_by_rebuild(t, x, v):
    """The reference t[x := v]: every compound node copied through rebuild."""
    if type(t) is CVar:
        return v if t.name == x else t
    if type(t) is Comb:
        return t
    return rebuild(t, [_substitute_by_rebuild(c, x, v) for c in children(t)])


def _shares_off_the_paths_to_x(t, s):
    """Every subterm of t with no x below it is the same object in s."""
    if "x" not in term_vars(t):
        return s is t
    return type(t) is CVar or (type(s) is type(t) and all(
        map(_shares_off_the_paths_to_x, children(t), children(s))))


def test_substitute_c_copies_only_the_paths_to_x():
    """On the bracket-reduction corpora: the bodies are the pre-terms and
    star-terms of size <= 6 over x, y, the arguments the pre-terms of size <= 3."""
    from cclab.gen import enumerate_pre_terms, enumerate_star_terms

    names = ("x", "y")
    bodies = enumerate_pre_terms(names, 6) + enumerate_star_terms(names, 6)
    args = enumerate_pre_terms(names, 3)
    untouched = 0
    for t in bodies:
        has_x = "x" in term_vars(t)
        untouched += not has_x
        for v in args:
            s = substitute_c(t, "x", v)
            assert s == _substitute_by_rebuild(t, "x", v)
            assert (s is t) == (not has_x)
            assert _shares_off_the_paths_to_x(t, s)
    assert 0 < untouched < len(bodies)


def test_equal_terms_hash_equal_whatever_their_origin():
    def built():
        return CStar(App(App(Comb("K"), CVar("x")), CVar("y")), App(Comb("S"), CVar("y")))

    src = "K x y * S y"
    parsed = parse_c(src)
    substituted = substitute_c(parse_c("K z y * S y"), "z", CVar("x"))
    reduced = reduce_at_c(parse_c("K (K x y * S y) x"), Redex("k", ()))
    rebuilt = reduce_at_c(parse_c("K x y * S (K y x)"), Redex("k", (1, 1)))
    first = built()
    h = hash(first)
    warm_parts = built()
    hash(warm_parts.left.fun)  # a subterm hashed first caches its own hash
    for t in (built(), warm_parts, parsed, substituted, reduced, rebuilt):
        assert t == first and hash(t) == h
        assert hash(t) == h  # and keeps it
    assert len({first, parsed, substituted, reduced, rebuilt}) == 1

    u, v = CVar("x"), Comb("K")
    assert App(u, v) != CStar(u, v)
    assert App(u, v) != App(v, u) and CStar(u, v) != CStar(v, u)
    assert len({App(u, v), CStar(u, v), App(v, u)}) == 3


def _preorder_paths(t, at=()):
    yield at
    for i, c in enumerate(children(t)):
        yield from _preorder_paths(c, at + (i,))


LOCAL = [r for r in C_RULES if r != "simp"]


def _reference_reduct(rule, node):
    """The reduct of rule at node by structural pattern, or None: the
    reference the spine-head dispatch of ccl is checked against."""
    match rule, node:
        case ("k", App(App(Comb("K", _), u), _)):
            return u
        case ("s", App(App(App(Comb("S", _), u), v), w)):
            return App(App(u, w), App(v, w))
        case ("c_r", CStar(App(App(Comb("C", _), u), v), w)):
            return CStar(App(u, w), App(v, w))
        case ("c_l", CStar(w, App(App(Comb("C", _), u), v))):
            return CStar(App(u, w), App(v, w))
        case ("e_r", App(App(Comb("C", _), App(Comb("K", _), u)), i)) if is_identity(i):
            return u
        case ("e_l", App(App(Comb("C", _), i), App(Comb("K", _), u))) if is_identity(i):
            return u
        case ("pq1", CStar(App(App(Comb("P", _), u), _), App(Comb("Q1", _), w))):
            return CStar(u, w)
        case ("pq2", CStar(App(App(Comb("P", _), _), v), App(Comb("Q2", _), w))):
            return CStar(v, w)
        case ("qp1", CStar(App(Comb("Q1", _), w), App(App(Comb("P", _), u), _))):
            return CStar(w, u)
        case ("qp2", CStar(App(Comb("Q2", _), w), App(App(Comb("P", _), _), v))):
            return CStar(w, v)
    return None


def _simp_pattern(node):
    """node is C (K u) (K v), by structural pattern."""
    match node:
        case App(App(Comb("C", _), App(Comb("K", _), _)), App(Comb("K", _), _)):
            return True
    return False


def _check_local_rules(t):
    """Try every local rule at every path of t, in pre-order and rule order:
    the matches must be the untyped redex list, reduce_at_c must give the
    reference reduct for each and refuse every other pair. Returns the
    matches as (rule, path)."""
    oracle = []
    for p in _preorder_paths(t):
        for rule in LOCAL:
            reduct = _reference_reduct(rule, subterm_at(t, p))
            if reduct is None:
                with pytest.raises(StaleRedex):
                    reduce_at_c(t, Redex(rule, p))
            else:
                assert reduce_at_c(t, Redex(rule, p)) == replace_at(t, p, reduct)
                oracle.append((rule, p))
    assert [(r.rule, r.path) for r in find_redexes_c(None, t)] == oracle, t
    return oracle


def test_find_redexes_c_agrees_with_brute_force_matching():
    """Trying every rule at every path, in order, must give the redex list.

    The structural patterns of _reference_reduct decide which local rules
    match; walking the paths in pre-order and the rules in C_RULES order
    gives the expected list order. The expected simps come from the rule's
    definition: a C (K u) (K v) below the root of a term that solves to
    bottom, each last among the redexes at its path.
    """
    from cclab.gen import enumerate_pre_terms, enumerate_star_terms
    from cclab.translate import bracket_abstract
    from cclab.verify import _c_corpus

    ctx = standard_context(2)
    names = ("x", "y")
    terms = [t for _, t in _c_corpus(9)]  # the size-9 corpus the suites share
    terms += enumerate_pre_terms(names, 5) + enumerate_star_terms(names, 5)
    terms += [App(bracket_abstract("x", u), v)
              for u in enumerate_pre_terms(names, 4) for v in enumerate_pre_terms(names, 2)]
    for u in enumerate_star_terms(names, 4):
        abstracted = bracket_abstract("x", u)
        terms += [CStar(abstracted, u), CStar(u, abstracted), CStar(abstracted, abstracted)]
    cases = [(ctx, t) for t in terms]
    # simp needs a bottom-typed term larger than the enumerated corpus
    witness_ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b, u : a, v : ~a")
    for src in ("C (K y) (K z) * C (K y') (K z')", "C (K y) (K z) * u",
                "u * K (C (K y) (K z)) v", "C (K (C (K y) (K z) * u)) (K z) * u",
                "K (C (K y) (K z)) v", "v (C (K y) (K z))"):  # the last two: not stars
        cases.append((witness_ctx, parse_c(src)))
    simps, unoffered, rules, both_c = 0, 0, Counter(), 0
    for ctx, t in cases:
        position = {p: i for i, p in enumerate(_preorder_paths(t))}
        oracle = _check_local_rules(t)
        rules.update(rule for rule, _ in oracle)
        both_c += ("c_l", ()) in oracle and ("c_r", ()) in oracle
        try:
            bottom = ccl._solve(ctx, t)[0] == BOTTOM
        except TypingError:
            bottom = False
        shaped = [p for p in position if p and _simp_pattern(subterm_at(t, p))]
        expected = [("simp", p) for p in shaped if bottom]
        for rule, p in expected:
            reduce_at_c(t, Redex(rule, p))
        typed = [(r.rule, r.path) for r in find_redexes_c(ctx, t)]
        assert typed == sorted(oracle + expected,
                               key=lambda x: (position[x[1]], C_RULES.index(x[0]))), print_c(t)
        simps += len(expected)
        unoffered += bool(shaped) and not bottom
    assert simps  # the corpus exercises simp
    assert unoffered  # and a simp shape in a term that is not of type bottom
    assert set(rules) == set(LOCAL), rules  # and every local rule
    assert both_c  # and c_r with c_l at one node


def test_only_a_star_root_is_typed_for_simp(monkeypatch):
    """An application root cannot have type bottom, so neither walk tests a
    node for the simp shape or types the term; a star root is typed once."""
    calls = Counter()
    for name in ("_typable_bottom", "_simp_shaped"):
        def counting(*args, _name=name, _f=getattr(ccl, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(ccl, name, counting)
    ctx = parse_context("y : ~a, z : a, v : ~a, u : a")
    for src in ("K (C (K y) (K z)) v", "v (C (K y) (K z))"):
        t = parse_c(src)
        assert "simp" not in [r.rule for r in find_redexes_c(ctx, t)]
        assert first_step_c(ctx, t) == first_step_c(None, t)
    assert calls == Counter()
    t = parse_c("u * K (C (K y) (K z)) v")
    assert Redex("simp", (1, 0, 1)) in find_redexes_c(ctx, t)
    assert calls["_typable_bottom"] == 1


# The arguments each head takes on the left-hand side of its rules.
_ARGS = {Comb("K"): 2, Comb("S"): 3, Comb("C"): 2, Comb("P"): 2,
         Comb("Q1"): 1, Comb("Q2"): 1, IDENT: 1}


def _applied(head, args):
    for arg in args:
        head = App(head, arg)
    return head


def _applied_or_star(sub):
    applied = st.sampled_from(list(_ARGS)).flatmap(
        lambda h: st.lists(sub, min_size=max(1, _ARGS[h] - 1), max_size=_ARGS[h] + 1)
        .map(lambda args: _applied(h, args)))
    side = applied | sub
    return applied | st.builds(CStar, side, side)


# A variable, a combinator, a star, or a combinator applied to one argument
# fewer than its rules take, as many, or one more: redex shapes and near
# misses both occur often, in stars too.
_UNTYPED = st.recursive(st.sampled_from([CVar("x"), CVar("y"), *_ARGS]),
                        _applied_or_star, max_leaves=8)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_UNTYPED)
def test_untyped_redexes_agree_with_matching_past_the_exhaustive_bound(t):
    _check_local_rules(t)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(11, 15))
def test_subject_reduction_past_the_exhaustive_bound(seed, max_size):
    ctx, rng = standard_context(2), Random(seed)
    for _ in range(100):
        ty, t = random_c(ctx, atom_names(2), max_size, rng)
        if term_size(t) > 9:  # the suites cover every typable term up to 9
            break
    assume(term_size(t) > 9)
    assert infer_c(ctx, t) == ty
    for r in find_redexes_c(ctx, t):
        assert infer_c(ctx, reduce_at_c(t, r)) == ty, (print_c(t), r)
