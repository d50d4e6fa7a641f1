import dataclasses
import operator

import pytest

from cclab import ccl
from cclab.ccl import App, CStar
from cclab.gen import atom_names, enumerate_c, enumerate_ls, enumerate_pre_terms
from cclab.gen import enumerate_star_terms, standard_context
from cclab.lambda_sym import LS_RULES, Lam, Pair, Star, Var, alpha_eq, substitute
from cclab.node import Redex, children
from cclab.rewrite import (
    C_ENGINE,
    LS_ENGINE,
    NODE_BUDGET,
    FuelExhausted,
    ReachabilityQuery,
    ReductionGraph,
    SNResult,
    Strategy,
    check_sn,
    engine_for,
    explore,
    normalize,
    omega_redexes,
    pick_redex,
    reaches,
    search,
    stepping,
    to_dot,
    trace,
)
from cclab.syntax import parse_c, parse_context, parse_ls
from cclab.translate import bracket_abstract, pair_app, pi_macro, psi
from cclab.types import Atom, Bottom, Conj, NegAtom
from cclab.verify import _c_corpus, _ls_corpus, _rule_instances, _table_rows

a, na = Atom("a"), NegAtom("a")


def test_normalize_identity_application():
    t = parse_c("I x")
    res = normalize(C_ENGINE, None, t, want_trace=True)
    assert res.term == parse_c("x")
    assert res.steps == 2
    assert [r.rule for r, _ in res.trace] == ["s", "k"]


def test_normalize_normal_form_zero_steps():
    res = normalize(C_ENGINE, None, parse_c("x"))
    assert res.steps == 0
    res2 = normalize(LS_ENGINE, None, parse_ls("<u, v>"))
    assert res2.steps == 0


def test_normalize_projection_pair():
    ctx = parse_context("u : ~a, v : ~b, w : a")
    t = parse_ls("<u, v> * s1(w : a | b)")
    res = normalize(LS_ENGINE, ctx, t)
    assert res.term == parse_ls("u * w")
    assert res.steps == 1


def test_li_and_lo_agree_on_result_here_but_not_trace():
    t = parse_c("K (I x) y")
    lo = normalize(C_ENGINE, None, t, Strategy.LEFTMOST_OUTERMOST, want_trace=True)
    li = normalize(C_ENGINE, None, t, Strategy.LEFTMOST_INNERMOST, want_trace=True)
    assert lo.term == li.term == parse_c("x")
    assert [r.rule for r, _ in lo.trace] != [r.rule for r, _ in li.trace]
    assert li.trace[0][0].rule == "s"  # innermost redex first


@pytest.mark.parametrize("engine, src", [(LS_ENGINE, "(\\x:~a. x * \\y:a. y * z) * \\y':a. y * y'"),
                                         (C_ENGINE, "C (K y) (K z) * C (K y') (K z')")])
def test_normalize_trace_replays_its_redexes(engine, src):
    """Under every strategy, each trace entry is a Redex and the term that
    engine.step makes of it, simp included."""
    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    t = parse_ls(src) if engine is LS_ENGINE else parse_c(src)
    for strategy in Strategy:
        if strategy is Strategy.OMEGA and engine is C_ENGINE:
            continue
        res = normalize(engine, ctx, t, strategy, want_trace=True)
        cur = t
        for r, u in res.trace:
            assert type(r) is Redex and engine.step(cur, r) == u, strategy
            cur = u
        assert len(res.trace) == res.steps > 0 and cur == res.term


def test_normalize_untyped_loop_exhausts_fuel():
    omega2 = Lam("x", a, Star(Var("x"), Var("x")))
    t = Star(omega2, omega2)
    with pytest.raises(FuelExhausted) as ei:
        normalize(LS_ENGINE, None, t, fuel=10)
    assert ei.value.steps == 10


def test_check_sn_finds_the_cycle():
    omega2 = Lam("x", a, Star(Var("x"), Var("x")))
    t = Star(omega2, omega2)
    res = check_sn(LS_ENGINE, None, t)
    assert not res.terminating
    assert res.reason == "reduction cycle found"


def test_check_sn_terminating():
    assert check_sn(C_ENGINE, None, parse_c("x")).max_path == 0
    res = check_sn(C_ENGINE, None, parse_c("I x"))
    assert res.terminating and res.max_path == 2
    cut = check_sn(C_ENGINE, None, parse_c("I x"), node_budget=2)
    assert not cut.terminating and cut.reason == "node budget exceeded"
    # An infinite reduction graph ends on the node budget, not the recursion limit.
    omega = parse_c("S I I (S I I)")
    assert check_sn(C_ENGINE, None, omega, node_budget=1000) == SNResult(
        False, None, 1000, "node budget exceeded")
    assert check_sn(C_ENGINE, None, omega) == SNResult(
        False, None, NODE_BUDGET, "node budget exceeded")


def test_explore_nonconfluence_lambda_side():
    t = parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'")
    g = explore(LS_ENGINE, None, t)
    assert not g.truncated
    assert sorted(g.normal_form_strings()) == ["y * z", "y' * z'"]

    # with a context the triv shortcuts appear but the normal forms stay put
    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    t2 = parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'")
    g2 = explore(LS_ENGINE, ctx, t2)
    assert sorted(g2.normal_form_strings()) == ["y * z", "y' * z'"]
    assert any(e.redex.rule == "triv" for e in g2.edges)


def test_explore_nonconfluence_combinatory_side():
    t = parse_c("C (K y) (K z) * C (K y') (K z')")
    g = explore(C_ENGINE, None, t)
    assert sorted(g.normal_form_strings()) == ["y * z", "y' * z'"]

    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    g2 = explore(C_ENGINE, ctx, t)
    assert sorted(g2.normal_form_strings()) == ["y * z", "y' * z'"]
    assert any(e.redex.rule == "simp" for e in g2.edges)


def test_explore_normal_form_is_single_node():
    g = explore(C_ENGINE, None, parse_c("x"))
    assert len(g.nodes) == 1 and not g.edges
    assert g.normal_forms == [g.root]


def test_explore_graph_soundness():
    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    t = parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'")
    g = explore(LS_ENGINE, ctx, t)
    for e in g.edges:
        src = g.nodes[e.source]
        got = LS_ENGINE.step(src, e.redex)
        assert LS_ENGINE.canon(got) == e.target


def test_explore_budget_truncation():
    g = explore(C_ENGINE, None, parse_c("K x (K y z)"), node_budget=1)
    assert g.truncated and g.reason == "node budget"
    g = explore(C_ENGINE, None, parse_c("S I I (S I I)"))  # each reduct is a new class
    assert g.truncated and g.reason == "node budget" and len(g.nodes) == NODE_BUDGET
    # an untyped loop is a single alpha class: explores fully, no truncation
    omega2 = Lam("x", a, Star(Var("x"), Var("x")))
    g2 = explore(LS_ENGINE, None, Star(omega2, omega2))
    assert not g2.truncated
    assert len(g2.nodes) == 1 and g2.normal_forms == []


def test_reaches_basics():
    src, tgt = parse_c("K x y"), parse_c("x")
    ok, witness = reaches(C_ENGINE, None, ReachabilityQuery(src, tgt, 50, True))
    assert ok and witness == [Redex("k", ())]

    same = parse_c("x")
    ok, witness = reaches(C_ENGINE, None, ReachabilityQuery(same, same, 50, False))
    assert ok and witness == []
    ok, _ = reaches(C_ENGINE, None, ReachabilityQuery(same, same, 50, True))
    assert not ok


def test_reaches_needs_branching_search():
    # LO goes left first; the target is only on the right branch
    t = parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'")
    tgt = parse_ls("y' * z'")
    ok, witness = reaches(LS_ENGINE, None, ReachabilityQuery(t, tgt, 50, True))
    assert ok
    assert witness == [Redex("beta_perp", ())]


def test_reaches_alpha_matching():
    src = parse_ls("\\x:a. (\\y:~a. y * w) * x")
    tgt = parse_ls("\\z:a. z' * w'")  # not reachable: different names free
    ok, _ = reaches(LS_ENGINE, None, ReachabilityQuery(src, tgt, 10, False))
    assert not ok
    tgt2 = parse_ls("\\q:a. q * w")  # beta then alpha-match
    ok2, _ = reaches(LS_ENGINE, None, ReachabilityQuery(src, tgt2, 10, False))
    assert ok2


def test_engine_same_is_alpha_eq_on_the_lambda_side_and_eq_on_combinators():
    assert LS_ENGINE.same is alpha_eq and C_ENGINE.same is operator.eq


def test_a_query_a_trace_answers_builds_no_alpha_key():
    """Only the breadth-first search keys terms by engine.canon: an
    application query (the first trace) and the s rule's simulation (the
    macro-spine trace, after the other two) never call it."""
    keyed = []
    engine = dataclasses.replace(
        LS_ENGINE, canon=lambda t: keyed.append(t) or LS_ENGINE.canon(t))
    lam = parse_ls("\\x:a. x * v")
    lhs = pair_app(lam, Var("u"), a)
    target = Lam(lhs.var, lhs.ann, substitute(lam.body, "x", Pair(Var("u"), Var(lhs.var))))
    rule, ctx, source = next(inst for inst in _rule_instances() if inst[0] == "s")
    rhs = ccl.reduce_at_c(source, next(r for r in ccl.find_redexes_c(ctx, source) if r.rule == rule))
    for c, q in [(None, ReachabilityQuery(lhs, target, 10)),
                 (ctx, ReachabilityQuery(psi(source, ctx), psi(rhs, ctx), 100, True))]:
        assert reaches(engine, c, q, node_budget=0)[0] and keyed == []
    tgt = parse_ls("y' * z'")  # on no trace: the search keys every class it meets
    q = ReachabilityQuery(parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"), tgt, 50, True)
    assert reaches(engine, None, q)[0] and keyed


def test_omega_redexes_exclude_under_lambda():
    ctx = parse_context("v : ~a, u : a")
    t = parse_ls("\\z:~a. z * \\x:a. v * x")
    full = {(r.rule, r.path) for r in LS_ENGINE.find(ctx, t)}
    assert ("beta_perp", (0,)) in full and ("eta", (0, 1)) in full
    om = {(r.rule, r.path) for r in omega_redexes(LS_ENGINE, ctx, t)}
    assert om == {("eta_perp", ())}


def test_pick_redex_omega_on_ccl_rejected():
    with pytest.raises(ValueError):
        pick_redex(C_ENGINE, None, parse_c("x"), Strategy.OMEGA)


def test_engine_for():
    assert engine_for("ls") is LS_ENGINE
    assert engine_for("ccl") is C_ENGINE
    with pytest.raises(ValueError):
        engine_for("nope")


def test_to_dot_stable_and_escaped():
    g = explore(C_ENGINE, None, parse_c("K x y"))
    dot1 = to_dot(g)
    dot2 = to_dot(explore(C_ENGINE, None, parse_c("K x y")))
    assert dot1 == dot2
    assert "digraph" in dot1 and '"k"' in dot1

    g2 = explore(LS_ENGINE, None, parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"))
    dot = to_dot(g2)
    assert "\\\\x:a" in dot  # backslash in lambda labels is escaped
    assert "!0" not in dot  # labels show the written names, not alpha-canonical ones


def test_to_dot_orders_edges_by_canonical_keys_and_labels_by_representatives():
    g = explore(LS_ENGINE, None, parse_ls("<(\\x:a. x * y) * u, p> * s1(q : c | d)"))
    assert LS_ENGINE.show(g.root) != LS_ENGINE.show(g.nodes[g.root])  # \!0 against \x
    assert to_dot(g) == """digraph reduction {
  rankdir=LR;
  n0 [label="((\\\\x:a. x * y) * u) * q"];
  n1 [label="(u * y) * q", peripheries=2];
  n2 [label="(y * u) * q", peripheries=2];
  n3 [label="<(\\\\x:a. x * y) * u, p> * s1(q : c | d)", shape=box];
  n4 [label="<u * y, p> * s1(q : c | d)"];
  n5 [label="<y * u, p> * s1(q : c | d)"];
  n0 -> n1 [label="beta"];
  n0 -> n2 [label="eta_perp"];
  n3 -> n4 [label="beta"];
  n3 -> n5 [label="eta_perp"];
  n3 -> n0 [label="pi1"];
  n4 -> n1 [label="pi1"];
  n5 -> n2 [label="pi1"];
}"""


def _postorder_paths(t, at=()):
    for i, c in enumerate(children(t)):
        yield from _postorder_paths(c, at + (i,))
    yield at


def _bracket_queries(body_size, arg_size, max_steps=50):
    names = ("x", "y")
    vs = enumerate_pre_terms(names, arg_size)
    for u in enumerate_pre_terms(names, body_size):
        lu = bracket_abstract("x", u)
        for v in vs:
            yield ReachabilityQuery(App(lu, v), ccl.substitute_c(u, "x", v), max_steps)
    for u in enumerate_star_terms(names, body_size):
        lu = bracket_abstract("x", u)
        for v in vs:
            rhs = ccl.substitute_c(u, "x", v)
            yield ReachabilityQuery(CStar(lu, v), rhs, max_steps)
            yield ReachabilityQuery(CStar(v, lu), rhs, max_steps)


def _pick_cases():
    """(engine, ctx, term) cases for the strategy oracles, on both calculi."""
    ctx = standard_context(2)
    cases = [(LS_ENGINE, ctx, t) for _, t in enumerate_ls(ctx, 8, atom_names(2))]
    cases += [(C_ENGINE, ctx, t) for _, t in enumerate_c(ctx, 8, atom_names(2))]
    lo = stepping(C_ENGINE, lambda u: pick_redex(C_ENGINE, None, u, Strategy.LEFTMOST_OUTERMOST))
    for q in _bracket_queries(4, 2):  # the terms along a trace have redexes at many depths
        cases += [(C_ENGINE, None, u) for _, u in trace(q.source, lo, 8)]
    cases.append((C_ENGINE, None, parse_c("K (K x y) (K (K x y) z)")))
    overlaps = ("C x y * C z w", "z (C x y * C z w) (K x y)", "K x y (C x y * C z w)")  # c_r, c_l
    cases += [(C_ENGINE, None, parse_c(o)) for o in overlaps]
    return cases


def test_leftmost_innermost_matches_a_post_order_walk():
    """LI contracts the first redex in post-order, highest priority first."""
    picked = 0
    for engine, c, t in _pick_cases():
        found = engine.find(c, t)
        want = None
        for p in _postorder_paths(t):
            here = [r for r in found if r.path == p]
            if here:
                order = LS_RULES if engine is LS_ENGINE else ccl.C_RULES
                want = min(here, key=lambda r: order.index(r.rule))
                break
        assert pick_redex(engine, c, t, Strategy.LEFTMOST_INNERMOST) == want, t
        picked += want is not None
    assert picked > 100


def test_rightmost_outermost_is_the_last_redex_no_other_contains():
    """RO contracts, among the redexes with no redex at a proper prefix of
    their path, the one last in pre-order, highest priority first."""
    picked = 0
    for engine, c, t in _pick_cases():
        found = engine.find(c, t)
        outer = [r.path for r in found
                 if not any(len(o.path) < len(r.path) and r.path[:len(o.path)] == o.path for o in found)]
        want = None
        if outer:  # tuples compare in pre-order: a path before its extensions
            order = LS_RULES if engine is LS_ENGINE else ccl.C_RULES
            want = min((r for r in found if r.path == max(outer)), key=lambda r: order.index(r.rule))
        assert pick_redex(engine, c, t, Strategy.RIGHTMOST_OUTERMOST) == want, t
        picked += want is not None
    assert picked > 100


def _replay(engine, t, witness):
    """The end of witness's redexes from t, each an engine step."""
    for r in witness:
        t = engine.step(t, r)
    return t


def _steps(engine, ctx, t, strategy, fuel):
    """The redexes and the terms along strategy's trace from t."""
    step = stepping(engine, lambda u: pick_redex(engine, ctx, u, strategy))
    return list(trace(t, step, fuel))


def test_first_step_is_the_first_redex_and_its_reduct():
    """Engine.first is (r, step(t, r)) for the first redex r the finder
    lists, and None at a normal form; the combinator side finds and
    contracts in one walk, simp included."""
    ctx = standard_context(2)
    cases = [(LS_ENGINE, ctx, t) for _, t in _ls_corpus(7)]
    cases += [(C_ENGINE, c, t) for _, t in _c_corpus(8) for c in (ctx, None)]
    for q in _bracket_queries(4, 2):
        lo = _steps(C_ENGINE, None, q.source, Strategy.LEFTMOST_OUTERMOST, q.max_steps)
        cases += [(C_ENGINE, None, u) for u in [q.source] + [u for _, u in lo]]
    cases += [(C_ENGINE, c, lhs) for _, c, lhs in _rule_instances()]  # each rule at the root
    simp_ctx = parse_context("x : a | a, y : ~b, z : b, u : ~a")
    cases.append((C_ENGINE, simp_ctx, parse_c("x (C (K y) (K z)) * u")))
    rules, normal = set(), 0
    for engine, c, t in cases:
        r = next(iter(engine.find(c, t)), None)
        assert engine.first(c, t) == (None if r is None else (r, engine.step(t, r))), t
        if r is None:
            normal += 1
        elif engine is C_ENGINE:
            rules.add(r.rule)
    assert normal > 100
    assert rules == set(ccl.C_RULES), rules
    assert C_ENGINE.first(simp_ctx, cases[-1][2]) == (Redex("simp", (0, 1)), parse_c("y * z"))


def test_lambda_first_step_stops_at_its_redex(monkeypatch):
    """The lambda leftmost-outermost step walks no further than its redex:
    it never meets the triv-shaped node to the right of it, so it never
    types the term, while the full list offers triv there and types it."""
    from cclab import lambda_sym

    infer, typed = lambda_sym.infer, []
    monkeypatch.setattr(lambda_sym, "infer", lambda c, u: typed.append(u) or infer(c, u))
    ctx = parse_context("u : a, v : ~a")
    t = parse_ls(r"(\x:~a. x * u) * \y:a. u * v")
    assert LS_ENGINE.first(ctx, t)[0] == Redex("beta", ())
    assert typed == []
    assert Redex("triv", (1,)) in lambda_sym.find_redexes(ctx, t)
    assert typed


def test_first_step_contracts_by_the_rule_table(monkeypatch):
    """The one-walk step reads ccl._CONTRACT when it is called, so a broken
    contraction shows on the leftmost-outermost trace."""
    monkeypatch.setitem(ccl._CONTRACT, "k", lambda n: n.arg)  # K u v -> v
    assert C_ENGINE.first(None, parse_c("K x y")) == (Redex("k", ()), parse_c("y"))
    assert C_ENGINE.first(None, parse_c("z (K x y)")) == (Redex("k", (1,)), parse_c("z y"))


def test_reaches_witnesses_replay_to_the_target():
    """Every witness, from a trace or the search, is a real reduction onto
    the target; so are rule-simulation's, within its 4,000 classes."""
    small = [(ty, t) for ty, t in enumerate_ls(standard_context(2), 3, atom_names(2))
             if not isinstance(ty, Bottom)]
    cases = [(C_ENGINE, None, q, 200_000) for q in _bracket_queries(4, 2)]
    for tu, u in small:
        for tv, v in small:
            pr, conj = Pair(u, v), Conj(tu, tv)
            cases.append((LS_ENGINE, None, ReachabilityQuery(pi_macro(1, pr, conj), u, 20), 200_000))
            cases.append((LS_ENGINE, None, ReachabilityQuery(pi_macro(2, pr, conj), v, 20), 200_000))
    cases.append((LS_ENGINE, None, ReachabilityQuery(
        parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"), parse_ls("y' * z'"), 50, True), 200_000))
    for rule, ctx, lhs in _rule_instances():
        rhs = ccl.reduce_at_c(lhs, next(r for r in ccl.find_redexes_c(ctx, lhs) if r.rule == rule))
        cases.append((LS_ENGINE, ctx, ReachabilityQuery(psi(lhs, ctx), psi(rhs, ctx), 100, True), 4000))
    for _, ctx, lhs, target in _table_rows():
        cases.append((LS_ENGINE, ctx, ReachabilityQuery(lhs, target, 100, True), 4000))
    assert len(cases) == 1600 + 2 * len(small) ** 2 + 1 + 23
    searched = 0
    for engine, ctx, q, budget in cases:
        ok, witness = reaches(engine, ctx, q, node_budget=budget)
        assert ok, engine.show(q.source)
        assert all(type(r) is Redex for r in witness), witness
        assert engine.canon(_replay(engine, q.source, witness)) == engine.canon(q.target)
        lo = _steps(engine, ctx, q.source, Strategy.LEFTMOST_OUTERMOST, q.max_steps)
        searched += witness != [r for r, _ in lo][:len(witness)]
    assert searched  # some witnesses come from a later trace or the search, not the first


def test_reaches_falls_back_to_the_leftmost_innermost_trace():
    """(l_x x x) (K x) reaches K x (K x) along the leftmost-innermost trace,
    which reduces the argument I (K x) first; leftmost-outermost fires the
    outer K x (I (K x)) and ends at x."""
    u, v = parse_c("x x"), parse_c("K x")
    q = ReachabilityQuery(App(bracket_abstract("x", u), v), ccl.substitute_c(u, "x", v), 50)
    assert q.source == parse_c("S I I (K x)")
    lo = _steps(C_ENGINE, None, q.source, Strategy.LEFTMOST_OUTERMOST, q.max_steps)
    assert q.target not in [t for _, t in lo]
    li = _steps(C_ENGINE, None, q.source, Strategy.LEFTMOST_INNERMOST, q.max_steps)
    ok, witness = reaches(C_ENGINE, None, q, node_budget=1)  # too small for a search
    assert ok and witness == [r for r, _ in li][:len(witness)]
    assert _replay(C_ENGINE, q.source, witness) == q.target


def test_reaches_falls_back_to_the_rightmost_outermost_trace():
    """(l_x x x x) (K x) reaches K x (K x) (K x) along the rightmost-outermost
    trace, which contracts the rightmost I (K x) first, so that each copy is
    K x before the head K fires; the leftmost traces fire the head K x
    (I (K x)) early and end at x (K x)."""
    u, v = parse_c("x x x"), parse_c("K x")
    q = ReachabilityQuery(App(bracket_abstract("x", u), v), ccl.substitute_c(u, "x", v), 50)
    assert q.source == parse_c("S (S I I) I (K x)") and q.target == parse_c("K x (K x) (K x)")
    for strategy in (Strategy.LEFTMOST_OUTERMOST, Strategy.LEFTMOST_INNERMOST):
        assert q.target not in [t for _, t in _steps(C_ENGINE, None, q.source, strategy, q.max_steps)]
    ro = _steps(C_ENGINE, None, q.source, Strategy.RIGHTMOST_OUTERMOST, q.max_steps)
    ok, witness = reaches(C_ENGINE, None, q, node_budget=1)  # too small for a search
    assert ok and witness == [r for r, _ in ro][:8]
    assert _replay(C_ENGINE, q.source, witness) == q.target


def test_search_expands_breadth_first():
    t = App(bracket_abstract("x", parse_c("x x")), parse_c("I y"))
    graph = ReductionGraph.rooted_at(C_ENGINE, t)
    depth, last = {graph.root: 0}, 0
    for e in search(graph, None, 1000):
        assert depth[e.source] >= last
        last = depth[e.source]
        depth.setdefault(e.target, last + 1)
    assert last > 3 and graph.normal_forms and not graph.truncated


def test_search_budgets_mark_the_graph_truncated():
    t = App(bracket_abstract("x", parse_c("x x")), parse_c("I y"))
    graph = ReductionGraph.rooted_at(C_ENGINE, t)
    edges = list(search(graph, None, 10))
    assert graph.truncated and graph.reason == "node budget" and len(graph.nodes) == 10
    assert any(e.target not in graph.nodes for e in edges)
    graph = ReductionGraph.rooted_at(C_ENGINE, t)
    edges = list(search(graph, None, 1000, depth_budget=1))
    assert graph.truncated and graph.reason == "depth budget"
    assert {e.source for e in edges} == {graph.root}


def _longest_path(graph):
    """The longest path from graph.root through an acyclic reduction graph."""
    succ = {}
    for e in graph.edges:
        succ.setdefault(e.source, []).append(e.target)
    memo = {}

    def go(key):
        if key not in memo:
            memo[key] = max((1 + go(k) for k in succ.get(key, ())), default=0)
        return memo[key]

    return go(graph.root)


def test_check_sn_agrees_with_the_explored_graph():
    """check_sn's longest path and class count are those of explore's graph,
    on random terms and on every reducible root of the size-9 corpora."""
    from random import Random

    from cclab.gen import random_c, random_ls

    ctx, names = standard_context(2), atom_names(2)

    def agrees(engine, t):
        res = check_sn(engine, ctx, t)
        graph = explore(engine, ctx, t)
        assert res.terminating and not graph.truncated
        assert (res.max_path, res.classes_seen) == (_longest_path(graph), len(graph.nodes))
        return bool(graph.edges)

    rng = Random(2026)
    reducible = 0
    for i in range(100):
        engine, draw = (LS_ENGINE, random_ls) if i % 2 else (C_ENGINE, random_c)
        reducible += agrees(engine, draw(ctx, names, rng.randint(11, 15), rng)[1])
    assert 20 <= reducible <= 80  # both normal-form and reducible roots
    corpus = [(LS_ENGINE, t) for _, t in _ls_corpus(9)]  # shared with the suites
    corpus += [(C_ENGINE, t) for _, t in _c_corpus(9)]
    corpus = [(engine, t) for engine, t in corpus if engine.find(ctx, t)]
    assert len(corpus) == 2856
    assert all(agrees(engine, t) for engine, t in corpus)
    engine, t = corpus[0]
    assert check_sn(engine, ctx, t, node_budget=0) == SNResult(False, None, 0, "node budget exceeded")


@pytest.mark.parametrize("engine, src", [(LS_ENGINE, "\\x:a. u * v"), (C_ENGINE, "K u")])
def test_check_sn_settles_a_normal_form_root(engine, src):
    ctx = standard_context(2)
    t = parse_ls(src) if engine is LS_ENGINE else parse_c(src)
    assert not engine.find(ctx, t)
    assert check_sn(engine, ctx, t) == SNResult(True, 0, 1)
    assert check_sn(engine, ctx, t, node_budget=0) == SNResult(False, None, 0, "node budget exceeded")
