import pytest

from cclab import ccl, lambda_sym
from cclab.ccl import App, CRedex, CStar
from cclab.gen import atom_names, enumerate_c, enumerate_ls, enumerate_pre_terms
from cclab.gen import enumerate_star_terms, standard_context
from cclab.lambda_sym import Lam, LsRedex, Pair, Star, Var
from cclab.rewrite import (
    C_ENGINE,
    LS_ENGINE,
    FuelExhausted,
    ReachabilityQuery,
    ReductionGraph,
    Strategy,
    check_sn,
    engine_for,
    explore,
    normalize,
    omega_redexes,
    pick_redex,
    reaches,
    search,
    to_dot,
    trace,
)
from cclab.syntax import parse_c, parse_context, parse_ls
from cclab.translate import bracket_abstract, pi_macro
from cclab.types import Atom, Bottom, Conj, NegAtom

a, na = Atom("a"), NegAtom("a")


def test_normalize_identity_application():
    t = parse_c("I x")
    res = normalize(C_ENGINE, None, t, want_trace=True)
    assert res.term == parse_c("x")
    assert res.steps == 2
    assert [r for r, _, _ in res.trace] == ["s", "k"]


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
    assert [r for r, _, _ in lo.trace] != [r for r, _, _ in li.trace]
    assert [r for r, _, _ in li.trace][0] == "s"  # innermost redex first


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
    assert any(e.rule == "triv" for e in g2.edges)


def test_explore_nonconfluence_combinatory_side():
    t = parse_c("C (K y) (K z) * C (K y') (K z')")
    g = explore(C_ENGINE, None, t)
    assert sorted(g.normal_form_strings()) == ["y * z", "y' * z'"]

    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    g2 = explore(C_ENGINE, ctx, t)
    assert sorted(g2.normal_form_strings()) == ["y * z", "y' * z'"]
    assert any(e.rule == "simp" for e in g2.edges)


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
        got = LS_ENGINE.step(src, LsRedex(e.rule, e.path))
        assert LS_ENGINE.canon(got) == e.target


def test_explore_budget_truncation():
    g = explore(C_ENGINE, None, parse_c("K x (K y z)"), node_budget=1)
    assert g.truncated and g.reason == "node budget"
    # an untyped loop is a single alpha class: explores fully, no truncation
    omega2 = Lam("x", a, Star(Var("x"), Var("x")))
    g2 = explore(LS_ENGINE, None, Star(omega2, omega2))
    assert not g2.truncated
    assert len(g2.nodes) == 1 and g2.normal_forms == []


def test_reaches_basics():
    src, tgt = parse_c("K x y"), parse_c("x")
    ok, witness = reaches(C_ENGINE, None, ReachabilityQuery(src, tgt, 50, True))
    assert ok and [r for r, _ in witness] == ["k"]

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
    assert [r for r, _ in witness] == ["beta_perp"]


def test_reaches_alpha_matching():
    src = parse_ls("\\x:a. (\\y:~a. y * w) * x")
    tgt = parse_ls("\\z:a. z' * w'")  # not reachable: different names free
    ok, _ = reaches(LS_ENGINE, None, ReachabilityQuery(src, tgt, 10, False))
    assert not ok
    tgt2 = parse_ls("\\q:a. q * w")  # beta then alpha-match
    ok2, _ = reaches(LS_ENGINE, None, ReachabilityQuery(src, tgt2, 10, False))
    assert ok2


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


def _postorder_paths(children, t, at=()):
    for i, c in enumerate(children(t)):
        yield from _postorder_paths(children, c, at + (i,))
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


def test_leftmost_innermost_matches_a_post_order_walk():
    """LI contracts the first redex in post-order, highest priority first."""
    ctx = standard_context(2)
    cases = [(LS_ENGINE, lambda_sym.children, ctx, t)
             for _, t in enumerate_ls(ctx, 8, atom_names(2))]
    cases += [(C_ENGINE, ccl.children, ctx, t)
              for _, t in enumerate_c(ctx, 8, atom_names(2))]
    lo = lambda u: pick_redex(C_ENGINE, None, u, Strategy.LEFTMOST_OUTERMOST)
    for q in _bracket_queries(4, 2):  # the terms along a trace have redexes at many depths
        cases += [(C_ENGINE, ccl.children, None, u) for _, u in trace(C_ENGINE, q.source, lo, 8)]
    cases.append((C_ENGINE, ccl.children, None, parse_c("K (K x y) (K (K x y) z)")))
    picked = 0
    for engine, children, c, t in cases:
        found = engine.find(c, t)
        want = None
        for p in _postorder_paths(children, t):
            here = [r for r in found if r.path == p]
            if here:
                want = min(here, key=lambda r: engine.rules.index(r.rule))
                break
        assert pick_redex(engine, c, t, Strategy.LEFTMOST_INNERMOST) == want, t
        picked += want is not None
    assert picked > 100


def test_reaches_witnesses_replay_to_the_target():
    """Every witness, trace or search, is a real reduction onto the target."""
    small = [(ty, t) for ty, t in enumerate_ls(standard_context(2), 3, atom_names(2))
             if not isinstance(ty, Bottom)]
    cases = [(C_ENGINE, CRedex, q) for q in _bracket_queries(4, 2)]
    for tu, u in small:
        for tv, v in small:
            pr, conj = Pair(u, v), Conj(tu, tv)
            cases.append((LS_ENGINE, LsRedex, ReachabilityQuery(pi_macro(1, pr, conj), u, 20)))
            cases.append((LS_ENGINE, LsRedex, ReachabilityQuery(pi_macro(2, pr, conj), v, 20)))
    cases.append((LS_ENGINE, LsRedex, ReachabilityQuery(
        parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"), parse_ls("y' * z'"), 50, True)))
    searched = 0
    for engine, redex, q in cases:
        ok, witness = reaches(engine, None, q)
        assert ok, engine.show(q.source)
        cur = q.source
        for rule, path in witness:
            cur = engine.step(cur, redex(rule, path))
        assert engine.canon(cur) == engine.canon(q.target)
        lo = lambda u: pick_redex(engine, None, u, Strategy.LEFTMOST_OUTERMOST)
        lo_steps = [(r.rule, r.path) for r, _ in trace(engine, q.source, lo, q.max_steps)]
        searched += witness != lo_steps[:len(witness)]
    assert searched  # some witnesses come from the search, not the trace


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
