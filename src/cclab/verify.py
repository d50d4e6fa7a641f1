"""Verification suites: machine checks of the calculi's metatheory.

Every suite re-checks one fact (type preservation, a simulation, a
syntactic dichotomy, ...) over an exhaustively enumerated corpus, so a
pass means "no counterexample below the size bound", not a proof. Each
returns a SuiteResult with the instance count, failures (empty = pass),
wall time, and free-form notes.

Every reduction sequence a suite follows comes from ``rewrite.trace`` or
``rewrite.search``. Every reachability question, rule-simulation's
included, is one ``rewrite.reaches`` call, which tries its strategies in
one fixed order.

Suites are registered under a descriptive name plus short historical
aliases accepted by the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .ccl import (
    App,
    Comb,
    CStar,
    CTerm,
    CVar,
    TermClass,
    classify,
    find_redexes_c,
    infer_c,
    reduce_at_c,
    substitute_c,
    term_vars,
)
from .gen import (
    atom_names,
    atom_pool,
    enumerate_c,
    enumerate_ls,
    enumerate_pre_terms,
    enumerate_star_terms,
    standard_context,
    types_to_depth,
)
from .lambda_sym import (
    Lam,
    LsTerm,
    Pair,
    Star,
    Var,
    alpha_eq,
    infer,
    reduce_at,
    substitute,
)
from .rewrite import (
    C_ENGINE,
    LS_ENGINE,
    ReachabilityQuery,
    check_sn,
    explore,
    omega_redexes,
    reaches,
)
from .syntax import (
    parse_c,
    parse_context,
    parse_ls,
    parse_type,
    print_c,
    print_ls,
    print_type,
)
from .translate import (
    bracket_abstract,
    bracket_typed,
    i_term_at,
    pair_app,
    phi,
    pi_macro,
    psi,
)
from .types import Atom, Bottom, Conj, Disj, MType, NegAtom, Ty, negate

MAX_RECORDED_FAILURES = 20


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0  # wall time, corpus_seconds included
    corpus_seconds: float = 0.0  # building the shared corpora it was first to ask for
    notes: list[str] = field(default_factory=list)
    omitted_failures: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures and not self.omitted_failures

    def check(self, ok: bool, describe: Callable[[], str]) -> None:
        self.instances += 1
        if not ok:
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(describe())
            else:
                self.omitted_failures += 1

    def as_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "instances": self.instances,
            "failures": self.failures,
            "omitted_failures": self.omitted_failures,
            "seconds": round(self.seconds, 3),
            "corpus_seconds": round(self.corpus_seconds, 3),
            "notes": self.notes,
        }


_corpus_seconds = 0.0  # spent building the shared corpora so far; see run_suite


def _build_corpus(enumerate_, max_size: int) -> tuple:
    global _corpus_seconds
    t0 = time.perf_counter()
    corpus = tuple(enumerate_(standard_context(2), max_size, atom_names(2)))
    _corpus_seconds += time.perf_counter() - t0
    return corpus


@lru_cache(maxsize=None)
def _ls_corpus(max_size: int) -> tuple[tuple[Ty, LsTerm], ...]:
    return _build_corpus(enumerate_ls, max_size)


@lru_cache(maxsize=None)
def _c_corpus(max_size: int) -> tuple[tuple[Ty, CTerm], ...]:
    return _build_corpus(enumerate_c, max_size)


def suite_involution() -> SuiteResult:
    """negate is an involution and injective on deep finite type families."""
    r = SuiteResult("involution")
    positive = types_to_depth(("a", "b"), 4, signed=False)
    for t in positive:
        r.check(negate(negate(t)) == t, lambda: f"negate^2 != id at {print_type(t)}")
    signed = types_to_depth(("a", "b"), 3, signed=True)
    for t in signed:
        r.check(negate(negate(t)) == t, lambda: f"negate^2 != id at {print_type(t)}")
    images = {negate(t) for t in signed}
    r.check(len(images) == len(signed), lambda: "negate not injective on signed depth-3 family")
    r.notes.append(f"{len(positive)} depth-4 positive types, {len(signed)} signed depth-3 types")
    return r


def _suite_subject_reduction(name: str, engine, corpus) -> SuiteResult:
    r = SuiteResult(name)
    ctx = standard_context(2)
    n_terms = 0
    for ty, t in corpus:
        n_terms += 1
        for redex in engine.find(ctx, t):
            got = engine.typeof(ctx, engine.step(t, redex))
            r.check(
                got == ty,
                lambda t=t, redex=redex, ty=ty, got=got: (
                    f"{engine.show(t)}: {redex.rule} at {redex.path} changed "
                    f"{print_type(ty)} to {print_type(got)}"
                ),
            )
    r.notes.append(f"{n_terms} typable terms, {r.instances} redex contractions")
    return r


def suite_subject_reduction_ls(max_size: int = 9) -> SuiteResult:
    return _suite_subject_reduction("subject-reduction-ls", LS_ENGINE, _ls_corpus(max_size))


def suite_subject_reduction_cc(max_size: int = 9) -> SuiteResult:
    return _suite_subject_reduction("subject-reduction-cc", C_ENGINE, _c_corpus(max_size))


def suite_dichotomy(max_size: int = 9) -> SuiteResult:
    """Typable c-terms split into pre-terms (m-typed) and star-terms (bottom)."""
    r = SuiteResult("dichotomy")
    for ty, t in _c_corpus(max_size):
        want = TermClass.STAR_TERM if isinstance(ty, Bottom) else TermClass.PRE_TERM
        got = classify(t)
        r.check(
            got is want,
            lambda t=t, want=want, got=got: f"{print_c(t)} classified {got.name}, expected {want.name}",
        )
    return r


def _suite_sn(name: str, engine, corpus) -> SuiteResult:
    r = SuiteResult(name)
    ctx = standard_context(2)
    worst = 0
    for _, t in corpus:
        res = check_sn(engine, ctx, t, node_budget=100_000)
        if res.max_path is not None:
            worst = max(worst, res.max_path)
        r.check(
            res.terminating,
            lambda t=t, res=res: f"{engine.show(t)}: {res.reason or 'cycle found'}",
        )
    r.notes.append(f"longest reduction path: {worst}")
    return r


def suite_sn_ls(max_size: int = 9) -> SuiteResult:
    return _suite_sn("sn-ls", LS_ENGINE, _ls_corpus(max_size))


def suite_sn_cc(max_size: int = 9) -> SuiteResult:
    return _suite_sn("sn-cc", C_ENGINE, _c_corpus(max_size))


def suite_bracket_typing(max_size: int = 5) -> SuiteResult:
    """Abstracting x:A out of T:B yields type ~A | B; out of T:bottom, ~A."""
    r = SuiteResult("bracket-typing")
    ctx = standard_context(2)
    atoms = atom_names(2)
    for a in atom_pool(atoms):
        ectx = {**ctx, "x": a}
        for ty, t in enumerate_c(ectx, max_size, atoms):
            image = bracket_typed("x", a, t, ectx)
            want = negate(a) if isinstance(ty, Bottom) else Disj(negate(a), ty)
            got = infer_c(ctx, image)
            r.check(
                got == want and "x" not in term_vars(image),
                lambda t=t, a=a, want=want, got=got: (
                    f"l_x {print_c(t)} with x:{print_type(a)}: got {print_type(got)}, "
                    f"want {print_type(want)}"
                ),
            )
    return r


def suite_bracket_reduction(u_size: int = 6, v_size: int = 3, max_steps: int = 50) -> SuiteResult:
    """Bracket abstraction computes substitution, untyped.

    Pre-terms are applied: (l_x U) V. Star-terms instead meet their
    argument across a star, on either side.
    """
    r = SuiteResult("bracket-reduction")
    names = ("x", "y")
    pres = enumerate_pre_terms(names, u_size)
    stars = enumerate_star_terms(names, u_size)
    vs = enumerate_pre_terms(names, v_size)
    for u in pres:
        lu = bracket_abstract("x", u)
        for v in vs:
            rhs = substitute_c(u, "x", v)
            ok, _ = reaches(C_ENGINE, None, ReachabilityQuery(App(lu, v), rhs, max_steps, False))
            r.check(
                ok,
                lambda u=u, v=v: f"(l_x {print_c(u)}) {print_c(v)} missed its substitution",
            )
    for u in stars:
        lu = bracket_abstract("x", u)
        for v in vs:
            rhs = substitute_c(u, "x", v)
            ok1, _ = reaches(C_ENGINE, None, ReachabilityQuery(CStar(lu, v), rhs, max_steps, False))
            ok2, _ = reaches(C_ENGINE, None, ReachabilityQuery(CStar(v, lu), rhs, max_steps, False))
            r.check(
                ok1 and ok2,
                lambda u=u, v=v: (
                    f"l_x {print_c(u)} starred with {print_c(v)} missed its substitution"
                ),
            )
    r.notes.append(
        f"{len(pres)} pre-term and {len(stars)} star-term bodies x {len(vs)} arguments"
    )
    return r


def suite_phi_typing(max_size: int = 8) -> SuiteResult:
    r = SuiteResult("phi-typing")
    ctx = standard_context(2)
    for ty, t in _ls_corpus(max_size):
        got = infer_c(ctx, phi(t, ctx))
        r.check(
            got == ty,
            lambda t=t, ty=ty, got=got: (
                f"phi({print_ls(t)}) : {print_type(got)}, source {print_type(ty)}"
            ),
        )
    return r


def suite_psi_typing(max_size: int = 8) -> SuiteResult:
    r = SuiteResult("psi-typing")
    ctx = standard_context(2)
    for ty, t in _c_corpus(max_size):
        got = infer(ctx, psi(t, ctx))
        r.check(
            got == ty,
            lambda t=t, ty=ty, got=got: (
                f"psi({print_c(t)}) : {print_type(got)}, source {print_type(ty)}"
            ),
        )
    return r


def suite_phi_substitution(u_size: int = 6, v_size: int = 5) -> SuiteResult:
    """phi commutes with substitution, instantiations included, on the nose."""
    r = SuiteResult("phi-substitution")
    ctx = standard_context(2)
    atoms = atom_names(2)
    for b in atom_pool(atoms):
        ectx = {**ctx, "y": b}
        vs = [t for ty, t in _ls_corpus(v_size) if ty == b]
        for _, u in enumerate_ls(ectx, u_size, atoms):
            for v in vs:
                lhs = phi(substitute(u, "y", v), ctx)
                rhs = substitute_c(phi(u, ectx), "y", phi(v, ctx))
                r.check(
                    lhs == rhs,
                    lambda u=u, v=v: (
                        f"phi({print_ls(u)})[y:={print_ls(v)}] differs from "
                        "the substituted translation"
                    ),
                )
    return r


def suite_psi_substitution(u_size: int = 5, v_size: int = 5) -> SuiteResult:
    """psi commutes with substitution up to alpha."""
    r = SuiteResult("psi-substitution")
    ctx = standard_context(2)
    atoms = atom_names(2)
    for a in atom_pool(atoms):
        ectx = {**ctx, "x": a}
        vs = [t for ty, t in _c_corpus(v_size) if ty == a]
        for _, u in enumerate_c(ectx, u_size, atoms):
            for v in vs:
                lhs = psi(substitute_c(u, "x", v), ctx)
                rhs = substitute(psi(u, ectx), "x", psi(v, ctx))
                r.check(
                    alpha_eq(lhs, rhs),
                    lambda u=u, v=v: (
                        f"psi({print_c(u)})[x:={print_c(v)}] differs from "
                        "the substituted translation"
                    ),
                )
    return r


def suite_omega_simulation(max_size: int = 8, max_steps: int = 50) -> SuiteResult:
    """Reductions outside every lambda are simulated through phi."""
    r = SuiteResult("omega-simulation")
    ctx = standard_context(2)
    n_terms = 0
    for _, t in _ls_corpus(max_size):
        n_terms += 1
        for redex in omega_redexes(LS_ENGINE, ctx, t):
            reduct = reduce_at(t, redex)
            ok, _ = reaches(
                C_ENGINE, ctx,
                ReachabilityQuery(phi(t, ctx), phi(reduct, ctx), max_steps, True),
            )
            r.check(
                ok,
                lambda t=t, redex=redex: (
                    f"{print_ls(t)}: {redex.rule} at {redex.path} not simulated"
                ),
            )
    r.notes.append(f"{n_terms} typable terms scanned for unguarded redexes")
    return r


def suite_projection(max_size: int = 7, pair_size: int = 4) -> SuiteResult:
    """The projection macro both computes and types componentwise."""
    r = SuiteResult("projection")
    ctx = standard_context(2)
    small = [(ty, t) for ty, t in _ls_corpus(pair_size) if not isinstance(ty, Bottom)]
    for tu, u in small:
        for tv, v in small:
            conj = Conj(tu, tv)
            pr = Pair(u, v)
            ok1, _ = reaches(
                LS_ENGINE, None, ReachabilityQuery(pi_macro(1, pr, conj), u, 20, False)
            )
            ok2, _ = reaches(
                LS_ENGINE, None, ReachabilityQuery(pi_macro(2, pr, conj), v, 20, False)
            )
            r.check(ok1 and ok2, lambda u=u, v=v: f"projections of <{print_ls(u)}, {print_ls(v)}> stuck")
    for ty, t in _ls_corpus(max_size):
        if not isinstance(ty, Conj):
            continue
        got1 = infer(ctx, pi_macro(1, t, ty))
        got2 = infer(ctx, pi_macro(2, t, ty))
        r.check(
            got1 == ty.left and got2 == ty.right,
            lambda t=t, ty=ty: f"projection types of {print_ls(t)} : {print_type(ty)} wrong",
        )
    return r


def suite_application(max_size: int = 7, v_size: int = 3) -> SuiteResult:
    """The application macro beta-computes and types like an application."""
    r = SuiteResult("application")
    ctx = standard_context(2)
    lams = [t for _, t in _ls_corpus(max_size) if isinstance(t, Lam)]
    args = [t for ty, t in _ls_corpus(v_size) if not isinstance(ty, Bottom)]
    b_result = Atom("a")  # the computation is annotation-insensitive
    for lam in lams:
        for v in args:
            lhs = pair_app(lam, v, b_result)
            assert isinstance(lhs, Lam)
            z = lhs.var
            target = Lam(z, lhs.ann, substitute(lam.body, lam.var, Pair(v, Var(z))))
            ok, _ = reaches(LS_ENGINE, None, ReachabilityQuery(lhs, target, 10, False))
            r.check(
                ok,
                lambda lam=lam, v=v: (
                    f"[{print_ls(lam)}, {print_ls(v)}] missed its beta contraction"
                ),
            )
    fns = [(ty, t) for ty, t in _ls_corpus(max_size) if isinstance(ty, Disj)]
    args_by_type: dict[Ty, list[LsTerm]] = {}
    for ty, t in _ls_corpus(v_size):
        if not isinstance(ty, Bottom):
            args_by_type.setdefault(ty, []).append(t)
    for ty, u in fns:
        for v in args_by_type.get(negate(ty.left), ()):
            got = infer(ctx, pair_app(u, v, ty.right))
            r.check(
                got == ty.right,
                lambda u=u, v=v, got=got, ty=ty: (
                    f"[{print_ls(u)}, {print_ls(v)}] : {print_type(got)}, "
                    f"want {print_type(ty.right)}"
                ),
            )
    return r


def _k(i1: MType, i2: MType) -> Comb:
    return Comb("K", (i1, i2))


def _rule_instances() -> list[tuple[str, dict, CTerm]]:
    """One typed instance of each reduction rule, schemes at atoms."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    na, nb = NegAtom("a"), NegAtom("b")
    u, v, p, q, f, g, x = (CVar(n) for n in "uvpqfgx")
    return [
        ("k", {"u": a, "q": nb}, App(App(_k(a, b), u), q)),
        (
            "s",
            {"f": Disj(na, Disj(nb, c)), "g": Disj(na, b), "x": a},
            App(App(App(Comb("S", (a, b, c)), f), g), x),
        ),
        (
            "c_r",
            {"f": Disj(na, nb), "g": Disj(na, b), "x": a},
            CStar(App(App(Comb("C", (a, b)), f), g), x),
        ),
        (
            "c_l",
            {"f": Disj(na, nb), "g": Disj(na, b), "x": a},
            CStar(x, App(App(Comb("C", (a, b)), f), g)),
        ),
        ("e_r", {"v": na}, App(App(Comb("C", (a, a)), App(_k(na, na), v)), i_term_at(a))),
        ("e_l", {"u": a}, App(App(Comb("C", (na, a)), i_term_at(na)), App(_k(a, a), u))),
        (
            "pq1",
            {"u": a, "p": b, "v": na},
            CStar(App(App(Comb("P", (a, b)), u), p), App(Comb("Q1", (na, nb)), v)),
        ),
        (
            "pq2",
            {"u": a, "p": b, "q": nb},
            CStar(App(App(Comb("P", (a, b)), u), p), App(Comb("Q2", (na, nb)), q)),
        ),
        (
            "qp1",
            {"u": a, "p": b, "v": na},
            CStar(App(Comb("Q1", (na, nb)), v), App(App(Comb("P", (a, b)), u), p)),
        ),
        (
            "qp2",
            {"u": a, "p": b, "q": nb},
            CStar(App(Comb("Q2", (na, nb)), q), App(App(Comb("P", (a, b)), u), p)),
        ),
        (
            "simp",
            {"q": nb, "p": b, "u": a},
            CStar(App(App(Comb("C", (a, b)), App(_k(nb, na), q)), App(_k(b, na), p)), u),
        ),
    ]


def _table_rows() -> list[tuple[str, dict, LsTerm, LsTerm]]:
    """The worked table's twelve (label, context, source, target) rows."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    na, nb = NegAtom("a"), NegAtom("b")
    rows: list[tuple[str, dict, LsTerm, LsTerm]] = []
    # 1: [[psi K, u], v] -> u
    ctx1 = {"u": a, "v": nb}
    rows.append(("row 1", ctx1, psi(App(App(_k(a, b), CVar("u")), CVar("v")), ctx1), Var("u")))
    # 2: [[[psi S, u], v], w] -> [[u, w], [v, w]]
    ctx2 = {"u": Disj(na, Disj(nb, c)), "v": Disj(na, b), "w": a}
    lhs2 = psi(App(App(App(Comb("S", (a, b, c)), CVar("u")), CVar("v")), CVar("w")), ctx2)
    uw = pair_app(Var("u"), Var("w"), Disj(nb, c))
    vw = pair_app(Var("v"), Var("w"), b)
    rows.append(("row 2", ctx2, lhs2, pair_app(uw, vw, c)))
    # 3: [psi I, u] -> u
    ctx3 = {"u": a}
    rows.append(("row 3", ctx3, psi(App(i_term_at(a), CVar("u")), ctx3), Var("u")))
    # 4: [[psi C, u], v] * w -> [u, w] * [v, w]
    ctx4 = {"u": Disj(na, nb), "v": Disj(na, b), "w": a}
    lhs4 = psi(CStar(App(App(Comb("C", (a, b)), CVar("u")), CVar("v")), CVar("w")), ctx4)
    rhs4 = Star(pair_app(Var("u"), Var("w"), nb), pair_app(Var("v"), Var("w"), b))
    rows.append(("row 4", ctx4, lhs4, rhs4))
    # 5 (corrected): w * [[psi C, u], v] -> [u, w] * [v, w]
    lhs5 = psi(CStar(CVar("w"), App(App(Comb("C", (a, b)), CVar("u")), CVar("v"))), ctx4)
    rows.append(("row 5", ctx4, lhs5, rhs4))
    # 6: [[psi C, [psi K, u]], psi I] -> u
    ctx6 = {"u": na}
    lhs6 = psi(App(App(Comb("C", (a, a)), App(_k(na, na), CVar("u"))), i_term_at(a)), ctx6)
    rows.append(("row 6", ctx6, lhs6, Var("u")))
    # 7: [[psi C, psi I], [psi K, u]] -> u
    ctx7 = {"u": a}
    lhs7 = psi(App(App(Comb("C", (na, a)), i_term_at(na)), App(_k(a, a), CVar("u"))), ctx7)
    rows.append(("row 7", ctx7, lhs7, Var("u")))
    # 8..11: the pairing/injection rows
    ctx8 = {"u": a, "v": b, "w": na}
    puv = App(App(Comb("P", (a, b)), CVar("u")), CVar("v"))
    rows.append(("row 8", ctx8, psi(CStar(puv, App(Comb("Q1", (na, nb)), CVar("w"))), ctx8),
                 Star(Var("u"), Var("w"))))
    ctx9 = {"u": a, "v": b, "w": nb}
    rows.append(("row 9", ctx9, psi(CStar(puv, App(Comb("Q2", (na, nb)), CVar("w"))), ctx9),
                 Star(Var("v"), Var("w"))))
    ctx10 = {"u": a, "v": b, "w": na}
    rows.append(("row 10", ctx10, psi(CStar(App(Comb("Q1", (na, nb)), CVar("w")), puv), ctx10),
                 Star(Var("w"), Var("u"))))
    ctx11 = {"u": a, "v": b, "w": nb}
    rows.append(("row 11", ctx11, psi(CStar(App(Comb("Q2", (na, nb)), CVar("w")), puv), ctx11),
                 Star(Var("w"), Var("v"))))
    # 12 (corrected): [[psi C, [psi K, u]], [psi K, v]] -> \z:a. u * v
    ctx12 = {"u": nb, "v": b}
    lhs12 = psi(
        App(App(Comb("C", (a, b)), App(_k(nb, na), CVar("u"))), App(_k(b, na), CVar("v"))),
        ctx12,
    )
    rows.append(("row 12", ctx12, lhs12, Lam("z", a, Star(Var("u"), Var("v")))))
    return rows


def suite_rule_simulation(max_steps: int = 100) -> SuiteResult:
    """Every combinatory rule, and the worked reduction table behind it,
    is simulated by the lambda-side translation."""
    r = SuiteResult("rule-simulation")
    for rule, ctx, lhs in _rule_instances():
        matches = [x for x in find_redexes_c(ctx, lhs) if x.rule == rule]
        if not matches:
            r.check(False, lambda rule=rule: f"{rule}: instance has no such redex")
            continue
        rhs = reduce_at_c(lhs, matches[0])
        query = ReachabilityQuery(psi(lhs, ctx), psi(rhs, ctx), max_steps, require_nonempty=True)
        ok, _ = reaches(LS_ENGINE, ctx, query, node_budget=4000)
        r.check(ok, lambda rule=rule, lhs=lhs: f"{rule}: psi({print_c(lhs)}) does not simulate")
    for label, ctx, lhs, target in _table_rows():
        query = ReachabilityQuery(lhs, target, max_steps, require_nonempty=True)
        ok, _ = reaches(LS_ENGINE, ctx, query, node_budget=4000)
        r.check(ok, lambda label=label: f"{label} does not reach its stated reduct")

    r.notes.append(
        "row 5 as printed mixes an untranslated combinator into a lambda term; "
        "checked with the translated form"
    )
    r.notes.append(
        "row 12 as printed repeats [psi K, u]: its right side then mentions a "
        "variable the left side never contains, so the literal row is unprovable; "
        "checked with the second argument corrected to [psi K, v]"
    )
    return r


def suite_round_trip(max_size: int = 9) -> SuiteResult:
    """print and parse are mutually inverse over the whole corpus."""
    r = SuiteResult("round-trip")
    for ty, t in _ls_corpus(max_size):
        s = print_ls(t)
        r.check(
            alpha_eq(parse_ls(s), t),
            lambda s=s: f"lambda term changed through print/parse: {s}",
        )
    for ty, t in _c_corpus(max_size):
        s = print_c(t)
        r.check(
            parse_c(s) == t,
            lambda s=s: f"combinatory term changed through print/parse: {s}",
        )
    for ty in types_to_depth(("a", "b"), 3, signed=True):
        s = print_type(ty)
        r.check(
            parse_type(s) == ty,
            lambda s=s: f"type changed through print/parse: {s}",
        )
    return r


def suite_non_confluence() -> SuiteResult:
    """Both calculi expose the two-normal-form witnesses."""
    r = SuiteResult("non-confluence")
    want = ["y * z", "y' * z'"]
    g1 = explore(LS_ENGINE, None, parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"))
    r.check(
        sorted(g1.normal_form_strings()) == want,
        lambda: f"lambda witness normal forms: {sorted(g1.normal_form_strings())}",
    )
    g2 = explore(C_ENGINE, None, parse_c("C (K y) (K z) * C (K y') (K z')"))
    r.check(
        sorted(g2.normal_form_strings()) == want,
        lambda: f"combinatory witness normal forms: {sorted(g2.normal_form_strings())}",
    )
    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    g3 = explore(LS_ENGINE, ctx, parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"))
    g4 = explore(C_ENGINE, ctx, parse_c("C (K y) (K z) * C (K y') (K z')"))
    r.check(
        sorted(g3.normal_form_strings()) == want and sorted(g4.normal_form_strings()) == want,
        lambda: "typed witnesses changed their normal forms",
    )
    return r


SUITES: dict[str, Callable[[], SuiteResult]] = {
    "involution": suite_involution,
    "subject-reduction-ls": suite_subject_reduction_ls,
    "sn-ls": suite_sn_ls,
    "subject-reduction-cc": suite_subject_reduction_cc,
    "dichotomy": suite_dichotomy,
    "bracket-typing": suite_bracket_typing,
    "phi-typing": suite_phi_typing,
    "bracket-reduction": suite_bracket_reduction,
    "phi-substitution": suite_phi_substitution,
    "omega-simulation": suite_omega_simulation,
    "projection": suite_projection,
    "application": suite_application,
    "psi-typing": suite_psi_typing,
    "psi-substitution": suite_psi_substitution,
    "rule-simulation": suite_rule_simulation,
    "sn-cc": suite_sn_cc,
    "round-trip": suite_round_trip,
    "non-confluence": suite_non_confluence,
}

# short historical ids accepted on the command line
ALIASES: dict[str, str] = {
    "lemma2.2": "involution",
    "thm2.5": "subject-reduction-ls",
    "thm2.6": "sn-ls",
    "thm3.3": "subject-reduction-cc",
    "lemma3.5": "dichotomy",
    "lemma4.2": "bracket-typing",
    "thm4.3": "phi-typing",
    "lemma4.4": "bracket-reduction",
    "lemma4.5": "phi-substitution",
    "thm4.7": "omega-simulation",
    "lemma5.2": "projection",
    "lemma5.4": "application",
    "thm5.6": "rule-simulation",
    "thm5.7": "sn-cc",
}


def resolve_suite(name: str) -> str:
    key = name.lower()
    key = ALIASES.get(key, key)
    if key not in SUITES:
        raise KeyError(name)
    return key


def run_suite(name: str) -> SuiteResult:
    key = resolve_suite(name)
    built = _corpus_seconds
    t0 = time.perf_counter()
    result = SUITES[key]()
    result.seconds = time.perf_counter() - t0
    result.corpus_seconds = _corpus_seconds - built
    return result
