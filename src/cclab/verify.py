"""Verification suites: machine checks of the calculi's metatheory.

Every suite re-checks one fact (type preservation, a simulation, a
syntactic dichotomy, ...) over an exhaustively enumerated corpus, so a
pass means "no counterexample below the size bound", not a proof. Each
returns a SuiteResult with the instance count, failures (empty = pass),
wall time, and free-form notes.

A suite is a generator decorated with ``@suite(name, *aliases)``. It
yields one ``(ok, describe)`` pair per instance and returns its notes
(or nothing). The decorator records each pair with ``SuiteResult.check``
before it resumes the generator, so ``describe`` may read the loop
variables as they stand. A suite whose check raises a typing, translation
or stale-redex error stops there with one more, failed, instance that
names the error, and the suites after it still run. The decorator also
registers the suite in ``SUITES`` under its descriptive name and in
``ALIASES`` under the short historical ids the command line accepts.
``verify --suite all`` reports the suites in the order they are defined
here, which is the paper's order.

Every reduction sequence a suite follows comes from ``rewrite.trace`` or
``rewrite.search``. Every reachability question, rule-simulation's
included, is one ``rewrite.reaches`` call, which tries its strategies in
one fixed order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable, Generator, Optional

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
from .node import StaleRedex
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
    TranslationError,
    bracket_abstract,
    bracket_typed,
    i_term_at,
    pair_app,
    phi,
    pi_macro,
    psi,
)
from .types import Atom, Bottom, Conj, Disj, MType, NegAtom, Ty, TypingError, negate

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


# what a suite body yields per instance, and returns at the end: its notes
Checks = Generator[tuple[bool, Callable[[], str]], None, Optional[list[str]]]

SUITES: dict[str, Callable[..., SuiteResult]] = {}
ALIASES: dict[str, str] = {}  # short historical ids accepted on the command line


def suite(
    name: str, *aliases: str
) -> Callable[[Callable[..., Checks]], Callable[..., SuiteResult]]:
    """Register a generator of checks as the suite `name`; see the module doc."""

    def register(body: Callable[..., Checks]) -> Callable[..., SuiteResult]:
        @wraps(body)
        def run(*args, **kwargs) -> SuiteResult:
            r = SuiteResult(name)
            checks = body(*args, **kwargs)
            while True:
                try:
                    ok, describe = next(checks)
                except StopIteration as done:
                    r.notes = done.value or []
                    return r
                except (TypingError, TranslationError, StaleRedex) as e:
                    failure = f"{type(e).__name__} after {r.instances} instances: {e}"
                    r.check(False, lambda: failure)
                    return r
                r.check(ok, describe)

        SUITES[name] = run
        ALIASES.update(dict.fromkeys(aliases, name))
        return run

    return register


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


def _subject_reduction(engine, corpus) -> Checks:
    ctx = standard_context(2)
    n_terms = n_redexes = 0
    for ty, t in corpus:
        n_terms += 1
        for redex in engine.find(ctx, t):
            n_redexes += 1
            try:
                got = engine.typeof(ctx, engine.step(t, redex))
            except TypingError as e:
                got = e
            yield got == ty, lambda: (
                f"{engine.show(t)}: {redex.rule} at {redex.path} changed {print_type(ty)} to "
                + (f"{type(got).__name__}: {got}" if isinstance(got, TypingError) else print_type(got)))
    return [f"{n_terms} typable terms, {n_redexes} redex contractions"]


def _sn(engine, corpus) -> Checks:
    ctx = standard_context(2)
    worst = 0
    for _, t in corpus:
        res = check_sn(engine, ctx, t)
        if res.max_path is not None:
            worst = max(worst, res.max_path)
        yield res.terminating, lambda: f"{engine.show(t)}: {res.reason or 'cycle found'}"
    return [f"longest reduction path: {worst}"]


def _translation_typing(corpus, translate, typer, show, label: str) -> Checks:
    ctx = standard_context(2)
    for ty, t in corpus:
        got = typer(ctx, translate(t, ctx))
        yield got == ty, lambda: (
            f"{label}({show(t)}) : {print_type(got)}, source {print_type(ty)}"
        )


@suite("involution", "lemma2.2")
def suite_involution() -> Checks:
    """negate is an involution and injective on deep finite type families."""
    positive = types_to_depth(("a", "b"), 4, signed=False)
    signed = types_to_depth(("a", "b"), 3, signed=True)
    for t in positive + signed:
        yield negate(negate(t)) == t, lambda: f"negate^2 != id at {print_type(t)}"
    images = {negate(t) for t in signed}
    yield len(images) == len(signed), lambda: "negate not injective on signed depth-3 family"
    return [f"{len(positive)} depth-4 positive types, {len(signed)} signed depth-3 types"]


@suite("subject-reduction-ls", "thm2.5")
def suite_subject_reduction_ls(max_size: int = 9) -> Checks:
    return _subject_reduction(LS_ENGINE, _ls_corpus(max_size))


@suite("sn-ls", "thm2.6")
def suite_sn_ls(max_size: int = 9) -> Checks:
    return _sn(LS_ENGINE, _ls_corpus(max_size))


@suite("subject-reduction-cc", "thm3.3")
def suite_subject_reduction_cc(max_size: int = 9) -> Checks:
    return _subject_reduction(C_ENGINE, _c_corpus(max_size))


@suite("dichotomy", "lemma3.5")
def suite_dichotomy(max_size: int = 9) -> Checks:
    """Typable c-terms split into pre-terms (m-typed) and star-terms (bottom)."""
    for ty, t in _c_corpus(max_size):
        want = TermClass.STAR_TERM if isinstance(ty, Bottom) else TermClass.PRE_TERM
        got = classify(t)
        yield got is want, lambda: f"{print_c(t)} classified {got.name}, expected {want.name}"


@suite("bracket-typing", "lemma4.2")
def suite_bracket_typing(max_size: int = 5) -> Checks:
    """Abstracting x:A out of T:B yields type ~A | B; out of T:bottom, ~A."""
    ctx = standard_context(2)
    atoms = atom_names(2)
    for a in atom_pool(atoms):
        ectx = {**ctx, "x": a}
        for ty, t in enumerate_c(ectx, max_size, atoms):
            image = bracket_typed("x", a, t, ectx)
            want = negate(a) if isinstance(ty, Bottom) else Disj(negate(a), ty)
            got = infer_c(ctx, image)
            yield got == want and "x" not in term_vars(image), lambda: (
                f"l_x {print_c(t)} with x:{print_type(a)}: got {print_type(got)}, "
                f"want {print_type(want)}"
            )


@suite("phi-typing", "thm4.3")
def suite_phi_typing(max_size: int = 8) -> Checks:
    return _translation_typing(_ls_corpus(max_size), phi, infer_c, print_ls, "phi")


@suite("bracket-reduction", "lemma4.4")
def suite_bracket_reduction(u_size: int = 6, v_size: int = 3, max_steps: int = 50) -> Checks:
    """Bracket abstraction computes substitution, untyped.

    Pre-terms are applied: (l_x U) V. Star-terms instead meet their
    argument across a star, on either side.
    """
    names = ("x", "y")
    pres = enumerate_pre_terms(names, u_size)
    stars = enumerate_star_terms(names, u_size)
    vs = enumerate_pre_terms(names, v_size)
    for u in pres + stars:
        lu = bracket_abstract("x", u)
        starred = isinstance(u, CStar)
        shape = "l_x {} starred with {}" if starred else "(l_x {}) {}"
        for v in vs:
            rhs = substitute_c(u, "x", v)
            sources = (CStar(lu, v), CStar(v, lu)) if starred else (App(lu, v),)
            ok = all(
                reaches(C_ENGINE, None, ReachabilityQuery(s, rhs, max_steps, False))[0]
                for s in sources
            )
            yield ok, lambda: shape.format(print_c(u), print_c(v)) + " missed its substitution"
    return [f"{len(pres)} pre-term and {len(stars)} star-term bodies x {len(vs)} arguments"]


@suite("phi-substitution", "lemma4.5")
def suite_phi_substitution(u_size: int = 6, v_size: int = 5) -> Checks:
    """phi commutes with substitution, instantiations included, on the nose."""
    ctx = standard_context(2)
    atoms = atom_names(2)
    for b in atom_pool(atoms):
        ectx = {**ctx, "y": b}
        vs = [(t, phi(t, ctx)) for ty, t in _ls_corpus(v_size) if ty == b]
        for _, u in enumerate_ls(ectx, u_size, atoms):
            phi_u = phi(u, ectx)
            for v, phi_v in vs:
                lhs = phi(substitute(u, "y", v), ctx)
                rhs = substitute_c(phi_u, "y", phi_v)
                yield lhs == rhs, lambda: (
                    f"phi({print_ls(u)})[y:={print_ls(v)}] differs from "
                    "the substituted translation"
                )


@suite("omega-simulation", "thm4.7")
def suite_omega_simulation(max_size: int = 8, max_steps: int = 50) -> Checks:
    """Reductions outside every lambda are simulated through phi."""
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
            yield ok, lambda: f"{print_ls(t)}: {redex.rule} at {redex.path} not simulated"
    return [f"{n_terms} typable terms scanned for unguarded redexes"]


@suite("projection", "lemma5.2")
def suite_projection(max_size: int = 7, pair_size: int = 4) -> Checks:
    """The projection macro both computes and types componentwise."""
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
            yield ok1 and ok2, lambda: f"projections of <{print_ls(u)}, {print_ls(v)}> stuck"
    for ty, t in _ls_corpus(max_size):
        if not isinstance(ty, Conj):
            continue
        got1 = infer(ctx, pi_macro(1, t, ty))
        got2 = infer(ctx, pi_macro(2, t, ty))
        yield got1 == ty.left and got2 == ty.right, lambda: (
            f"projection types of {print_ls(t)} : {print_type(ty)} wrong"
        )


@suite("application", "lemma5.4")
def suite_application(max_size: int = 7, v_size: int = 3) -> Checks:
    """The application macro beta-computes and types like an application."""
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
            yield ok, lambda: f"[{print_ls(lam)}, {print_ls(v)}] missed its beta contraction"
    fns = [(ty, t) for ty, t in _ls_corpus(max_size) if isinstance(ty, Disj)]
    args_by_type: dict[Ty, list[LsTerm]] = {}
    for ty, t in _ls_corpus(v_size):
        if not isinstance(ty, Bottom):
            args_by_type.setdefault(ty, []).append(t)
    for ty, u in fns:
        for v in args_by_type.get(negate(ty.left), ()):
            got = infer(ctx, pair_app(u, v, ty.right))
            yield got == ty.right, lambda: (
                f"[{print_ls(u)}, {print_ls(v)}] : {print_type(got)}, "
                f"want {print_type(ty.right)}"
            )


@suite("psi-typing")
def suite_psi_typing(max_size: int = 8) -> Checks:
    return _translation_typing(_c_corpus(max_size), psi, infer, print_c, "psi")


@suite("psi-substitution")
def suite_psi_substitution(u_size: int = 5, v_size: int = 5) -> Checks:
    """psi commutes with substitution up to alpha."""
    ctx = standard_context(2)
    atoms = atom_names(2)
    for a in atom_pool(atoms):
        ectx = {**ctx, "x": a}
        vs = [(t, psi(t, ctx)) for ty, t in _c_corpus(v_size) if ty == a]
        for _, u in enumerate_c(ectx, u_size, atoms):
            psi_u = psi(u, ectx)
            for v, psi_v in vs:
                lhs = psi(substitute_c(u, "x", v), ctx)
                rhs = substitute(psi_u, "x", psi_v)
                yield alpha_eq(lhs, rhs), lambda: (
                    f"psi({print_c(u)})[x:={print_c(v)}] differs from "
                    "the substituted translation"
                )


def _k(i1: MType, i2: MType) -> Comb:
    return Comb("K", (i1, i2))


def _rule_instances() -> list[tuple[str, dict, CTerm]]:
    """One typed instance of each reduction rule, schemes at atoms, over
    the worked table's variables u, v and w."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    na, nb = NegAtom("a"), NegAtom("b")
    u, v, w = CVar("u"), CVar("v"), CVar("w")
    s_ctx = {"u": Disj(na, Disj(nb, c)), "v": Disj(na, b), "w": a}
    c_ctx = {"u": Disj(na, nb), "v": Disj(na, b), "w": a}
    cuv, puv = (App(App(Comb(which, (a, b)), u), v) for which in "CP")
    return [
        ("k", {"u": a, "v": nb}, App(App(_k(a, b), u), v)),
        ("s", s_ctx, App(App(App(Comb("S", (a, b, c)), u), v), w)),
        ("c_r", c_ctx, CStar(cuv, w)),
        ("c_l", c_ctx, CStar(w, cuv)),
        ("e_r", {"u": na}, App(App(Comb("C", (a, a)), App(_k(na, na), u)), i_term_at(a))),
        ("e_l", {"u": a}, App(App(Comb("C", (na, a)), i_term_at(na)), App(_k(a, a), u))),
        ("pq1", {"u": a, "v": b, "w": na}, CStar(puv, App(Comb("Q1", (na, nb)), w))),
        ("pq2", {"u": a, "v": b, "w": nb}, CStar(puv, App(Comb("Q2", (na, nb)), w))),
        ("qp1", {"u": a, "v": b, "w": na}, CStar(App(Comb("Q1", (na, nb)), w), puv)),
        ("qp2", {"u": a, "v": b, "w": nb}, CStar(App(Comb("Q2", (na, nb)), w), puv)),
        (
            "simp",
            {"u": nb, "v": b, "w": a},
            CStar(App(App(Comb("C", (a, b)), App(_k(nb, na), u)), App(_k(b, na), v)), w),
        ),
    ]


def _table_rows() -> list[tuple[str, dict, LsTerm, LsTerm]]:
    """The worked table's twelve (label, context, source, target) rows.

    Each source is psi of a rule instance, in rule order: row 12 takes the
    left side of the simp instance's star, and row 3 (psi I) has no rule
    of its own. The targets are the table's stated reducts.
    """
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    nb = NegAtom("b")
    u, v, w = Var("u"), Var("v"), Var("w")
    sources = [(ctx, lhs.left if rule == "simp" else lhs) for rule, ctx, lhs in _rule_instances()]
    sources.insert(2, ({"u": a}, App(i_term_at(a), CVar("u"))))
    c_reduct = Star(pair_app(u, w, nb), pair_app(v, w, b))
    reducts = [
        u,  # 1: [[psi K, u], v]
        pair_app(pair_app(u, w, Disj(nb, c)), pair_app(v, w, b), c),  # 2: [[[psi S, u], v], w]
        u,  # 3: [psi I, u]
        c_reduct,  # 4: [[psi C, u], v] * w
        c_reduct,  # 5 (corrected): w * [[psi C, u], v]
        u,  # 6: [[psi C, [psi K, u]], psi I]
        u,  # 7: [[psi C, psi I], [psi K, u]]
        Star(u, w),  # 8..11: the pairing/injection rows
        Star(v, w),
        Star(w, u),
        Star(w, v),
        Lam("z", a, Star(u, v)),  # 12 (corrected): [[psi C, [psi K, u]], [psi K, v]]
    ]
    return [
        (f"row {i}", ctx, psi(source, ctx), reduct)
        for i, ((ctx, source), reduct) in enumerate(zip(sources, reducts), 1)
    ]


@suite("rule-simulation", "thm5.6")
def suite_rule_simulation(max_steps: int = 100) -> Checks:
    """Every combinatory rule, and the worked reduction table behind it,
    is simulated by the lambda-side translation."""
    for rule, ctx, lhs in _rule_instances():
        matches = [x for x in find_redexes_c(ctx, lhs) if x.rule == rule]
        if not matches:
            yield False, lambda: f"{rule}: instance has no such redex"
            continue
        rhs = reduce_at_c(lhs, matches[0])
        try:
            target = psi(rhs, ctx)
        except TypingError as e:
            yield False, lambda: f"{rule}: psi of the reduct {print_c(rhs)} raised {type(e).__name__}: {e}"
            continue
        query = ReachabilityQuery(psi(lhs, ctx), target, max_steps, require_nonempty=True)
        ok, _ = reaches(LS_ENGINE, ctx, query)
        yield ok, lambda: f"{rule}: psi({print_c(lhs)}) does not simulate"
    for label, ctx, lhs, target in _table_rows():
        query = ReachabilityQuery(lhs, target, max_steps, require_nonempty=True)
        ok, _ = reaches(LS_ENGINE, ctx, query)
        yield ok, lambda: f"{label} does not reach its stated reduct"
    return [
        "row 5 as printed mixes an untranslated combinator into a lambda term; "
        "checked with the translated form",
        "row 12 as printed repeats [psi K, u]: its right side then mentions a "
        "variable the left side never contains, so the literal row is unprovable; "
        "checked with the second argument corrected to [psi K, v]",
    ]


@suite("sn-cc", "thm5.7")
def suite_sn_cc(max_size: int = 9) -> Checks:
    return _sn(C_ENGINE, _c_corpus(max_size))


@suite("round-trip")
def suite_round_trip(max_size: int = 9) -> Checks:
    """print and parse are mutually inverse over the whole corpus."""
    for _, t in _ls_corpus(max_size):
        s = print_ls(t)
        yield alpha_eq(parse_ls(s), t), lambda: f"lambda term changed through print/parse: {s}"
    for _, t in _c_corpus(max_size):
        s = print_c(t)
        yield parse_c(s) == t, lambda: f"combinatory term changed through print/parse: {s}"
    for ty in types_to_depth(("a", "b"), 3, signed=True):
        s = print_type(ty)
        yield parse_type(s) == ty, lambda: f"type changed through print/parse: {s}"


@suite("non-confluence")
def suite_non_confluence() -> Checks:
    """Both calculi expose the two-normal-form witnesses."""
    want = ["y * z", "y' * z'"]
    g1 = explore(LS_ENGINE, None, parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"))
    got1 = sorted(g1.normal_form_strings())
    yield got1 == want, lambda: f"lambda witness normal forms: {got1}"
    g2 = explore(C_ENGINE, None, parse_c("C (K y) (K z) * C (K y') (K z')"))
    got2 = sorted(g2.normal_form_strings())
    yield got2 == want, lambda: f"combinatory witness normal forms: {got2}"
    ctx = parse_context("y : ~a, z : a, y' : ~b, z' : b")
    g3 = explore(LS_ENGINE, ctx, parse_ls("(\\x:a. y * z) * \\x':~a. y' * z'"))
    g4 = explore(C_ENGINE, ctx, parse_c("C (K y) (K z) * C (K y') (K z')"))
    yield (
        sorted(g3.normal_form_strings()) == want and sorted(g4.normal_form_strings()) == want,
        lambda: "typed witnesses changed their normal forms",
    )


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
