"""The metatheory suites, run at reduced sizes so the unit tests stay quick.

The acceptance tests rerun the heavyweight suites at their contractual sizes;
here every suite only has to come back green on a small slice, and the
reporting machinery (registry, aliases, failure capping) has to behave.
"""

import pytest

from cclab import ccl, syntax, translate, verify
from cclab.ccl import App, CStar
from cclab.verify import ALIASES, SUITES, SuiteResult, resolve_suite, run_suite


RULE_SIMULATION_NOTES = [
    "row 5 as printed mixes an untranslated combinator into a lambda term; "
    "checked with the translated form",
    "row 12 as printed repeats [psi K, u]: its right side then mentions a "
    "variable the left side never contains, so the literal row is unprovable; "
    "checked with the second argument corrected to [psi K, v]",
]

# each suite at a reduced size, with its (name, instances, notes) report
SMALL = [
    (
        lambda: verify.suite_involution(),
        ("involution", 84207, ["81610 depth-4 positive types, 2596 signed depth-3 types"]),
    ),
    (
        lambda: verify.suite_subject_reduction_ls(6),
        ("subject-reduction-ls", 8, ["208 typable terms, 8 redex contractions"]),
    ),
    (
        lambda: verify.suite_subject_reduction_cc(6),
        ("subject-reduction-cc", 16, ["376 typable terms, 16 redex contractions"]),
    ),
    (lambda: verify.suite_dichotomy(6), ("dichotomy", 376, [])),
    (lambda: verify.suite_sn_ls(6), ("sn-ls", 208, ["longest reduction path: 1"])),
    (lambda: verify.suite_sn_cc(6), ("sn-cc", 376, ["longest reduction path: 1"])),
    (lambda: verify.suite_bracket_typing(4), ("bracket-typing", 1132, [])),
    (
        lambda: verify.suite_bracket_reduction(4, 2),
        ("bracket-reduction", 1088, ["72 pre-term and 64 star-term bodies x 8 arguments"]),
    ),
    (lambda: verify.suite_phi_typing(5), ("phi-typing", 208, [])),
    (lambda: verify.suite_psi_typing(5), ("psi-typing", 376, [])),
    (lambda: verify.suite_phi_substitution(4, 3), ("phi-substitution", 144, [])),
    (lambda: verify.suite_psi_substitution(4, 3), ("psi-substitution", 1132, [])),
    (
        lambda: verify.suite_omega_simulation(5),
        ("omega-simulation", 8, ["208 typable terms scanned for unguarded redexes"]),
    ),
    (lambda: verify.suite_projection(5, 3), ("projection", 544, [])),
    (lambda: verify.suite_application(5, 2), ("application", 128, [])),
    (lambda: verify.suite_rule_simulation(), ("rule-simulation", 23, RULE_SIMULATION_NOTES)),
    (lambda: verify.suite_round_trip(6), ("round-trip", 3180, [])),
    (lambda: verify.suite_non_confluence(), ("non-confluence", 3, [])),
]


@pytest.mark.parametrize("make, report", SMALL, ids=["small-suite"] * len(SMALL))
def test_suite_passes_at_reduced_size(make, report):
    r = make()
    assert r.passed, r.failures[:3]
    assert (r.name, r.instances, r.notes) == report


def test_registry_covers_every_suite_function():
    assert len(SUITES) == 18
    for name, fn in SUITES.items():
        assert callable(fn), name


def test_registry_keeps_the_report_order_and_aliases():
    assert list(SUITES) == [
        "involution", "subject-reduction-ls", "sn-ls", "subject-reduction-cc",
        "dichotomy", "bracket-typing", "phi-typing", "bracket-reduction",
        "phi-substitution", "omega-simulation", "projection", "application",
        "psi-typing", "psi-substitution", "rule-simulation", "sn-cc",
        "round-trip", "non-confluence",
    ]
    assert ALIASES == {
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


def test_suite_decorator_registers_a_generator_of_checks(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})
    monkeypatch.setattr(verify, "ALIASES", {})

    @verify.suite("demo", "d1")
    def suite_demo():
        for i in range(3):
            yield i != 1, lambda: f"failed at {i}"
        return ["note"]

    r = suite_demo()
    assert isinstance(r, SuiteResult) and r.name == "demo"
    assert r.instances == 3
    assert r.failures == ["failed at 1"]  # described before the loop moved on
    assert r.notes == ["note"]
    assert verify.SUITES == {"demo": suite_demo}
    assert verify.resolve_suite("D1") == "demo"


def test_aliases_resolve_into_the_registry():
    for alias, target in ALIASES.items():
        assert resolve_suite(alias) == target
        assert target in SUITES
    assert resolve_suite("THM5.6") == "rule-simulation"
    assert resolve_suite("dichotomy") == "dichotomy"


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError):
        resolve_suite("no-such-suite")


def test_run_suite_records_wall_time():
    r = run_suite("non-confluence")
    assert r.passed
    assert r.seconds >= 0.0
    d = r.as_dict()
    assert d["suite"] == "non-confluence"
    assert d["passed"] is True
    assert d["failures"] == []


def test_suite_result_caps_recorded_failures():
    r = SuiteResult("demo")
    for i in range(verify.MAX_RECORDED_FAILURES + 7):
        r.check(False, lambda i=i: f"failure {i}")
    assert not r.passed
    assert r.instances == verify.MAX_RECORDED_FAILURES + 7
    assert len(r.failures) == verify.MAX_RECORDED_FAILURES
    assert r.omitted_failures == 7


def test_suite_result_passes_only_when_clean():
    r = SuiteResult("demo")
    r.check(True, lambda: "never rendered")
    assert r.passed and r.instances == 1 and r.failures == []


def test_omega_simulation_guard_excludes_redexes_at_size_9():
    """At its own bound (8) no contraction lies under a lambda, so the
    hypothesis of Theorem 4.7 excludes nothing; at size 9 it does."""
    from collections import Counter

    from cclab.gen import standard_context
    from cclab.lambda_sym import Lam
    from cclab.node import subterm_at

    ctx = standard_context(2)
    total, guarded = 0, Counter()
    for _, t in verify._ls_corpus(9):
        for r in verify.LS_ENGINE.find(ctx, t):
            total += 1
            if any(isinstance(subterm_at(t, r.path[:k]), Lam) for k in range(len(r.path))):
                guarded[r.rule] += 1
    assert total == 1576
    assert guarded == {"beta": 168, "beta_perp": 168, "eta": 48, "eta_perp": 48}
    r = verify.suite_omega_simulation(9)
    assert r.passed, r.failures[:3]
    assert r.instances == total - sum(guarded.values()) == 1144


# the reduced sizes of the mutation matrix; every other suite runs at its defaults
MATRIX_ARGS = {
    "subject-reduction-ls": (6,), "subject-reduction-cc": (6,), "sn-ls": (6,), "sn-cc": (6,),
    "dichotomy": (6,), "phi-typing": (6,), "psi-typing": (6,), "round-trip": (6,),
    "omega-simulation": (6,), "bracket-typing": (4,), "bracket-reduction": (4, 2),
    "phi-substitution": (4, 3), "projection": (5, 2), "application": (5, 1),
    "psi-substitution": (3, 3),
}


def _contract(rule, contract):
    """The patch that makes ccl contract rule's redexes by contract."""
    return lambda mp: mp.setitem(ccl._CONTRACT, rule, contract)


_fold, _print_c = translate._fold, syntax._print_c


def _fold_s_swapped(x, a, na, ctx_c, u):
    """translate._fold with S handed its two wrapped arguments swapped."""
    ty, lu = _fold(x, a, na, ctx_c, u)  # recurses through this mutant
    if isinstance(u, App) and lu is not None:  # lu is S (l_x f) (l_x arg)
        lu = App(App(lu.fun.fun, lu.arg), lu.fun.arg)
    return ty, lu


# (id, patch of the working code, suites that must fail under it)
MUTANTS = [
    ("working", None, set()),
    ("k", _contract("k", lambda n: n.arg),  # K u v -> v
     {"subject-reduction-cc", "bracket-reduction", "rule-simulation", "non-confluence"}),
    ("c_r", _contract("c_r", lambda n: CStar(App(n.left.arg, n.right), App(n.left.fun.arg, n.right))),
     {"bracket-reduction", "rule-simulation", "non-confluence"}),  # C u v * w -> v w * u w
    ("pq2", _contract("pq2", lambda n: CStar(n.left.fun.arg, n.right.arg)),  # P u v * Q2 w -> u * w
     {"rule-simulation"}),
    ("bracket_s", lambda mp: mp.setattr(translate, "_fold", _fold_s_swapped),
     {"bracket-reduction", "bracket-typing"}),
    # an argument is printed at the application level, so f (g x) prints as f g x
    ("print_arg", lambda mp: mp.setattr(syntax, "_print_c", lambda t, lvl: _print_c(t, min(lvl, 1))),
     {"round-trip"}),
]


@pytest.mark.parametrize("patch, killers", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutation_matrix(monkeypatch, patch, killers):
    """Working code fails no suite, and each mutant fails at least the
    suites named for it, within the default node budget."""
    if patch:
        patch(monkeypatch)
    failed = {name for name, run in SUITES.items() if not run(*MATRIX_ARGS.get(name, ())).passed}
    assert failed >= killers if patch else not failed, failed


def test_an_ill_typed_reduct_fails_its_instance_and_names_it(monkeypatch):
    """A reduct the typer rejects is one failed instance that names the
    term, the redex and the error; the suite goes on to its other instances."""
    MUTANTS[3][1](monkeypatch)  # pq2
    r = verify.suite_subject_reduction_cc()
    assert r.instances == 1600
    assert ("P[a, ~a] u v * Q2[~a, a] u: pq2 at () changed # to UnificationError: "
            "cannot unify a with ~a") in r.failures
    r = verify.suite_rule_simulation()
    assert r.instances == 23
    assert r.failures == ["pq2: psi of the reduct u * w raised UnificationError: "
                          "cannot unify a with b"]

