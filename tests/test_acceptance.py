"""The acceptance gate: ten criteria, each checked at its contractual scale.

Each test emits exactly one PASS/FAIL line through the acceptance_report
fixture (echoed in the terminal summary) and then asserts. The numbered
criteria pin sizes, step bounds, and wall-clock budgets; the heavyweight
corpora run here at full size, unlike the reduced slices in the unit tests.
"""

import time
from pathlib import Path

from cclab.gen import types_to_depth
from cclab.lambda_sym import alpha_eq
from cclab.rewrite import NODE_BUDGET
from cclab.syntax import parse_c, parse_ls, parse_type, print_c, print_ls, print_type
from cclab.types import negate
from cclab.verify import run_suite

GOLDEN = Path(__file__).parent / "data" / "golden_print.txt"


def _verdict(n: int, name: str, ok: bool, details: str) -> str:
    return f"criterion {n:2d} {name}: {'PASS' if ok else 'FAIL'} ({details})"


def test_criterion_01_involution(acceptance_report):
    positive = types_to_depth(("a", "b"), 4, signed=False)
    t0 = time.perf_counter()
    bad = sum(1 for ty in positive if negate(negate(ty)) != ty)
    dt = time.perf_counter() - t0
    r = run_suite("involution")
    ok = bad == 0 and dt < 1.0 and r.passed
    acceptance_report(_verdict(
        1, "involution", ok,
        f"{len(positive)} depth-4 types double-negated in {dt:.2f}s, limit 1s; "
        f"suite adds {r.instances - len(positive)} signed/injectivity checks"))
    assert ok, (bad, dt, r.failures[:3])


def test_criterion_02_subject_reduction(acceptance_report):
    r1 = run_suite("subject-reduction-ls")
    r2 = run_suite("subject-reduction-cc")
    total = r1.seconds + r2.seconds
    ok = r1.passed and r2.passed and total < 300.0
    acceptance_report(_verdict(
        2, "subject reduction", ok,
        f"{r1.instances} lambda and {r2.instances} combinator contractions "
        f"over size<=9 corpora in {total:.1f}s, limit 300s"))
    assert ok


def test_criterion_03_dichotomy(acceptance_report):
    r = run_suite("dichotomy")
    acceptance_report(_verdict(
        3, "dichotomy", r.passed,
        f"{r.instances} typable c-terms of size<=9, each a pre-term with an "
        f"m-type or a star-term at bottom"))
    assert r.passed, r.failures[:3]


def test_criterion_04_translation_typing(acceptance_report):
    r1 = run_suite("phi-typing")
    r2 = run_suite("psi-typing")
    ok = r1.passed and r2.passed
    acceptance_report(_verdict(
        4, "translation typing", ok,
        f"types preserved exactly on {r1.instances} lambda-to-combinator and "
        f"{r2.instances} combinator-to-lambda images, size<=8"))
    assert ok, (r1.failures + r2.failures)[:3]


def test_criterion_05_bracket_abstraction(acceptance_report):
    r = run_suite("bracket-reduction")
    acceptance_report(_verdict(
        5, "bracket abstraction", r.passed,
        f"{r.instances} substitution instances (bodies size<=6, arguments "
        f"size<=3) reached within 50 steps"))
    assert r.passed, r.failures[:3]


def test_criterion_06_omega_simulation(acceptance_report):
    r = run_suite("omega-simulation")
    acceptance_report(_verdict(
        6, "omega simulation", r.passed,
        f"{r.instances} unguarded contractions of size<=8 terms simulated "
        f"by nonempty combinator reductions within 50 steps"))
    assert r.passed, r.failures[:3]


def test_criterion_07_psi_simulation(acceptance_report):
    r = run_suite("rule-simulation")
    corrected = [n for n in r.notes if "row 5" in n or "row 12" in n]
    ok = r.passed and len(corrected) == 2
    acceptance_report(_verdict(
        7, "psi simulation", ok,
        f"11 rules at atom instantiations plus 12 proof-table rows within "
        f"100 steps; 2 rows checked in corrected form with the literal "
        f"forms' status reported"))
    assert ok, r.failures[:3] or r.notes


def test_criterion_08_non_confluence(acceptance_report):
    r = run_suite("non-confluence")
    acceptance_report(_verdict(
        8, "non-confluence", r.passed,
        "both calculi: exactly the two distinct normal forms "
        "{y * z, y' * z'} from the one-term witnesses"))
    assert r.passed, r.failures


def test_criterion_09_strong_normalization(acceptance_report):
    r1 = run_suite("sn-ls")
    r2 = run_suite("sn-cc")
    total = r1.seconds + r2.seconds
    ok = r1.passed and r2.passed and total < 600.0
    acceptance_report(_verdict(
        9, "strong normalization", ok,
        f"all {r1.instances} lambda and {r2.instances} combinator terms of "
        f"size<=9 terminate within the {NODE_BUDGET}-class node budget, {total:.1f}s, "
        f"limit 600s"))
    assert ok


def test_criterion_10_round_trip(acceptance_report):
    r = run_suite("round-trip")
    entries = [line.split("\t") for line in GOLDEN.read_text().splitlines() if line]
    golden_ok = len(entries) == 50 and {k for k, _, _ in entries} == {"ls", "ccl", "type"}
    for kind, src, expected in entries:
        if kind == "ls":
            t = parse_ls(src)
            golden_ok &= print_ls(t) == expected and alpha_eq(parse_ls(expected), t)
        elif kind == "ccl":
            t = parse_c(src)
            golden_ok &= print_c(t) == expected and parse_c(expected) == t
        else:
            ty = parse_type(src)
            golden_ok &= print_type(ty) == expected and parse_type(expected) == ty
    ok = r.passed and golden_ok
    acceptance_report(_verdict(
        10, "round trip", ok,
        f"parse/print identity on {r.instances} enumerated terms and types "
        f"plus the {len(entries)}-entry golden file"))
    assert ok, r.failures[:3]
