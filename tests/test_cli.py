"""End-to-end coverage of the command-line front end.

Each test drives cli.main with an argv list and inspects stdout/stderr and
the exit code; one subprocess test proves the module entry point wires up.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cclab
from cclab import ccl, cli, verify
from cclab.cli import main
from cclab.gen import atom_names, enumerate_c, enumerate_ls, standard_context
from cclab.rewrite import C_ENGINE, NODE_BUDGET, Strategy, normalize
from cclab.syntax import (ParseError, _spans, parse_c, parse_claims, parse_term_auto, print_c,
                           print_ls)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(*argv, timeout=None):
    """python -m cclab in a subprocess that imports the cclab under test."""
    src = os.path.dirname(os.path.dirname(cclab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cclab", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


# ---------------------------------------------------------------- check


def test_check_combinator_literal(capsys):
    rc, out, _ = run(capsys, "check", "--ccl", "K[a,b]")
    assert rc == 0
    assert out.strip() == "~a | (b | a)"


def test_check_variable_with_context(capsys):
    rc, out, _ = run(capsys, "check", "--ls", "x", "--ctx", "x:a")
    assert rc == 0
    assert out.strip() == "a"


def test_check_auto_detects_the_calculus(capsys):
    rc, out, _ = run(capsys, "check", "\\x:a. y * x", "--ctx", "y : ~a")
    assert rc == 0
    assert out.strip() == "~a"


def test_check_ill_typed_term_fails(capsys):
    rc, out, _ = run(capsys, "check", "--ccl", "(x * y) z",
                     "--ctx", "x: a, y: ~a, z: b")
    assert rc == 1
    assert out.startswith("type error:")


def test_check_prints_unification_errors_in_the_surface_syntax(capsys):
    rc, out, _ = run(capsys, "check", "--ccl", "u * u", "--ctx", "u : a")
    assert rc == 1
    assert out == "type error: cannot unify a with ~a\n"
    rc, out, _ = run(capsys, "check", "--ccl", "S[a, b, a] u", "--ctx", "u : a")
    assert rc == 1 and "name=" not in out


def test_check_json_report(capsys):
    rc, out, _ = run(capsys, "check", "--ccl", "K[a,b]", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "calculus": "ccl", "term": "K[a, b]",
                       "type": "~a | (b | a)"}


def test_check_json_reports_typing_failure(capsys):
    rc, out, _ = run(capsys, "check", "--ccl", "x y", "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False and "error" in payload


def test_check_parse_error_exits_2(capsys):
    rc, _, err = run(capsys, "check", "--ccl", "K[a,")
    assert rc == 2
    assert "parse error" in err


def test_check_claims_file(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text(
        "# two judgments and a reduction\n"
        "@ctx u : a, v : b, w : ~a\n"
        "<u, v> * s1(w : ~a | ~b) =>* u * w [max 5]\n"
        "K[a, b] u : b | a\n"
        "x : c |- x : c\n"
    )
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 0
    assert "3/3 claims hold" in out


def test_check_reads_a_literal_when_a_flag_is_given(tmp_path, monkeypatch, capsys):
    (tmp_path / "x").write_text("x : a\n")
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "check", "x", "--ctx", "x : a")
    assert (rc, out) == (0, "a\n")
    rc, out, _ = run(capsys, "check", "x", "--ls")
    assert (rc, out) == (1, "type error: unbound variable 'x'\n")
    # with no flag, the file of that name is read as claims
    rc, out, _ = run(capsys, "check", "x")
    assert rc == 1 and "FAIL  x : a" in out and "0/1 claims hold" in out


def test_check_claims_file_reports_failures(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx v : b\nv : a\nv : b\n")
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 1
    assert "FAIL" in out and "(got b)" in out
    assert "1/2 claims hold" in out


def test_both_grammars_failing_at_one_token_report_the_combinator_error(tmp_path, capsys):
    want = "K takes 2 type parameters, got 1 (bytes 0..1)"
    rc, _, err = run(capsys, "check", "K[a]")
    assert rc == 2 and want in err
    claims = tmp_path / "claims.txt"
    claims.write_text("K[a] : a\n")
    rc, _, err = run(capsys, "check", str(claims))
    assert rc == 2 and f"line 1: {want}" in err


def test_a_lambda_only_construct_breaks_a_tie_toward_the_lambda_error(tmp_path, capsys):
    want = "expected ':' and the disjunction type, found '|' (bytes 4..5)"
    rc, _, err = run(capsys, "check", "s1(x|a|b)")
    assert rc == 2 and err == f"parse error: {want}\n"
    claims = tmp_path / "claims.txt"
    claims.write_text("s1(x|a|b) : a\n")
    rc, _, err = run(capsys, "check", str(claims))
    assert rc == 2 and err == f"parse error: line 1: {want}\n"


@pytest.mark.parametrize("text, want", [
    ("  x : 5", "line 1: expected a type, found '5' (bytes 6..7)"),
    ("@ctx x : 5", "line 1: expected a type, found '5' (bytes 9..10)"),
    ("u : a\n \u3000@ctx x : 5", "line 2: unexpected character '\\u3000' (bytes 1..4)"),
])
def test_claims_file_spans_index_the_files_line(tmp_path, capsys, text, want):
    claims = tmp_path / "claims.txt"
    claims.write_text(text + "\n", encoding="utf-8")
    rc, _, err = run(capsys, "check", str(claims))
    assert rc == 2 and err == f"parse error: {want}\n"


@pytest.mark.parametrize("claim", ["x : a\u3000", "\u3000x : a", "x\u3000: a"])
def test_claim_lines_have_the_lexers_blanks_only(tmp_path, capsys, claim):
    # U+3000 is no blank to the lexer, so a claims file rejects it as the literal does
    rc, _, literal = run(capsys, "check", claim)
    claims = tmp_path / "claims.txt"
    claims.write_text(claim + "\n", encoding="utf-8")
    rc2, _, err = run(capsys, "check", str(claims))
    assert rc == rc2 == 2
    assert err == literal.replace("parse error: ", "parse error: line 1: ")
    if claim == "x : a\u3000":
        assert err == "parse error: line 1: unexpected character '\\u3000' (bytes 5..8)\n"


def test_check_claims_file_with_a_subscript_step_bound(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx u : a\nu * v =>* u * v [max ₁]\n")
    rc, _, err = run(capsys, "check", str(claims))
    assert rc == 2
    assert err.count("\n") == 1 and "error:" in err
    assert "line 2: unexpected character '₁' (bytes 21..24)" in err
    assert "int()" not in err


def test_check_claims_file_json(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx u : a\nu : a\nK I =>* x\n")
    rc, out, _ = run(capsys, "check", str(claims), "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    kinds = [c["kind"] for c in payload["claims"]]
    assert kinds == ["typing", "reduction"]
    assert [c["ok"] for c in payload["claims"]] == [True, False]


def test_check_claims_file_honours_a_zero_step_bound(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx u : a\nK u u =>* u [max 0]\n")
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 1
    assert "FAIL  K u u =>* u [max 0]" in out and "0/1 claims hold" in out
    claims.write_text("@ctx u : a\nu =>* u [max 0]\n")
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 0 and "1/1 claims hold" in out


def test_check_claims_file_caps_the_step_bound(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx u : a\nu =>* u [max 1000]\n")
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 0 and "1/1 claims hold" in out
    # with no cap this claim ran all N leftmost-outermost steps
    claims.write_text("S I I (S I I) =>* K [max 1001]\n")
    rc, out, err = run(capsys, "check", str(claims))
    assert rc == 2 and out == ""
    assert err == "parse error: line 1: [max N] allows at most 1000 steps, got 1001 (bytes 25..29)\n"


def test_a_claim_that_cannot_hold_ends_on_the_node_budget(tmp_path):
    # No trace meets K within its 1,000 steps, and the breadth-first stage
    # gives up at NODE_BUDGET classes, well inside the timeout.
    claims = tmp_path / "claims.txt"
    claims.write_text("S I I (S I I) =>* K [max 1000]\n")
    proc = run_module("check", str(claims), timeout=15)
    assert proc.returncode == 1 and proc.stderr == ""
    assert proc.stdout.splitlines() == ["line   1: FAIL  S I I (S I I) =>* K [max 1000]",
                                        "0/1 claims hold"]


# ---------------------------------------------------------------- reduce


def test_reduce_identity_application(capsys):
    rc, out, _ = run(capsys, "reduce", "--ccl", "I x", "--trace")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-2] == "x"
    assert lines[-1] == "2 steps"
    assert len(lines) == 4  # two trace lines before the result


def test_reduce_normal_form_is_unchanged(capsys):
    rc, out, _ = run(capsys, "reduce", "--ccl", "x")
    assert rc == 0
    assert out.strip().splitlines() == ["x", "0 steps"]


def test_reduce_projection_with_context(capsys):
    rc, out, _ = run(capsys, "reduce", "--ls", "<u,v> * s1(w : ~a | ~b)",
                     "--ctx", "u: a, v: b, w: ~a")
    assert rc == 0
    assert out.strip().splitlines()[0] == "u * w"


def test_reduce_json_trace(capsys):
    rc, out, _ = run(capsys, "reduce", "--ccl", "I x", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["term"] == "x" and payload["steps"] == 2
    assert [s["rule"] for s in payload["trace"]] == ["s", "k"]


def test_reduce_traces_steps_below_the_root(capsys):
    """The leftmost-outermost trace contracts inside either side of a star."""
    steps = [("c_r", [], "K x y * I y"), ("k", [0], "x * I y"),
             ("s", [1], "x * K y (K y)"), ("k", [1], "x * y")]
    rc, out, _ = run(capsys, "reduce", "--ccl", "C (K x) I * y", "--trace")
    assert rc == 0
    assert out.splitlines() == ["  1. c_r       @ /  K x y * I y",
                                "  2. k         @ /0  x * I y",
                                "  3. s         @ /1  x * K y (K y)",
                                "  4. k         @ /1  x * y",
                                "x * y",
                                "4 steps"]
    rc, out, _ = run(capsys, "reduce", "--ccl", "C (K x) I * y", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "ok": True, "calculus": "ccl", "term": "x * y", "steps": 4,
        "trace": [{"rule": r, "path": p, "term": t} for r, p, t in steps]}


def test_reduce_fuel_exhaustion(capsys):
    rc, _, err = run(capsys, "reduce", "--ccl", "S I I (S I I)", "--fuel", "10")
    assert rc == 1
    assert "fuel exhausted" in err


def test_reduce_caps_the_fuel(capsys):
    assert cli.MAX_FUEL == 10_000
    rc, out, err = run(capsys, "reduce", "--ccl", "x", "--fuel", "10001")
    assert (rc, out, err) == (2, "", "error: --fuel allows at most 10000 steps, got 10001\n")
    rc, out, _ = run(capsys, "reduce", "--ccl", "I x", "--fuel", "10000")
    assert (rc, out) == (0, "x\n2 steps\n")


@pytest.mark.parametrize("strategy, want", [
    ("omega", ["\\z:a. (\\x:a. y * x) * u", "0 steps"]),  # the redex sits under \z
    ("lo", ["\\z:a. y * u", "1 step"]),
])
def test_reduce_omega_strategy_leaves_redexes_inside_lambdas(capsys, strategy, want):
    rc, out, _ = run(capsys, "reduce", "\\z:a. (\\x:a. y * x) * u", "--strategy", strategy)
    assert rc == 0
    assert out.strip().splitlines() == want


def test_reduce_omega_strategy_rejects_combinators(capsys):
    rc, _, err = run(capsys, "reduce", "--ccl", "I x", "--strategy", "omega")
    assert rc == 2
    assert "lambda side" in err


def test_reduce_innermost_strategy(capsys):
    rc, out, _ = run(capsys, "reduce", "--ccl", "K x (I y)",
                     "--strategy", "li", "--trace")
    assert rc == 0
    first_rule = out.splitlines()[0].split(".")[1].split("@")[0].strip()
    assert first_rule == "s"  # the inner I y fires before the outer k


@pytest.mark.parametrize("strategy, first_step", [
    ("ro", "  1. k         @ /1  K x y * u"),
    ("lo", "  1. k         @ /0  x * K u v"),
])
def test_reduce_outermost_strategies_start_on_either_side_of_a_star(capsys, strategy, first_step):
    src = "K x y * K u v"
    rc, out, _ = run(capsys, "reduce", "--ccl", src, "--strategy", strategy, "--trace")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == first_step and lines[-2:] == ["x * u", "2 steps"]
    res = normalize(C_ENGINE, None, parse_c(src), Strategy(strategy))
    assert (print_c(res.term), res.steps) == ("x * u", 2)


# ---------------------------------------------------------------- step


def test_step_walks_a_chosen_path(capsys, monkeypatch):
    feed = iter(["1", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    rc, out, _ = run(capsys, "step",
                     "(\\x:a. y * z) * \\x':~a. y' * z'",
                     "--ctx", "y : ~a, z : a, y' : ~b, z' : b")
    assert rc == 0
    assert "[1] beta_perp" in out
    lines = out.strip().splitlines()
    assert lines[-2] == "y' * z'" and lines[-1] == "normal form"


def test_step_stops_at_normal_form(capsys, monkeypatch):
    feed = iter(["0", "0"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    rc, out, _ = run(capsys, "step", "--ccl", "I x")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "normal form"


def test_step_rejects_bad_choice_and_continues(capsys, monkeypatch):
    feed = iter(["17", "²", "q"])  # out of range, then not an ASCII number
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    rc, out, _ = run(capsys, "step", "--ccl", "I x")
    assert rc == 0
    assert out.count("choose an index") == 2


# ---------------------------------------------------------------- graph


def test_graph_shows_both_normal_forms(capsys):
    rc, out, _ = run(capsys, "graph",
                     "(\\x:a. y * z) * \\x':~a. y' * z'",
                     "--ctx", "y : ~a, z : a, y' : ~b, z' : b")
    assert rc == 0
    assert out.startswith("digraph reduction {")
    assert out.count("peripheries=2") == 2
    assert '"y * z"' in out and '"y\' * z\'"' in out


def test_graph_depth_budget_truncates(capsys):
    rc, out, err = run(capsys, "graph", "--ccl", "S I I (S I I)",
                       "--depth-budget", "3")
    assert rc == 0
    assert "truncated" in err
    assert "truncated" in out  # the DOT carries a note node


def test_graph_stops_at_the_default_node_budget(capsys):
    with pytest.raises(SystemExit):
        main(["graph", "--help"])
    assert f"(default: {NODE_BUDGET})" in " ".join(capsys.readouterr().out.split())
    # every reduct is a new class, so the search ends on the budget alone
    rc, out, err = run(capsys, "graph", "--ccl", "(S (S I I) (S I I)) (S (S I I) (S I I))")
    assert rc == 0 and err == "truncated: node budget\n"
    assert len(re.findall(r"^  n\d+ \[label=", out, re.M)) == NODE_BUDGET


# ---------------------------------------------------------------- translate


def test_translate_lambda_to_combinators(capsys):
    for term, want in [
        ("\\x:a.(y * x)", "C (K y) I"),
        ("<u, v> * s1(w : a | b)", "P u v * Q1 w"),  # untyped: pairs and injections
        ("s2(w : a | b) * <u, v>", "Q2 w * P u v"),
    ]:
        rc, out, _ = run(capsys, "translate", "--to", "ccl", term)
        assert rc == 0
        assert out.strip() == want


def test_translate_combinators_to_lambda_type_checks(capsys):
    rc, out, _ = run(capsys, "translate", "--to", "ls", "K[a, b] u",
                     "--ctx", "u : a")
    assert rc == 0
    image = out.strip()
    rc2, out2, _ = run(capsys, "check", "--ls", image, "--ctx", "u : a")
    assert rc2 == 0
    assert out2.strip() == "b | a"


def test_translate_requires_instantiated_combinators(capsys):
    # the one solve meets the unbound u before it asks for instantiations
    rc, _, err = run(capsys, "translate", "--to", "ls", "K u")
    assert rc == 1
    assert "unbound variable 'u'" in err
    rc, _, err = run(capsys, "translate", "--to", "ls", "K u", "--ctx", "u : a")
    assert rc == 1
    assert "K lacks a type instantiation" in err


@pytest.mark.parametrize("term", ["v u", "K[a,b] u v * p"])
def test_translate_reports_the_type_error_check_reports(capsys, term):
    ctx = ["--ctx", "u:a, v:~b, p:a"]
    rc, _, err = run(capsys, "translate", "--to", "ls", term, *ctx)
    rc2, out2, _ = run(capsys, "check", "--ccl", term, *ctx)
    assert rc == rc2 == 1
    assert err.strip().removeprefix("error: ") == out2.strip().removeprefix("type error: ")


def test_translate_names_the_missing_variable(capsys):
    rc, _, err = run(capsys, "translate", "--to", "ls", "K[a, b] u")
    assert rc == 1
    assert "unbound variable 'u'" in err


@pytest.mark.parametrize("term", ["\\x:a. <x * y, z> * w", "\\x:a. <y * z, w> * v"])
def test_untyped_translate_rejects_a_body_outside_the_bracket_domain(capsys, term):
    # a star inside a pair is neither a pre-term nor a star of pre-terms,
    # whether x occurs in it or not
    rc, out, err = run(capsys, "translate", "--to", "ccl", term)
    assert (rc, out) == (1, "")
    assert err == ("error: cannot abstract over a term that is neither a pre-term "
                   "nor a star of pre-terms\n")


def test_typed_translate_rejects_abstracting_a_bottom_typed_body(capsys):
    rc, out, err = run(capsys, "translate", "--to", "ccl", "\\x:a. y", "--ctx", "y : #")
    assert (rc, out) == (1, "")
    assert err == "error: cannot abstract over a bottom-typed subterm that is not a star\n"


# ---------------------------------------------------------------- gen


def test_gen_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "gen", "--ccl", "--max-size", "5", "--atoms", "1")
    rc2, out2, _ = run(capsys, "gen", "--ccl", "--max-size", "5", "--atoms", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "u : a"
    assert all(" : " in line for line in lines)


def test_gen_seeded_sampling_is_reproducible(capsys):
    args = ("gen", "--ls", "--max-size", "4", "--atoms", "1",
            "--seed", "7", "--count", "5")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 5


@pytest.mark.parametrize("calc", ["--ls", "--ccl"])
def test_gen_emits_nothing_when_no_term_fits(capsys, calc):
    for extra in (("--seed", "1", "--count", "2"), ()):
        rc, out, err = run(capsys, "gen", calc, "--max-size", "0", *extra)
        assert (rc, out, err) == (0, "", ""), extra


def test_gen_seeded_sampling_respects_the_size_bound(capsys):
    rc, out, _ = run(capsys, "gen", "--ls", "--max-size", "1", "--seed", "1", "--count", "3")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.split(" : ")[0] in ("u", "v", "p", "q") for line in lines)  # size 1


@pytest.mark.parametrize("calc", ["--ls", "--ccl"])
def test_gen_seeded_output_is_that_of_the_whole_list_of_draws(capsys, calc):
    from random import Random

    from cclab.gen import atom_names, random_c, random_ls, standard_context
    from cclab.syntax import print_c, print_ls, print_type

    draw, show = (random_ls, print_ls) if calc == "--ls" else (random_c, print_c)
    ctx, names = standard_context(2), atom_names(2)
    for seed, count, max_size in [(0, 1, 7), (3, 12, 1), (11, 20, 9), (12, 8, 13)]:
        rng = Random(seed)
        drawn = [draw(ctx, names, max_size, rng) for _ in range(count)]
        expected = "".join(f"{show(t)} : {print_type(ty)}\n"
                           for ty, t in (d for d in drawn if d is not None))
        rc, out, _ = run(capsys, "gen", calc, "--seed", str(seed), "--count", str(count),
                         "--max-size", str(max_size))
        assert (rc, out) == (0, expected), (seed, count)


@pytest.mark.parametrize("calc", ["--ls", "--ccl"])
def test_gen_caps_the_size_bound_and_the_count(capsys, calc):
    from cclab.cli import MAX_COUNT, MAX_DRAW_SIZE, MAX_ENUM_SIZE

    for atoms, cap in MAX_ENUM_SIZE.items():
        for size in (str(cap + 1), "99999999999999999999"):
            rc, out, err = run(capsys, "gen", calc, "--max-size", size, "--atoms", str(atoms))
            assert (rc, out, err) == (
                2, "", f"error: --max-size allows at most {cap} over {atoms} atoms, got {size}\n")
    for size, count in [(MAX_DRAW_SIZE + 1, 1), (1, MAX_COUNT + 1)]:
        rc, out, err = run(capsys, "gen", calc, "--max-size", str(size), "--count", str(count),
                           "--seed", "1")
        assert (rc, out, err) == (2, "", f"error: --seed allows --max-size at most {MAX_DRAW_SIZE} "
                                         f"and --count at most {MAX_COUNT}, got {size} and {count}\n")
    # the costliest draw the caps allow; the costliest enumeration is in the README
    rc, out, _ = run(capsys, "gen", calc, "--max-size", str(MAX_DRAW_SIZE), "--atoms", "4",
                     "--seed", "1", "--count", "1")
    assert rc == 0 and out.count("\n") == 1


def test_gen_enumerates_combinators_at_the_largest_size_four_atoms_allow(capsys):
    assert cli.MAX_ENUM_SIZE[4] == 10
    rc, out, _ = run(capsys, "gen", "--ccl", "--max-size", "10", "--atoms", "4")
    assert rc == 0 and out.count("\n") == 27856


def test_gen_prints_each_draw_before_making_the_next(capsys, monkeypatch):
    from cclab import cli

    lines_before_draw = []
    real_draw = cli.random_c

    def draw(*args):
        lines_before_draw.append(capsys.readouterr().out.count("\n"))
        return real_draw(*args)

    monkeypatch.setattr(cli, "random_c", draw)
    assert main(["gen", "--ccl", "--seed", "5", "--count", "6"]) == 0
    assert lines_before_draw == [0, 1, 1, 1, 1, 1]
    assert capsys.readouterr().out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["reduce", "--ccl", "K x y", "--fuel", "-1"],
    ["gen", "--ccl", "--seed", "1", "--count", "-1"],
    ["gen", "--ccl", "--max-size", "-1"],
    ["graph", "--ccl", "x", "--node-budget", "-1"],
    ["graph", "--ccl", "x", "--depth-budget", "-1"],
])
def test_negative_counts_are_usage_errors(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: cclab ") and proc.stderr.count("usage:") == 1
    assert proc.stderr.splitlines()[-1].endswith(
        f"error: argument {argv[-2]}: expected a non-negative integer, got '-1'")


@pytest.mark.parametrize("calc", ["--ls", "--ccl"])
@pytest.mark.parametrize("atoms", ["5", "8"])
def test_gen_rejects_atom_counts_past_the_standard_context(capsys, calc, atoms):
    rc, out, err = run(capsys, "gen", calc, "--max-size", "1", "--atoms", atoms)
    assert (rc, out, err) == (2, "", "error: supported atom counts are 1..4\n")


def test_gen_demands_a_calculus(capsys):
    rc, _, err = run(capsys, "gen", "--max-size", "3")
    assert rc == 2
    assert "--ls or --ccl" in err


# ---------------------------------------------------------------- verify


def test_verify_single_suite_by_alias(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "lemma3.5")
    assert rc == 0
    assert out.splitlines()[0].startswith("PASS dichotomy")
    assert "1/1 suites passed" in out


def test_verify_rule_simulation_reports_corrected_rows(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "thm5.6")
    assert rc == 0
    notes = [line for line in out.splitlines() if "note:" in line]
    assert len(notes) == 2
    assert any("row 5" in n for n in notes)
    assert any("row 12" in n for n in notes)


def test_verify_names_an_ill_typed_reduct(capsys, monkeypatch):
    # K u v -> v: the reduct of a K redex does not type, which fails that
    # instance and names its term, its redex and the unification error
    monkeypatch.setitem(ccl._CONTRACT, "k", lambda n: n.arg)
    named = re.compile(r"     fail: .+: k at \(1,\) changed .+ to UnificationError: "
                       r"cannot unify ~a with a")
    rc, out, _ = run(capsys, "verify", "--suite", "subject-reduction-cc")
    assert rc == 1 and out.startswith("FAIL subject-reduction-cc")
    assert any(map(named.fullmatch, out.splitlines()))


def test_a_suite_that_raises_fails_and_the_later_suites_still_run(capsys, monkeypatch):
    def raises():
        yield True, lambda: "never rendered"
        raise ccl.StaleRedex("k does not match at (0,)")

    monkeypatch.setattr(verify, "SUITES", {"dichotomy": verify.SUITES["dichotomy"]})
    verify.suite("raises")(raises)
    two = ("raises", "dichotomy")
    monkeypatch.setattr(cli, "SUITES", {name: verify.SUITES[name] for name in two})
    failed = [f"FAIL {'raises':22s} {2:7d} instances",
              "     fail: StaleRedex after 1 instances: k does not match at (0,)"]
    rc, out, _ = run(capsys, "verify", "--suite", "raises")
    assert rc == 1 and out.splitlines() == failed + ["0/1 suites passed"]
    rc, out, _ = run(capsys, "verify", "--suite", "all")
    lines = out.splitlines()
    assert rc == 1 and lines[:2] == failed
    assert any(line.startswith("PASS dichotomy") for line in lines)
    assert lines[-1] == "1/2 suites passed"


def test_verify_json_schema(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "non-confluence",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    (suite,) = payload["suites"]
    assert suite["suite"] == "non-confluence"
    assert suite["instances"] == 3 and suite["failures"] == []


def test_verify_unknown_suite_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "--suite", "nope")
    assert rc == 2
    assert "unknown suite" in err and "known suites" in err


# ---------------------------------------------------------------- plumbing


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = run_module("check", "--ccl", "K[a,b]")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "~a | (b | a)"


@pytest.mark.parametrize("argv", [
    ["check", "--ccl", "(" * 3000 + "x" + ")" * 3000],
    ["check", "--ls", "\\x:" + " & ".join(["a"] * 3000) + ". x * x"],
])
def test_deeply_nested_input_is_a_parse_error(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: input nests deeper than")
    assert len(proc.stderr.splitlines()) == 1


def test_recursion_past_the_parser_is_a_one_line_error(capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("cclab.cli.normalize", too_deep)
    rc, out, err = run(capsys, "reduce", "--ccl", "I x")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ---------------------------------------------------------------- malformed input


@lru_cache(maxsize=None)
def _mutants() -> tuple[str, ...]:
    """Printed size-6 corpus terms with one token dropped or two adjacent
    tokens swapped, each once, in a fixed order."""
    ctx, names = standard_context(2), atom_names(2)
    out: dict[str, None] = {}
    for corpus, show in ((enumerate_ls(ctx, 6, names), print_ls),
                         (enumerate_c(ctx, 6, names), print_c)):
        for _, t in corpus:
            src = show(t)
            pieces = [src.encode()[start:end].decode() for start, end in _spans(src)[:-1]]
            for i in range(len(pieces) - 1):
                out.setdefault(" ".join(pieces[:i] + pieces[i + 1:]))
                out.setdefault(" ".join(pieces[:i] + [pieces[i + 1], pieces[i]] + pieces[i + 2:]))
            out.setdefault(" ".join(pieces[:-1]))
    return tuple(out)


# leading blanks before a claim line, and the lines above it; only the
# lexer's blanks are blanks there (see test_claim_lines_have_the_lexers_blanks_only)
_CLAIM_PLACES = [("", ""), ("", "  "), ("@ctx u : a\n", " \t"), ("# note\n@ctx\n", " ")]


def _quiet_main(*argv) -> tuple[int, str]:
    """main's exit code and stderr, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


def _one_line_span(err: str, size: int) -> tuple[int, int]:
    """The byte span of a one-line parse error, which lies in 0..size."""
    m = re.fullmatch(r"parse error: (?:line \d+: )?[^\n]* \(bytes (\d+)\.\.(\d+)\)\n", err)
    assert m, err
    i, j = int(m[1]), int(m[2])
    assert 0 <= i <= j <= size, err
    return i, j


def test_mutated_terms_fail_inside_the_text_they_came_in():
    """Every mutant either reads or fails with a span inside the literal;
    as a claim line its span moves with the blanks before it."""
    mutants = _mutants()
    assert len(mutants) > 9000
    failed = 0
    errors = hashlib.sha256()  # each failing literal and claim line with its error
    for s in mutants:
        try:
            parse_term_auto(s)
        except ParseError as e:
            failed += 1
            errors.update(f"{s}\t{e}\n".encode())
            _one_line_span(f"parse error: {e}\n", len(s.encode()))
        line = f"{s} : a"
        try:
            parse_claims(line)
            continue
        except ParseError as e:
            errors.update(f"{line}\t{e}\n".encode())
            i, j = _one_line_span(f"parse error: {e}\n", len(line.encode()))
        above, blanks = _CLAIM_PLACES[len(s) % len(_CLAIM_PLACES)]
        with pytest.raises(ParseError) as ei:
            parse_claims(above + blanks + line)
        shift = len(blanks.encode())
        assert ei.value.span == (i + shift, j + shift) and ei.value.line_no == 1 + above.count("\n")
    assert failed > 8000
    assert errors.hexdigest() == "36cce56a7c90e96ae8163311dccf00628979103b54725a34f49ba5247ce8acf0"



# Claim lines whose tokens are cut: a `CTX |-` prefix (either turnstile),
# then a typing or reduction body, some with a `[max N]` suffix; empty
# contexts and bodies put an error at a cut's end of input.
_CLAIM_CTXS = ["", "u : a |- ", "u : a, v : b ⊢ ", "u : |- ", "u : a, ⊢ ", "u a |- ",
               "u : a, u : b |- ", "u′ : a \u3000|- ", "|- ", "u : a |- v : b ⊢ ",
               "u : (a |- ", "u : ~ ⊢ ", "u : a⊥ ⊢ "]
_CLAIM_BODIES = ["x : a", "x :", "x", ": a", "", "λx:a. x : a", "\\x:a x : a",
                 "σ₁(x : a | b) : a | b", "σ₂(x : a)\u3000: a", "σ3(x : a | b) : b",
                 "x′ y′ : a", "K[a, b] x : a", "I[a] : a", "x =>* y", "x =>* y [max 5]",
                 "x =>* [max 5]", "=>* y [max 5]", "x =>* y [max]", "x =>* y [max 5",
                 "K [max 5] =>* x", "x =>* K [max 5]", "S K K =>* I [max 2]",
                 "x =>* (y [max 5]", "<x, y> =>* x [max x]", "x =>* y [max 5] z",
                 "x =>* y [min 5]", "x =>* y\u3000[max 5]", "λx:a. x =>* λx:a [max 1]",
                 "<x, y =>* x [max 3]", "x * y * z : a", "x =>* y =>* z [max 2]"]


def test_cut_claim_lines_fail_at_pinned_spans():
    """Every failing cut claim line, at each place in a file, with its
    error and span, pinned by one digest."""
    lines = [c + b for c in _CLAIM_CTXS for b in _CLAIM_BODIES]
    lines += [t.format(s) for s in _mutants()[::7]
              for t in ("u : a ⊢ {} : a", "{} =>* x [max 4]", "v : b |- x =>* {} [max 9]")]
    failed = 0
    errors = hashlib.sha256()
    for k, line in enumerate(lines):
        above, blanks = (_CLAIM_PLACES + [("\n", "\t")])[k % 5]
        try:
            parse_claims(above + blanks + line)
        except ParseError as e:
            failed += 1
            errors.update(f"{above}{blanks}{line}\t{e}\n".encode())
    assert failed > 2000
    assert errors.hexdigest() == "fb969b10ea94540392172a13ce4303f348f7ad8985ab790c17118ba3def7ca7b"


def test_mutated_terms_are_one_line_errors_on_the_command_line(tmp_path):
    """A sample of the mutants, as a literal and in a claims file: every
    error exits 2 with one stderr line whose span lies in the literal or
    in the file's line."""
    claims = tmp_path / "claims.txt"
    errors = 0
    for k, s in enumerate(_mutants()[::30]):
        rc, err = _quiet_main("check", s)
        if rc == 2:
            errors += 1
            _one_line_span(err, len(s.encode()))
        else:
            assert rc in (0, 1) and err == ""
        above, blanks = _CLAIM_PLACES[k % len(_CLAIM_PLACES)]
        line = f"{blanks}{s} : a"
        claims.write_text(f"{above}{line}\n", encoding="utf-8")
        rc, err = _quiet_main("check", str(claims))
        if rc == 2:
            assert err.startswith(f"parse error: line {1 + above.count(chr(10))}: ")
            _one_line_span(err, len(line.encode()))
        else:
            assert rc in (0, 1) and err == ""
    assert errors > 250


_PIECES = ["x", "y", "u", "s1", "s2", "K", "S", "C", "I", "P", "Q1", "K[a, b]", "I[a]",
           "\\", "λ", ":", ".", "*", "<", ">", ",", "(", ")", "[", "]", "a", "~a", "&",
           "|", "#", "⊥", "=>*", "|-", "σ1", "σ", "Z", "$", "0"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(["check", "reduce", "translate", "graph"]),
       st.lists(st.sampled_from(_PIECES), max_size=12), st.booleans())
def test_any_literal_ends_in_an_exit_code_and_no_traceback(command, pieces, spaced):
    text = (" " if spaced else "").join(pieces)
    extra = {"translate": ["--to", "ccl" if "\\" in text or "λ" in text else "ls"],
             "reduce": ["--fuel", "50"], "graph": ["--node-budget", "50"]}.get(command, [])
    rc, err = _quiet_main(command, text, *extra)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(err.splitlines()) == 1, err
