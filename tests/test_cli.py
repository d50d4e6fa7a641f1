"""End-to-end coverage of the command-line front end.

Each test drives cli.main with an argv list and inspects stdout/stderr and
the exit code; one subprocess test proves the module entry point wires up.
"""

import json
import subprocess
import sys

import pytest

from cclab.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


def test_check_claims_file_reports_failures(tmp_path, capsys):
    claims = tmp_path / "claims.txt"
    claims.write_text("@ctx v : b\nv : a\nv : b\n")
    rc, out, _ = run(capsys, "check", str(claims))
    assert rc == 1
    assert "FAIL" in out and "(got b)" in out
    assert "1/2 claims hold" in out


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


def test_reduce_fuel_exhaustion(capsys):
    rc, _, err = run(capsys, "reduce", "--ccl", "S I I (S I I)", "--fuel", "10")
    assert rc == 1
    assert "fuel exhausted" in err


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
    feed = iter(["17", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    rc, out, _ = run(capsys, "step", "--ccl", "I x")
    assert rc == 0
    assert "choose an index" in out


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


# ---------------------------------------------------------------- translate


def test_translate_lambda_to_combinators(capsys):
    rc, out, _ = run(capsys, "translate", "--to", "ccl", "\\x:a.(y * x)")
    assert rc == 0
    assert out.strip() == "C (K y) I"


def test_translate_combinators_to_lambda_type_checks(capsys):
    rc, out, _ = run(capsys, "translate", "--to", "ls", "K[a, b] u",
                     "--ctx", "u : a")
    assert rc == 0
    image = out.strip()
    rc2, out2, _ = run(capsys, "check", "--ls", image, "--ctx", "u : a")
    assert rc2 == 0
    assert out2.strip() == "b | a"


def test_translate_requires_instantiated_combinators(capsys):
    rc, _, err = run(capsys, "translate", "--to", "ls", "K u")
    assert rc == 1
    assert "instantiation" in err


def test_translate_names_the_missing_variable(capsys):
    rc, _, err = run(capsys, "translate", "--to", "ls", "K[a, b] u")
    assert rc == 1
    assert "unbound variable 'u'" in err


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
    proc = subprocess.run(
        [sys.executable, "-m", "cclab", "check", "--ccl", "K[a,b]"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "~a | (b | a)"


@pytest.mark.parametrize("argv", [
    ["check", "--ccl", "(" * 3000 + "x" + ")" * 3000],
    ["check", "--ls", "\\x:" + " & ".join(["a"] * 3000) + ". x * x"],
])
def test_deeply_nested_input_is_a_parse_error(argv):
    proc = subprocess.run([sys.executable, "-m", "cclab", *argv],
                          capture_output=True, text=True)
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
