"""Command-line workbench for the two calculi.

Subcommands: check (typing, of a literal term or a claims file), reduce,
step (interactive redex picker), graph (DOT export), translate, gen
(typable-term enumeration), verify (the metatheory suites).

Exit codes: 0 on success, 1 when a check/claim/suite fails, a reduction
runs out of fuel or a term grows too deep to process, 2 on usage or parse
errors.  Timing goes to stderr so stdout stays byte-identical across runs
of the same invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random
from typing import Optional

from .ccl import infer_c
from .gen import atom_names, enumerate_c, enumerate_ls, random_c, random_ls, standard_context
from .lambda_sym import infer
from .rewrite import (
    FuelExhausted,
    ReachabilityQuery,
    Strategy,
    engine_for,
    explore,
    normalize,
    reaches,
    to_dot,
)
from .syntax import (
    ParseError,
    TypingClaim,
    parse_c,
    parse_claims,
    parse_context,
    parse_ls,
    parse_term_auto,
    print_c,
    print_ls,
    print_type,
)
from .translate import TranslationError, phi, psi
from .types import TypingError
from .verify import SUITES, run_suite


def _merge_ctx(chunks: list[str]) -> Optional[dict]:
    """Combine repeated --ctx flags; later bindings shadow earlier ones."""
    if not chunks:
        return None
    ctx: dict = {}
    for chunk in chunks:
        ctx.update(parse_context(chunk))
    return ctx


def _pick_calculus(args) -> Optional[str]:
    if getattr(args, "ls", False):
        return "ls"
    if getattr(args, "ccl", False):
        return "ccl"
    return None


def _parse_term(args, src: str):
    calc = _pick_calculus(args)
    if calc == "ls":
        return "ls", parse_ls(src)
    if calc == "ccl":
        return "ccl", parse_c(src)
    return parse_term_auto(src)


def _fmt_path(path: tuple) -> str:
    return "/" + "/".join(str(i) for i in path)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


# ---------------------------------------------------------------- check


def _check_claims_file(args) -> int:
    with open(args.target, encoding="utf-8") as fh:
        text = fh.read()
    claims = parse_claims(text)
    records = []
    for claim in claims:
        if isinstance(claim, TypingClaim):
            fn = infer if claim.calculus == "ls" else infer_c
            try:
                got = fn(claim.ctx, claim.term)
                ok = got == claim.ty
                got_s = print_type(got)
            except TypingError as e:
                ok, got_s = False, f"type error: {e}"
            records.append({"line": claim.line_no, "kind": "typing",
                            "claim": claim.text, "ok": ok, "got": got_s})
        else:
            eng = engine_for(claim.calculus)
            q = ReachabilityQuery(claim.source, claim.target,
                                  max_steps=claim.max_steps or 50)
            ok, _ = reaches(eng, claim.ctx, q)
            records.append({"line": claim.line_no, "kind": "reduction",
                            "claim": claim.text, "ok": ok})
    all_ok = all(r["ok"] for r in records)
    if args.format == "json":
        _emit({"file": args.target, "ok": all_ok, "claims": records})
    else:
        for r in records:
            mark = "ok  " if r["ok"] else "FAIL"
            line = f"line {r['line']:3d}: {mark}  {r['claim']}"
            if not r["ok"] and r["kind"] == "typing":
                line += f"  (got {r['got']})"
            print(line)
        held = sum(r["ok"] for r in records)
        print(f"{held}/{len(records)} claims hold")
    return 0 if all_ok else 1


def cmd_check(args) -> int:
    if os.path.isfile(args.target):
        return _check_claims_file(args)
    calc, t = _parse_term(args, args.target)
    ctx = _merge_ctx(args.ctx) or {}
    fn = infer if calc == "ls" else infer_c
    try:
        ty = fn(ctx, t)
    except TypingError as e:
        if args.format == "json":
            _emit({"ok": False, "calculus": calc, "term": args.target,
                   "error": str(e)})
        else:
            print(f"type error: {e}")
        return 1
    if args.format == "json":
        show = print_ls if calc == "ls" else print_c
        _emit({"ok": True, "calculus": calc, "term": show(t),
               "type": print_type(ty)})
    else:
        print(print_type(ty))
    return 0


# ---------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    calc, t = _parse_term(args, args.term)
    eng = engine_for(calc)
    ctx = _merge_ctx(args.ctx)
    want_trace = args.trace or args.format == "json"
    try:
        res = normalize(eng, ctx, t, strategy=Strategy(args.strategy),
                        fuel=args.fuel, want_trace=want_trace)
    except FuelExhausted as e:
        if args.format == "json":
            _emit({"ok": False, "error": "fuel exhausted", "steps": e.steps,
                   "term": eng.show(e.term)})
        else:
            print(f"fuel exhausted after {e.steps} steps; "
                  f"current term: {eng.show(e.term)}", file=sys.stderr)
        return 1
    if args.format == "json":
        _emit({"ok": True, "calculus": calc, "term": eng.show(res.term),
               "steps": res.steps,
               "trace": [{"rule": rule, "path": list(path), "term": eng.show(u)}
                         for rule, path, u in res.trace]})
        return 0
    if args.trace:
        for i, (rule, path, u) in enumerate(res.trace, 1):
            print(f"{i:3d}. {rule:9s} @ {_fmt_path(path)}  {eng.show(u)}")
    print(eng.show(res.term))
    print(f"{res.steps} step{'' if res.steps == 1 else 's'}")
    return 0


# ---------------------------------------------------------------- step


def cmd_step(args) -> int:
    calc, t = _parse_term(args, args.term)
    eng = engine_for(calc)
    ctx = _merge_ctx(args.ctx)
    cur = t
    while True:
        print(eng.show(cur))
        rds = eng.find(ctx, cur)
        if not rds:
            print("normal form")
            return 0
        for i, r in enumerate(rds):
            sub = eng.subterm_at(cur, r.path)
            print(f"  [{i}] {r.rule:9s} @ {_fmt_path(r.path)}  {eng.show(sub)}")
        try:
            line = input("step> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if line in ("q", "quit", "exit"):
            return 0
        if not line.isdigit() or int(line) >= len(rds):
            print(f"choose an index 0..{len(rds) - 1} or q")
            continue
        cur = eng.step(cur, rds[int(line)])


# ---------------------------------------------------------------- graph


def cmd_graph(args) -> int:
    calc, t = _parse_term(args, args.term)
    eng = engine_for(calc)
    ctx = _merge_ctx(args.ctx)
    g = explore(eng, ctx, t, node_budget=args.node_budget,
                depth_budget=args.depth_budget)
    if g.truncated:
        print(f"truncated: {g.reason}", file=sys.stderr)
    print(to_dot(g))
    return 0


# ---------------------------------------------------------------- translate


def cmd_translate(args) -> int:
    ctx = _merge_ctx(args.ctx)
    if args.to == "ccl":
        t = parse_ls(args.term)
        print(print_c(phi(t, ctx)))
    else:
        t = parse_c(args.term)
        print(print_ls(psi(t, ctx or {})))
    return 0


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    calc = _pick_calculus(args)
    if calc is None:
        print("gen: choose --ls or --ccl", file=sys.stderr)
        return 2
    ctx = standard_context(args.atoms)
    names = atom_names(args.atoms)
    show = print_ls if calc == "ls" else print_c
    if args.seed is not None:
        rng = Random(args.seed)
        draw = random_ls if calc == "ls" else random_c
        items = [draw(ctx, names, args.max_size, rng) for _ in range(args.count)]
    else:
        enum = enumerate_ls if calc == "ls" else enumerate_c
        items = enum(ctx, args.max_size, names)
    for ty, t in items:
        print(f"{show(t)} : {print_type(ty)}")
    return 0


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    else:
        try:
            from .verify import resolve_suite
            names = [resolve_suite(args.suite)]
        except KeyError:
            print(f"unknown suite: {args.suite}", file=sys.stderr)
            print(f"known suites: {', '.join(SUITES)}", file=sys.stderr)
            return 2
    results = [run_suite(n) for n in names]
    all_ok = all(r.passed for r in results)
    if args.format == "json":
        _emit({"ok": all_ok, "suites": [r.as_dict() for r in results]})
        return 0 if all_ok else 1
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name:22s} {r.instances:7d} instances")
        print(f"     {r.name}: {r.seconds:.2f}s", file=sys.stderr)
        for note in r.notes:
            print(f"     note: {note}")
        for failure in r.failures:
            print(f"     fail: {failure}")
        if r.omitted_failures:
            print(f"     ... and {r.omitted_failures} more failures")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} suites passed")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- parser


def _add_calculus(sp) -> None:
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--ls", action="store_true",
                   help="read the input as a lambda term")
    g.add_argument("--ccl", action="store_true",
                   help="read the input as a combinator term")


def _add_ctx(sp) -> None:
    sp.add_argument("--ctx", action="append", default=[], metavar="BINDINGS",
                    help='typing context such as "x : a, y : ~b"; repeatable')


def _add_format(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cclab",
        description="Workbench for the symmetric lambda calculus and its "
                    "combinator counterpart.")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("check", help="type-check a term or a claims file")
    sp.add_argument("target", help="a term literal, or a path to a claims file")
    _add_calculus(sp)
    _add_ctx(sp)
    _add_format(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("reduce", help="normalize a term")
    sp.add_argument("term")
    _add_calculus(sp)
    _add_ctx(sp)
    sp.add_argument("--strategy", choices=("lo", "li", "omega"), default="lo",
                    help="redex choice: leftmost-outermost, leftmost-innermost, "
                         "or outside lambda scopes only (default: lo)")
    sp.add_argument("--fuel", type=int, default=1000,
                    help="maximum number of steps (default: 1000)")
    sp.add_argument("--trace", action="store_true",
                    help="print every step taken")
    _add_format(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("step", help="reduce interactively, one redex at a time")
    sp.add_argument("term")
    _add_calculus(sp)
    _add_ctx(sp)
    sp.set_defaults(func=cmd_step)

    sp = sub.add_parser("graph", help="export the reduction graph as DOT")
    sp.add_argument("term")
    _add_calculus(sp)
    _add_ctx(sp)
    sp.add_argument("--node-budget", type=int, default=100_000,
                    help="stop after this many distinct terms (default: 100000)")
    sp.add_argument("--depth-budget", type=int, default=None,
                    help="do not expand terms beyond this depth")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("translate", help="map a term into the other calculus")
    sp.add_argument("term")
    sp.add_argument("--to", choices=("ls", "ccl"), required=True,
                    help="target calculus; the input is read in the other one")
    _add_ctx(sp)
    sp.set_defaults(func=cmd_translate)

    sp = sub.add_parser("gen", help="enumerate typable terms")
    _add_calculus(sp)
    sp.add_argument("--max-size", type=int, default=6,
                    help="largest term size to emit (default: 6)")
    sp.add_argument("--atoms", type=int, default=2,
                    help="number of atomic types (default: 2)")
    sp.add_argument("--seed", type=int, default=None,
                    help="sample randomly with this seed instead of enumerating")
    sp.add_argument("--count", type=int, default=10,
                    help="samples to draw in --seed mode (default: 10)")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="run the metatheory suites")
    sp.add_argument("--suite", default="all",
                    help="suite name (or a short alias) or 'all'")
    _add_format(sp)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (TypingError, TranslationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the term is nested too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
