"""The benchmark's three workloads, built from a seed and checked per instance.

`build(name, seed, size)` returns the workload's parts in order. A part is
a name and a list of instances; an instance is `(decide, args)`, and
`decide(*args)` calls the public cclab functions that settle it and returns
True exactly when the verdict equals the known answer. The instances are the
ones `cclab verify` builds, from the same corpora.

Every decide function looks its callees up through the module at call time
(`rewrite.reaches`, and the engine by its name in `rewrite`), never through
a name bound at import, so the spans a traced pass installs see every call.

Why each workload exists, and which layers it stresses or bypasses, is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import random

from cclab import ccl, gen, lambda_sym, rewrite, syntax, translate, types

# Sizes per scale. `full` is the suites' own bounds; `tiny` is for the
# smoke test only.
SIZES = {
    "full": {
        "bracket_body": 6, "bracket_arg": 3, "bracket_args_per_body": 6, "bracket_steps": 50,
        "pair_size": 4, "projection_steps": 20,
        "app_lam": 7, "app_arg": 3, "app_steps": 10,
        "exhaust": 9,
        "negate_depth": 4, "negate_signed_depth": 3, "translate": 8,
        "psi_sub": 5, "psi_sub_sample": 1000, "round_trip": 9,
    },
    "tiny": {
        "bracket_body": 4, "bracket_arg": 2, "bracket_args_per_body": 1, "bracket_steps": 50,
        "pair_size": 1, "projection_steps": 20,
        "app_lam": 5, "app_arg": 1, "app_steps": 10,
        "exhaust": 5,
        "negate_depth": 3, "negate_signed_depth": 2, "translate": 5,
        "psi_sub": 3, "psi_sub_sample": 40, "round_trip": 5,
    },
}

# Instances per part. Sample sizes are fixed, so the counts do not depend on
# the seed; a pass with any other count is a failed run. The exhaust counts
# at full size are the instance counts `cclab verify` prints for sn-ls and
# sn-cc.
EXPECTED = {
    "full": {
        "reach": {"bracket": 13104, "projection": 400, "application": 3040},
        "exhaust": {"sn_sr_ls": 32048, "sn_sr_cc": 4024},
        "typing": {
            "negate": 81610, "negate_signed": 2596, "phi_typing": 2368,
            "psi_typing": 1384, "psi_substitution": 1000,
            "round_trip_ls": 32048, "round_trip_cc": 4024,
        },
    },
    "tiny": {
        "reach": {"bracket": 136, "projection": 16, "application": 96},
        "exhaust": {"sn_sr_ls": 208, "sn_sr_cc": 376},
        "typing": {
            "negate": 202, "negate_signed": 36, "phi_typing": 208,
            "psi_typing": 376, "psi_substitution": 40,
            "round_trip_ls": 208, "round_trip_cc": 376,
        },
    },
}

Part = tuple[str, list]


def _corpus_ls(max_size: int) -> list:
    return gen.enumerate_ls(gen.standard_context(2), max_size, gen.atom_names(2))


def _corpus_c(max_size: int) -> list:
    return gen.enumerate_c(gen.standard_context(2), max_size, gen.atom_names(2))


# ---- reach: reachability queries, untyped combinators and lambda macros ----


def _reaches(engine: str, *queries) -> bool:
    """Every query reaches its target; all are asked, as `cclab verify` does."""
    found = [rewrite.reaches(getattr(rewrite, engine), None, q)[0] for q in queries]
    return all(found)


def _bracket(seed: int, sz: dict) -> list:
    """A seeded sample of bracket-reduction: (l_x U) V reaches U[x:=V].

    The population is every pre-term body and every star-term body, each
    times every argument; a star body is checked on both sides of the star.
    The sample is stratified by body and, within a body, by argument: every
    body gets one argument from each of `bracket_args_per_body` equal runs
    of the argument list, at a seeded offset. So every seed draws the same
    mix of bodies and argument sizes; the slow queries that set the tail
    percentile concentrate on a few hundred of the 2,184 bodies.
    """
    names = ("x", "y")
    bodies = (gen.enumerate_pre_terms(names, sz["bracket_body"])
              + gen.enumerate_star_terms(names, sz["bracket_body"]))
    vs = gen.enumerate_pre_terms(names, sz["bracket_arg"])
    rng = random.Random(seed)
    steps = sz["bracket_steps"]
    out = []
    for u in bodies:
        lu = translate.bracket_abstract("x", u)
        stride = len(vs) // sz["bracket_args_per_body"]
        for v in vs[rng.randrange(stride)::stride]:
            rhs = ccl.substitute_c(u, "x", v)
            if isinstance(u, ccl.CStar):
                out.append((_reaches, (
                    "C_ENGINE",
                    rewrite.ReachabilityQuery(ccl.CStar(lu, v), rhs, steps),
                    rewrite.ReachabilityQuery(ccl.CStar(v, lu), rhs, steps),
                )))
            else:
                query = rewrite.ReachabilityQuery(ccl.App(lu, v), rhs, steps)
                out.append((_reaches, ("C_ENGINE", query)))
    return out


def _projection(sz: dict) -> list:
    """Both projections of every pair of small m-typed terms reach their component."""
    small = [(ty, t) for ty, t in _corpus_ls(sz["pair_size"])
             if not isinstance(ty, types.Bottom)]
    steps = sz["projection_steps"]
    out = []
    for tu, u in small:
        for tv, v in small:
            conj, pr = types.Conj(tu, tv), lambda_sym.Pair(u, v)
            out.append((_reaches, (
                "LS_ENGINE",
                rewrite.ReachabilityQuery(translate.pi_macro(1, pr, conj), u, steps),
                rewrite.ReachabilityQuery(translate.pi_macro(2, pr, conj), v, steps),
            )))
    return out


def _application(sz: dict) -> list:
    """Every application macro [lam, v] reaches its beta contraction."""
    lams = [t for _, t in _corpus_ls(sz["app_lam"]) if isinstance(t, lambda_sym.Lam)]
    args = [t for ty, t in _corpus_ls(sz["app_arg"]) if not isinstance(ty, types.Bottom)]
    result = types.Atom("a")  # the computation is annotation-insensitive
    out = []
    for lam in lams:
        for v in args:
            lhs = translate.pair_app(lam, v, result)
            z = lhs.var
            body = lambda_sym.substitute(lam.body, lam.var, lambda_sym.Pair(v, lambda_sym.Var(z)))
            query = rewrite.ReachabilityQuery(lhs, lambda_sym.Lam(z, lhs.ann, body), sz["app_steps"])
            out.append((_reaches, ("LS_ENGINE", query)))
    return out


def _reach(seed: int, sz: dict) -> list[Part]:
    return [
        ("bracket", _bracket(seed, sz)),
        ("projection", _projection(sz)),
        ("application", _application(sz)),
    ]


# ---- exhaust: SN search and subject reduction over whole corpora ----


def _sn_sr_ls(ctx, ty, t) -> bool:
    if not rewrite.check_sn(rewrite.LS_ENGINE, ctx, t).terminating:
        return False
    return all(lambda_sym.infer(ctx, lambda_sym.reduce_at(t, r)) == ty
               for r in lambda_sym.find_redexes(ctx, t))


def _sn_sr_cc(ctx, ty, t) -> bool:
    if not rewrite.check_sn(rewrite.C_ENGINE, ctx, t).terminating:
        return False
    return all(ccl.infer_c(ctx, ccl.reduce_at_c(t, r)) == ty
               for r in ccl.find_redexes_c(ctx, t))


def _exhaust(seed: int, sz: dict) -> list[Part]:
    # The seed is unused: the suites quantify over the whole corpus.
    ctx = gen.standard_context(2)
    return [
        ("sn_sr_ls", [(_sn_sr_ls, (ctx, ty, t)) for ty, t in _corpus_ls(sz["exhaust"])]),
        ("sn_sr_cc", [(_sn_sr_cc, (ctx, ty, t)) for ty, t in _corpus_c(sz["exhaust"])]),
    ]


# ---- typing: negation, inference, translation and syntax, no reduction ----


def _negate_twice(t) -> bool:
    return types.negate(types.negate(t)) == t


def _phi_typing(ctx, ty, t) -> bool:
    return ccl.infer_c(ctx, translate.phi(t, ctx)) == ty


def _psi_typing(ctx, ty, t) -> bool:
    return lambda_sym.infer(ctx, translate.psi(t, ctx)) == ty


def _psi_substitution(ctx, ectx, u, v) -> bool:
    lhs = translate.psi(ccl.substitute_c(u, "x", v), ctx)
    rhs = lambda_sym.substitute(translate.psi(u, ectx), "x", translate.psi(v, ctx))
    return lambda_sym.alpha_eq(lhs, rhs)


def _round_trip_ls(t) -> bool:
    return lambda_sym.alpha_eq(syntax.parse_ls(syntax.print_ls(t)), t)


def _round_trip_c(t) -> bool:
    return syntax.parse_c(syntax.print_c(t)) == t


def _psi_sub_sample(seed: int, sz: dict, ctx: dict) -> list:
    """A seeded sample of psi-substitution: psi commutes with substitution."""
    atoms = gen.atom_names(2)
    small = _corpus_c(sz["psi_sub"])
    population = []
    for a in gen.atom_pool(atoms):
        ectx = {**ctx, "x": a}
        vs = [t for ty, t in small if ty == a]
        for _, u in gen.enumerate_c(ectx, sz["psi_sub"], atoms):
            population.extend((ectx, u, v) for v in vs)
    picks = sorted(random.Random(seed).sample(range(len(population)), sz["psi_sub_sample"]))
    return [(_psi_substitution, (ctx, *population[i])) for i in picks]


def _typing(seed: int, sz: dict) -> list[Part]:
    ctx = gen.standard_context(2)
    positive = gen.types_to_depth(("a", "b"), sz["negate_depth"], signed=False)
    signed = gen.types_to_depth(("a", "b"), sz["negate_signed_depth"], signed=True)
    ls_t, c_t = _corpus_ls(sz["translate"]), _corpus_c(sz["translate"])
    ls_rt, c_rt = _corpus_ls(sz["round_trip"]), _corpus_c(sz["round_trip"])
    return [
        ("negate", [(_negate_twice, (t,)) for t in positive]),
        ("negate_signed", [(_negate_twice, (t,)) for t in signed]),
        ("phi_typing", [(_phi_typing, (ctx, ty, t)) for ty, t in ls_t]),
        ("psi_typing", [(_psi_typing, (ctx, ty, t)) for ty, t in c_t]),
        ("psi_substitution", _psi_sub_sample(seed, sz, ctx)),
        ("round_trip_ls", [(_round_trip_ls, (t,)) for _, t in ls_rt]),
        ("round_trip_cc", [(_round_trip_c, (t,)) for _, t in c_rt]),
    ]


WORKLOADS = {"reach": _reach, "exhaust": _exhaust, "typing": _typing}


def build(name: str, seed: int, size: str) -> list[Part]:
    return WORKLOADS[name](seed, SIZES[size])
