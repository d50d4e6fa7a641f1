import hashlib
from random import Random

from cclab.ccl import Comb, CStar, CVar, infer_c
from cclab.gen import (
    atom_names,
    atom_pool,
    combinator_variants,
    enumerate_c,
    enumerate_ls,
    enumerate_pre_terms,
    enumerate_star_terms,
    ls_weight,
    random_c,
    random_ls,
    standard_context,
    types_by_size,
    types_to_depth,
)
from cclab.lambda_sym import Lam, Star, Var, infer
from cclab.node import children, rebuild, term_size
from cclab.syntax import print_c, print_ls
from cclab.types import BOTTOM, Atom, Conj, Disj, NegAtom, negate, print_type

a, na = Atom("a"), NegAtom("a")


def test_standard_context():
    assert standard_context(1) == {"u": a, "v": na}
    assert standard_context(2) == {"u": a, "v": na, "p": Atom("b"), "q": NegAtom("b")}


def test_type_enumeration_counts():
    # by size over one signed atom: 2 leaves, then 2*2*2, then 2*(2*8+8*2)
    levels = types_by_size(("a",), 5)
    assert [len(l) for l in levels] == [0, 2, 0, 8, 0, 64]
    assert all(term_size(t) == 3 for t in levels[3])
    # by depth over two positive atoms: the doubly exponential ladder
    assert len(types_to_depth(("a", "b"), 1)) == 2
    assert len(types_to_depth(("a", "b"), 2)) == 10
    assert len(types_to_depth(("a", "b"), 3)) == 202
    assert len(types_to_depth(("a", "b"), 3, signed=True)) == 2596


def test_combinator_variants_count():
    # arities 2,3,2,2,2,2 over a pool of 2 signed atoms
    assert len(combinator_variants(("a",))) == 4 + 8 + 4 + 4 + 4 + 4
    assert len(combinator_variants(("a", "b"))) == 16 + 64 + 16 + 16 + 16 + 16


def test_untyped_enumeration_counts():
    # leaves: 2 vars + 6 combinators; apps at sizes 3 and 5
    assert len(enumerate_pre_terms(("x", "y"), 1)) == 8
    assert len(enumerate_pre_terms(("x", "y"), 3)) == 8 + 64
    assert len(enumerate_pre_terms(("x", "y"), 6)) == 8 + 64 + 1024
    assert len(enumerate_star_terms(("x", "y"), 6)) == 64 + 1024


def _printed_digest(terms):
    return hashlib.sha256("".join(print_c(t) + "\n" for t in terms).encode()).hexdigest()


def test_untyped_corpora_keep_their_order():
    """bracket-reduction reports its first failures in this order, and the
    reach benchmark samples these lists by position."""
    names = ("x", "y")
    pres6, stars6, pres3 = (enumerate_pre_terms(names, 6), enumerate_star_terms(names, 6),
                            enumerate_pre_terms(names, 3))
    assert (len(pres6), len(stars6), len(pres3)) == (1096, 1088, 72)
    assert _printed_digest(pres6) == "95db9dfa74d6f74a795532c93971610edfc67836584e84878080845189fc152d"
    assert _printed_digest(stars6) == "f833aab761e770a5b9878ea4b0948060d6357f6a9fab0115e186dba4b89922b8"
    assert _printed_digest(pres3) == "65eac6f6e87714fbeaa405d3e10b4d77bda947baf351088e433ecb95268cdbee"


def _erase(t):
    return Comb(t.which) if type(t) is Comb else rebuild(t, [_erase(k) for k in children(t)])


def test_the_typed_corpus_is_the_untyped_one_with_types_added():
    ctx = standard_context(2)
    typed = enumerate_c(ctx, 7, atom_names(2))
    erased = {_erase(t) for _, t in typed}
    names = tuple(ctx)  # u, v, p, q
    bare = set(enumerate_pre_terms(names, 7)) | set(enumerate_star_terms(names, 7))
    assert (len(typed), len(erased), len(bare)) == (1384, 373, 104210)
    assert erased <= bare


def test_enumerate_c_small():
    ctx = standard_context(1)
    corpus = enumerate_c(ctx, 3, ("a",))
    assert corpus[0] == (a, CVar("u"))
    stars = [t for ty, t in corpus if isinstance(t, CStar)]
    assert stars == [CStar(CVar("u"), CVar("v")), CStar(CVar("v"), CVar("u"))]
    # size 1 is the two variables plus every instantiated combinator
    assert sum(1 for _, t in corpus if term_size(t) == 1) == 2 + 28


def test_enumerate_c_all_typable():
    ctx = standard_context(2)
    corpus = enumerate_c(ctx, 7, atom_names(2))
    assert corpus
    for ty, t in corpus:
        assert term_size(t) <= 7
        assert infer_c(ctx, t) == ty


def test_enumerate_ls_small_count():
    # weight <= 5 over one atom: 2 vars; 4 pairs + 2 stars at 3;
    # 8 injections + 16 pairs + 8 lambdas at 5
    corpus = enumerate_ls(standard_context(1), 5, ("a",))
    assert len(corpus) == 2 + 6 + 32
    assert (na, Lam("b0", a, Star(Var("b0"), Var("v")))) in corpus
    assert (BOTTOM, Star(Var("u"), Var("v"))) in corpus


def test_enumerate_ls_all_typable():
    ctx = standard_context(2)
    corpus = enumerate_ls(ctx, 7, atom_names(2))
    assert corpus
    for ty, t in corpus:
        assert ls_weight(t) <= 7
        assert infer(ctx, t) == ty


def test_enumeration_deterministic():
    ctx = standard_context(2)
    assert enumerate_c(ctx, 5, atom_names(2)) == enumerate_c(ctx, 5, atom_names(2))
    assert enumerate_ls(ctx, 6, atom_names(2)) == enumerate_ls(ctx, 6, atom_names(2))
    assert enumerate_pre_terms(("x",), 5) == enumerate_pre_terms(("x",), 5)


def test_random_generators_typable_and_seeded():
    ctx = standard_context(2)
    for seed in range(8):
        ty, t = random_c(ctx, atom_names(2), 15, Random(seed))
        assert infer_c(ctx, t) == ty
        assert term_size(t) <= 15
        ty2, t2 = random_c(ctx, atom_names(2), 15, Random(seed))
        assert (ty2, t2) == (ty, t)
    for seed in range(8):
        ty, t = random_ls(ctx, atom_names(2), 15, Random(seed))
        assert infer(ctx, t) == ty
        assert ls_weight(t) <= 15
        ty2, t2 = random_ls(ctx, atom_names(2), 15, Random(seed))
        assert (ty2, t2) == (ty, t)


def test_atom_pool_order():
    assert atom_pool(("a", "b")) == (a, na, Atom("b"), NegAtom("b"))
    assert negate(Conj(a, na)) == Disj(na, a)


def _digest(corpus, show):
    text = "".join(f"{print_type(ty)}\t{show(t)}\n" for ty, t in corpus)
    return hashlib.sha256(text.encode()).hexdigest()


def test_size_9_corpora_keep_their_order():
    """The size-9 corpora, printed in order, are pinned: verify reports the
    first failing instance, so a reordering would change its reports."""
    from cclab.verify import _c_corpus, _ls_corpus

    # enumerate_ls/enumerate_c(standard_context(2), 9, atom_names(2)), shared with the suites
    ls, c = _ls_corpus(9), _c_corpus(9)
    assert (len(ls), len(c)) == (32048, 4024)
    assert _digest(ls, print_ls) == "fa439d4c7538db9805c788832025c78b1aac131648aec6866756a1a590750eb0"
    assert _digest(c, print_c) == "79381129f9528c0e256ace1290696352da865ce99dbbe740fda977851510dc58"
