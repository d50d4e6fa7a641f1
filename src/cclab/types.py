"""Type language shared by both calculi.

Types live in negation normal form: negation exists on atoms (``NegAtom``)
and, during inference only, as a polarity flag on metavariables. There is
no general negation constructor, so ``negate`` is a total structural
function and an involution.

``Bottom`` is the absurdity type. It is a separate class, never a
subexpression of an ``MType``: conjunction and disjunction are defined on
m-types only.

``Atom``/``NegAtom`` and ``Conj``/``Disj`` have the same fields, so the
hash of each carries its class: a field-only hash would put ``a & b`` and
``a | b`` in one dict slot and turn lookups into equality tests. The hash
is computed on each call, not kept. Like every node class (see ``node``),
the type classes are slotted, not frozen, never written after
construction, and hold only compared fields; substitution, unification
and ``metavar_idents`` read children through ``node``. A ``TypingError``
carries its message alone: only parse errors point at source bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .node import children, rebuild


class TypingError(Exception):
    """A term failed to type-check."""


class UnificationError(TypingError):
    """Constraint solving failed: constructor clash or occurs-check."""


class MType:
    """Base class for m-types (the connective layer: atoms, ~atoms, &, |)."""

    __slots__ = ()
    KIDS = ()


@dataclass(slots=True)
class Atom(MType):
    name: str

    def __hash__(self) -> int:
        return hash((Atom, self.name))


@dataclass(slots=True)
class NegAtom(MType):
    name: str

    def __hash__(self) -> int:
        return hash((NegAtom, self.name))


@dataclass(slots=True)
class Conj(MType):
    KIDS = ("left", "right")
    left: MType
    right: MType

    def __hash__(self) -> int:
        return hash((Conj, self.left, self.right))


@dataclass(slots=True)
class Disj(MType):
    KIDS = ("left", "right")
    left: MType
    right: MType

    def __hash__(self) -> int:
        return hash((Disj, self.left, self.right))


@dataclass(slots=True, unsafe_hash=True)
class MetaVar(MType):
    """Inference-only placeholder; ``negated`` marks an odd number of negations."""

    ident: int
    negated: bool = False


@dataclass(slots=True, unsafe_hash=True)
class Bottom:
    """The absurdity type. Not an m-type."""

    KIDS = ()


BOTTOM = Bottom()

Ty = Union[MType, Bottom]
Context = Mapping[str, Ty]  # a typing context: variable -> type


_NEG_TABLE_SIZE = 4096

# id(node) -> (node, other, other_is_negation). Holding the node keeps its id
# from being reused while the entry lives. With other_is_negation False,
# ``other`` is the node this one was negated from: a candidate to hand back,
# not a known negation.
_neg_table: dict[int, tuple[MType, MType, bool]] = {}


def negate(t: MType) -> MType:
    """Structural negation. De Morgan on connectives, flip on leaves.

    Each result is remembered in a bounded table keyed by node identity, so
    shared subtrees are negated once; the table is emptied when full. A node
    made by ``negate`` remembers its origin, and negating it hands that origin
    back only when the rules, applied to the node's own fields, rebuild it
    exactly (same class, the very same children, or the same atom name). The
    cache therefore never assumes the involution, yet makes
    ``negate(negate(t)) is t`` whenever the table still holds ``t``.
    """
    hit = _neg_table.get(id(t))
    origin = None
    if hit is not None:
        if hit[2]:
            return hit[1]
        origin = hit[1]
    c = type(t)
    if c is Conj or c is Disj:
        dual = Disj if c is Conj else Conj
        l, r = negate(t.left), negate(t.right)
        if type(origin) is dual and origin.left is l and origin.right is r:
            n = origin
        else:
            n = dual(l, r)
    elif c is Atom or c is NegAtom:
        dual = NegAtom if c is Atom else Atom
        n = origin if type(origin) is dual and origin.name == t.name else dual(t.name)
    elif c is MetaVar:
        flipped = not t.negated
        if type(origin) is MetaVar and origin.ident == t.ident and origin.negated is flipped:
            n = origin
        else:
            n = MetaVar(t.ident, flipped)
    else:
        raise TypeError(f"not an m-type: {t!r}")
    if len(_neg_table) >= _NEG_TABLE_SIZE:
        _neg_table.clear()
    _neg_table[id(t)] = (t, n, True)
    # an origin handed back is no candidate: its own entry, if any, records t
    if n is not origin:
        _neg_table[id(n)] = (n, t, False)
    return n


def metavar_idents(t: MType) -> frozenset[int]:
    if isinstance(t, MetaVar):
        return frozenset((t.ident,))
    out = frozenset()
    for c in children(t) if t.KIDS else ():  # leaves, most of a type, skip the call
        out |= metavar_idents(c)
    return out


def print_type(ty: Ty) -> str:
    """ty in the surface syntax; a metavariable prints as ?n or ~?n."""
    if isinstance(ty, Bottom):
        return "#"
    return _print_type(ty, 1)


def _print_type(t: MType, minlvl: int) -> str:
    """t, parenthesized when its level is below minlvl (| is 1, & is 2)."""
    match t:
        case Atom(name):
            return name
        case NegAtom(name):
            return "~" + name
        case MetaVar(ident, neg):
            return ("~?" if neg else "?") + str(ident)
        case Conj(l, r):
            s = f"{_print_type(l, 3)} & {_print_type(r, 3)}"
            return f"({s})" if minlvl > 2 else s
        case Disj(l, r):
            s = f"{_print_type(l, 2)} | {_print_type(r, 2)}"
            return f"({s})" if minlvl > 1 else s
    raise TypeError(f"not a type: {t!r}")


@dataclass
class Substitution:
    """Solved metavariable bindings, each kept as it was bound (triangular:
    a bound type may mention metavariables bound later). ``walk`` reads
    through chains of bindings, and ``apply`` rebuilds through ``walk``."""

    bindings: dict[int, MType]

    def walk(self, t: MType) -> MType:
        """t, or what its metavariable is bound to, until that is unbound."""
        while isinstance(t, MetaVar) and t.ident in self.bindings:
            bound = self.bindings[t.ident]
            t = negate(bound) if t.negated else bound
        return t

    def apply(self, t: MType) -> MType:
        t = self.walk(t)
        return rebuild(t, [self.apply(k) for k in children(t)]) if t.KIDS else t

    def apply_ty(self, t: Ty) -> Ty:
        return t if isinstance(t, Bottom) else self.apply(t)


def unify(constraints: Iterable[tuple[MType, MType]]) -> Substitution:
    """Solve equations between m-types.

    A negated metavariable unifying with T binds the underlying variable to
    negate(T); this keeps solutions in negation normal form for free. Raises
    UnificationError on clash or occurs-check failure.
    """
    subst = Substitution({})
    work = list(constraints)
    while work:
        s, t = work.pop()
        s, t = subst.walk(s), subst.walk(t)
        if s == t:
            continue
        if isinstance(s, MetaVar) or isinstance(t, MetaVar):
            m, other = (s, t) if isinstance(s, MetaVar) else (t, s)
            if m.ident in metavar_idents(subst.apply(other)):
                raise UnificationError(
                    f"occurs check: ?{m.ident} inside {print_type(other)}"
                )
            subst.bindings[m.ident] = negate(other) if m.negated else other
            continue
        if type(s) is not type(t) or not s.KIDS:
            raise UnificationError(f"cannot unify {print_type(s)} with {print_type(t)}")
        work.extend(zip(children(s), children(t)))
    return subst
