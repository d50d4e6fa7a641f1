"""One node layer for types and both term languages.

Each node class names its child fields, in path order, in ``KIDS`` (a
leaf's base class has ``()``), and this layer reads nodes only through
those names: the uniform children/rebuild pair of Mitchell and Runciman,
"Uniform boilerplate and list processing" (Haskell Workshop 2007). A
rebuilt node has no cached free variables or hash. One ``Redex`` record
serves as the reduction step of both calculi.

A node holds only fields that equality and hashing compare, all of them
positional; source positions live on parse errors alone, as byte spans.
Node classes are slotted dataclasses, not frozen ones, and nothing writes
a node after its construction. A frozen dataclass sets each field in its
``__init__`` through ``object.__setattr__``; these assign directly, and
``Star(l, r)`` takes about 0.2 us (timeit, Python 3.11). Only two slots
are written later, the caches ``_fv`` (``lambda_sym``) and ``_hash``
(``ccl``); ``test_node.test_no_source_writes_a_node_after_construction``
rejects any other write to a node field in the package source.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Redex:
    """One reduction step of either calculus: rule, applied at path."""
    rule: str
    path: tuple[int, ...]


class StaleRedex(Exception):
    """A path or redex that no longer fits the term it is applied to."""


def children(t) -> tuple:
    return tuple([getattr(t, k) for k in t.KIDS])


def rebuild(t, kids):
    """A node of t's class with kids as its children and t's other fields
    (annotations, binder names, instantiations); it caches nothing yet."""
    cls = type(t)
    if cls.KIDS == cls.__match_args__:
        return cls(*kids)
    new = dict(zip(cls.KIDS, kids))
    return cls(*[new[f] if f in new else getattr(t, f) for f in cls.__match_args__])


def subterm_at(t, path: tuple[int, ...]):
    for i in path:
        if i >= len(t.KIDS):
            raise StaleRedex(f"path {path} does not exist")
        t = getattr(t, t.KIDS[i])
    return t


def replace_at(t, path: tuple[int, ...], new):
    if not path:
        return new
    if path[0] >= len(t.KIDS):
        raise StaleRedex(f"path {path} does not exist")
    kids = list(children(t))
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return rebuild(t, kids)


def term_size(t) -> int:
    """The node count of a term or a type."""
    return 1 + sum([term_size(c) for c in children(t)])
