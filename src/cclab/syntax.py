"""Concrete syntax: lexer, parsers, printers, and the claim-file format.

ASCII is the canonical surface form; a handful of unicode aliases are
accepted on input (never printed):

    lambda    \\          star      *           bottom   #
    conj      &           disj      |           negation ~a  (atoms only)

aliases:  λ  ⋆  ∧  ∨  ⊥ (standalone or postfix on an atom or a closed
paren group)  ⟨ ⟩  ⊢  σ1 σ2  and the prime ′ inside names.

Precedence, loosest to tightest:  * (non-associative)  then everything
else.  In types, & binds tighter than |; both are right-associative on
input, and printing parenthesizes nested same-operator trees so the tree
shape stays visible (a | (b | a) is a different type from (a | b) | a).

Claim files hold one judgment per line: `CTX |- term : type` or
`term =>* term [max N]` (optionally with a `CTX |-` prefix). Lines whose
first non-blank character is `#` are comments; `@ctx NAME : TYPE, ...`
sets a default context for the lines after it.

Every parse runs one rule over all the tokens (_read). CLI literals and
claim lines choose their grammar in one place (_either): lambda, then
combinators; if both fail, the error found farther in wins, on a tie the
text's own tokens decide (_lambda_only). Claim lines lose `CTX |-` and
`[max N]` at token level; error spans index the file's line.

The lexer is one scan (_scan): a single findall of a compiled regular
expression gives each token's text, and a token's kind is its text's
(symbols, combinators, one-character names and numbers) or else its
first character's. The parser reads the scan's kinds and texts by index
and builds no object per token. Offsets are built only for an error and
for lex's Token tuples (_spans, a finditer of the same expression); they
are byte offsets into the UTF-8 source. Numbers are ASCII digits only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from string import ascii_lowercase, digits
from typing import NamedTuple, Optional, Union

from .ccl import App, Comb, CStar, CTerm, CVar, IDENT, SCHEME_ARITY
from .lambda_sym import Inj1, Inj2, Lam, LsTerm, Pair, Star, Var
from .types import (
    BOTTOM,
    Atom,
    Conj,
    Disj,
    MType,
    NegAtom,
    Ty,
    negate,
    print_type,  # re-exported: the type printer lives with the types
)


class ParseError(Exception):
    def __init__(self, message: str, span: Optional[tuple[int, int]] = None,
                 line_no: Optional[int] = None):
        self.message = message
        self.span = span
        self.line_no = line_no
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ""
        if self.line_no is not None:
            where += f"line {self.line_no}: "
        out = where + self.message
        if self.span is not None:
            out += f" (bytes {self.span[0]}..{self.span[1]})"
        return out


class Token(NamedTuple):
    kind: str
    text: str
    start: int  # byte offsets into the UTF-8 source
    end: int


_SYMBOLS = {
    "|-": "TURNSTILE", "=>*": "REDUCES", "|": "PIPE",
    "(": "LPAREN", ")": "RPAREN", "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", "*": "STAR", "\\": "LAMBDA", ".": "DOT", ":": "COLON",
    "&": "AMP", "~": "TILDE", "#": "HASH", "[": "LBRACK", "]": "RBRACK",
    "λ": "LAMBDA", "⋆": "STAR", "∧": "AMP", "∨": "PIPE",
    "⊥": "BOT", "⟨": "LANGLE", "⟩": "RANGLE", "⊢": "TURNSTILE",
}
_SIGMA = {"σ1": "s1", "σ₁": "s1", "σ2": "s2", "σ₂": "s2"}
_FIRST = {**dict.fromkeys(ascii_lowercase + "_", "NAME"), **dict.fromkeys(digits, "NUMBER")}
# A token's kind: its whole text's, else its first character's, else ERROR.
_KINDS = {**_FIRST, **_SYMBOLS, **dict.fromkeys([*SCHEME_ARITY, "I"], "COMB"),
          **dict.fromkeys(_SIGMA, "NAME")}
# Blanks, then one token: longer symbols come first, so |- beats |; a
# character no class takes is a token of its own, and an error.
_BLANKS = " \t\r\n"
_SYMBOL_RE = "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)))
_TOKEN = re.compile(f"[{_BLANKS}]*({_SYMBOL_RE}|[a-z_][A-Za-z0-9_'′]*|[A-Z][A-Z0-9]*"
                    f"|[0-9]+|σ[12₁₂]?|[^{_BLANKS}])")


def _scan(src: str) -> tuple[list, list, str, int]:
    """The kinds and texts of src's tokens, then EOF's, with src and the
    index of the first token (0; a _cut's is its place in this scan)."""
    texts = _TOKEN.findall(src)
    kinds = [_KINDS.get(x) or _FIRST.get(x[0], "ERROR") for x in texts]
    if "ERROR" in kinds:
        i = kinds.index("ERROR")
        x = texts[i]
        raise ParseError(
            "σ must be followed by 1 or 2" if x[0] == "σ"
            else f"unknown combinator '{x}' (expected {', '.join(SCHEME_ARITY)} or I)"
            if "A" <= x[0] <= "Z" else f"unexpected character {x!r}", _spans(src)[i])
    if not src.isascii():
        texts = [_SIGMA.get(x) or x.replace("′", "'") for x in texts]
    kinds.append("EOF")
    texts.append("")
    return kinds, texts, src, 0


def _spans(src: str) -> list[tuple[int, int]]:
    """The byte spans of src's tokens, then EOF's; only errors and lex ask."""
    spans = [m.span(1) for m in _TOKEN.finditer(src)]
    spans.append((len(src), len(src)))
    if src.isascii():
        return spans
    # character offsets to byte offsets (surrogates count 3)
    offs = list(accumulate((len(ch.encode("utf-8", "surrogatepass")) for ch in src), initial=0))
    return [(offs[i], offs[j]) for i, j in spans]


def lex(src: str) -> list[Token]:
    kinds, texts = _scan(src)[:2]
    return [Token(k, x, *span) for k, x, span in zip(kinds, texts, _spans(src))]


# Deeper input is refused with a ParseError rather than left to exhaust
# the interpreter's stack in the parser, the printers or the checkers.
MAX_NESTING = 100


class _P:
    """A parser over one _scan: each rule reads the token at pos and moves
    pos past what it takes. A rule's depth counts the nested rules around
    it: terms and types in parentheses, binder bodies, pair components and
    the right sides of '&' and '|'."""

    def __init__(self, toks: tuple[list, list, str, int]):
        self.kinds, self.texts, self.src, self.first = toks
        self.pos = 0

    def expect(self, kind: str, what: str) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            self.err(f"expected {what}, found '{self.texts[i] or 'end of input'}'")
        self.pos = i + 1
        return i

    def err(self, msg: str, i: Optional[int] = None):
        i = self.pos if i is None else i
        start, end = _spans(self.src)[self.first + i]
        raise ParseError(msg, (start, start if self.kinds[i] == "EOF" else end))

    def too_deep(self):
        self.err(f"input nests deeper than {MAX_NESTING} levels")

    def done(self, what: str = "term"):
        if self.kinds[self.pos] != "EOF":
            self.err(f"unexpected input after the {what}: '{self.texts[self.pos]}'")

    # ---- types ----

    def type_top(self) -> Ty:
        if self.kinds[self.pos] in ("HASH", "BOT"):
            self.pos += 1
            return BOTTOM
        return self.disj()

    def disj(self, depth: int = 0) -> MType:
        if depth > MAX_NESTING:
            self.too_deep()
        left = self.conj(depth)
        if self.kinds[self.pos] != "PIPE":
            return left
        self.pos += 1
        return Disj(left, self.disj(depth + 1))

    def conj(self, depth: int) -> MType:
        if depth > MAX_NESTING:
            self.too_deep()
        left = self.atomic(depth)
        if self.kinds[self.pos] != "AMP":
            return left
        self.pos += 1
        return Conj(left, self.conj(depth + 1))

    def atomic(self, depth: int) -> MType:
        i = self.pos
        kind = self.kinds[i]
        if kind == "NAME":
            if self.kinds[i + 1] == "BOT":
                self.pos = i + 2
                return NegAtom(self.texts[i])
            self.pos = i + 1
            return Atom(self.texts[i])
        if kind == "TILDE":
            self.pos = i + 1
            return NegAtom(self.texts[self.expect("NAME", "an atom after '~'")])
        if kind == "LPAREN":
            self.pos = i + 1
            inner = self.disj(depth + 1)
            self.expect("RPAREN", "')'")
            if self.kinds[self.pos] == "BOT":
                self.pos += 1
                return negate(inner)
            return inner
        if kind in ("HASH", "BOT"):
            self.err("'#' stands alone; it cannot occur inside a type")
        self.err(f"expected a type, found '{self.texts[i] or 'end of input'}'")

    # ---- terms ----

    def star(self, side, node, depth: int):
        """side, or node(side, side) for side * side; '*' does not associate."""
        if depth > MAX_NESTING:
            self.too_deep()
        left = side(self, depth)
        if self.kinds[self.pos] != "STAR":
            return left
        self.pos += 1
        right = side(self, depth)
        if self.kinds[self.pos] == "STAR":
            self.err("'*' is not associative; parenthesize one side")
        return node(left, right)

    def ls_term(self, depth: int = 0) -> LsTerm:
        return self.star(_P.ls_simple, Star, depth)

    def c_term(self, depth: int = 0) -> CTerm:
        return self.star(_P.c_app, CStar, depth)

    def ls_simple(self, depth: int) -> LsTerm:
        i = self.pos
        kind = self.kinds[i]
        if kind == "NAME":
            x = self.texts[i]
            self.pos = i + 1
            if x != "s1" and x != "s2":
                return Var(x)
            self.expect("LPAREN", f"'(' after {x}")
            body = self.ls_term(depth + 1)
            self.expect("COLON", "':' and the disjunction type")
            ann = self.disj(depth)
            if not isinstance(ann, Disj):
                self.err(f"the {x} annotation must be a disjunction", i)
            self.expect("RPAREN", "')'")
            return (Inj1 if x == "s1" else Inj2)(body, ann)
        if kind == "LAMBDA":
            self.pos = i + 1
            nm = self.expect("NAME", "a variable after the lambda")
            self.expect("COLON", "':' and the bound type")
            ann = self.disj(depth)
            self.expect("DOT", "'.' before the body")
            return Lam(self.texts[nm], ann, self.ls_term(depth + 1))
        if kind == "LANGLE":
            self.pos = i + 1
            left = self.ls_term(depth + 1)
            self.expect("COMMA", "',' between the pair components")
            right = self.ls_term(depth + 1)
            self.expect("RANGLE", "'>'")
            return Pair(left, right)
        if kind == "LPAREN":
            self.pos = i + 1
            inner = self.ls_term(depth + 1)
            self.expect("RPAREN", "')'")
            return inner
        self.err(f"expected a term, found '{self.texts[i] or 'end of input'}'")

    def c_app(self, depth: int) -> CTerm:
        t = self.c_prim(depth)
        while self.kinds[self.pos] in ("NAME", "COMB", "LPAREN"):
            t = App(t, self.c_prim(depth))
        return t

    def c_prim(self, depth: int) -> CTerm:
        i = self.pos
        kind = self.kinds[i]
        if kind == "NAME":
            self.pos = i + 1
            return CVar(self.texts[i])
        if kind == "COMB":
            x = self.texts[i]
            self.pos = i + 1
            if self.kinds[i + 1] != "LBRACK":
                return IDENT if x == "I" else Comb(x)
            if x == "I":
                self.err("I takes no type parameters; it abbreviates ((S K) K)")
            self.pos = i + 2
            tys = [self.disj(depth)]
            while self.kinds[self.pos] == "COMMA":
                self.pos += 1
                tys.append(self.disj(depth))
            self.expect("RBRACK", "']'")
            if len(tys) != SCHEME_ARITY[x]:
                self.err(f"{x} takes {SCHEME_ARITY[x]} type parameters, got {len(tys)}", i)
            return Comb(x, tuple(tys))
        if kind == "LPAREN":
            self.pos = i + 1
            inner = self.c_term(depth + 1)
            self.expect("RPAREN", "')'")
            return inner
        self.err(f"expected a term, found '{self.texts[i] or 'end of input'}'")

    # ---- contexts ----

    def context(self) -> dict[str, Ty]:
        out: dict[str, Ty] = {}
        if self.kinds[self.pos] == "EOF":
            return out
        while True:
            nm = self.expect("NAME", "a variable name")
            x = self.texts[nm]
            if x in out:
                self.err(f"'{x}' bound twice in the context", nm)
            self.expect("COLON", "':' and a type")
            out[x] = self.type_top()
            if self.kinds[self.pos] != "COMMA":
                return out
            self.pos += 1

    # ---- claims ----

    def claim(self, term, reduction: bool) -> tuple:
        """`term =>* term` if reduction, else `term : type`; term is a rule."""
        left = term(self)
        if reduction:
            self.expect("REDUCES", "'=>*'")
            return left, term(self)
        self.expect("COLON", "':' and the claimed type")
        return left, self.type_top()


def _read(toks: tuple, rule, what: str = "term"):
    """Run rule, a _P method, over a _scan; it must use all of it."""
    p = _P(toks)
    out = rule(p)
    p.done(what)
    return out


def _cut(toks: tuple, i: int, j: int) -> tuple:
    """Tokens i to j-1 of a _scan, then an EOF where token j starts."""
    kinds, texts, src, first = toks
    return kinds[i:j] + ["EOF"], texts[i:j] + [""], src, first + i


def parse_type(src: str) -> Ty:
    return _read(_scan(src), _P.type_top, "type")


def parse_ls(src: str) -> LsTerm:
    return _read(_scan(src), _P.ls_term)


def parse_c(src: str) -> CTerm:
    return _read(_scan(src), _P.c_term)


def parse_context(src: str) -> dict[str, Ty]:
    return _read(_scan(src), _P.context, "context")


_TERM_RULES = {"ls": _P.ls_term, "ccl": _P.c_term}


def _either(toks: tuple, read, calculus: Optional[str] = None):
    """(calculus, read(toks, its term rule)), the calculus given or else the
    first of "ls" and "ccl" that reads toks; see the module docstring."""
    if calculus is not None:
        return calculus, read(toks, _TERM_RULES[calculus])
    try:
        return "ls", read(toks, _P.ls_term)
    except ParseError as ls_err:
        try:
            return "ccl", read(toks, _P.c_term)
        except ParseError as c_err:
            i, j = ls_err.span[0], c_err.span[0]
            raise ls_err if i > j or i == j and _lambda_only(toks) else c_err


def _lambda_only(toks: tuple) -> bool:
    """Is a lambda, '<', s1( or s2( in toks, and no combinator or '['?"""
    kinds, texts = toks[0], toks[1]
    ls = "LAMBDA" in kinds or "LANGLE" in kinds or any(
        x in ("s1", "s2") and k == "LPAREN" for x, k in zip(texts, kinds[1:]))
    return ls and "COMB" not in kinds and "LBRACK" not in kinds


def parse_term_auto(src: str, calculus: Optional[str] = None
                    ) -> tuple[str, Union[LsTerm, CTerm]]:
    """Read a term in the given calculus ("ls" or "ccl"), else in either.

    Terms made only of variables, '*' and parens parse in both; those are
    reported as lambda-side, where the two calculi agree anyway.
    """
    return _either(_scan(src), _read, calculus)


# ---- printers ----


def print_ls(t: LsTerm) -> str:
    return _print_ls(t, "top")


def _print_ls(node: LsTerm, ctx: str) -> str:
    # ctx: "top" | "star_left" | "star_right"; the commonest classes first
    cls = type(node)
    if cls is Var:
        return node.name
    if cls is Pair:
        return f"<{_print_ls(node.left, 'top')}, {_print_ls(node.right, 'top')}>"
    if cls is Star:
        s = f"{_print_ls(node.left, 'star_left')} * {_print_ls(node.right, 'star_right')}"
        return f"({s})" if ctx != "top" else s
    if cls is Lam:
        s = f"\\{node.var}:{print_type(node.ann)}. {_print_ls(node.body, 'top')}"
        return f"({s})" if ctx == "star_left" else s
    if cls is Inj1 or cls is Inj2:
        tag = "s1" if cls is Inj1 else "s2"
        return f"{tag}({_print_ls(node.body, 'top')} : {print_type(node.ann)})"
    raise TypeError(f"not a term: {node!r}")


def print_c(t: CTerm) -> str:
    return _print_c(t, 0)


def _print_c(node: CTerm, minlvl: int) -> str:
    # levels: 0 star, 1 application, 2 primary; the commonest classes first
    cls = type(node)
    if cls is App:
        if node == IDENT:  # exact inst-free identity prints as its own name
            return "I"
        s = f"{_print_c(node.fun, 1)} {_print_c(node.arg, 2)}"
        return f"({s})" if minlvl > 1 else s
    if cls is CVar:
        return node.name
    if cls is Comb:
        if node.inst is None:
            return node.which
        return node.which + "[" + ", ".join(print_type(p) for p in node.inst) + "]"
    if cls is CStar:
        s = f"{_print_c(node.left, 1)} * {_print_c(node.right, 1)}"
        return f"({s})" if minlvl > 0 else s
    raise TypeError(f"not a term: {node!r}")


# ---- claim files ----


@dataclass
class TypingClaim:
    calculus: str
    ctx: dict[str, Ty]
    term: Union[LsTerm, CTerm]
    ty: Ty
    line_no: int
    text: str


@dataclass
class ReductionClaim:
    calculus: str
    ctx: Optional[dict[str, Ty]]
    source: Union[LsTerm, CTerm]
    target: Union[LsTerm, CTerm]
    max_steps: Optional[int]
    line_no: int
    text: str


Claim = Union[TypingClaim, ReductionClaim]


def parse_claims(text: str) -> list[Claim]:
    claims: list[Claim] = []
    header_ctx: Optional[dict[str, Ty]] = None
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip(_BLANKS)  # the lexer's blanks, no others
        if not line or line.startswith("#"):
            continue
        at = len(raw[:raw.index(line[0])].encode("utf-8"))  # where the parser's text starts
        try:
            if line.startswith("@ctx"):
                at += len("@ctx")
                header_ctx = parse_context(line[len("@ctx"):])
            else:
                claims.append(_parse_claim_line(line, line_no, header_ctx))
        except ParseError as e:
            raise ParseError(e.message, (e.span[0] + at, e.span[1] + at), line_no) from None
    return claims


_MAX = ["LBRACK", "NAME", "NUMBER", "RBRACK", "EOF"]  # a trailing [max N]
MAX_CLAIM_STEPS = 1000  # the largest N a claim's [max N] may ask for


def _parse_claim_line(line: str, line_no: int, ctx: Optional[dict[str, Ty]]) -> Claim:
    """ctx, the @ctx header's, holds unless the line has its own `CTX |-`."""
    toks = _scan(line)
    if "TURNSTILE" in toks[0]:
        i = toks[0].index("TURNSTILE")
        ctx = _read(_cut(toks, 0, i), _P.context, "context")
        toks = _cut(toks, i + 1, len(toks[0]) - 1)
    kinds, texts = toks[0], toks[1]
    reduction = "REDUCES" in kinds
    max_steps = None
    # cut off, not read: the `[` of `K [max 5]` would start an instantiation
    if reduction and kinds[-5:] == _MAX and texts[-4] == "max":
        max_steps = int(texts[-3])
        if max_steps > MAX_CLAIM_STEPS:
            raise ParseError(f"[max N] allows at most {MAX_CLAIM_STEPS} steps, got {texts[-3]}",
                             _spans(line)[toks[3] + len(kinds) - 3])
        toks = _cut(toks, 0, len(kinds) - 5)

    def read(ts: tuple, term) -> tuple:
        return _read(ts, lambda p: p.claim(term, reduction), "claim")

    calc, (left, right) = _either(toks, read)
    if reduction:
        return ReductionClaim(calc, ctx, left, right, max_steps, line_no, line)
    return TypingClaim(calc, ctx or {}, left, right, line_no, line)
