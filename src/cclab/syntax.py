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

The lexer is one token table: a compiled regular expression with one
alternative per token class, walked once with finditer. Token spans are
byte offsets into the UTF-8 source; numbers are ASCII digits only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
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
_COMB_NAMES = frozenset([*SCHEME_ARITY, "I"])
# One alternative per token class, after optional blanks; a character no
# class takes falls to ERROR. Longer symbols come first, so |- beats |.
_BLANKS = " \t\r\n"
_SYMBOL_RE = "|".join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)))
_TOKEN = re.compile(
    f"[{_BLANKS}]*(?:(?P<SYMBOL>{_SYMBOL_RE})|(?P<NAME>[a-z_][A-Za-z0-9_'′]*)"
    f"|(?P<COMB>[A-Z][A-Z0-9]*)|(?P<NUMBER>[0-9]+)|(?P<SIGMA>σ[12₁₂]?)"
    f"|(?P<ERROR>[^{_BLANKS}]))"
)


def lex(src: str) -> list[Token]:
    # offs[i] is the byte offset of character i (surrogates count 3 bytes)
    offs = range(len(src) + 1) if src.isascii() else list(accumulate(
        (len(ch.encode("utf-8", "surrogatepass")) for ch in src), initial=0))
    toks: list[Token] = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        i, j = m.span(kind)
        text = m[kind]
        if kind == "SYMBOL":
            kind = _SYMBOLS[text]
        elif kind == "NAME":
            text = text.replace("′", "'")
        elif kind == "COMB" and text not in _COMB_NAMES:
            raise ParseError(
                f"unknown combinator '{text}' (expected {', '.join(SCHEME_ARITY)} or I)",
                (offs[i], offs[j]),
            )
        elif kind == "SIGMA":
            if text not in _SIGMA:
                raise ParseError("σ must be followed by 1 or 2", (offs[i], offs[j]))
            kind, text = "NAME", _SIGMA[text]
        elif kind == "ERROR":
            raise ParseError(f"unexpected character {text!r}", (offs[i], offs[j]))
        toks.append(Token(kind, text, offs[i], offs[j]))
    toks.append(Token("EOF", "", offs[-1], offs[-1]))
    return toks


# Deeper input is refused with a ParseError rather than left to exhaust
# the interpreter's stack in the parser, the printers or the checkers.
MAX_NESTING = 100


class _P:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def nest(self, rule):
        """Run rule one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            self.err(f"input nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        out = rule()
        self.depth -= 1
        return out

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text if t.kind != "EOF" else "end of input"
            self.err(f"expected {what}, found '{shown}'", t)
        return self.advance()

    def err(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(msg, (tok.start, tok.end))

    def done(self, what: str = "term"):
        t = self.peek()
        if t.kind != "EOF":
            self.err(f"unexpected input after the {what}: '{t.text}'", t)

    # ---- types ----

    def type_top(self) -> Ty:
        t = self.peek()
        if t.kind in ("HASH", "BOT"):
            self.advance()
            return BOTTOM
        return self.disj()

    def disj(self) -> MType:
        left = self.conj()
        if self.peek().kind == "PIPE":
            self.advance()
            return Disj(left, self.nest(self.disj))
        return left

    def conj(self) -> MType:
        left = self.atomic()
        if self.peek().kind == "AMP":
            self.advance()
            return Conj(left, self.nest(self.conj))
        return left

    def atomic(self) -> MType:
        t = self.peek()
        if t.kind == "TILDE":
            self.advance()
            nm = self.expect("NAME", "an atom after '~'")
            return NegAtom(nm.text)
        if t.kind == "NAME":
            self.advance()
            if self.peek().kind == "BOT":
                self.advance()
                return NegAtom(t.text)
            return Atom(t.text)
        if t.kind == "LPAREN":
            self.advance()
            inner = self.nest(self.disj)
            self.expect("RPAREN", "')'")
            if self.peek().kind == "BOT":
                self.advance()
                return negate(inner)
            return inner
        if t.kind in ("HASH", "BOT"):
            self.err("'#' stands alone; it cannot occur inside a type", t)
        self.err(f"expected a type, found '{t.text or 'end of input'}'", t)

    # ---- lambda-side terms ----

    def star(self, side, node):
        """side, or side * side built with node; '*' does not associate."""
        left = side()
        if self.peek().kind != "STAR":
            return left
        op = self.advance()
        right = side()
        if self.peek().kind == "STAR":
            self.err("'*' is not associative; parenthesize one side")
        return node(left, right, span=(_sp(left) or op.start, op.end))

    def ls_term(self) -> LsTerm:
        return self.star(self.ls_simple, Star)

    def ls_simple(self) -> LsTerm:
        t = self.peek()
        if t.kind == "LAMBDA":
            self.advance()
            nm = self.expect("NAME", "a variable after the lambda")
            self.expect("COLON", "':' and the bound type")
            ann = self.disj()
            self.expect("DOT", "'.' before the body")
            body = self.nest(self.ls_term)
            return Lam(nm.text, ann, body, span=(t.start, _ep(body) or t.end))
        return self.ls_atom()

    def ls_atom(self) -> LsTerm:
        t = self.peek()
        if t.kind == "NAME":
            if t.text in ("s1", "s2"):
                self.advance()
                self.expect("LPAREN", f"'(' after {t.text}")
                body = self.nest(self.ls_term)
                self.expect("COLON", "':' and the disjunction type")
                ann = self.disj()
                if not isinstance(ann, Disj):
                    self.err(f"the {t.text} annotation must be a disjunction", t)
                close = self.expect("RPAREN", "')'")
                ctor = Inj1 if t.text == "s1" else Inj2
                return ctor(body, ann, span=(t.start, close.end))
            self.advance()
            return Var(t.text, span=(t.start, t.end))
        if t.kind == "LANGLE":
            self.advance()
            left = self.nest(self.ls_term)
            self.expect("COMMA", "',' between the pair components")
            right = self.nest(self.ls_term)
            close = self.expect("RANGLE", "'>'")
            return Pair(left, right, span=(t.start, close.end))
        if t.kind == "LPAREN":
            self.advance()
            inner = self.nest(self.ls_term)
            self.expect("RPAREN", "')'")
            return inner
        self.err(f"expected a term, found '{t.text or 'end of input'}'", t)

    # ---- combinatory terms ----

    def c_term(self) -> CTerm:
        return self.star(self.c_app, CStar)

    def c_app(self) -> CTerm:
        t = self.c_prim()
        while self.peek().kind in ("NAME", "COMB", "LPAREN"):
            arg = self.c_prim()
            t = App(t, arg, span=(_sp(t), _ep(arg)))
        return t

    def c_prim(self) -> CTerm:
        t = self.peek()
        if t.kind == "NAME":
            self.advance()
            return CVar(t.text, span=(t.start, t.end))
        if t.kind == "COMB":
            self.advance()
            if t.text == "I":
                if self.peek().kind == "LBRACK":
                    self.err("I takes no type parameters; it abbreviates ((S K) K)")
                return App(App(Comb("S"), Comb("K")), Comb("K"), span=(t.start, t.end))
            inst = None
            if self.peek().kind == "LBRACK":
                self.advance()
                tys = [self.disj()]
                while self.peek().kind == "COMMA":
                    self.advance()
                    tys.append(self.disj())
                close = self.expect("RBRACK", "']'")
                if len(tys) != SCHEME_ARITY[t.text]:
                    self.err(
                        f"{t.text} takes {SCHEME_ARITY[t.text]} type parameters, "
                        f"got {len(tys)}",
                        t,
                    )
                return Comb(t.text, tuple(tys), span=(t.start, close.end))
            return Comb(t.text, inst, span=(t.start, t.end))
        if t.kind == "LPAREN":
            self.advance()
            inner = self.nest(self.c_term)
            self.expect("RPAREN", "')'")
            return inner
        self.err(f"expected a term, found '{t.text or 'end of input'}'", t)

    # ---- contexts ----

    def context(self) -> dict[str, Ty]:
        out: dict[str, Ty] = {}
        if self.peek().kind == "EOF":
            return out
        while True:
            nm = self.expect("NAME", "a variable name")
            if nm.text in out:
                self.err(f"'{nm.text}' bound twice in the context", nm)
            self.expect("COLON", "':' and a type")
            out[nm.text] = self.type_top()
            if self.peek().kind != "COMMA":
                return out
            self.advance()

    # ---- claims ----

    def claim(self, term, reduction: bool) -> tuple:
        """`term =>* term` if reduction, else `term : type`; term is a rule."""
        left = term(self)
        if reduction:
            self.expect("REDUCES", "'=>*'")
            return left, term(self)
        self.expect("COLON", "':' and the claimed type")
        return left, self.type_top()


def _sp(t) -> Optional[int]:
    return t.span[0] if getattr(t, "span", None) else None


def _ep(t) -> Optional[int]:
    return t.span[1] if getattr(t, "span", None) else None


def _read(toks: list[Token], rule, what: str = "term"):
    """Run rule, a _P method, over toks; it must use them all up."""
    p = _P(toks)
    out = rule(p)
    p.done(what)
    return out


def parse_type(src: str) -> Ty:
    return _read(lex(src), _P.type_top, "type")


def parse_ls(src: str) -> LsTerm:
    return _read(lex(src), _P.ls_term)


def parse_c(src: str) -> CTerm:
    return _read(lex(src), _P.c_term)


def parse_context(src: str) -> dict[str, Ty]:
    return _read(lex(src), _P.context, "context")


_TERM_RULES = {"ls": _P.ls_term, "ccl": _P.c_term}


def _either(toks: list[Token], read, calculus: Optional[str] = None):
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


def _lambda_only(toks: list[Token]) -> bool:
    """Is a lambda, '<', s1( or s2( in toks, and no combinator or '['?"""
    ls = any(tk.kind in ("LAMBDA", "LANGLE") or tk.text in ("s1", "s2") and nxt.kind == "LPAREN"
             for tk, nxt in zip(toks, toks[1:]))
    return ls and not any(tk.kind in ("COMB", "LBRACK") for tk in toks)


def parse_term_auto(src: str, calculus: Optional[str] = None
                    ) -> tuple[str, Union[LsTerm, CTerm]]:
    """Read a term in the given calculus ("ls" or "ccl"), else in either.

    Terms made only of variables, '*' and parens parse in both; those are
    reported as lambda-side, where the two calculi agree anyway.
    """
    return _either(lex(src), _read, calculus)


# ---- printers ----


def print_ls(t: LsTerm) -> str:
    def go(node: LsTerm, ctx: str) -> str:
        # ctx: "top" | "star_left" | "star_right"
        match node:
            case Var(x):
                return x
            case Lam(x, ann, body):
                s = f"\\{x}:{print_type(ann)}. {go(body, 'top')}"
                return f"({s})" if ctx == "star_left" else s
            case Star(l, r):
                s = f"{go(l, 'star_left')} * {go(r, 'star_right')}"
                return f"({s})" if ctx != "top" else s
            case Pair(l, r):
                return f"<{go(l, 'top')}, {go(r, 'top')}>"
            case Inj1(b, ann):
                return f"s1({go(b, 'top')} : {print_type(ann)})"
            case Inj2(b, ann):
                return f"s2({go(b, 'top')} : {print_type(ann)})"
        raise TypeError(f"not a term: {node!r}")

    return go(t, "top")


def print_c(t: CTerm) -> str:
    def go(node: CTerm, minlvl: int) -> str:
        # levels: 0 star, 1 application, 2 primary
        if node == IDENT:  # exact inst-free identity prints as its own name
            return "I"
        match node:
            case CVar(x):
                return x
            case Comb(which, inst):
                if inst is None:
                    return which
                return which + "[" + ", ".join(print_type(p) for p in inst) + "]"
            case App(f, a):
                s = f"{go(f, 1)} {go(a, 2)}"
                return f"({s})" if minlvl > 1 else s
            case CStar(l, r):
                s = f"{go(l, 1)} * {go(r, 1)}"
                return f"({s})" if minlvl > 0 else s
        raise TypeError(f"not a term: {node!r}")

    return go(t, 0)


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
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
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
            e.line_no, e.span = line_no, (e.span[0] + at, e.span[1] + at)
            raise
    return claims


_MAX = ["LBRACK", "NAME", "NUMBER", "RBRACK", "EOF"]  # a trailing [max N]


def _parse_claim_line(line: str, line_no: int, ctx: Optional[dict[str, Ty]]) -> Claim:
    """ctx, the @ctx header's, holds unless the line has its own `CTX |-`."""
    toks = lex(line)
    for i, tk in enumerate(toks):
        if tk.kind == "TURNSTILE":
            ctx = _read(toks[:i] + [Token("EOF", "", tk.start, tk.start)], _P.context, "context")
            toks = toks[i + 1:]
            break
    reduction = any(tk.kind == "REDUCES" for tk in toks)
    max_steps = None
    # cut off, not read: the `[` of `K [max 5]` would start an instantiation
    if reduction and [tk.kind for tk in toks[-5:]] == _MAX and toks[-4].text == "max":
        max_steps, at = int(toks[-3].text), toks[-5].start
        toks = toks[:-5] + [Token("EOF", "", at, at)]

    def read(ts: list[Token], term) -> tuple:
        return _read(ts, lambda p: p.claim(term, reduction), "claim")

    calc, (left, right) = _either(toks, read)
    if reduction:
        return ReductionClaim(calc, ctx, left, right, max_steps, line_no, line)
    return TypingClaim(calc, ctx or {}, left, right, line_no, line)
