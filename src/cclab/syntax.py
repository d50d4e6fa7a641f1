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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .ccl import App, Comb, CStar, CTerm, CVar, IDENT, SCHEME_ARITY
from .lambda_sym import Inj1, Inj2, Lam, LsTerm, Pair, Star, Var
from .types import (
    BOTTOM,
    Atom,
    Bottom,
    Conj,
    Disj,
    MetaVar,
    MType,
    NegAtom,
    Ty,
    negate,
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


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    start: int
    end: int


_SINGLE = {
    "(": "LPAREN", ")": "RPAREN", "<": "LANGLE", ">": "RANGLE",
    ",": "COMMA", "*": "STAR", "\\": "LAMBDA", ".": "DOT", ":": "COLON",
    "&": "AMP", "~": "TILDE", "#": "HASH", "[": "LBRACK", "]": "RBRACK",
}
_UNI_SINGLE = {
    "λ": "LAMBDA", "⋆": "STAR", "∧": "AMP", "∨": "PIPE",
    "⊥": "BOT", "⟨": "LANGLE", "⟩": "RANGLE", "⊢": "TURNSTILE",
}
_COMB_NAMES = frozenset({"K", "S", "C", "P", "Q1", "Q2", "I"})
_NAME_CONT = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'")


def lex(src: str) -> list[Token]:
    toks: list[Token] = []
    i, bo, n = 0, 0, len(src)
    while i < n:
        ch = src[i]
        blen = len(ch.encode("utf-8"))
        if ch in " \t\r\n":
            i += 1
            bo += blen
            continue
        start = bo
        if src.startswith("|-", i):
            toks.append(Token("TURNSTILE", "|-", start, start + 2))
            i += 2
            bo += 2
            continue
        if src.startswith("=>*", i):
            toks.append(Token("REDUCES", "=>*", start, start + 3))
            i += 3
            bo += 3
            continue
        if ch == "|":
            toks.append(Token("PIPE", "|", start, start + 1))
            i += 1
            bo += 1
            continue
        if ch in _UNI_SINGLE:
            toks.append(Token(_UNI_SINGLE[ch], ch, start, start + blen))
            i += 1
            bo += blen
            continue
        if ch == "σ":
            sub = src[i + 1] if i + 1 < n else ""
            digits = {"1": "s1", "2": "s2", "₁": "s1", "₂": "s2"}
            if sub not in digits:
                raise ParseError("σ must be followed by 1 or 2", (start, start + blen))
            w = blen + len(sub.encode("utf-8"))
            toks.append(Token("NAME", digits[sub], start, start + w))
            i += 2
            bo += w
            continue
        if ch in _SINGLE:
            toks.append(Token(_SINGLE[ch], ch, start, start + 1))
            i += 1
            bo += 1
            continue
        if (ch.isascii() and ch.islower()) or ch == "_":
            j = i + 1
            while j < n and (src[j] in _NAME_CONT or src[j] == "′"):
                j += 1
            text = src[i:j].replace("′", "'")
            w = len(src[i:j].encode("utf-8"))
            toks.append(Token("NAME", text, start, start + w))
            i = j
            bo += w
            continue
        if ch.isascii() and ch.isupper():
            j = i + 1
            while j < n and src[j].isascii() and (src[j].isupper() or src[j].isdigit()):
                j += 1
            text = src[i:j]
            if text not in _COMB_NAMES:
                raise ParseError(
                    f"unknown combinator '{text}' (expected K, S, C, P, Q1, Q2 or I)",
                    (start, start + len(text)),
                )
            toks.append(Token("COMB", text, start, start + len(text)))
            i = j
            bo += len(text)
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("NUMBER", src[i:j], start, start + (j - i)))
            bo += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", (start, start + blen))
    toks.append(Token("EOF", "", bo, bo))
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

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

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

    def ls_term(self) -> LsTerm:
        first = self.ls_simple()
        if self.peek().kind == "STAR":
            op = self.advance()
            second = self.ls_simple()
            if self.peek().kind == "STAR":
                self.err("'*' is not associative; parenthesize one side")
            return Star(first, second, span=(_sp(first) or op.start, op.end))
        return first

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
        left = self.c_app()
        if self.peek().kind == "STAR":
            op = self.advance()
            right = self.c_app()
            if self.peek().kind == "STAR":
                self.err("'*' is not associative; parenthesize one side")
            return CStar(left, right, span=(_sp(left) or op.start, op.end))
        return left

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


def _sp(t) -> Optional[int]:
    return t.span[0] if getattr(t, "span", None) else None


def _ep(t) -> Optional[int]:
    return t.span[1] if getattr(t, "span", None) else None


def parse_type(src: str) -> Ty:
    p = _P(lex(src))
    ty = p.type_top()
    p.done("type")
    return ty


def parse_mtype(src: str) -> MType:
    p = _P(lex(src))
    ty = p.disj()
    p.done("type")
    return ty


def parse_ls(src: str) -> LsTerm:
    p = _P(lex(src))
    t = p.ls_term()
    p.done()
    return t


def parse_c(src: str) -> CTerm:
    p = _P(lex(src))
    t = p.c_term()
    p.done()
    return t


def parse_context(src: str) -> dict[str, Ty]:
    p = _P(lex(src))
    ctx = p.context()
    p.done("context")
    return ctx


def parse_term_auto(src: str) -> tuple[str, Union[LsTerm, CTerm]]:
    """Try the lambda grammar, then the combinatory one.

    Terms made only of variables, '*' and parens parse in both; those are
    reported as lambda-side, where the two calculi agree anyway.
    """
    toks = lex(src)
    try:
        p = _P(toks)
        t = p.ls_term()
        p.done()
        return "ls", t
    except ParseError as ls_err:
        try:
            p = _P(toks)
            t = p.c_term()
            p.done()
            return "ccl", t
        except ParseError as c_err:
            raise c_err if (c_err.span or (0,))[0] > (ls_err.span or (0,))[0] else ls_err


# ---- printers ----


def print_type(ty: Ty) -> str:
    def go(t: MType, minlvl: int) -> str:
        match t:
            case Atom(name):
                return name
            case NegAtom(name):
                return "~" + name
            case MetaVar(ident, neg):
                return ("~?" if neg else "?") + str(ident)
            case Conj(l, r):
                s = f"{go(l, 3)} & {go(r, 3)}"
                return f"({s})" if minlvl > 2 else s
            case Disj(l, r):
                s = f"{go(l, 2)} | {go(r, 2)}"
                return f"({s})" if minlvl > 1 else s
        raise TypeError(f"not a type: {t!r}")

    if isinstance(ty, Bottom):
        return "#"
    return go(ty, 1)


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


def print_term(calculus: str, t: Union[LsTerm, CTerm]) -> str:
    return print_ls(t) if calculus == "ls" else print_c(t)


def print_context(ctx) -> str:
    return ", ".join(f"{x} : {print_type(ty)}" for x, ty in ctx.items())


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


def _slice(toks: list[Token], lo: int, hi: int) -> list[Token]:
    """toks[lo:hi] plus a synthetic EOF at the cut point."""
    at = toks[hi].start if hi < len(toks) else toks[-1].end
    return toks[lo:hi] + [Token("EOF", "", at, at)]


def _parse_both(toks: list[Token], build) -> tuple[str, object]:
    last: Optional[ParseError] = None
    for calc in ("ls", "ccl"):
        try:
            return calc, build(calc)
        except ParseError as e:
            if last is None or (e.span or (0,))[0] >= (last.span or (0,))[0]:
                last = e
    raise last


def _strip_max(toks: list[Token]) -> tuple[list[Token], Optional[int]]:
    # ... [ max N ] EOF
    if (
        len(toks) >= 5
        and toks[-1].kind == "EOF"
        and toks[-2].kind == "RBRACK"
        and toks[-3].kind == "NUMBER"
        and toks[-4].kind == "NAME"
        and toks[-4].text == "max"
        and toks[-5].kind == "LBRACK"
    ):
        return _slice(toks, 0, len(toks) - 5), int(toks[-3].text)
    return toks, None


def parse_claims(text: str) -> list[Claim]:
    claims: list[Claim] = []
    header_ctx: Optional[dict[str, Ty]] = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@ctx"):
            try:
                header_ctx = parse_context(line[len("@ctx"):])
            except ParseError as e:
                e.line_no = line_no
                raise
            continue
        try:
            claims.append(_parse_claim_line(line, line_no, header_ctx))
        except ParseError as e:
            if e.line_no is None:
                e.line_no = line_no
            raise
    return claims


def _parse_claim_line(line: str, line_no: int,
                      header_ctx: Optional[dict[str, Ty]]) -> Claim:
    toks = lex(line)
    ctx: Optional[dict[str, Ty]] = None
    body_from = 0
    for i, tk in enumerate(toks):
        if tk.kind == "TURNSTILE":
            p = _P(_slice(toks, 0, i))
            ctx = p.context()
            p.done("context")
            body_from = i + 1
            break
    body = _slice(toks, body_from, len(toks) - 1)

    reduces_at = next((i for i, tk in enumerate(body) if tk.kind == "REDUCES"), None)
    if reduces_at is not None:
        lhs = _slice(body, 0, reduces_at)
        rhs, max_steps = _strip_max(_slice(body, reduces_at + 1, len(body) - 1))

        def build(calc: str):
            def one(ts):
                p = _P(ts)
                t = p.ls_term() if calc == "ls" else p.c_term()
                p.done()
                return t
            return one(lhs), one(rhs)

        calc, (src, tgt) = _parse_both(body, build)
        use_ctx = ctx if ctx is not None else header_ctx
        return ReductionClaim(calc, use_ctx, src, tgt, max_steps, line_no, line)

    def build_typing(calc: str):
        p = _P(body)
        t = p.ls_term() if calc == "ls" else p.c_term()
        p.expect("COLON", "':' and the claimed type")
        ty = p.type_top()
        p.done("claim")
        return t, ty

    calc, (term, ty) = _parse_both(body, build_typing)
    use_ctx = ctx if ctx is not None else (header_ctx or {})
    return TypingClaim(calc, use_ctx, term, ty, line_no, line)
