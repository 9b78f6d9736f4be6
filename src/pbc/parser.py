"""Surface syntax: a tokenizer, a term parser, and the circuit file format.

Objects are written ``I``, ``B``, ``obj^n``, ``obj^*``, ``obj x obj``
and ``(obj)``.  Terms are ``id<obj>``, ``swap<obj,obj>``, ``copy<obj>``,
``del<obj>``, ``coin(p)``, ``if<obj>``, sequential ``t ; t``, parallel
``t x t`` and ``iter[state; (in,...); (out,...)](body)``, with ``x``
binding tighter than ``;`` and both associating to the left.  Rationals
are ``num/den`` or a bare integer.  ``--`` starts a line comment.
Parentheses, and stars in an object, nest at most 200 levels deep.

``copy``, ``del`` and ``if`` at star-containing objects are sugar: the
parser elaborates them into the iteration circuits that lift the
generators pointwise (the generators themselves exist at star-free
words only).  Bare identifiers name the small builtin gate library or,
inside circuit files, earlier ``let`` bindings.

A circuit file is a sequence of ``let name = term`` bindings and
exactly one ``main = term``; every binding is typechecked where it is
introduced so errors carry the statement's position.  A file that
starts with neither ``let`` nor ``main`` is one bare term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .objects import B, UNIT, Object, Star, is_star_free, power, star, tensor
from .terms import (
    COPY, DISCARD, GEN_NAMES, PHI, Id, PBCError, PBCTypeError, Seq, Par,
    Swap, TauStar, Term, coin, copy_gen, discard_gen, phi_gen, typecheck,
)
from .combinators import (
    and_gate, copy_at, discard_at, eq_bit, not_gate, phi_at, xor_gate,
)

__all__ = ["PBCSyntaxError", "parse_term", "parse_object", "parse_circuit"]


class PBCSyntaxError(PBCError):
    """Source text rejected, with position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_KEYWORDS = frozenset({
    "let", "main", "id", "swap", "copy", "del", "coin", "if", "iter",
    "x", "I", "B",
})

_BUILTINS = {
    "not": not_gate,
    "and": and_gate,
    "xor": xor_gate,
    "eq_bit": eq_bit,
}

# Generators written name<obj>: the primitive at star-free words, the
# star-lifted circuit elsewhere.
_GENERATORS = {
    GEN_NAMES[COPY]: (copy_gen, copy_at),
    GEN_NAMES[DISCARD]: (discard_gen, discard_at),
    GEN_NAMES[PHI]: (phi_gen, phi_at),
}

# One alternative per token kind, tried in order.  Identifiers follow
# Python's Unicode rule; a character no alternative takes is stray.
_TOKEN = re.compile(r"""
    (?P<newline> \n )
  | (?P<space> [ \t\r]+ )
  | (?P<comment> --[^\n]* )
  | (?P<ident> [^\W\d]\w* )
  | (?P<int> \d+ )
  | (?P<sym> [;()<>\[\],=^*/] )
  | (?P<stray> . )
""", re.VERBOSE)


# Parentheses nest the parser's recursion, and stars the recursion of
# every walk over an object: past this depth a source is refused before
# the recursion runs out.
_MAX_NESTING = 200


def _star_depth(obj: Object) -> int:
    """How deep stars nest in an object: 0 for a star-free word."""
    depth = 0
    while True:
        obj = [a for s in obj if isinstance(s, Star) for a in s.inner]
        if not obj:
            return depth
        depth += 1


@dataclass(frozen=True, slots=True)
class _Tok:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list:
    toks = []
    line = 1
    line_start = end = 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "stray":
            raise PBCSyntaxError(f"stray character {m.group()!r}", line, col)
        elif kind in ("ident", "int", "sym"):
            toks.append(_Tok(kind, m.group(), line, col))
        # End of input after a trailing comment is placed at the comment.
        end = m.start() if kind == "comment" else m.end()
    toks.append(_Tok("eof", "", line, end - line_start + 1))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.toks = _tokenize(source)
        self.pos = 0
        self.depth = 0
        self.bindings: dict = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str) -> None:
        t = self.peek()
        raise PBCSyntaxError(message, t.line, t.col)

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def at_word(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == text

    def expect_sym(self, text: str) -> _Tok:
        if not self.at_sym(text):
            self.fail(f"expected {text!r}")
        return self.next()

    def nested(self, inner):
        """``( inner )``, one level deeper."""
        t = self.expect_sym("(")
        if self.depth == _MAX_NESTING:
            raise PBCSyntaxError(
                f"parentheses nested deeper than {_MAX_NESTING} levels",
                t.line, t.col)
        self.depth += 1
        out = inner()
        self.depth -= 1
        self.expect_sym(")")
        return out

    # -- objects -----------------------------------------------------------

    def object_(self) -> Object:
        out = self.object_factor()
        while self.at_word("x"):
            self.next()
            out = tensor(out, self.object_factor())
        return out

    def object_factor(self) -> Object:
        t = self.peek()
        if t.kind == "ident" and t.text == "I":
            self.next()
            obj: Object = UNIT
        elif t.kind == "ident" and t.text == "B":
            self.next()
            obj = B
        elif self.at_sym("("):
            obj = self.nested(self.object_)
        else:
            self.fail("expected an object")
        while self.at_sym("^"):
            self.next()
            t = self.peek()
            if t.kind == "int":
                self.next()
                obj = power(obj, int(t.text))
            elif self.at_sym("*"):
                t = self.next()
                obj = star(obj)
                if _star_depth(obj) > _MAX_NESTING:
                    raise PBCSyntaxError(
                        f"stars nested deeper than {_MAX_NESTING} levels",
                        t.line, t.col)
            else:
                self.fail("expected a power or '*' after '^'")
        return obj

    # -- terms ---------------------------------------------------------------

    def rational(self) -> Fraction:
        t = self.peek()
        if t.kind != "int":
            self.fail("expected a rational")
        self.next()
        num = int(t.text)
        if self.at_sym("/"):
            self.next()
            d = self.peek()
            if d.kind != "int":
                self.fail("expected a denominator")
            self.next()
            den = int(d.text)
            if den == 0:
                raise PBCSyntaxError("zero denominator", d.line, d.col)
            return Fraction(num, den)
        return Fraction(num)

    def term(self) -> Term:
        out = self.term_factor()
        while self.at_sym(";"):
            self.next()
            out = Seq(out, self.term_factor())
        return out

    def term_factor(self) -> Term:
        out = self.term_primary()
        while self.at_word("x"):
            self.next()
            out = Par(out, self.term_primary())
        return out

    def angle_object(self) -> Object:
        self.expect_sym("<")
        obj = self.object_()
        self.expect_sym(">")
        return obj

    def term_primary(self) -> Term:
        t = self.peek()
        if t.kind == "sym" and t.text == "(":
            return self.nested(self.term)
        if t.kind != "ident":
            self.fail("expected a term")
        name = t.text
        if name == "id":
            self.next()
            return Id(self.angle_object())
        if name == "swap":
            self.next()
            self.expect_sym("<")
            left = self.object_()
            self.expect_sym(",")
            right = self.object_()
            self.expect_sym(">")
            return Swap(left, right)
        if name in _GENERATORS:
            self.next()
            obj = self.angle_object()
            primitive, lifted = _GENERATORS[name]
            return primitive(obj) if is_star_free(obj) else lifted(obj)
        if name == "coin":
            self.next()
            self.expect_sym("(")
            p = self.rational()
            self.expect_sym(")")
            return coin(p)
        if name == "iter":
            self.next()
            self.expect_sym("[")
            state = self.object_()
            self.expect_sym(";")
            inputs = self.object_list()
            self.expect_sym(";")
            outputs = self.object_list()
            self.expect_sym("]")
            return TauStar(state, inputs, outputs, self.nested(self.term))
        if name in _KEYWORDS:
            self.fail(f"{name!r} cannot start a term here")
        self.next()
        if name in self.bindings:
            return self.bindings[name]
        if name in _BUILTINS:
            return _BUILTINS[name]()
        raise PBCSyntaxError(f"unknown identifier {name!r}", t.line, t.col)

    def object_list(self) -> tuple:
        self.expect_sym("(")
        if self.at_sym(")"):
            self.next()
            return ()
        objs = [self.object_()]
        while self.at_sym(","):
            self.next()
            objs.append(self.object_())
        self.expect_sym(")")
        return tuple(objs)

    def end(self, out):
        """``out``, once every token has been read."""
        if self.peek().kind != "eof":
            self.fail("unexpected trailing input")
        return out


def parse_term(source: str) -> Term:
    """Parse one term; bare identifiers resolve to the builtin gates."""
    p = _Parser(source)
    return p.end(p.term())


def parse_object(source: str) -> Object:
    """Parse one object word."""
    p = _Parser(source)
    return p.end(p.object_())


def parse_circuit(source: str) -> Term:
    """Parse a circuit file and return its ``main`` term.

    A file whose first token is ``let`` or ``main`` is a sequence of
    ``let`` bindings and exactly one ``main``.  Bindings see builtins
    and earlier bindings only.  Every statement is typechecked on the
    spot, so a type error names the line of the offending definition.
    Any other file is one bare term, parsed exactly as ``parse_term``
    parses it (and not typechecked).
    """
    p = _Parser(source)
    if not (p.at_word("let") or p.at_word("main")):
        return p.end(p.term())
    main: Term | None = None
    while p.peek().kind != "eof":
        t = p.peek()
        if p.at_word("let"):
            p.next()
            name_tok = p.peek()
            if name_tok.kind != "ident" or name_tok.text in _KEYWORDS:
                p.fail("expected a binding name after 'let'")
            name = name_tok.text
            if name in _BUILTINS:
                raise PBCSyntaxError(f"{name!r} rebinds a builtin gate",
                                     name_tok.line, name_tok.col)
            if name in p.bindings:
                raise PBCSyntaxError(f"{name!r} is already bound",
                                     name_tok.line, name_tok.col)
            p.next()
            p.expect_sym("=")
            term = p.term()
            _check_stmt(term, f"let {name}", t)
            p.bindings[name] = term
        elif p.at_word("main"):
            if main is not None:
                raise PBCSyntaxError("a second 'main' entry", t.line, t.col)
            p.next()
            p.expect_sym("=")
            main = p.term()
            _check_stmt(main, "main", t)
        else:
            p.fail("expected 'let' or 'main'")
    if main is None:
        t = p.peek()
        raise PBCSyntaxError("no 'main' entry", t.line, t.col)
    return main


def _check_stmt(term: Term, what: str, at: _Tok) -> None:
    try:
        typecheck(term)
    except PBCTypeError as err:
        raise PBCSyntaxError(f"in {what}: {err}", at.line, at.col) from err
