"""Surface syntax: a tokenizer, a term parser, and the circuit file format.

Objects are written ``I``, ``B``, ``obj^n``, ``obj^*``, ``obj x obj``
and ``(obj)``.  Terms are ``id<obj>``, ``swap<obj,obj>``, ``copy<obj>``,
``del<obj>``, ``coin(p)``, ``if<obj>``, sequential ``t ; t``, parallel
``t x t`` and ``iter[state; (in,...); (out,...)](body)``, with ``x``
binding tighter than ``;`` and both associating to the left.  Rationals
are ``num/den`` or a bare integer.  Parentheses, and stars in an object,
nest at most 200 levels deep.

Circuit files are UTF-8.  ``--`` starts a line comment.  Blanks are
space, tab, CR and LF; any other character that no token takes (a form
feed, a no-break space, a byte order mark) is stray and refused.  An
error gives a 1-based line and a column counted in characters.

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

# Blanks, then a token (an identifier, an integer or a symbol), a
# comment, a stray character, or the end of the source: trailing blanks
# are one match, not one failed search per blank.
_TOKEN = re.compile(r"""
    [ \t\r\n]*
    (?: ( [^\W\d]\w* | \d+ | [;()<>\[\],=^*/] )
      | ( --[^\n]* )
      | ( [^ \t\r\n] )
      | \Z )
""", re.VERBOSE)
_SYMBOLS = frozenset(";()<>[],=^*/")


def _is_name(text: str) -> bool:
    """Whether a token, or ``""`` at the end, is an identifier."""
    return text != "" and text not in _SYMBOLS and not text.isdecimal()


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


def _error(source: str, offset: int, message: str) -> PBCSyntaxError:
    """``message`` at the character ``offset`` of ``source``."""
    return PBCSyntaxError(message, source.count("\n", 0, offset) + 1,
                          offset - source.rfind("\n", 0, offset))


def _tokenize(source: str) -> tuple:
    """The token texts, then ``""`` for the end of input, and the offset
    at which each starts."""
    texts, starts = [], []
    end = len(source)
    for m in _TOKEN.finditer(source):
        kind = m.lastindex
        if kind == 1:
            texts.append(m[1])
            starts.append(m.start(1))
        elif kind == 3:
            raise _error(source, m.start(3), f"stray character {m[3]!r}")
        elif kind == 2 and m.end() == end:
            # End of input after a trailing comment is placed at the comment.
            end = m.start(2)
    texts.append("")
    starts.append(end)
    return texts, starts


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks, self.starts = _tokenize(source)
        self.pos = 0
        self.depth = 0
        self.bindings: dict = {}
        self.shared: dict = {}  # (Id, Swap or gate builder, *words) -> term

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def error(self, message: str, pos: int | None = None) -> PBCSyntaxError:
        """``message`` at token ``pos``, by default the next one."""
        offset = self.starts[self.pos if pos is None else pos]
        return _error(self.source, offset, message)

    def expect(self, text: str) -> None:
        if not self.at(text):
            raise self.error(f"expected {text!r}")
        self.pos += 1

    def nested(self, inner):
        """``( inner )``, one level deeper."""
        self.expect("(")
        if self.depth == _MAX_NESTING:
            raise self.error(
                f"parentheses nested deeper than {_MAX_NESTING} levels",
                self.pos - 1)
        self.depth += 1
        out = inner()
        self.depth -= 1
        self.expect(")")
        return out

    def check(self, term: Term, what: str, at: int) -> None:
        """Typecheck a statement; an error names its first token ``at``."""
        try:
            typecheck(term)
        except PBCTypeError as err:
            raise self.error(f"in {what}: {err}", at) from err

    # -- objects -----------------------------------------------------------

    def object_(self) -> Object:
        out = self.object_factor()
        while self.at("x"):
            self.pos += 1
            out = tensor(out, self.object_factor())
        return out

    def object_factor(self) -> Object:
        t = self.peek()
        if t == "I":
            self.pos += 1
            obj: Object = UNIT
        elif t == "B":
            self.pos += 1
            obj = B
        elif t == "(":
            obj = self.nested(self.object_)
        else:
            raise self.error("expected an object")
        while self.at("^"):
            self.pos += 1
            t = self.peek()
            if t.isdecimal():
                self.pos += 1
                obj = power(obj, int(t))
            elif t == "*":
                obj = star(obj)
                if _star_depth(obj) > _MAX_NESTING:
                    raise self.error(
                        f"stars nested deeper than {_MAX_NESTING} levels")
                self.pos += 1
            else:
                raise self.error("expected a power or '*' after '^'")
        return obj

    # -- terms ---------------------------------------------------------------

    def rational(self) -> Fraction:
        t = self.peek()
        if not t.isdecimal():
            raise self.error("expected a rational")
        self.pos += 1
        num = int(t)
        if self.at("/"):
            self.pos += 1
            d = self.peek()
            if not d.isdecimal():
                raise self.error("expected a denominator")
            den = int(d)
            if den == 0:
                raise self.error("zero denominator")
            self.pos += 1
            return Fraction(num, den)
        return Fraction(num)

    def term(self) -> Term:
        out = self.term_factor()
        while self.at(";"):
            self.pos += 1
            out = Seq(out, self.term_factor())
        return out

    def term_factor(self) -> Term:
        out = self.term_primary()
        while self.at("x"):
            self.pos += 1
            out = Par(out, self.term_primary())
        return out

    def angle_object(self) -> Object:
        self.expect("<")
        obj = self.object_()
        self.expect(">")
        return obj

    def term_primary(self) -> Term:
        name = self.peek()
        if name == "(":
            return self.nested(self.term)
        if not _is_name(name):
            raise self.error("expected a term")
        if name == "id":
            self.pos += 1
            return self.one(Id, self.angle_object())
        if name == "swap":
            self.pos += 1
            self.expect("<")
            left = self.object_()
            self.expect(",")
            right = self.object_()
            self.expect(">")
            return self.one(Swap, left, right)
        if name in _GENERATORS:
            self.pos += 1
            obj = self.angle_object()
            primitive, lifted = _GENERATORS[name]
            return primitive(obj) if is_star_free(obj) else lifted(obj)
        if name == "coin":
            self.pos += 1
            self.expect("(")
            p = self.rational()
            self.expect(")")
            return coin(p)
        if name == "iter":
            self.pos += 1
            self.expect("[")
            state = self.object_()
            self.expect(";")
            inputs = self.object_list()
            self.expect(";")
            outputs = self.object_list()
            self.expect("]")
            return TauStar(state, inputs, outputs, self.nested(self.term))
        if name in _KEYWORDS:
            raise self.error(f"{name!r} cannot start a term here")
        if name in self.bindings:
            term = self.bindings[name]
        elif name in _BUILTINS:
            term = self.one(_BUILTINS[name])
        else:
            raise self.error(f"unknown identifier {name!r}")
        self.pos += 1
        return term

    def one(self, make, *words) -> Term:
        """The one ``id`` or ``swap`` term of these words, or the one term
        of a builtin gate, in the source."""
        key = (make, *words)
        term = self.shared.get(key)
        if term is None:
            term = self.shared[key] = make(*words)
        return term

    def object_list(self) -> tuple:
        self.expect("(")
        if self.at(")"):
            self.pos += 1
            return ()
        objs = [self.object_()]
        while self.at(","):
            self.pos += 1
            objs.append(self.object_())
        self.expect(")")
        return tuple(objs)

    def end(self, out):
        """``out``, once every token has been read."""
        if not self.at(""):
            raise self.error("unexpected trailing input")
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
    if not (p.at("let") or p.at("main")):
        return p.end(p.term())
    main: Term | None = None
    while not p.at(""):
        at = p.pos
        if p.at("let"):
            p.pos += 1
            name = p.peek()
            if not _is_name(name) or name in _KEYWORDS:
                raise p.error("expected a binding name after 'let'")
            if name in _BUILTINS:
                raise p.error(f"{name!r} rebinds a builtin gate")
            if name in p.bindings:
                raise p.error(f"{name!r} is already bound")
            p.pos += 1
            p.expect("=")
            term = p.term()
            p.check(term, f"let {name}", at)
            p.bindings[name] = term
        elif p.at("main"):
            if main is not None:
                raise p.error("a second 'main' entry")
            p.pos += 1
            p.expect("=")
            main = p.term()
            p.check(main, "main", at)
        else:
            raise p.error("expected 'let' or 'main'")
    if main is None:
        raise p.error("no 'main' entry")
    return main
