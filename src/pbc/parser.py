"""Surface syntax: a tokenizer, a term parser, and the circuit file format.

Objects are written ``I``, ``B``, ``obj^n``, ``obj^*``, ``obj x obj``
and ``(obj)``.  Terms are ``id<obj>``, ``swap<obj,obj>``, ``copy<obj>``,
``del<obj>``, ``coin(p)``, ``if<obj>``, sequential ``t ; t``, parallel
``t x t`` and ``iter[state; (in,...); (out,...)](body)``, with ``x``
binding tighter than ``;`` and both associating to the left.  Rationals
are ``num/den`` or a bare integer.  Parentheses, and stars in an object,
nest at most 200 levels deep; a power builds a word of at most 2^20
atoms; an integer literal has at most the digits ``int()`` reads.

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

# Blanks and comments, then a token (an identifier, an integer or a
# symbol), a stray character, or the end of the source: trailing blanks
# are one match, not one failed search per blank.  Whatever follows the
# blanks and comments is one of these, so a match never backtracks.
_TOKEN = re.compile(r"""
    [ \t\r\n]* (?: --[^\n]* [ \t\r\n]* )*
    ( [^\W\d]\w* | \d+ | [;()<>\[\],=^*/] | [^ \t\r\n] | \Z )
""", re.VERBOSE)
_SYMBOLS = frozenset(";()<>[],=^*/")
# A character no token is made of: a stray token starts with one.
_STRAY = re.compile(r"[^\w;()<>\[\],=^*/]")


def _is_name(text: str) -> bool:
    """Whether a token, or ``""`` at the end, is an identifier."""
    return text != "" and text not in _SYMBOLS and not text.isdecimal()


# Parentheses nest the parser's recursion, and stars the recursion of
# every walk over an object: past this depth a source is refused before
# the recursion runs out.  A power builds its word atom by atom, so one
# longer than _MAX_ATOMS is refused before it is built.
_MAX_NESTING = 200
_MAX_ATOMS = 1 << 20

# The token that closes each leaf of the form name<obj> or coin(p).
_LEAF_CLOSE = {"id": ">", "swap": ">", "coin": ")",
               **dict.fromkeys(_GENERATORS, ">")}


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
    """The token texts, then ``""`` for the end of input."""
    texts = _TOKEN.findall(source)
    if len(texts) > 1 and texts[-2] == "":
        # Trailing blanks end in "", and so does the empty match after.
        texts.pop()
    if _STRAY.search("".join(texts)):
        stray = next(i for i, t in enumerate(texts) if _STRAY.match(t))
        raise _error(source, _starts(source, len(texts))[stray],
                     f"stray character {texts[stray]!r}")
    return tuple(texts)


def _starts(source: str, count: int) -> list:
    """The offset at which each of ``count`` tokens starts, found again
    on an error only.  End of input after a trailing comment is placed at the
    comment, which starts at the first ``--`` of the last line."""
    starts = [m.start(1) for m in _TOKEN.finditer(source)][:count]
    comment = source.find("--", source.rfind("\n") + 1)
    starts[-1] = comment if comment >= 0 else len(source)
    return starts


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _tokenize(source)
        self.starts = None  # token offsets, found on the first error
        self.pos = 0
        self.depth = 0
        self.bindings: dict = {}
        # A leaf's token run -> its term, read once per file; and
        # (Id or Swap, *words) -> the one such term of these words.
        self.leaves: dict = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.pos]

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def error(self, message: str, pos: int | None = None) -> PBCSyntaxError:
        """``message`` at token ``pos``, by default the next one."""
        if self.starts is None:
            self.starts = _starts(self.source, len(self.toks))
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

    def integer(self) -> int:
        """The next token, an integer literal."""
        try:
            value = int(self.toks[self.pos])
        except ValueError:  # past the interpreter's digit limit
            raise self.error("integer literal too long") from None
        self.pos += 1
        return value

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
                n = self.integer()
                if len(obj) * n > _MAX_ATOMS:
                    raise self.error(
                        f"power longer than {_MAX_ATOMS} atoms", self.pos - 1)
                obj = power(obj, n)
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
        if not self.peek().isdecimal():
            raise self.error("expected a rational")
        num = self.integer()
        if not self.at("/"):
            return Fraction(num)
        self.pos += 1
        if not self.peek().isdecimal():
            raise self.error("expected a denominator")
        den = self.integer()
        if den == 0:
            raise self.error("zero denominator", self.pos - 1)
        return Fraction(num, den)

    def term(self) -> Term:
        out, toks = self.term_factor(), self.toks
        while toks[self.pos] == ";":
            self.pos += 1
            out = Seq(out, self.term_factor())
        return out

    def term_factor(self) -> Term:
        out, toks = self.term_primary(), self.toks
        while toks[self.pos] == "x":
            self.pos += 1
            out = Par(out, self.term_primary())
        return out

    def angle_object(self) -> Object:
        self.expect("<")
        obj = self.object_()
        self.expect(">")
        return obj

    def term_primary(self) -> Term:
        toks, pos = self.toks, self.pos
        name = toks[pos]
        if name == "(":
            return self.nested(self.term)
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
        # A leaf is read once per file: a repeated one is its token run,
        # looked up.  A run with a parenthesis in its object is read
        # again each time, so that no lookup skips the nesting bound.
        if name in _BUILTINS:
            end = pos + 1
        elif name in _LEAF_CLOSE:
            try:
                end = toks.index(_LEAF_CLOSE[name], pos) + 1
            except ValueError:  # unclosed: read it to its error
                return self.leaf(name)
        elif name in self.bindings:
            self.pos += 1
            return self.bindings[name]
        elif not _is_name(name):
            raise self.error("expected a term")
        elif name in _KEYWORDS:
            raise self.error(f"{name!r} cannot start a term here")
        else:
            raise self.error(f"unknown identifier {name!r}")
        run = toks[pos:end]
        term = self.leaves.get(run)
        if term is None:
            term = self.leaf(name)
            if name == "coin" or "(" not in run:
                self.leaves[run] = term
        else:
            self.pos = end
        return term

    def leaf(self, name: str) -> Term:
        """The leaf that starts with ``name``."""
        self.pos += 1
        if name == "id":
            return self.one(Id, self.angle_object())
        if name == "swap":
            self.expect("<")
            left = self.object_()
            self.expect(",")
            right = self.object_()
            self.expect(">")
            return self.one(Swap, left, right)
        if name == "coin":
            self.expect("(")
            p = self.rational()
            self.expect(")")
            return coin(p)
        if name in _GENERATORS:
            obj = self.angle_object()
            primitive, lifted = _GENERATORS[name]
            return primitive(obj) if is_star_free(obj) else lifted(obj)
        return _BUILTINS[name]()

    def one(self, make, *words) -> Term:
        """The one ``id`` or ``swap`` term of these words in the source,
        however they are spelled."""
        key = (make, *words)
        term = self.leaves.get(key)
        if term is None:
            term = self.leaves[key] = make(*words)
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
