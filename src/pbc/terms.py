"""Term syntax, typechecking and pretty printing.

Terms denote morphisms between objects.  The grammar is deliberately small:

* ``Id(obj)`` -- identity wiring
* ``Gen(kind, at, p)`` -- a generator: copy, discard, a biased coin, or the
  conditional ``phi`` that selects its first or last argument block
  depending on a Boolean in the middle
* ``Swap(left, right)`` -- the block symmetry
* ``Seq(first, second)`` / ``Par(left, right)`` -- composition and tensor
* ``TauStar(state, inputs, outputs, body)`` -- parametric iteration of a
  one-step body over star tuples, threading a state object

Copy, discard and phi are primitive at star-free words only; at objects
containing stars they are derived circuits built from iteration (see
``copy_at`` and friends in :mod:`pbc.combinators`).  The typechecker
enforces this, which keeps pretty printing and parsing mutually inverse.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .objects import (
    B, UNIT, Object, _checked_word, is_star_free, obj_to_str, power, star,
    tensor,
)

__all__ = [
    "Term", "Id", "Gen", "Swap", "Seq", "Par", "TauStar", "TypeJudgement",
    "PBCError", "PBCTypeError",
    "COPY", "DISCARD", "COIN", "PHI",
    "copy_gen", "discard_gen", "coin", "phi_gen", "phi_p", "phi_case",
    "phi_mix", "exact_rational",
    "seq", "par", "typecheck", "same_type", "pretty_term",
    "permute_blocks", "push_term", "pop_term", "factors",
    "GENERATORS", "GEN_NAMES",
]

COPY = "copy"
DISCARD = "discard"
COIN = "coin"
PHI = "phi"

# Each generator kind: its surface name, None for the coin, which is
# written ``coin(p)``, and its (domain, codomain) at a star-free word.
GENERATORS = {
    COPY: ("copy", lambda at: (at, at + at)),
    DISCARD: ("del", lambda at: (at, UNIT)),
    COIN: (None, lambda at: (UNIT, B)),
    PHI: ("if", lambda at: (at + B + at, at)),
}

# Surface names of the generators written ``name<obj>``.
GEN_NAMES = {kind: name for kind, (name, _) in GENERATORS.items() if name}


class PBCError(Exception):
    """Base error for this package."""


class PBCTypeError(PBCError):
    """A term does not typecheck."""


# A leaf's ``_type``, like a composite's, is the judgement ``typecheck``
# found for it, kept on the object: the builders share generators, and
# the parser one id and swap per word, so one leaf object may stand in
# many terms.
@dataclass(frozen=True, slots=True)
class Id:
    obj: Object
    _type: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)


class _Weak:
    """A slotted base whose instances a weak table may hold."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Gen(_Weak):
    kind: str
    at: Object = UNIT
    p: Fraction | None = None
    _type: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown generator kind: {self.kind!r}")
        if (self.kind == COIN) != (self.p is not None):
            raise ValueError("coin takes a bias, other generators do not")
        if self.p is not None:
            object.__setattr__(self, "p", exact_rational(self.p))


def exact_rational(p) -> Fraction:
    """A Fraction from a Fraction, an int or a string such as "n/d".

    Floats are refused: ``Fraction(0.1)`` is the binary approximation
    3602879701896397/36028797018963968, not one tenth.
    """
    if type(p) is Fraction:
        return p
    if isinstance(p, (Fraction, int, str)):
        return Fraction(p)
    raise TypeError(
        f"expected a Fraction, an int or a string like '1/3', not "
        f"{type(p).__name__} {p!r}: floats are not exact")


@dataclass(frozen=True, slots=True)
class Swap:
    left: Object
    right: Object
    _type: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)


def _composite_eq(self, other):
    """Structural equality: one walk of both terms on an explicit stack,
    which skips pairs of one object."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    todo = [(self, other)]
    pop, push = todo.pop, todo.append
    while todo:
        a, b = pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is Seq:
            push((a.second, b.second))
            push((a.first, b.first))
        elif cls is Par:
            push((a.right, b.right))
            push((a.left, b.left))
        elif cls is TauStar:
            if (a.state, a.inputs, a.outputs) != (b.state, b.inputs,
                                                  b.outputs):
                return False
            push((a.body, b.body))
        elif not a == b:
            return False
    return True


def _composite_hash(self) -> int:
    """A hash over the same kind of walk, so equal terms hash alike."""
    h, todo = 0, [self]
    while todo:
        t = todo.pop()
        key = cls = t.__class__
        if cls is Seq:
            todo += (t.second, t.first)
        elif cls is Par:
            todo += (t.right, t.left)
        elif cls is TauStar:
            key = (t.state, t.inputs, t.outputs)
            todo.append(t.body)
        else:
            key = t
        h = hash((h, key))
    return h


def _composite_repr(self) -> str:
    """The text the dataclass-generated repr gives, built on a stack of
    text and subterms."""
    out, todo = [], [self]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is str:
            out.append(t)
        elif cls is Seq:
            todo += (")", t.second, ", second=", t.first, "Seq(first=")
        elif cls is Par:
            todo += (")", t.right, ", right=", t.left, "Par(left=")
        elif cls is TauStar:
            todo += (")", t.body, f"TauStar(state={t.state!r}, inputs="
                     f"{t.inputs!r}, outputs={t.outputs!r}, body=")
        else:
            out.append(repr(t))
    return "".join(out)


# A composite's ``_type`` is the (domain, codomain, iterates) that
# ``typecheck``, its only writer, found for it; ==, hash, repr and
# pattern matching ignore it.  Composites compare, hash and print
# without recursion, so terms of any depth do.
@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Seq:
    first: "Term"
    second: "Term"
    _type: tuple | None = field(default=None, init=False, repr=False)

    __eq__ = _composite_eq
    __hash__ = _composite_hash
    __repr__ = _composite_repr


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Par:
    left: "Term"
    right: "Term"
    _type: tuple | None = field(default=None, init=False, repr=False)

    __eq__ = _composite_eq
    __hash__ = _composite_hash
    __repr__ = _composite_repr


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class TauStar:
    state: Object
    inputs: tuple  # tuple[Object, ...]
    outputs: tuple  # tuple[Object, ...]
    body: "Term"
    _type: tuple | None = field(default=None, init=False, repr=False)

    __eq__ = _composite_eq
    __hash__ = _composite_hash
    __repr__ = _composite_repr


Term = Id | Gen | Swap | Seq | Par | TauStar


@dataclass(frozen=True, slots=True)
class TypeJudgement:
    """The type ``domain -> codomain`` of a term.

    ``iterates`` records whether the term contains a ``TauStar`` loop.
    It is not part of the type: judgements compare and hash by domain
    and codomain only.
    """

    domain: Object
    codomain: Object
    iterates: bool = field(default=False, compare=False)

    @property
    def parametric(self) -> bool:
        """Whether the term needs a size to run: it loops, or a wire of
        its type is starred."""
        return self.iterates or not (is_star_free(self.domain)
                                     and is_star_free(self.codomain))

    def __str__(self):
        return f"{obj_to_str(self.domain)} -> {obj_to_str(self.codomain)}"


# The generators the builders below made that are still alive, one per
# exact value, so that equal generators a program builds are one object,
# which a compile cache finds by identity; one built with ``Gen`` is
# still equal to it.  The table is weak: it holds no generator that no
# term holds, so it cannot outgrow the terms alive.
_GENERATORS_ALIVE = weakref.WeakValueDictionary()


def _generator(kind: str, at: Object, num=None, den=None) -> Gen:
    """The generator of a kind at a word; a coin's bias comes as its
    numerator and denominator, so the table hashes no Fraction."""
    key = kind, at, num, den
    gen = _GENERATORS_ALIVE.get(key)
    if gen is None:
        gen = _GENERATORS_ALIVE[key] = Gen(
            kind, at, None if den is None else Fraction(num, den))
    return gen


def copy_gen(obj: Object) -> Gen:
    return _generator(COPY, obj)


def discard_gen(obj: Object) -> Gen:
    return _generator(DISCARD, obj)


def coin(p) -> Gen:
    # Exact first: a float bias is refused even where an equal Fraction
    # is kept, since 0.5 == Fraction(1, 2) and both hash alike.
    p = exact_rational(p)
    return _generator(COIN, UNIT, p.numerator, p.denominator)


def phi_gen(obj: Object) -> Gen:
    """The conditional at an object: picks the first block when the middle
    Boolean is 1, the last block when it is 0."""
    return _generator(PHI, obj)


def phi_p(obj: Object, p) -> Term:
    """Probabilistic choice: a coin of bias p plugged into the conditional."""
    return phi_mix(Id(obj), Id(obj), obj, p)


_ID_B = Id(B)  # the chooser wire of every case split


def phi_case(c: Term, d: Term, at: Object) -> Term:
    """The conditional over two branches: ``(c x id<B> x d) ; if<at>``
    runs ``c`` when the middle Boolean is 1, ``d`` when it is 0."""
    return Seq(par(c, _ID_B, d), phi_gen(at))


def phi_mix(c: Term, d: Term, at: Object, p) -> Term:
    """The choice between two arms: ``(c x coin(p) x d) ; if<at>`` runs
    ``c`` with probability p and ``d`` otherwise."""
    return Seq(par(c, coin(p), d), phi_gen(at))


def seq(*terms: Term) -> Term:
    """Left-nested sequential composition."""
    if not terms:
        raise ValueError("seq of no terms")
    out = terms[0]
    for t in terms[1:]:
        out = Seq(out, t)
    return out


def par(*terms: Term) -> Term:
    """Left-nested tensor."""
    if not terms:
        return Id(UNIT)
    out = terms[0]
    for t in terms[1:]:
        out = Par(out, t)
    return out


def factors(term: Seq | Par) -> list:
    """The factors of a Seq or a Par tree: its subterms of another
    former, left to right."""
    former = type(term)
    out, todo = [], [term]
    while todo:
        t = todo.pop()
        if type(t) is not former:
            out.append(t)
        elif former is Seq:
            todo += (t.second, t.first)
        else:
            todo += (t.right, t.left)
    return out


# Stack marker: the composite below it waits for its judged subterms.
# Objects are checked words, so ``+`` is their tensor.
_DONE = object()


def typecheck(term: Term) -> TypeJudgement:
    """Compute the type of a term, raising PBCTypeError on mismatch.

    One post-order loop over an explicit stack, so a chain of any length
    checks without recursion; subterms are checked left to right.  A
    composite, a generator or a swap keeps its judgement, so a later
    visit, from this call or any other, reads it instead of walking or
    judging the term again.
    """
    judged: list[tuple] = []  # (domain, codomain, iterates) per subterm
    todo: list = [term]
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is Id:
            j = t._type
            if j is None:
                o = _checked_word(t.obj)
                j = (o, o, False)
                object.__setattr__(t, "_type", j)
            judged.append(j)
        elif cls is Seq or cls is Par or cls is TauStar:
            if t._type is not None:
                judged.append(t._type)
            elif cls is Seq:
                todo += (t, _DONE, t.second, t.first)
            elif cls is Par:
                todo += (t, _DONE, t.right, t.left)
            else:
                todo += (t, _DONE, t.body)
        elif t is _DONE:
            t = todo.pop()
            if t.__class__ is Seq:
                mid, cod, second_loops = judged.pop()
                dom, first_cod, first_loops = judged[-1]
                if first_cod != mid:
                    raise PBCTypeError(
                        "sequential mismatch: expected "
                        f"{obj_to_str(first_cod)} on the left of the "
                        f"second factor, got {obj_to_str(mid)}")
                j = (dom, cod, first_loops or second_loops)
            elif t.__class__ is Par:
                right_dom, right_cod, right_loops = judged.pop()
                left_dom, left_cod, left_loops = judged[-1]
                j = (left_dom + right_dom, left_cod + right_cod,
                     left_loops or right_loops)
            else:
                state = _checked_word(t.state)
                ins = tuple(map(_checked_word, t.inputs))
                outs = tuple(map(_checked_word, t.outputs))
                body_dom, body_cod, _ = judged[-1]
                want_dom = tensor(state, *ins)
                want_cod = tensor(*outs, state)
                if body_dom != want_dom or body_cod != want_cod:
                    raise PBCTypeError(
                        "iteration body must be "
                        f"{obj_to_str(want_dom)} -> {obj_to_str(want_cod)}, "
                        f"got {obj_to_str(body_dom)} -> "
                        f"{obj_to_str(body_cod)}")
                j = (tensor(state, *map(star, ins)),
                     tensor(*map(star, outs), state), True)
            object.__setattr__(t, "_type", j)
            judged[-1] = j
        elif cls is Gen or cls is Swap:
            j = t._type
            if j is None:
                j = (*_leaf_type(t), False)
                object.__setattr__(t, "_type", j)
            judged.append(j)
        else:
            judged.append((*_leaf_type(t), False))
    return TypeJudgement(*judged[0])


def _leaf_type(term: Term) -> tuple:
    """(domain, codomain) of a generator or a swap."""
    if isinstance(term, Gen):
        at = _checked_word(term.at)
        if term.kind != COIN and not is_star_free(at):
            raise PBCTypeError(
                f"{term.kind} is primitive at star-free words only, not at "
                f"{obj_to_str(at)}; use the derived star-lifted circuit")
        if term.kind == COIN and not 0 <= term.p <= 1:
            raise PBCTypeError(f"coin bias {term.p} outside [0, 1]")
        return GENERATORS[term.kind][1](at)
    if isinstance(term, Swap):
        l = _checked_word(term.left)
        r = _checked_word(term.right)
        return l + r, r + l
    raise PBCTypeError(f"not a term: {term!r}")


def same_type(f: Term, g: Term) -> TypeJudgement:
    """The type two terms share; PBCTypeError when they differ.  The
    judgement iterates when either term does."""
    jf = typecheck(f)
    jg = typecheck(g)
    if jf != jg:
        raise PBCTypeError(f"cannot compare terms of types {jf} and {jg}")
    return jg if jg.iterates else jf


# ---------------------------------------------------------------------------
# Pretty printing.  Parentheses are kept exactly where reparsing needs them
# to rebuild the same tree: ; and x both parse left-associated, x binds
# tighter than ;.

# Chain formers: separator, the loosest level that prints the chain
# bare, and the fields of its left and right factors.
_CHAINS = {
    Seq: (" ; ", 0, "first", "second"),
    Par: (" x ", 1, "left", "right"),
}


def pretty_term(term: Term) -> str:
    """Render a term in the surface syntax; parsing the result rebuilds
    exactly the same tree."""
    # One loop over a stack of text and (term, level) pairs, so nesting
    # of any depth prints without recursion.  Level 0 may print a bare
    # Seq, level 1 a bare Par, level 2 primaries only.
    out: list[str] = []
    todo: list = [(term, 0)]
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        term, level = item
        former = type(term)
        if former in _CHAINS:
            # Push the factors right to left down the chain's left spine.
            sep, bare, left, right = _CHAINS[former]
            if level > bare:
                todo.append(")")
            while isinstance(term, former):
                todo += ((getattr(term, right), bare + 1), sep)
                term = getattr(term, left)
            todo.append((term, bare))
            if level > bare:
                todo.append("(")
        elif isinstance(term, Id):
            out.append(f"id<{obj_to_str(term.obj)}>")
        elif isinstance(term, Swap):
            out.append(
                f"swap<{obj_to_str(term.left)},{obj_to_str(term.right)}>")
        elif isinstance(term, Gen):
            out.append(f"coin({term.p})" if term.kind == COIN
                       else f"{GEN_NAMES[term.kind]}<{obj_to_str(term.at)}>")
        elif isinstance(term, TauStar):
            ins = ", ".join(obj_to_str(o) for o in term.inputs)
            outs = ", ".join(obj_to_str(o) for o in term.outputs)
            todo += (")", (term.body, 0),
                     f"iter[{obj_to_str(term.state)}; ({ins}); ({outs})](")
        else:
            raise TypeError(f"not a term: {term!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Block permutations as explicit wiring terms.

def permute_blocks(blocks: list, order: list) -> Term:
    """Wiring that reorders labelled blocks of wires.

    ``blocks`` is the list of objects as they appear in the domain;
    ``order`` lists source indices in target order, so the codomain is
    ``blocks[order[0]] @ blocks[order[1]] @ ...``.  The permutation is
    realized as a chain of adjacent block swaps, which keeps every
    intermediate object explicit.
    """
    if sorted(order) != list(range(len(blocks))):
        raise ValueError(f"not a permutation of {len(blocks)} blocks: {order}")
    # Drop empty blocks: they carry no wires.  Positions are tracked by
    # the original indices.
    live = [i for i in order if blocks[i] != UNIT]
    current = [i for i in range(len(blocks)) if blocks[i] != UNIT]
    full = tensor(*(blocks[i] for i in current))
    layers = []
    for target_pos, src in enumerate(live):
        pos = current.index(src)
        while pos > target_pos:
            left_word = tensor(*(blocks[i] for i in current[:pos - 1]))
            a = blocks[current[pos - 1]]
            b = blocks[current[pos]]
            right_word = tensor(*(blocks[i] for i in current[pos + 1:]))
            layer: Term = Swap(a, b)
            if left_word != UNIT:
                layer = Par(Id(left_word), layer)
            if right_word != UNIT:
                layer = Par(layer, Id(right_word))
            layers.append(layer)
            current[pos - 1], current[pos] = current[pos], current[pos - 1]
            pos -= 1
    if not layers:
        return Id(full)
    return seq(*layers)


def _interleave_order(n: int):
    # [A1..An, A1^k..An^k] read off as [A1, A1^k, A2, A2^k, ...]
    order = []
    for i in range(n):
        order.append(i)
        order.append(n + i)
    return order


def push_term(blocks, k: int) -> Term:
    """Wiring of type ``blocks . 1 (x) blocks . k -> blocks . (k+1)``.

    Files one fresh element per stream into the front of its block.
    """
    blocks = tuple(blocks)
    n = len(blocks)
    source = list(blocks) + [power(b, k) for b in blocks]
    return permute_blocks(source, _interleave_order(n))


def pop_term(blocks, k: int) -> Term:
    """Wiring of type ``blocks . (k+1) -> blocks . 1 (x) blocks . k``.

    Peels the front element off every stream; inverse of ``push_term``.
    """
    blocks = tuple(blocks)
    n = len(blocks)
    source = []
    for b in blocks:
        source.append(b)
        source.append(power(b, k))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return permute_blocks(source, order)
