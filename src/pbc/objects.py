"""Objects of the circuit language.

An object is a flat word (tuple) of atoms.  An atom is either the Boolean
wire ``B`` or a star atom ``A^*`` holding an inner object.  The empty word
is the tensor unit ``I``.  Words are flat by construction: tensoring two
objects is tuple concatenation, a star over the empty word collapses to
the empty word itself, and a star atom refuses any inner object that is
not a non-empty word.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BoolAtom", "Star", "Atom", "Object",
    "BOOL", "B", "UNIT",
    "tensor", "bools", "star", "power",
    "is_star_free", "width", "obj_to_str",
]


class BoolAtom:
    """The single Boolean wire: one object, ``BOOL``, compared and hashed
    by identity, so a word of wires hashes at C speed.  ``BoolAtom()``
    returns it, and pickling and copying keep it."""

    __slots__ = ()

    def __new__(cls):
        return BOOL

    def __reduce__(self):
        return BoolAtom, ()

    def __repr__(self):
        return "BoolAtom()"


@dataclass(frozen=True, slots=True)
class Star:
    """A parametric tuple atom over an inner object."""

    inner: "Object"

    def __post_init__(self):
        # One level is enough: a star inside was checked when it was built.
        if not _checked_word(self.inner):
            raise TypeError("a star atom over the empty word: star(I) is I")

    def __repr__(self):
        return f"Star({self.inner!r})"


Atom = BoolAtom | Star
Object = tuple  # tuple[Atom, ...]

BOOL = object.__new__(BoolAtom)
B: Object = (BOOL,)
UNIT: Object = ()

_ATOM_TYPES = frozenset({BoolAtom, Star})


def _checked_word(obj) -> Object:
    """``obj`` itself if it is a word, a tuple of atoms; TypeError if not.

    The check is shallow: star atoms check their inner words when they
    are built, so every word of atoms is already flat and normal.
    """
    if not (isinstance(obj, tuple)
            and _ATOM_TYPES.issuperset(map(type, obj))):
        raise TypeError(f"not a word of atoms: {obj!r}")
    return obj


def tensor(*objs: Object) -> Object:
    """Concatenate object words."""
    out: tuple = ()
    for o in objs:
        out = out + tuple(o)
    return out


def bools(n: int) -> Object:
    """The word of n Boolean wires."""
    if n < 0:
        raise ValueError(f"negative wire count: {n}")
    return (BOOL,) * n


def power(obj: Object, n: int) -> Object:
    """n-fold tensor of an object with itself."""
    if n < 0:
        raise ValueError(f"negative power: {n}")
    # The unit at any power is the unit, whatever n's size.
    return tuple(obj) * n if obj else UNIT


def star(obj: Object) -> Object:
    """Star of an object.  The star of the unit is the unit."""
    return (Star(obj),) if obj else UNIT


def is_star_free(obj: Object) -> bool:
    # Counted by identity with the one Boolean atom, at C speed.
    return obj.count(BOOL) == len(obj)


def width(obj: Object, k: int | None = None) -> int:
    """Number of Boolean wires of an object.

    A starred atom counts k times the width of its inner object, so a
    parametric object has a width only at a given size k.
    """
    n = 0
    for a in obj:
        if isinstance(a, BoolAtom):
            n += 1
        elif k is None:
            raise ValueError(
                f"object {obj_to_str(obj)} is parametric; it has no fixed width")
        else:
            n += k * width(a.inner, k)
    return n


def _atom_to_str(atom: Atom) -> str:
    if isinstance(atom, BoolAtom):
        return "B"
    inner = obj_to_str(atom.inner)
    if len(atom.inner) == 1 and isinstance(atom.inner[0], BoolAtom):
        return "B^*"
    return f"({inner})^*"


def obj_to_str(obj: Object) -> str:
    """Render an object in the surface syntax.

    Runs of equal Boolean atoms are grouped into powers, star atoms are
    rendered individually.  The output parses back to the same word.
    """
    if not obj:
        return "I"
    parts = []
    i = 0
    while i < len(obj):
        atom = obj[i]
        if isinstance(atom, BoolAtom):
            j = i
            while j < len(obj) and isinstance(obj[j], BoolAtom):
                j += 1
            run = j - i
            parts.append("B" if run == 1 else f"B^{run}")
            i = j
        else:
            parts.append(_atom_to_str(atom))
            i += 1
    return " x ".join(parts)
