"""Grammar fuzzing of the command line: small generated ``.pbc`` sources,
each run through ``check``, ``eval``, ``eq``, ``dot``, ``normalize``,
``dist`` and ``series`` in process.

Whatever the source, a command exits 0, 1 or 2 and never reports an
internal error; a file that checks is equal to itself, at distance zero
from itself at every size.  Loops over random ``circuitgen`` bodies,
against a copy, a respelling, a near miss or another body, get the
verdicts and distances of the reference unrolling from ``eq`` and
``dist``, bare, behind or ahead of one shared ``circuitgen`` stage on
the state, chained with a second loop that reads their output streams,
or each the body of an outer loop.
"""

import io
import random
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    Id, PBCSyntaxError, Swap, TauStar, bools, coin, hom_distance,
    instantiate, par, parse_circuit, parse_term, pretty_term, seq, star,
    star_equiv_bounded, tensor,
)
from pbc import _rows
from pbc.combinators import not_gate, xor_gate
from pbc.cli import main
from pbc.semantics import bit_string
from reference import reference_denote

# A word is a tuple of atom texts; each atom's wires at size k = 2.
_WIRES = {"B": 1, "B^*": 2, "(B^2)^*": 4, "(B^*)^*": 4}
# Terms stay this narrow at k = 2, so that every command runs quickly.
_MAX_WIRES = 8
# Spellings of the empty word.
_UNITS = ["I", "B^0", "I^*", "(I)^*", "(B^0)^*", "(I^*)^*"]

# Closed leaves as (text, domain, codomain).
_LEAVES = [
    ("coin(1/2)", (), ("B",)),
    ("coin(0)", (), ("B",)),
    ("coin(1)", (), ("B",)),
    ("not", ("B",), ("B",)),
    ("and", ("B", "B"), ("B",)),
    ("xor", ("B", "B"), ("B",)),
    ("iter[I; (B); (B)](not)", ("B^*",), ("B^*",)),
    ("iter[B; (B); (B)](xor ; copy<B>)", ("B", "B^*"), ("B^*", "B")),
    ("iter[B; (); (B)](copy<B>)", ("B",), ("B^*", "B")),
    ("iter[I; (B); ()](del<B>)", ("B^*",), ()),
    ("iter[I; (); ()](id<I>)", (), ()),
]

# Characters the tokenizer has no rule for, or that break the grammar.
_STRAY = "@#$!%&{}|~`?.'\"\\+-:"


@st.composite
def words(draw):
    return tuple(draw(st.sampled_from(sorted(_WIRES)))
                 for _ in range(draw(st.integers(0, 2))))


def _narrow(*words):
    return all(sum(map(_WIRES.get, w)) <= _MAX_WIRES for w in words)


@st.composite
def spell(draw, word):
    """Surface text of a word, with the unit in one of its spellings."""
    if not word:
        return draw(st.sampled_from(_UNITS))
    return " x ".join(word)


def _paren(draw, text):
    """``text`` as a factor of ``x``: a sequence needs its parentheses,
    anything else may have them."""
    return f"({text})" if ";" in text or draw(st.booleans()) else text


@st.composite
def stage(draw, word):
    """A term from ``word``, as (text, codomain)."""
    w = draw(spell(word))
    kind = draw(st.sampled_from(["id", "copy", "del", "swap", "mix"]))
    if kind == "copy" and _narrow(word + word):
        return f"copy<{w}>", word + word
    if kind == "del":
        return f"del<{w}>", ()
    if kind == "swap":
        cut = draw(st.integers(0, len(word)))
        left, right = word[:cut], word[cut:]
        return (f"swap<{draw(spell(left))},{draw(spell(right))}>",
                right + left)
    if kind == "mix" and _narrow(word + word + ("B",)):
        return (f"copy<{w}> ; (id<{w}> x coin(1/3) x id<{w}>) ; if<{w}>",
                word)
    return f"id<{w}>", word


@st.composite
def terms(draw, bound, depth):
    """(text, domain, codomain) of a well-typed term over the leaves, the
    generators at drawn words and the names ``bound`` so far."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        choices = _LEAVES + bound
        if draw(st.booleans()):
            word = draw(words())
            text, cod = draw(stage(word))
            return text, word, cod
        return draw(st.sampled_from(choices))
    if draw(st.booleans()):
        a, a_dom, a_cod = draw(terms(bound, depth - 1))
        b, b_dom, b_cod = draw(terms(bound, depth - 1))
        if not _narrow(a_dom + b_dom, a_cod + b_cod):
            return a, a_dom, a_cod
        return (f"{_paren(draw, a)} x {_paren(draw, b)}",
                a_dom + b_dom, a_cod + b_cod)
    a, dom, mid = draw(terms(bound, depth - 1))
    b, cod = draw(stage(mid))
    return f"({a}) ; {_paren(draw, b)}", dom, cod


@st.composite
def valid_sources(draw):
    """A well-typed file of a few ``let`` bindings and a ``main``."""
    bound, lines = [], []
    for i in range(draw(st.integers(0, 3))):
        text, dom, cod = draw(terms(bound, 2))
        lines.append(f"let a{i} = {text}")
        bound.append((f"a{i}", dom, cod))
    text, _, _ = draw(terms(bound, 2))
    nesting = draw(st.integers(0, 4))
    lines.append(f"main = {'(' * nesting}{text}{')' * nesting}")
    return "\n".join(lines) + "\n"


@st.composite
def sources(draw):
    """A file from ``valid_sources``, sometimes broken by a stray
    character, a cut, or a term of the wrong type."""
    source = draw(valid_sources())
    damage = draw(st.sampled_from(["none", "none", "stray", "cut", "retype"]))
    if damage == "stray":
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(_STRAY)) + source[at:]
    elif damage == "cut":
        source = source[:draw(st.integers(0, len(source) - 1))]
    elif damage == "retype":
        source = source.replace(";", draw(st.sampled_from(["x", ";;"])), 1)
    return source


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "f.pbc")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sources())
def test_every_command_exits_cleanly_on_generated_sources(path, source):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    codes, outs = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide sizes warn
        for argv in (["check", path], ["eval", path, "--k", "2"],
                     ["eq", path, path, "--k", "2"], ["dot", path],
                     ["normalize", path],
                     ["dist", path, path, "--k", "2", "--decimal"],
                     ["series", path, path, "--k", "0..2", "--decimal"]):
            code, out, err = _run(*argv)
            assert code in (0, 1, 2), (argv, source)
            assert "internal error" not in err, (argv, source, err)
            codes[argv[0]], outs[argv[0]] = code, out
    if codes["check"] == 0:
        assert codes["eq"] == 0, source
        assert outs["dist"] == "0/1\t0.0\n", source
        assert codes["series"] == 0, source


@settings(max_examples=200, deadline=None, derandomize=True)
@given(valid_sources(), st.data())
def test_a_stray_character_is_reported_where_it_stands(source, data):
    at = data.draw(st.integers(0, len(source)))
    char = data.draw(st.sampled_from(_STRAY))
    with pytest.raises(PBCSyntaxError) as err:
        parse_circuit(source[:at] + char + source[at:])
    before = source[:at].split("\n")
    line, col = len(before), len(before[-1]) + 1
    assert str(err.value) == (
        f"line {line}, column {col}: stray character {char!r}")


# ---------------------------------------------------------------------------
# Loops over random circuit bodies.

def _respell(body, dom, cod, how):
    """Another spelling of a body of type ``dom -> cod``."""
    if how == "seq-id":
        return seq(body, Id(bools(cod)))
    if how == "id-seq":
        return seq(Id(bools(dom)), body)
    return body  # "copy": the same text, parsed anew


def _near_miss(body, cod, rng):
    """The body with one output bit negated, or, a quarter of the time
    or when it has no output, one coin's bias changed; the body itself
    if it has neither."""
    text = pretty_term(body)
    coins = list(re.finditer(r"coin\(([^)]*)\)", text))
    if coins and not (cod and rng.random() < 0.75):
        m = rng.choice(coins)
        p = Fraction(m[1])
        q = 1 - p if p != Fraction(1, 2) else Fraction(1, 4)
        return parse_term(f"{text[:m.start()]}coin({q}){text[m.end():]}")
    if cod:
        i = rng.randrange(cod)
        return seq(body, par(Id(bools(i)), not_gate(),
                             Id(bools(cod - i - 1))))
    return body


# Near misses first and thrice, and a state wire unless drawn otherwise:
# most other pairs are equal, and a fault that merges unequal loops or
# shapes shows only on a pair that is not.
_HOWS = ["near", "near", "near", "copy", "seq-id", "id-seq", "other"]


@st.composite
def loop_pairs(draw):
    """The texts of two loops of one signature over ``circuitgen``
    bodies: one body against itself, respelled, one edit away, or
    against another; and the largest size to compare them at.
    Both loops stand bare, or both in one pipeline, behind or ahead of
    one shared ``circuitgen`` stage on the state, or each followed by a
    second loop on the state that reads its output streams, whose
    bodies are drawn the same way, or each is the body of an outer loop
    of its state, whose streams are its streams at every step.  A
    nested loop at size k reads k^2 elements of each stream, so it has
    at most one stream each way and is compared up to size 2."""
    where = draw(st.sampled_from(["bare", "before", "after", "chain",
                                  "nest"]))
    sw = draw(st.sampled_from([1, 2, 0]))
    most = 1 if where == "nest" else 2
    ins = draw(st.lists(st.integers(0, 1), max_size=most))
    outs = draw(st.lists(st.integers(0, 1), max_size=most))
    rng = random.Random(draw(st.integers(0, 10**6)))

    def bodies(dom, cod):
        def body():
            return random_circuit(rng, dom, cod, max_gens=rng.randint(0, 6),
                                  max_wires=5, max_den=4)
        first = body()
        how = draw(st.sampled_from(_HOWS))
        if how == "near":
            return first, _near_miss(first, cod, rng)
        return first, (body() if how == "other"
                       else _respell(first, dom, cod, how))

    def iterate(ins, outs, body):
        return TauStar(bools(sw), tuple(map(bools, ins)),
                       tuple(map(bools, outs)), body)

    cod = sum(outs) + sw
    pair = bodies(sw + sum(ins), cod)
    if where == "nest" and sum(outs):
        # The emitted bit flipped by a coin of bias 1/4, so that the
        # inner loop's rows, and the outer loop's, have many outcomes.
        flip = par(seq(par(Id(bools(1)), coin("1/4")), xor_gate()),
                   Id(bools(sw)))
        pair = [seq(t, flip) for t in pair]
    pair = [iterate(ins, outs, t) for t in pair]
    if where == "nest":
        pair = [TauStar(bools(sw), tuple(map(star, t.inputs)),
                        tuple(map(star, t.outputs)), t) for t in pair]
    if where == "chain":
        outs2 = draw(st.lists(st.integers(0, 1), max_size=2))
        turn = Swap(tensor(*map(star, pair[0].outputs)), bools(sw))
        pair = [seq(t, turn, iterate(outs, outs2, t2)) for t, t2
                in zip(pair, bodies(cod, sum(outs2) + sw))]
    stage = random_circuit(rng, sw, sw, max_gens=rng.randint(0, 4),
                           max_wires=5, max_den=4)
    if where == "before":
        streams = Id(tensor(*map(star, pair[0].inputs)))
        pair = [seq(par(stage, streams), t) for t in pair]
    elif where == "after":
        streams = Id(tensor(*map(star, pair[0].outputs)))
        pair = [seq(t, par(streams, stage)) for t in pair]
    return (*map(pretty_term, pair), 2 if where == "nest" else 3)


def _reference(s, t, k_max):
    """``eq --k k_max`` and ``dist --k 0..k_max`` as the reference
    unrolling answers them."""
    verdict, dists = None, []
    for k in range(k_max + 1):
        sk = reference_denote(instantiate(k, s))
        tk = reference_denote(instantiate(k, t))
        d = hom_distance(sk, tk)
        dists.append(f"{k}\t{d.numerator}/{d.denominator}\n")
        if verdict is None:
            verdict = next(
                ((1, f"NOT EQUAL at k={k}, input "
                     f"{bit_string(x, sk.in_arity)}\n")
                 for x, (a, b) in enumerate(zip(sk.rows, tk.rows)) if a != b),
                None)
    if verdict is None:
        verdict = 0, f"EQUAL (every size k = 0..{k_max})\n"
    return verdict, "".join(dists)


def test_loops_over_generated_bodies_get_the_reference_verdicts(
        tmp_path_factory):
    codes, nested = [], []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(loop_pairs())
    def check(drawn):
        *pair, k = drawn
        paths = [str(tmp_path_factory.mktemp("loops") / f"{side}.pbc")
                 for side in ("f", "g")]
        for path, text in zip(paths, pair):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"main = {text}\n")
        s, t = (parse_circuit(f"main = {text}\n") for text in pair)
        (code, line), dists = _reference(s, t, k)
        walks = []
        with pytest.MonkeyPatch.context() as mp:
            if k == 2:
                # A nested loop's rows are ropes of ropes from 2 entries
                # on, so the distances pair their parts at these sizes.
                mp.setattr(_rows, "_CAT_FLOOR", 2)
                walk = _rows._excess
                mp.setattr(_rows, "_excess", lambda *args: (
                    walks.append(args) or walk(*args)))
            assert _run("eq", *paths, "--k", str(k)) == (code, line, ""), pair
            assert _run("dist", *paths, "--k", f"0..{k}") == (
                0, dists, ""), pair
            assert bool(star_equiv_bounded(s, t, k)) == (code == 0), pair
        codes.append(code)
        if k == 2:
            nested.append(bool(walks))

    check()
    # A fault that merges unequal loops shows only on unequal pairs.
    assert 3 * sum(codes) >= len(codes), (sum(codes), len(codes))
    # Nested pairs are drawn, and some pair their rows part by part.
    assert len(nested) >= 15 and sum(nested) >= 3, nested
