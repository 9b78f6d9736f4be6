import copy
import dataclasses
import pickle
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B,
    BOOL,
    BoolAtom,
    Gen,
    Id,
    Par,
    PBCSyntaxError,
    PBCTypeError,
    Seq,
    Star,
    TauStar,
    TypeJudgement,
    UNIT,
    axiom_corpus,
    bools,
    coin,
    copy_gen,
    decide_equal,
    denote,
    discard_gen,
    distance_series,
    is_star_free,
    nf_to_term,
    normalize,
    obj_to_str,
    parse_circuit,
    parse_object,
    parse_term,
    par,
    permute_blocks,
    phi_gen,
    power,
    pretty_term,
    seq,
    star,
    star_equiv_bounded,
    synthesize_tight_derivation,
    tensor,
    typecheck,
)
from pbc.combinators import (
    all_1, copy_at, discard_at, otp_lhs, otp_star_lhs, phi_at, vn_lhs,
    xor_gate,
)
from pbc.objects import _checked_word
from pbc.terms import GENERATORS, GEN_NAMES, Swap, same_type


# ---------------------------------------------------------------------------
# Objects.

@st.composite
def objects(draw, depth=2):
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        if depth > 0 and draw(st.booleans()):
            parts.append(star(draw(objects(depth=depth - 1))))
        else:
            parts.append(bools(draw(st.integers(1, 3))))
    return tensor(*parts)


@given(objects())
def test_object_print_parse_round_trip(obj):
    assert parse_object(obj_to_str(obj)) == obj


@given(objects())
def test_every_object_passes_the_word_check_unchanged(obj):
    assert _checked_word(obj) is obj


@pytest.mark.parametrize("build", [
    lambda: Star(()),
    lambda: Star([BOOL]),
    lambda: typecheck(Id([BOOL])),
    lambda: typecheck(Id((1,))),
], ids=["empty star", "star over a list", "id at a list", "id at junk"])
def test_non_words_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_the_boolean_wire_is_one_object():
    # Compared and hashed by identity, so every way to get one must
    # give BOOL itself.
    word = (BOOL, *star(bools(2)), BoolAtom())
    assert BoolAtom() is BOOL and repr(BOOL) == "BoolAtom()"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(word, protocol))
        assert again == word and again[0] is BOOL
        assert again[1].inner[1] is BOOL
    assert copy.deepcopy(word)[2] is copy.copy(BOOL) is BOOL
    assert hash(Id(bools(3))) == hash(Id(parse_object("B^3")))
    with pytest.raises(AttributeError):
        BOOL.width = 1


def test_object_surface_forms():
    assert parse_object("I") == UNIT
    assert parse_object("B") == B
    assert parse_object("B^3") == bools(3)
    assert parse_object("B x B^2") == bools(3)
    assert parse_object("B^0") == UNIT
    assert parse_object("I^*") == UNIT
    assert parse_object("B^*") == star(B)
    assert parse_object("(B^2)^*") == star(bools(2))
    assert parse_object("(B^*)^*") == star(star(B))


def test_power_and_star_agree_with_printer():
    assert obj_to_str(power(bools(2), 3)) == "B^6"
    assert obj_to_str(tensor(star(bools(2)), B)) == "(B^2)^* x B"


# ---------------------------------------------------------------------------
# Terms: print then reparse.

def test_spec_surface_examples():
    assert parse_term("coin(1/2)") == coin("1/2")
    j = typecheck(parse_term("id<B>"))
    assert (j.domain, j.codomain) == (B, B)
    j = typecheck(parse_term("iter[B; (B); ()]( and )"))
    assert j.domain == tensor(B, star(B))
    assert j.codomain == B


def test_round_trip_combinator_terms():
    for t in [otp_lhs(), vn_lhs("3/5"), xor_gate(), copy_at(star(B))]:
        assert parse_term(pretty_term(t)) == t


def test_round_trip_random_circuits():
    rng = random.Random(20260401)
    for _ in range(150):
        t = random_circuit(rng, rng.randint(0, 3), rng.randint(0, 3))
        assert parse_term(pretty_term(t)) == t


@settings(max_examples=60)
@given(objects(depth=1), objects(depth=1))
def test_round_trip_swaps(a, b):
    src = f"swap<{obj_to_str(a)}, {obj_to_str(b)}>"
    t = parse_term(src)
    assert pretty_term(t) == src or parse_term(pretty_term(t)) == t


def test_star_sugar_elaborates_at_parse_time():
    assert parse_term("copy<B^*>") == copy_at(star(B))
    assert parse_term("copy<B>") == Gen("copy", B)
    assert is_star_free(typecheck(parse_term("del<(B^2)^*>")).domain) is False
    for name, kind, lifted in (("copy", "copy", copy_at),
                               ("del", "discard", discard_at),
                               ("if", "phi", phi_at)):
        assert parse_term(f"{name}<B x B>") == Gen(kind, bools(2))
        starred = parse_term(f"{name}<B x B^*>")
        assert starred == lifted(tensor(B, star(B)))
        assert typecheck(starred).iterates


def test_axiom_corpus_round_trips():
    for name, lhs, rhs in axiom_corpus():
        assert parse_term(pretty_term(lhs)) == lhs, name
        assert parse_term(pretty_term(rhs)) == rhs, name


def test_the_conditional_at_a_tensor_pairs_are_pinned():
    # Both sides as the corpus stated them before the right side was
    # built by the star-lifted conditional's split.
    corpus = {name: (lhs, rhs) for name, lhs, rhs in axiom_corpus()}
    for name, left, right in (("phi-times", B, B),
                              ("phi-times@B^2", B, bools(2))):
        both = tensor(left, right)
        rhs = seq(
            par(Id(both), copy_gen(B), Id(both)),
            permute_blocks([left, right, B, B, left, right],
                           [0, 2, 4, 1, 3, 5]),
            par(phi_gen(left), phi_gen(right)))
        assert corpus[name] == (phi_gen(both), rhs), name


def test_iterates_walks_a_long_chain_without_recursion():
    chain = [Id(tensor(star(B), star(B)))] * 5000
    assert not typecheck(seq(*chain)).iterates
    assert typecheck(seq(copy_at(star(B)), *chain)).iterates


def test_the_loop_flag_is_not_part_of_the_type():
    looping = vn_lhs(Fraction(3, 4))
    plain = par(coin(1), coin(0))
    jl, jp = typecheck(looping), typecheck(plain)
    assert jl.iterates and jl.parametric
    assert not jp.iterates and not jp.parametric
    assert jl == jp == TypeJudgement(UNIT, bools(2))
    assert hash(jl) == hash(jp) == hash(TypeJudgement(UNIT, bools(2)))
    assert typecheck(Id(star(B))).parametric
    assert same_type(plain, looping).iterates
    assert same_type(looping, plain).iterates


def test_typecheck_walks_long_chains_without_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        long_seq = typecheck(seq(*[Id(B)] * 5000))
        long_par = typecheck(par(*[coin(1)] * 5000))
    finally:
        sys.setrecursionlimit(limit)
    assert str(long_seq) == "B -> B"
    assert str(long_par) == "I -> B^5000"


def test_pretty_term_prints_long_chains_without_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for term in (seq(*[Id(B)] * 3000), par(*[coin(1)] * 3000)):
            text = pretty_term(term)
            assert pretty_term(parse_term(text)) == text
    finally:
        sys.setrecursionlimit(limit)
    assert text == " x ".join(["coin(1)"] * 3000)


def test_pretty_term_prints_deep_nesting_without_recursion():
    # Factors nested on the right, and a normal-form spine that nests
    # one mixture per support entry, 1024 deep.
    right_seq, right_par = Id(B), Id(UNIT)
    for _ in range(3000):
        right_seq = Seq(Id(B), right_seq)
        right_par = Par(Id(UNIT), right_par)
    spine = nf_to_term(normalize(par(*[coin(Fraction(1, 2))] * 10)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        texts = [pretty_term(t) for t in (right_seq, right_par, spine)]
    finally:
        sys.setrecursionlimit(limit)
    assert texts[0] == "id<B> ; (" * 2999 + "id<B> ; id<B>" + ")" * 2999
    assert texts[1] == "id<I> x (" * 2999 + "id<I> x id<I>" + ")" * 2999
    assert texts[2].count("if<B^10>") == 1023


def test_deep_terms_compare_and_hash_without_recursion():
    # Built separately, so == walks both terms to the bottom.
    term, copy = seq(*[Id(B)] * 3000), seq(*[Id(B)] * 3000)
    other = seq(Swap(UNIT, B), *[Id(B)] * 2999)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert term == copy and not term != copy
        assert term != other and not term == other
        assert hash(term) == hash(copy)
    finally:
        sys.setrecursionlimit(limit)


def _field_repr(term) -> str:
    """The text of the dataclass-generated repr, rebuilt recursively."""
    if isinstance(term, (Seq, Par, TauStar)):
        return f"{type(term).__name__}(" + ", ".join(
            f"{f.name}={_field_repr(getattr(term, f.name))}"
            for f in dataclasses.fields(term) if f.repr) + ")"
    return repr(term)


def test_repr_is_the_field_repr():
    terms = [t for _, f, g in axiom_corpus() for t in (f, g)]
    terms += [otp_star_lhs(), copy_at(star(B)), all_1(Fraction(1, 3)),
              nf_to_term(normalize(par(coin(Fraction(1, 3)), Id(B))))]
    assert any(isinstance(t, TauStar) for t in terms)
    for t in terms:
        assert repr(t) == _field_repr(t)


def test_deep_terms_print_their_repr_without_recursion():
    term = seq(*[Id(B)] * 3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = repr(term)
    finally:
        sys.setrecursionlimit(limit)
    assert text == ("Seq(first=" * 2999 + repr(Id(B))
                    + f", second={Id(B)!r})" * 2999)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_each_generator_is_typed_by_its_table_rule(kind):
    _, rule = GENERATORS[kind]
    words = [UNIT] if kind == "coin" else [B, bools(2)]
    for at in words:
        gen = Gen(kind, at, Fraction(1, 2) if kind == "coin" else None)
        assert typecheck(gen) == TypeJudgement(*rule(at))
    assert GEN_NAMES == {"copy": "copy", "discard": "del", "phi": "if"}


def test_a_kept_judgement_is_invisible():
    judged, fresh = otp_lhs(), otp_lhs()
    assert typecheck(judged) == typecheck(otp_lhs())
    assert judged == fresh and hash(judged) == hash(fresh)
    assert repr(judged) == repr(fresh)
    assert pretty_term(judged) == pretty_term(fresh)
    # A generator keeps its judgement too, and is still the same value.
    gen, fresh_gen = phi_gen(bools(2)), Gen("phi", bools(2))
    typecheck(gen)
    assert gen == fresh_gen and hash(gen) == hash(fresh_gen)
    assert repr(gen) == "Gen(kind='phi', at=(BoolAtom(), BoolAtom()), p=None)"
    match judged:
        case Seq(first, second):
            assert (first, second) == (fresh.first, fresh.second)
        case _:
            pytest.fail("a judged Seq no longer matches Seq(first, second)")
    # A failed judgement is not kept: the second call fails the same way.
    bad = Par(copy_at(star(B)), seq(otp_lhs(), coin(1)))
    errors = []
    for _ in range(2):
        with pytest.raises(PBCTypeError) as err:
            typecheck(bad)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "sequential mismatch: expected B^2 on the left of the second "
        "factor, got I")


def test_parentheses_nest_two_hundred_levels_deep():
    assert parse_term("(" * 200 + "id<B>" + ")" * 200) == Id(B)
    # A repeated leaf is found in the file's leaf table at any depth.
    assert (parse_term("id<B> ; " + "(" * 200 + "id<B>" + ")" * 200)
            == Seq(Id(B), Id(B)))
    assert parse_object("(" * 200 + "B" + ")" * 200) == B
    # The 201st opening parenthesis is refused.
    with pytest.raises(PBCSyntaxError, match="^line 1, column 201: "):
        parse_term("(" * 201 + "id<B>" + ")" * 201)
    loop = "iter[B; (); ()]("
    with pytest.raises(PBCSyntaxError,
                       match=f"^line 1, column {201 * len(loop)}: "):
        parse_term(loop * 201 + "id<B>" + ")" * 201)


def test_typecheck_reports_the_leftmost_error():
    bad_seq = seq(coin(1), coin(1))
    bad_loop = parse_term("iter[B; (B); ()]( id<B> )")
    bad_coin = coin(2)
    cases = [
        (bad_seq, "^sequential mismatch: expected B on the left of the "
                  "second factor, got I$"),
        (bad_loop, "^iteration body must be B\\^2 -> B, got B -> B$"),
        (bad_coin, "^coin bias 2 outside \\[0, 1\\]$"),
        (Gen("copy", star(B)), "^copy is primitive at star-free words only, "
                               "not at B\\^\\*; use the derived "
                               "star-lifted circuit$"),
        (Par(Id(B), "id"), "^not a term: 'id'$"),
        # Left to right: the first subterm's error wins.
        (Par(bad_loop, bad_seq), "^iteration body"),
        (seq(Id(B), Par(bad_coin, bad_seq)), "^coin bias"),
        (seq(bad_seq, bad_loop), "^sequential mismatch: expected B on the "
                                 "left of the second factor, got I$"),
        (seq(Id(B), bad_seq, bad_loop), "^sequential mismatch: expected B "
                                        "on the left of the second factor, "
                                        "got I$"),
    ]
    for term, message in cases:
        with pytest.raises(PBCTypeError, match=message):
            typecheck(term)


@pytest.mark.parametrize("compare", [
    decide_equal,
    star_equiv_bounded,
    lambda f, g: distance_series(f, g, 0, 1),
    synthesize_tight_derivation,
], ids=["decide_equal", "star_equiv_bounded", "distance_series",
        "synthesize_tight_derivation"])
def test_comparing_terms_of_two_types_is_one_error(compare):
    with pytest.raises(PBCTypeError, match="^cannot compare terms of types "
                                           "I -> B and B -> B$"):
        compare(coin(1), Id(B))


# ---------------------------------------------------------------------------
# Error positions.

_LOOP = "iter[B; (); ()]("
_MISMATCH = ("sequential mismatch: expected B on the left of the second "
             "factor, got I")

# (parser, source, the full error text): the position of every kind of
# syntax error, counted in characters from line 1, column 1.
_ERRORS = {
    "double semicolon": (parse_term, "coin(1/2) ;; id<B>",
                         "line 1, column 12: expected a term"),
    # A superscript two is a digit to str.isdigit but not a decimal one.
    "superscript digit": (parse_circuit, "main = id<B^\u00b2>",
                          "line 1, column 13: expected a power or '*' "
                          "after '^'"),
    "form feed": (parse_circuit, "main =\fid<B>\n",
                  "line 1, column 7: stray character '\\x0c'"),
    "no-break space": (parse_circuit, "main = id<B>\u00a0; id<B>\n",
                       "line 1, column 13: stray character '\\xa0'"),
    "byte order mark": (parse_circuit, "\ufeffmain = id<B>\n",
                        "line 1, column 1: stray character '\\ufeff'"),
    "comment at end": (parse_circuit, "main = id<B> ; -- no newline",
                       "line 1, column 16: expected a term"),
    "comment, newline": (parse_circuit, "main = id<B> ; -- a comment\n",
                         "line 2, column 1: expected a term"),
    "comment, no main": (parse_circuit, "let a = id<B>\n  -- no main",
                         "line 2, column 3: no 'main' entry"),
    "crlf": (parse_circuit, "let a = id<B>\r\nmain = a ;; a\r\n",
             "line 2, column 11: expected a term"),
    "cr alone": (parse_term, "id<B>\r;\r;",
                 "line 1, column 9: expected a term"),
    "after comments": (parse_circuit, "-- one\n-- two\nmain = zzz\n",
                       "line 3, column 8: unknown identifier 'zzz'"),
    "no main": (parse_circuit, "let a = coin(1/2)",
                "line 1, column 18: no 'main' entry"),
    "no main, newline": (parse_circuit, "let a = coin(1/2)\n",
                         "line 2, column 1: no 'main' entry"),
    "second main": (parse_circuit, "main = id<B>\nmain = id<B>",
                    "line 2, column 1: a second 'main' entry"),
    "indented main": (parse_circuit, "main = id<B>\n  main = id<B>\n",
                      "line 2, column 3: a second 'main' entry"),
    "duplicate let": (parse_circuit,
                      "let a = id<B>\nlet  a = id<B>\nmain = a\n",
                      "line 2, column 6: 'a' is already bound"),
    "rebound builtin": (parse_circuit, "let xor = id<B>\nmain = xor\n",
                        "line 1, column 5: 'xor' rebinds a builtin gate"),
    "bound keyword": (parse_circuit, "let iter = coin(1/2)\nmain = id<B>",
                      "line 1, column 5: expected a binding name after "
                      "'let'"),
    "type error": (parse_circuit,
                   "let first = coin(1/2)\nlet bad = first ; first\n"
                   "main = id<B>",
                   f"line 2, column 1: in let bad: {_MISMATCH}"),
    "indented type error": (parse_circuit,
                            "let a = coin(1/2)\n\tlet b = a ; a\nmain = b\n",
                            f"line 2, column 2: in let b: {_MISMATCH}"),
    "zero denominator": (parse_term, "coin(1/0)",
                         "line 1, column 8: zero denominator"),
    "zero on line 2": (parse_circuit, "main =\n coin(3/0)\n",
                       "line 2, column 9: zero denominator"),
    "unknown identifier": (parse_term, "zzz",
                           "line 1, column 1: unknown identifier 'zzz'"),
    "after multi-byte": (parse_circuit,
                         "let été = coin(1/2)\n"
                         "main = été x zzz\n",
                         "line 2, column 14: unknown identifier 'zzz'"),
    "trailing input": (parse_term, "id<B> id<B>",
                       "line 1, column 7: unexpected trailing input"),
    "deep parentheses": (parse_term,
                         "id<B> ;\n " + "(" * 201 + "id<B>" + ")" * 201,
                         "line 2, column 202: parentheses nested deeper "
                         "than 200 levels"),
    "deep iterations": (parse_term, _LOOP * 201 + "id<B>" + ")" * 201,
                        "line 1, column 3216: parentheses nested deeper "
                        "than 200 levels"),
    "deep stars": (parse_object, "B" + "^*" * 201,
                   "line 1, column 403: stars nested deeper than 200 "
                   "levels"),
    # A repeated leaf is looked up by its tokens; a run that differs, or
    # one that never parsed, is read again, to its error.
    "repeated leaf, malformed": (parse_term, "id<B> ; id<B x>",
                                 "line 1, column 15: expected an object"),
    "repeated leaf, unclosed": (parse_term, "id<B^2> ; id<B^2",
                                "line 1, column 17: expected '>'"),
    "repeated zero denominator": (parse_term,
                                  "coin(1/2) x coin(1/0) x coin(1/0)",
                                  "line 1, column 20: zero denominator"),
    "repeated leaf, 201 deep": (parse_term,
                                "id<B> ;\n" + "(" * 201 + "id<B>" + ")" * 201,
                                "line 2, column 201: parentheses nested "
                                "deeper than 200 levels"),
    "repeated leaf's parenthesis, 201 deep": (
        parse_term, "id<(B)> ; " + "(" * 200 + "id<(B)>" + ")" * 200,
        "line 1, column 214: parentheses nested deeper than 200 levels"),
    "stray after repeated leaves": (parse_term, "id<B> ; " * 100 + "id<B>\f",
                                    "line 1, column 806: stray character "
                                    "'\\x0c'"),
    "trailing comment": (parse_circuit, "main = id<B> x id<B> x -- trailing",
                         "line 1, column 24: expected a term"),
    # Literals past int()'s digit limit, and powers past the word bound.
    "long power": (parse_object, "B^" + "9" * 5000,
                   "line 1, column 3: integer literal too long"),
    "long denominator": (parse_circuit, "main = coin(1/" + "9" * 5000 + ")",
                         "line 1, column 15: integer literal too long"),
    "long numerator": (parse_term, "coin(" + "9" * 5000 + "/2)",
                       "line 1, column 6: integer literal too long"),
    "huge power": (parse_circuit, "main = id<B^20000000>",
                   "line 1, column 13: power longer than 1048576 atoms"),
    "huge power of a power": (parse_object, "(B^1024)^1025",
                              "line 1, column 10: power longer than 1048576 "
                              "atoms"),
}


@pytest.mark.parametrize("parse, source, message", _ERRORS.values(),
                         ids=_ERRORS.keys())
def test_syntax_error_positions(parse, source, message):
    with pytest.raises(PBCSyntaxError) as err:
        parse(source)
    assert str(err.value) == message
    line, col = re.match(r"line (\d+), column (\d+): ", message).groups()
    assert (err.value.line, err.value.col) == (int(line), int(col))


def test_a_file_without_let_or_main_is_one_bare_term():
    src = ("-- let me explain: main is built from two gates\n"
           "coin(1/2) x id<B> ; xor\n")
    assert parse_circuit(src) == parse_term(src)
    assert str(typecheck(parse_circuit(src))) == "B -> B"


def test_bindings_resolve_in_order():
    src = ("-- two fair coins, then a parity check\n"
           "let pair = coin(1/2) x coin(1/2)\n"
           "main = pair ; xor\n")
    f = denote(parse_circuit(src))
    assert f.rows[0][0] == f.rows[0][1]


def test_let_chains_typecheck_in_linear_time(monkeypatch):
    # A statement reuses the judgements of the bindings it names, so the
    # leaves judged grow with the chain, not with its square.
    import pbc.terms
    judged = []
    leaf_type = pbc.terms._leaf_type

    def counted(term):
        judged.append(term)
        return leaf_type(term)

    monkeypatch.setattr(pbc.terms, "_leaf_type", counted)

    def leaves(n):
        lines = ["let a0 = coin(1/2)"]
        lines += [f"let a{i} = (a{i - 1} x coin(1/2)) ; (id<B> x del<B>)"
                  for i in range(1, n)]
        judged.clear()
        parse_circuit("\n".join(lines + [f"main = a{n - 1}"]))
        return len(judged)

    assert leaves(200) <= 2 * leaves(100) + 1


def test_each_distinct_leaf_is_parsed_once_per_file(monkeypatch):
    from pbc.parser import _Parser
    read = []
    for method in ("object_", "rational"):
        def counted(self, _inner=getattr(_Parser, method), _name=method):
            read.append(_name)
            return _inner(self)
        monkeypatch.setattr(_Parser, method, counted)
    t = parse_term(" x ".join(["id<B^3> x coin(1/3)"] * 1000))
    assert sorted(read) == ["object_", "rational"]
    assert str(typecheck(t)) == "B^3000 -> B^4000"


def test_a_power_is_bounded_far_above_the_wire_limit():
    assert parse_object("B^1048576") == bools(1 << 20)
    assert parse_object("(B^1024)^1024") == bools(1 << 20)
    # The empty word is empty at any power.
    assert parse_object("I^99999999999999999999") == UNIT


def test_coin_bias_rejects_floats():
    # Fraction(0.1) would silently be 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="float"):
        coin(0.1)
    with pytest.raises(TypeError, match="float"):
        Gen("coin", UNIT, 0.5)


def test_coin_bias_is_stored_as_a_fraction():
    for bias in (Fraction(1, 3), "1/3"):
        assert coin(bias).p == Fraction(1, 3)
        assert isinstance(Gen("coin", UNIT, bias).p, Fraction)
    assert coin(1).p == Fraction(1) and isinstance(coin(1).p, Fraction)


def test_a_float_bias_is_refused_where_an_equal_coin_is_shared():
    # The float equals the kept bias and hashes alike, so a table looked
    # up before the bias is made exact would hand it the kept coin.
    kept = coin(Fraction(1, 2))
    assert 0.5 == kept.p and hash(0.5) == hash(kept.p)
    with pytest.raises(TypeError, match="float"):
        coin(0.5)
    assert coin("1/2") is coin(Fraction(2, 4)) is kept


def test_equal_leaves_are_one_object_while_a_term_holds_them():
    for build in (copy_gen, discard_gen, phi_gen):
        assert build(B) is build(bools(1))
        assert build(B) is not build(bools(2))
    # A generator no term holds is dropped from the builders' table.
    dropped = weakref.ref(coin(Fraction(1, 999983)))
    assert dropped() is None
    # The parser keeps one id and swap per word within a file, and no
    # table across files.
    source = "main = (id<B> x swap<B, B>) ; (swap<B, B> x id<B>)\n"
    t = parse_circuit(source)
    assert t.first.left is t.second.right
    assert t.first.right is t.second.left
    assert parse_circuit(source).first.left is not t.first.left
    # One id per word, however it is spelled.
    t = parse_term("id<B^2> ; id<B x B> ; id<(B)^2>")
    assert t.first.first is t.first.second is t.second
