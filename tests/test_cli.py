"""End-to-end runs of the console entry point against the data corpus."""

import os
import random
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitgen import random_circuit
from pbc import (
    B, Id, Par, Seq, Swap, bools, cli, coin, copy_gen, discard_gen, nf_pretty,
    normalize, par, parse_circuit, pretty_term, seq, terms,
)
from pbc import combinators as C
from pbc.cli import main
from pbc.cli import main as pbc_command
from pbc.dot import emit_dot
from pbc.semantics import Series

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"

OTP_L = str(DATA / "otp_lhs.pbc")
OTP_R = str(DATA / "otp_rhs.pbc")
ALL1_L = str(DATA / "all1_lhs.pbc")
ALL1_R = str(DATA / "all1_rhs.pbc")
BAD = str(DATA / "bad.pbc")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check

def test_check_prints_the_judgement(capsys):
    code, out, err = run(capsys, "check", OTP_L)
    assert (code, out, err) == (0, "B -> B^2\n", "")


def test_eq_judges_each_leaf_once(capsys, monkeypatch):
    judged = []
    leaf_type = terms._leaf_type
    monkeypatch.setattr(terms, "_leaf_type",
                        lambda t: judged.append(t) or leaf_type(t))
    # Generators are shared and keep their judgement: start from none.
    terms._GENERATORS_ALIVE.clear()
    assert run(capsys, "eq", OTP_L, OTP_R) == (0, "EQUAL\n", "")
    # Five generators, one object each in both files: coin(1/2),
    # copy<B>, if<B> and the not gate's coin(0) and coin(1); and two
    # swaps, the file's and the xor gate's.
    assert len(judged) == len(set(map(id, judged))) == 7


def test_a_builtin_gate_is_one_term_per_file(capsys, tmp_path):
    # 300 uses of xor are one term, as 300 uses of a name bound to it
    # are, so compiling the file visits a handful of term objects.
    uses = " ; copy<B> ; xor" * 299
    paths = {}
    for name, text in (("gates", f"main = id<B^2> ; xor{uses}\n"),
                       ("bound", f"let g = xor\nmain = id<B^2> ; g"
                                 f"{uses.replace('xor', 'g')}\n")):
        paths[name] = tmp_path / f"{name}.pbc"
        paths[name].write_text(text)
    term = parse_circuit(paths["gates"].read_text())
    seen, todo = {}, [term]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Seq):
                todo += (t.first, t.second)
            elif isinstance(t, Par):
                todo += (t.left, t.right)
    assert sum(t == C.xor_gate() for t in seen.values()) == 1
    series = Series()
    series.node(term)
    assert len(series.nodes) < 20
    files = (str(paths["gates"]), str(paths["bound"]))
    assert run(capsys, "eq", *files) == (0, "EQUAL\n", "")
    assert run(capsys, "dist", *files) == (0, "0/1\n", "")


def test_check_locates_type_errors(capsys):
    code, out, err = run(capsys, "check", BAD)
    assert code == 2
    assert "line 4, column 1" in err
    assert "sequential mismatch" in err


def test_non_ascii_digits_are_a_syntax_error(capsys, tmp_path):
    src = tmp_path / "sup.pbc"
    src.write_text("main = id<B^\u00b2>\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"pbc: {src}: line 1, column 13: ")
    assert "internal error" not in err


def test_literals_past_the_digit_limit_are_errors_not_crashes(capsys,
                                                              tmp_path):
    # int() refuses 5,000 digits; the refusal is placed at the literal.
    digits = "9" * 5000
    src = tmp_path / "long.pbc"
    for text, column in ((f"main = coin(1/{digits})", 15),
                         (f"main = id<B^{digits}>", 13)):
        src.write_text(text + "\n", encoding="utf-8")
        assert run(capsys, "check", str(src)) == (
            2, "", f"pbc: {src}: line 1, column {column}: integer literal "
                   "too long\n")
    assert run(capsys, "eval", ALL1_L, "--k", digits) == (
        2, "", "pbc: bad --k value: too many digits\n")


def test_a_power_past_the_word_bound_is_refused_at_its_exponent(capsys,
                                                               tmp_path):
    # 20,000,000 atoms would take seconds and hundreds of MB to build.
    src = tmp_path / "wide.pbc"
    src.write_text("main = id<B^20000000>\n", encoding="utf-8")
    assert run(capsys, "check", str(src)) == (
        2, "", f"pbc: {src}: line 1, column 13: power longer than 1048576 "
               "atoms\n")


def test_a_three_thousand_stage_pipeline_checks_and_compares(capsys,
                                                             tmp_path):
    src = tmp_path / "long.pbc"
    src.write_text("main = " + " ; ".join(["id<B>"] * 3000) + "\n")
    assert run(capsys, "check", str(src)) == (0, "B -> B\n", "")
    assert run(capsys, "eq", str(src), str(src)) == (0, "EQUAL\n", "")


@pytest.mark.parametrize("factor", [
    "(coin(1/2) ; del<B>)", "(coin(1) ; del<B>)",
], ids=["stochastic", "deterministic"])
def test_a_three_thousand_factor_tensor_evaluates_and_compares(
        capsys, tmp_path, factor):
    src = tmp_path / "wide.pbc"
    src.write_text("main = " + " x ".join([factor] * 3000) + "\n")
    assert run(capsys, "eval", str(src)) == (
        0, "in\tout\tprob\n-\t-\t1/1\n", "")
    assert run(capsys, "eq", str(src), str(src)) == (0, "EQUAL\n", "")


@pytest.mark.parametrize("first, step, rows, boxes", [
    ("coin(1/2)", "({} x coin(1/2)) ; (id<B> x del<B>)",
     "-\t0\t1/2\n-\t1\t1/2\n", 2),
    ("coin(0)", "({} x coin(0)) ; (id<B> x del<B>)", "-\t0\t1/1\n", 2),
    ("coin(1)", "({} x coin(1) x coin(0)) ; if<B>", "-\t1\t1/1\n", 3),
], ids=["stochastic", "constant-coin", "if"])
def test_a_let_chain_nested_past_the_recursion_limit_runs(
        capsys, tmp_path, first, step, rows, boxes):
    # Each binding nests the one before under another ; and x, 1500
    # deep, which no evaluation and no walk may recurse along.
    lines = [f"let a0 = {first}"]
    lines += [f"let a{i} = " + step.format(f"a{i - 1}")
              for i in range(1, 1500)]
    src = tmp_path / "chain.pbc"
    src.write_text("\n".join(lines + ["main = a1499"]) + "\n")
    assert run(capsys, "eval", str(src)) == (
        0, "in\tout\tprob\n" + rows, "")
    assert run(capsys, "eq", str(src), str(src)) == (0, "EQUAL\n", "")
    assert run(capsys, "dist", str(src), str(src)) == (0, "0/1\n", "")
    code, out, err = run(capsys, "dot", str(src))
    assert (code, err) == (0, "")
    assert out.count("[label=") == 1 + boxes * 1499


@pytest.mark.parametrize("gate, rows", [
    ("copy", "-\t-\t1/1\n"),
    ("del", "-\t-\t1/1\n"),
    ("if", "0\t-\t1/1\n1\t-\t1/1\n"),
], ids=["copy", "del", "if"])
def test_a_gate_at_a_thousand_starred_atoms_runs(capsys, tmp_path, gate,
                                                  rows):
    # The derived circuit splits off one atom at a time, 1000 deep.
    src = tmp_path / "wide.pbc"
    src.write_text(f"main = {gate}<{' x '.join(['B^*'] * 1000)}>\n")
    for argv in (["check"], ["dot"]):
        code, out, err = run(capsys, *argv, str(src))
        assert (code, err) == (0, ""), argv
    assert run(capsys, "eval", "--k", "0", str(src)) == (
        0, "in\tout\tprob\n" + rows, "")


def test_stars_nest_two_hundred_levels_deep(capsys, tmp_path):
    src = tmp_path / "stars.pbc"
    src.write_text("main = id<B" + "^*" * 200 + ">\n")
    word = "B^*"
    for _ in range(199):
        word = f"({word})^*"
    assert run(capsys, "check", str(src)) == (0, f"{word} -> {word}\n", "")


@pytest.mark.parametrize("obj, column", [
    ("B" + "^*" * 201, 413),
    ("B" + "^*" * 2000, 413),
    ("(B" + "^*" * 150 + ")" + "^*" * 51, 415),
], ids=["201", "2000", "parenthesized"])
def test_deep_stars_are_a_syntax_error(capsys, tmp_path, obj, column):
    # The star that nests 201 deep is refused.
    src = tmp_path / "deep.pbc"
    src.write_text(f"main = id<{obj}>\n")
    code, out, err = run(capsys, "check", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"pbc: {src}: line 1, column {column}: ")
    assert "internal error" not in err


@pytest.mark.parametrize("body, column", [
    ("(" * 2000 + "id<B>" + ")" * 2000, 208),
    ("id<" + "(" * 2000 + "B" + ")" * 2000 + ">", 211),
], ids=["term", "object"])
def test_deep_parentheses_are_a_syntax_error(capsys, tmp_path, body, column):
    # The 201st opening parenthesis is refused.
    src = tmp_path / "deep.pbc"
    src.write_text(f"main = {body}\n")
    code, out, err = run(capsys, "check", str(src))
    assert (code, out) == (2, "")
    assert err.startswith(f"pbc: {src}: line 1, column {column}: ")
    assert "internal error" not in err


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.pbc")
    assert code == 2
    assert err.startswith("pbc: ")


def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    src = tmp_path / "latin1.pbc"
    src.write_bytes(b"main = id<B> \xe9\n")
    code, out, err = run(capsys, "check", str(src))
    assert (code, out) == (2, "")
    assert err == (f"pbc: {src}: 'utf-8' codec can't decode byte 0xe9 in "
                   "position 13: invalid continuation byte\n")


def test_a_byte_order_mark_is_a_stray_character(capsys, tmp_path):
    src = tmp_path / "bom.pbc"
    src.write_bytes(b"\xef\xbb\xbfmain = id<B>\n")
    code, out, err = run(capsys, "check", str(src))
    assert (code, out) == (2, "")
    assert err == (f"pbc: {src}: line 1, column 1: stray character "
                   "'\\ufeff'\n")


# ---------------------------------------------------------------------------
# eval

def test_eval_tsv(capsys):
    code, out, _ = run(capsys, "eval", OTP_R)
    assert code == 0
    assert out == (
        "in\tout\tprob\n"
        "0\t00\t1/2\n"
        "0\t10\t1/2\n"
        "1\t01\t1/2\n"
        "1\t11\t1/2\n"
    )


def test_eval_decimal_adds_a_column(capsys):
    for path in (OTP_L, OTP_R):
        assert run(capsys, "eval", path, "--decimal") == (0, (
            "in\tout\tprob\tprob_dec\n"
            "0\t00\t1/2\t0.5\n"
            "0\t10\t1/2\t0.5\n"
            "1\t01\t1/2\t0.5\n"
            "1\t11\t1/2\t0.5\n"), ""), path
    # At size 3, eight outcomes of weight 1/8: three coins, then the
    # all-ones flag or the constant 0.
    for path, last in ((ALL1_L, "1111"), (ALL1_R, "1110")):
        outs = [format(x << 1, "04b") for x in range(7)] + [last]
        assert run(capsys, "eval", path, "--k", "3", "--decimal") == (
            0, "".join(["in\tout\tprob\tprob_dec\n"]
                       + [f"-\t{o}\t1/8\t0.125\n" for o in outs]), ""), path


def test_eval_instantiates_at_a_single_size(capsys):
    code, out, _ = run(capsys, "eval", ALL1_R, "--k", "2")
    assert code == 0
    assert out == (
        "in\tout\tprob\n"
        "-\t000\t1/4\n"
        "-\t010\t1/4\n"
        "-\t100\t1/4\n"
        "-\t110\t1/4\n"
    )


def test_eval_rejects_parametric_without_k(capsys):
    code, _, err = run(capsys, "eval", ALL1_L)
    assert code == 2
    assert "parametric type" in err


@pytest.mark.parametrize("value", ["-1", "abc", ""])
@pytest.mark.parametrize("argv", [
    ("eval", OTP_L), ("eq", OTP_L, OTP_R), ("dist", OTP_L, OTP_R),
    ("demo", "otp"),
], ids=lambda a: a[0])
def test_a_bad_wire_limit_is_a_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("PBC_MAX_WIRES", value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("pbc: PBC_MAX_WIRES ")
    assert err.count("\n") == 1
    assert "internal error" not in err


def test_one_shape_compared_with_itself_reads_no_row(capsys, monkeypatch,
                                                    tmp_path):
    # Five fair coins, discarded: no wire in the type, but 32 outcomes on
    # the way, above 2^4.  A file and its copy compile to one node, so
    # eq and dist answer without reading a row; eval reads them.
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    text = pretty_term(seq(par(*[coin("1/2")] * 5), discard_gen(bools(5))))
    f, copy = tmp_path / "f.pbc", tmp_path / "copy.pbc"
    for path in (f, copy):
        path.write_text(f"main = {text}\n")
    assert run(capsys, "eq", str(f), str(copy)) == (0, "EQUAL\n", "")
    assert run(capsys, "dist", str(f), str(f)) == (0, "0/1\n", "")
    code, out, err = run(capsys, "eval", str(f))
    assert (code, out) == (2, "") and "32 outcomes" in err
    # A type above the limit is refused before any node is compared.
    wide = tmp_path / "wide.pbc"
    wide.write_text("main = id<B^5>\n")
    for cmd in ("eq", "dist"):
        code, out, err = run(capsys, cmd, str(wide), str(wide))
        assert (code, out) == (2, "") and "needs 5 wires" in err


def test_two_loops_with_one_body_read_no_row(capsys, monkeypatch, tmp_path):
    # A loop that emits a fair coin a step, drawn after five fair coins
    # it discards: 32 outcomes on the way, above 2^4.  Two loops of one
    # signature over one body node are one loop, so eq and dist answer
    # at every size whose type fits, without reading a row.
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    body = seq(par(*[coin("1/2")] * 5), discard_gen(bools(5)), coin("1/2"))
    f, copy, respelled = (tmp_path / f"{name}.pbc"
                          for name in ("f", "copy", "respelled"))
    for path, term in ((f, body), (copy, body), (respelled, seq(body, Id(B)))):
        path.write_text(f"main = iter[I; (); (B)]({pretty_term(term)})\n")
    assert run(capsys, "eq", str(f), str(copy), "--k", "4") == (
        0, "EQUAL (every size k = 0..4)\n", "")
    assert run(capsys, "dist", str(f), str(copy), "--k", "0..2") == (
        0, "0\t0/1\n1\t0/1\n2\t0/1\n", "")
    # Bodies of two nodes are compared row by row, and eval reads rows.
    for argv in (("eq", str(f), str(respelled), "--k", "1"),
                 ("eval", str(f), "--k", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "32 outcomes" in err
    # A type above the limit is refused before any node is compared.
    code, out, err = run(capsys, "eq", str(f), str(copy), "--k", "5")
    assert (code, out) == (2, "") and "needs 5 wires" in err


def test_a_product_stage_refuses_the_support_where_mix_does(capsys,
                                                            monkeypatch,
                                                            tmp_path):
    # Each coin stage multiplies the whole distribution at once; the
    # last doubles 16 outcomes, above 2^4, and is refused where mixing
    # them two at a time would pass the limit: at 18.
    monkeypatch.setenv("PBC_MAX_WIRES", "4")
    path = tmp_path / "f.pbc"
    path.write_text("main = coin(1/2) x coin(1/3) ; id<B^2> x coin(1/2) ; "
                    "id<B^3> x coin(1/2) ; id<B^4> x coin(1/2) ; del<B^5>\n")
    assert run(capsys, "eval", str(path)) == (
        2, "", "pbc: an intermediate distribution has 18 outcomes, above "
               "the limit of 16 (2^PBC_MAX_WIRES; set PBC_MAX_WIRES to raise "
               "it)\n")


def test_a_tensor_of_wide_rows_is_refused_at_its_whole_outcome_count(
        capsys, monkeypatch, tmp_path):
    # Five fair coins side by side are one node, whose 32 outcomes, above
    # 2^2, are refused before any two of its rows are multiplied, however
    # the factors group.
    monkeypatch.setenv("PBC_MAX_WIRES", "2")
    path = tmp_path / "f.pbc"
    for coins in ("coin(1/2) x coin(1/2) x coin(1/2) x coin(1/2) x coin(1/2)",
                  "(coin(1/2) x coin(1/2)) x (coin(1/2) x (coin(1/2) x "
                  "coin(1/2)))"):
        path.write_text(f"main = {coins} ; del<B^5>\n")
        assert run(capsys, "eval", str(path)) == (
            2, "", "pbc: an intermediate distribution has 32 outcomes, above "
                   "the limit of 4 (2^PBC_MAX_WIRES; set PBC_MAX_WIRES to "
                   "raise it)\n")


def test_eval_rejects_a_range(capsys):
    code, _, err = run(capsys, "eval", OTP_L, "--k", "0..3")
    assert code == 2
    assert "single --k" in err


# ---------------------------------------------------------------------------
# normalize

def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", OTP_L)
    assert code == 0
    assert out == (
        "last=1:\n"
        "  1/2 |01>\n"
        "  |11>\n"
        "last=0:\n"
        "  1/2 |00>\n"
        "  |10>\n"
    )


def test_normalize_rejects_parametric_terms(capsys):
    code, _, err = run(capsys, "normalize", ALL1_L)
    assert code == 2
    assert "instantiate" in err


def test_normalize_points_parametric_terms_to_eval(capsys):
    # normalize has no --k: the message names the command that has one.
    code, out, err = run(capsys, "normalize", ALL1_L)
    assert (code, out) == (2, "")
    assert "eval --k K" in err
    assert "pass a size" not in err


def _normalizes_as_the_form_prints(capsys, path) -> None:
    """``pbc normalize`` prints ``nf_pretty`` of the file's normal form,
    or, where there is none, exits 2 with no stdout."""
    code, out, err = run(capsys, "normalize", str(path))
    try:
        term = parse_circuit(Path(path).read_text())
        want = nf_pretty(normalize(term)) + "\n"
    except terms.PBCError:
        assert (code, out) == (2, "") and err.startswith("pbc: ")
        return
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("path", sorted(DATA.glob("*.pbc")),
                         ids=lambda p: p.name)
def test_normalize_prints_the_form_of_each_data_file(capsys, path):
    _normalizes_as_the_form_prints(capsys, path)


def test_normalize_prints_the_form_of_random_circuits(capsys, tmp_path):
    rng = random.Random(27)
    path = tmp_path / "f.pbc"
    for _ in range(300):
        term = random_circuit(rng, rng.randint(0, 3), rng.randint(0, 10),
                              max_gens=30, max_wires=12, max_den=8)
        path.write_text(f"main = {pretty_term(term)}\n")
        _normalizes_as_the_form_prints(capsys, path)


def test_normalize_prints_the_form_of_twelve_fair_coins(capsys, tmp_path):
    _normalizes_as_the_form_prints(capsys, _coins(tmp_path, 12))


@pytest.mark.parametrize("text, want", [
    ("coin(1/2) ; del<B>", "|->\n"),
    ("del<B>", "last=1:\n  |->\nlast=0:\n  |->\n"),
])
def test_normalize_prints_a_term_with_no_output_wire(capsys, tmp_path, text,
                                                     want):
    path = tmp_path / "f.pbc"
    path.write_text(f"main = {text}\n")
    assert run(capsys, "normalize", str(path)) == (0, want, "")
    _normalizes_as_the_form_prints(capsys, path)


# ---------------------------------------------------------------------------
# eq

def test_eq_equal_exits_zero(capsys):
    code, out, _ = run(capsys, "eq", OTP_L, OTP_R)
    assert (code, out) == (0, "EQUAL\n")


def test_eq_not_equal_exits_one(capsys, tmp_path):
    other = tmp_path / "pad14.pbc"
    other.write_text("main = coin(1/4) x id<B>\n")
    code, out, _ = run(capsys, "eq", OTP_L, str(other))
    assert (code, out) == (1, "NOT EQUAL\n")


def test_eq_parametric_reports_the_counterexample(capsys):
    code, out, _ = run(capsys, "eq", ALL1_L, ALL1_R, "--k", "6")
    assert (code, out) == (1, "NOT EQUAL at k=0, input -\n")


def test_eq_parametric_equal_reports_the_range(capsys, tmp_path):
    unif = tmp_path / "unif.pbc"
    unif.write_text("main = iter[I; (); (B)]( coin(1/2) )\n")
    code, out, _ = run(capsys, "eq", str(unif), str(unif))
    assert (code, out) == (0, "EQUAL (every size k = 0..6)\n")


def test_eq_type_mismatch_is_a_usage_error(capsys):
    code, _, err = run(capsys, "eq", OTP_L, ALL1_L)
    assert code == 2
    assert "type mismatch" in err
    assert "B -> B^2" in err and "I -> B^* x B" in err


# ---------------------------------------------------------------------------
# dist

def test_dist_star_free(capsys):
    code, out, _ = run(capsys, "dist", OTP_L, OTP_R)
    assert (code, out) == (0, "0/1\n")


def test_dist_decimal(capsys):
    code, out, _ = run(capsys, "dist", OTP_L, OTP_R, "--decimal")
    assert (code, out) == (0, "0/1\t0.0\n")


def test_dist_over_a_range(capsys):
    code, out, _ = run(capsys, "dist", ALL1_L, ALL1_R, "--k", "0..4")
    assert code == 0
    assert out == (
        "0\t1/1\n"
        "1\t1/2\n"
        "2\t1/4\n"
        "3\t1/8\n"
        "4\t1/16\n"
    )


def test_dist_single_size_prints_the_bare_value(capsys):
    code, out, _ = run(capsys, "dist", ALL1_L, ALL1_R, "--k", "3")
    assert (code, out) == (0, "1/8\n")


def test_dist_parametric_needs_a_size(capsys):
    code, _, err = run(capsys, "dist", ALL1_L, ALL1_R)
    assert code == 2
    assert "need a size" in err


def test_bad_k_values_are_usage_errors(capsys):
    for text in ("abc", "5..2", "1..2..3"):
        code, _, err = run(capsys, "dist", ALL1_L, ALL1_R, "--k", text)
        assert code == 2, text
        assert "--k" in err


def test_eq_refuses_a_bad_k_on_star_free_files(capsys):
    for text in ("garbage", "3..1", "0..3"):
        code, out, err = run(capsys, "eq", OTP_L, OTP_R, "--k", text)
        assert (code, out) == (2, ""), text
        assert err.startswith("pbc: ") and "--k" in err, text
    assert run(capsys, "eq", OTP_L, OTP_R, "--k", "3") == (0, "EQUAL\n", "")


# ---------------------------------------------------------------------------
# series

SERIES_CSV = (
    "k,d_num,d_den,scaled_num,scaled_den\n"
    "0,1,1,0,1\n"
    "1,1,2,1,2\n"
    "2,1,4,1,1\n"
    "3,1,8,9,8\n"
    "4,1,16,1,1\n"
    "5,1,32,25,32\n"
    "6,1,64,9,16\n"
    "verdict=ConsistentWithNegligible\n"
    "witness_N=3\n"
    "fitted_rate=-0.6931471805599453\n"
)


def test_series_csv_golden(capsys):
    code, out, _ = run(capsys, "series", ALL1_L, ALL1_R,
                       "--k", "0..6", "--a", "2")
    assert (code, out) == (0, SERIES_CSV)


def test_series_decimal_golden(capsys):
    code, out, _ = run(capsys, "series", ALL1_L, ALL1_R,
                       "--k", "1..5", "--a", "1", "--decimal")
    assert (code, out) == (0, (
        "k,d_num,d_den,scaled_num,scaled_den,d_dec,scaled_dec\n"
        "1,1,2,1,2,0.5,0.5\n"
        "2,1,4,1,2,0.25,0.5\n"
        "3,1,8,3,8,0.125,0.375\n"
        "4,1,16,1,4,0.0625,0.25\n"
        "5,1,32,5,32,0.03125,0.15625\n"
        "verdict=ConsistentWithNegligible\n"
        "witness_N=2\n"
        "fitted_rate=-0.6931471805599453\n"))
    assert run(capsys, "series", OTP_L, OTP_R, "--k", "0..3",
               "--decimal") == (0, (
        "k,d_num,d_den,scaled_num,scaled_den,d_dec,scaled_dec\n"
        "0,0,1,0,1,0.0,0.0\n"
        "1,0,1,0,1,0.0,0.0\n"
        "2,0,1,0,1,0.0,0.0\n"
        "3,0,1,0,1,0.0,0.0\n"
        "verdict=ConsistentWithNegligible\n"
        "witness_N=0\n"
        "fitted_rate=none\n"), "")


def test_series_prints_inf_for_a_scaled_value_above_the_float_range(
        capsys):
    # 6^400 / 64 is about 1.8e309; 5^400 / 32 still fits.
    code, out, err = run(capsys, "series", ALL1_L, ALL1_R,
                         "--k", "0..6", "--a", "400", "--decimal")
    assert (code, err) == (1, "")
    rows = [line.split(",") for line in out.splitlines()[1:8]]
    assert [r[-1] for r in rows[5:]] == ["1.210184973390412e+278", "inf"]
    assert rows[6][-2] == "0.015625"
    golden = DATA / "golden" / "series_all1_k0-6_a400_decimal.csv"
    assert out == golden.read_text()


def test_series_is_byte_deterministic(capsys):
    argv = ("series", ALL1_L, ALL1_R, "--k", "0..6", "--a", "2")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_series_not_decreasing_exits_one(capsys, tmp_path):
    other = tmp_path / "pad14.pbc"
    other.write_text("main = coin(1/4) x id<B>\n")
    code, out, _ = run(capsys, "series", OTP_L, str(other),
                       "--k", "0..4", "--a", "0")
    assert code == 1
    assert "verdict=NotDecreasing" in out
    assert "witness_N=none" in out


def test_series_requires_k():
    with pytest.raises(SystemExit) as exc:
        main(["series", OTP_L, OTP_R])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# demo

def test_demo_otp_golden(capsys):
    code, out, _ = run(capsys, "demo", "otp", "--k", "3")
    assert code == 0
    assert out == (
        "k,d_num,d_den\n"
        "0,0,1\n"
        "1,0,1\n"
        "2,0,1\n"
        "3,0,1\n"
        "exact_equality=yes\n"
    )


def test_demo_vonneumann_golden(capsys):
    code, out, _ = run(capsys, "demo", "vonneumann",
                       "--k", "3", "--p", "3/5")
    assert code == 0
    assert out == (
        "k,d_num,d_den,scaled_num,scaled_den\n"
        "0,1,1,1,1\n"
        "1,1,5,1,5\n"
        "2,1,25,1,25\n"
        "3,1,125,1,125\n"
        "verdict=ConsistentWithNegligible\n"
        "witness_N=3\n"
        "fitted_rate=-1.6094379124341003\n"
    )


def test_demo_fits_a_rate_to_distances_below_the_float_range(capsys):
    # |2p - 1| = 2^-19, so d_k = 2^(-19k) is 0.0 as a float from k = 57.
    code, out, err = run(capsys, "demo", "vonneumann",
                         "--p", "524289/1048576", "--k", "60")
    assert (code, err) == (0, "")
    assert out.endswith("fitted_rate=-13.169796430638963\n")


def test_demo_vonneumann_at_a_fair_coin_is_exactly_zero(capsys):
    # |2p - 1|^k is 0 from k = 1 on: a zero tail, not a flat one.
    code, out, _ = run(capsys, "demo", "vonneumann",
                       "--k", "3", "--p", "1/2")
    assert code == 0
    assert out == (
        "k,d_num,d_den,scaled_num,scaled_den\n"
        "0,1,1,1,1\n"
        "1,0,1,0,1\n"
        "2,0,1,0,1\n"
        "3,0,1,0,1\n"
        "verdict=ConsistentWithNegligible\n"
        "witness_N=1\n"
        "fitted_rate=none\n"
    )


def _soft_warnings(capsys, *argv):
    """Exit code and stdout of a command, and its soft-limit warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, *argv)
    return code, out, len(caught)


@pytest.mark.parametrize("name, k", [("all1", "14"), ("vonneumann", "80")])
def test_demo_golden_at_the_benchmark_sizes(capsys, name, k):
    golden = (DATA / "golden" / f"demo_{name}_k{k}.txt").read_text()
    # all1 reaches 14 output wires at k = 13: one warning for the series.
    assert _soft_warnings(capsys, "demo", name, "--k", k) == (
        0, golden, 1 if name == "all1" else 0)


@pytest.mark.parametrize("name, cap", [("keyguess", 12), ("otp", 10)],
                         ids=["keyguess", "otp"])
def test_demo_golden_at_the_cap(capsys, name, cap):
    golden = (DATA / "golden" / f"demo_{name}_k{cap}.txt").read_bytes()
    # Key-guess is 13 wires wide at its cap, below the soft limit.  The
    # pad reaches 14 wires at k = 7, but its two loops are one node, so
    # no row is read and nothing warns.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "demo", name, "--k", str(cap))
    assert (code, out.encode(), err, caught) == (0, golden, "", [])


@pytest.mark.parametrize("name, cap", [("keyguess", 12), ("otp", 10)],
                         ids=["keyguess", "otp"])
def test_a_capped_demo_says_where_it_stops(capsys, name, cap):
    # Stdout and the exit code are those of the sizes it runs.
    golden = (DATA / "golden" / f"demo_{name}_k{cap}.txt").read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run(capsys, "demo", name, "--k", str(cap + 2))
    assert got == (0, golden, f"pbc: {name} stops at size {cap}\n")


def test_eq_on_the_pad_over_streams_golden(capsys, tmp_path):
    paths = []
    for name, term in (("lhs", C.otp_star_lhs()), ("rhs", C.otp_star_rhs())):
        path = tmp_path / f"otp_star_{name}.pbc"
        path.write_text(f"main = {pretty_term(term)}\n")
        paths.append(str(path))
    # 16 wires at k = 8, but the two loops are one node: no row is read,
    # and nothing warns.
    assert _soft_warnings(capsys, "eq", *paths, "--k", "8") == (
        0, "EQUAL (every size k = 0..8)\n", 0)


def test_demo_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "nosuch")
    assert code == 2
    assert "unknown demo" in err


def test_demo_accepts_a_single_size(capsys):
    code, out, _ = run(capsys, "demo", "otp", "--k", "4")
    assert code == 0
    assert "4,0,1" in out


def test_demo_range_starts_at_zero(capsys):
    assert (run(capsys, "demo", "all1", "--k", "0..3")
            == run(capsys, "demo", "all1", "--k", "3"))
    code, out, err = run(capsys, "demo", "all1", "--k", "1..3")
    assert (code, out) == (2, "")
    assert "start at 0" in err


# ---------------------------------------------------------------------------
# dot

def test_dot_identity_golden(capsys, tmp_path):
    src = tmp_path / "idb.pbc"
    src.write_text("main = id<B>\n")
    code, out, _ = run(capsys, "dot", str(src))
    assert code == 0
    assert out == (
        "digraph circuit {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontname=\"monospace\"];\n"
        "  i0 [shape=point];\n"
        "  o0 [shape=point];\n"
        "  i0 -> o0;\n"
        "}\n"
    )


def test_dot_all1_golden(capsys):
    code, out, _ = run(capsys, "dot", ALL1_L)
    assert code == 0
    assert out == (
        "digraph circuit {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontname=\"monospace\"];\n"
        "  n0 [label=\"coin(1/1)\"];\n"
        "  subgraph cluster0 {\n"
        "    label=\"iter[B; (); (B)] ^*\";\n"
        "    n1 [label=\"coin(1/2)\"];\n"
        "    n2 [label=\"copy<B>\"];\n"
        "    n3 [label=\"coin(0/1)\"];\n"
        "    n4 [label=\"if<B>\"];\n"
        "  }\n"
        "  o0 [shape=point];\n"
        "  o1 [shape=point];\n"
        "  n1 -> n2;\n"
        "  n0 -> n4 [headlabel=\"0\"];\n"
        "  n2 -> n4 [taillabel=\"1\", headlabel=\"1\"];\n"
        "  n3 -> n4 [headlabel=\"2\"];\n"
        "  n2 -> o0 [taillabel=\"0\"];\n"
        "  n4 -> o1;\n"
        "}\n"
    )


def test_dot_streams_over_the_empty_word_carry_no_wire(capsys, tmp_path):
    src = tmp_path / "unit_blocks.pbc"
    src.write_text("main = iter[B; (I, B); (B, I)]( swap<B, B> )\n")
    code, out, _ = run(capsys, "dot", str(src))
    assert code == 0
    assert out.endswith("  i1 -> o0;\n  i0 -> o1;\n}\n")


@pytest.mark.parametrize("body, n_boxes", [
    (" ; ".join(["id<B>"] * 3000), 0),
    (" x ".join(["id<B>"] * 3000) + " ; del<B^3000>", 1),
], ids=["seq", "par"])
def test_dot_walks_long_chains(capsys, tmp_path, body, n_boxes):
    src = tmp_path / "long.pbc"
    src.write_text(f"main = {body}\n")
    code, out, err = run(capsys, "dot", str(src))
    assert (code, err) == (0, "")
    assert out.count("[label=") == n_boxes


@pytest.mark.parametrize("former, a, b, c", [
    (Seq, copy_gen(B), C.xor_gate(), C.not_gate()),
    (Par, coin(1), C.not_gate(), copy_gen(B)),
], ids=["seq", "par"])
def test_dot_draws_a_chain_however_it_nests(former, a, b, c):
    assert (emit_dot(former(a, former(b, c)))
            == emit_dot(former(former(a, b), c)))


def test_dot_iteration_gets_a_cluster(capsys):
    code, out, _ = run(capsys, "dot", ALL1_L)
    assert code == 0
    assert 'label="iter[B; (); (B)] ^*";' in out
    assert out.count("subgraph cluster") == 1
    # One box per generator of the elaborated body.
    assert out.count("[label=") == 5


def test_dot_ports_appear_only_on_multi_wire_ends(capsys):
    code, out, _ = run(capsys, "dot", ALL1_L)
    assert code == 0
    assert 'taillabel="1", headlabel="1"' in out
    assert "n1 -> n2;\n" in out


# ---------------------------------------------------------------------------
# exit contract of the pbc command

def test_internal_error_exits_two_not_one(capsys, monkeypatch):
    # Any exception main lets through is reported as an error, never as
    # "not equal".
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setitem(cli._HANDLERS, "eq", overflow)
    code = pbc_command(["eq", OTP_L, OTP_L])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("pbc: internal error: RecursionError")
    assert "Traceback" not in captured.err


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_module_entry_point_runs_without_warnings():
    proc = _python("-W", "error", "-m", "pbc.cli", "check", OTP_L)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "B -> B^2\n",
                                                           "")


def test_importing_the_package_leaves_the_cli_unloaded():
    proc = _python("-c", "import sys, pbc; print('pbc.cli' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


# ---------------------------------------------------------------------------
# wide supports: normal-form spines thousands of entries long

def _coins(tmp_path, n):
    path = tmp_path / f"coins{n}.pbc"
    path.write_text(f"main = {pretty_term(par(*[coin('1/2')] * n))}\n")
    return str(path)


def _peak_mb(code: str) -> tuple:
    """Run code in a process of its own: its stdout's words, then its
    peak RSS in MB.  Linux hands getrusage the larger peak of the
    process that forked it, here the test run's, so the peak is read
    from the process's own high-water mark where /proc has it."""
    proc = _python("-c", textwrap.dedent(code) + textwrap.dedent("""
        import resource, sys
        try:
            with open("/proc/self/status") as status:
                print(next(int(line.split()[1]) >> 10 for line in status
                           if line.startswith("VmHWM:")))
        except OSError:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(rss >> (20 if sys.platform == "darwin" else 10))
        """))
    assert proc.returncode == 0, proc.stderr
    *out, mb = proc.stdout.split()
    return (*out, int(mb))


def test_the_ten_coin_certificate_checks_under_300_mb():
    # Ten fair coins against coin(1/3) and nine: every normal-form spine
    # level mixes in a coin, and mixture rows are divided by their gcd,
    # so the check peaks near 130 MB, where unreduced rows took 1.27 GB.
    bound, max_rss_mb = _peak_mb("""
        from fractions import Fraction
        from pbc import (check_derivation, coin, par,
                         synthesize_tight_derivation)
        half = Fraction(1, 2)
        d = synthesize_tight_derivation(
            par(*[coin(half)] * 10),
            par(coin(Fraction(1, 3)), *[coin(half)] * 9))
        print(check_derivation(d))
        """)
    assert bound == "1/6"
    assert max_rss_mb < 300


def test_the_key_guess_series_to_twelve_runs_under_150_mb():
    # Each flag-set row of a key-guess level is kept as the rows it
    # concatenates, which every input shares, so sizes 0..12 peak near
    # 32 MB, where copying every level row took 1.1 GB.
    halves, sizes, max_rss_mb = _peak_mb("""
        from fractions import Fraction
        from pbc import combinators as C, distance_series
        series = distance_series(C.keyguess_lhs(), C.keyguess_rhs(), 0, 12)
        print(all(d == Fraction(1, 2) ** k for k, d in series.pairs),
              len(series.pairs))
        """)
    assert (halves, sizes) == ("True", "13")
    assert max_rss_mb < 150


def test_the_key_guess_series_to_sixteen_runs_under_250_mb():
    # Sizes 0..16 peak near 145 MB: each level's flag-cleared row is
    # shared by every input whose flag has cleared, and compared once
    # per size; the ; that opens each side with a deterministic stage
    # files no rows, and the loop that discards the guesses is wiring.
    halves, sizes, max_rss_mb = _peak_mb("""
        from fractions import Fraction
        from pbc import combinators as C, distance_series
        series = distance_series(C.keyguess_lhs(), C.keyguess_rhs(), 0, 16)
        print(all(d == Fraction(1, 2) ** k for k, d in series.pairs),
              len(series.pairs))
        """)
    assert (halves, sizes) == ("True", "17")
    assert max_rss_mb < 250


def test_a_hundred_thousand_stage_chain_checks_in_linear_time(tmp_path):
    # The front end reads, judges and prints a 100,000-stage ; chain in
    # about 0.4 s and 40 MB; a cost per stage that grew with the chain
    # would pass both bounds many times over.
    path = tmp_path / "chain.pbc"
    path.write_text("main = " + " ; ".join(["not"] * 100_000) + "\n")
    *out, seconds, max_rss_mb = _peak_mb(f"""
        import time
        from pbc.cli import main
        start = time.perf_counter()
        code = main(["check", {str(path)!r}])
        print(code, time.perf_counter() - start)
        """)
    assert out == ["B", "->", "B", "0"]
    assert float(seconds) < 10
    assert max_rss_mb < 100


def test_the_all_ones_series_to_nineteen_runs_under_60_mb():
    # Size 19 is 20 wires, the default limit.  Both sides' rows are
    # ropes of one split, the right side's placed beside its 0, so the
    # scan pairs them part by part and flattens no row: the series peaks
    # near 18 MB, where copying and flattening the rows took 217 MB.
    halves, sizes, max_rss_mb = _peak_mb("""
        from fractions import Fraction
        from pbc import combinators as C, distance_series
        half = Fraction(1, 2)
        series = distance_series(C.all_1(half), C.all_1_rhs(half), 0, 19)
        print(all(d == half ** k for k, d in series.pairs),
              len(series.pairs))
        """)
    assert (halves, sizes) == ("True", "20")
    assert max_rss_mb < 60


def test_normalize_twelve_fair_coins_prints_the_uniform_spine(capsys,
                                                              tmp_path):
    code = pbc_command(["normalize", _coins(tmp_path, 12)])
    out = capsys.readouterr().out
    size = 1 << 12
    want = [f"1/{size - i} |{i:012b}>" for i in range(size - 1)]
    want.append(f"|{size - 1:012b}>")
    assert code == 0
    assert out == "\n".join(want) + "\n"


def test_eq_on_eleven_fair_coins_is_equal(capsys, tmp_path):
    path = _coins(tmp_path, 11)
    code = pbc_command(["eq", path, path])
    assert (code, capsys.readouterr().out) == (0, "EQUAL\n")
    # One file against itself is one node and reads no row; two of the
    # coins swapped are another node, so eq reads all 2^11 outcomes.
    swapped = tmp_path / "swapped.pbc"
    swapped.write_text("main = " + pretty_term(seq(
        par(*[coin("1/2")] * 11), par(Swap(B, B), Id(bools(9))))) + "\n")
    code = pbc_command(["eq", path, str(swapped)])
    assert (code, capsys.readouterr().out) == (0, "EQUAL\n")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_eq_of_a_circuit_with_itself_exits_zero(tmp_path_factory, salt):
    # Up to the widest random pairs the benchmark compares: 2 inputs,
    # 10 outputs, cuts of up to 12 wires.
    term = random_circuit(random.Random(salt), 2, 10, max_gens=40,
                          max_wires=12, max_den=8)
    path = tmp_path_factory.mktemp("eq") / "f.pbc"
    path.write_text(f"main = {pretty_term(term)}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 14 wires and more warn
        assert main(["eq", str(path), str(path)]) == 0
