import random
import sys
from fractions import Fraction

import pytest
from pbc import (
    B,
    UNIT,
    Derivation,
    Gen,
    Id,
    PBCProofError,
    PBCTypeError,
    Par,
    Seq,
    StochMap,
    bools,
    check_derivation,
    coin,
    decide_equal,
    denote,
    hom_distance,
    nf_to_term,
    normalize,
    par,
    phi_gen,
    phi_p,
    seq,
    serialize_derivation,
    star,
    synthesize_from_map,
    synthesize_tight_derivation,
    typecheck,
)
from pbc import semantics, terms
from pbc.combinators import (
    copy_at, otp_lhs, otp_rhs, vn_lhs, vn_rhs, xor_gate,
)
from pbc.semantics import Series
from pbc.terms import phi_mix
from pbc.proofs import (
    PAR_LEFT,
    PAR_RIGHT,
    PHI_CASE,
    PHI_MIX,
    REFL,
    SEQ_LEFT,
    SEQ_RIGHT,
    SYM,
    TOP,
    TRIANGLE,
    WEAKEN,
)

from circuitgen import random_circuit
from test_semantics import random_dist


def dist_term(dist, n_out):
    """A closed term denoting the given distribution."""
    return nf_to_term(synthesize_from_map(StochMap(0, n_out, (dist,))))


def exact_distance(f, g):
    return hom_distance(denote(f), denote(g))


# ---------------------------------------------------------------------------
# Rule checking on the contract examples.

def test_refl_checks_to_zero():
    t = xor_gate()
    d = Derivation(REFL, (t, t), 0)
    assert check_derivation(d) == 0


def test_top_checks_to_one():
    d = Derivation(TOP, (coin(1), coin(0)), 1)
    assert check_derivation(d) == 1


def test_mix_rule_weighs_the_arm_bounds():
    p = Fraction(2, 5)
    lhs = phi_mix(coin(1), coin(0), B, p)
    rhs = phi_mix(coin(0), coin(0), B, p)
    arms = (
        Derivation(TOP, (coin(1), coin(0)), 1),
        Derivation(REFL, (coin(0), coin(0)), 0),
    )
    d = Derivation(PHI_MIX, (lhs, rhs), p, arms, param=p)
    assert check_derivation(d) == p
    assert exact_distance(lhs, rhs) == p


def test_triangle_adds_exactly():
    a, b, c = coin(0), coin("1/2"), coin(1)
    d = Derivation(
        TRIANGLE, (a, c), 1,
        (synthesize_tight_derivation(a, b),
         synthesize_tight_derivation(b, c)))
    assert check_derivation(d) == 1


def test_sym_flips_the_endpoints():
    a, b = coin("1/4"), coin("3/4")
    inner = synthesize_tight_derivation(a, b)
    d = Derivation(SYM, (b, a), inner.bound, (inner,))
    assert check_derivation(d) == Fraction(1, 2)


def test_congruence_shares_the_other_factor():
    f, g = coin("1/2"), coin("3/4")
    inner = synthesize_tight_derivation(f, g)
    shared = xor_gate()
    left = Derivation(
        PAR_LEFT, (Par(f, Id(B)), Par(g, Id(B))), inner.bound, (inner,))
    assert check_derivation(left) == Fraction(1, 4)
    grown = Derivation(
        SEQ_LEFT,
        (Seq(Par(f, Id(B)), shared), Seq(Par(g, Id(B)), shared)),
        left.bound, (left,))
    assert check_derivation(grown) == Fraction(1, 4)
    assert exact_distance(*grown.endpoints) <= Fraction(1, 4)


# ---------------------------------------------------------------------------
# Synthesizer.

def test_synthesis_of_identical_terms_is_refl():
    t = seq(coin("1/2"), Id(B))
    d = synthesize_tight_derivation(t, t)
    assert d.rule == REFL
    assert d.bound == 0


def test_synthesis_on_biased_coins_is_exact():
    d = synthesize_tight_derivation(coin("3/4"), coin("1/4"))
    assert check_derivation(d) == Fraction(1, 2)


def test_synthesis_proves_the_pad_correct():
    d = synthesize_tight_derivation(otp_lhs(), otp_rhs())
    assert check_derivation(d) == 0
    assert d.rule == REFL


def test_synthesis_beats_the_naive_first_bit_split():
    # On these two distributions a split along the first output bit
    # would cost 7/8; the true distance, and the synthesized bound,
    # is 3/4.
    v = {0b10: Fraction(1, 4), 0b11: Fraction(3, 4)}
    w = {0b10: Fraction(1, 2), 0b00: Fraction(1, 2)}
    f, g = dist_term(v, 2), dist_term(w, 2)
    d = synthesize_tight_derivation(f, g)
    assert check_derivation(d) == Fraction(3, 4)
    assert exact_distance(f, g) == Fraction(3, 4)


def test_synthesis_is_tight_on_random_closed_distributions():
    rng = random.Random(2718)
    for _ in range(80):
        n = rng.randint(1, 3)
        f = dist_term(random_dist(rng, n), n)
        g = dist_term(random_dist(rng, n), n)
        d = synthesize_tight_derivation(f, g)
        assert check_derivation(d) == exact_distance(f, g)


def test_synthesis_is_tight_on_random_circuit_pairs():
    rng = random.Random(3141)
    done = 0
    while done < 60:
        n_in, n_out = rng.randint(0, 2), rng.randint(0, 2)
        f = random_circuit(rng, n_in, n_out)
        g = random_circuit(rng, n_in, n_out)
        d = synthesize_tight_derivation(f, g)
        assert check_derivation(d) == exact_distance(f, g)
        done += 1


def test_synthesis_past_support_512_under_the_default_recursion_limit():
    # Support 1024: each normal-form spine is too long to recurse along.
    f = par(*[coin("1/2")] * 10)
    g = par(coin("1/3"), *[coin("1/2")] * 9)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        d = synthesize_tight_derivation(f, g)
    finally:
        sys.setrecursionlimit(limit)
    assert d.bound == Fraction(1, 6) == exact_distance(f, g)


def test_a_nine_coin_normal_form_spine_under_the_default_recursion_limit():
    # The spine nests one mixture per support entry, 512 deep.
    coins = par(*[coin("1/2")] * 9)
    spine = nf_to_term(normalize(coins))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        spine_map = denote(spine)
        bound = check_derivation(Derivation(REFL, (spine, coins), 0))
    finally:
        sys.setrecursionlimit(limit)
    assert spine_map.rows == denote(coins).rows
    assert bound == 0


def test_sym_over_a_deep_copy_checks_without_recursion():
    # The Refl premise holds separately built copies, so the Sym check
    # compares 3000-stage chains in full.
    def chain():
        return seq(*[Id(B)] * 3000)

    d = Derivation(SYM, (chain(), chain()), 0,
                   (Derivation(REFL, (chain(), chain()), 0),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        bound = check_derivation(d)
    finally:
        sys.setrecursionlimit(limit)
    assert bound == 0


def test_a_long_chain_of_weakenings_checks_and_prints():
    d = Derivation(REFL, (coin("1/2"), coin("1/2")), 0)
    for _ in range(3000):
        d = Derivation(WEAKEN, d.endpoints, 0, (d,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        bound = check_derivation(d)
        text = serialize_derivation(d)
    finally:
        sys.setrecursionlimit(limit)
    assert bound == 0
    assert text == "\n".join(["  " * i + "Weaken 0/1" for i in range(3000)]
                             + ["  " * 3000 + "Refl 0/1"])


def test_checking_certificates_judges_each_leaf_once(monkeypatch):
    # A node's endpoints are built around its premises' endpoints, so
    # the certificates share their subterms: the check judges each
    # leaf object once, not once per node that reaches it.
    rng = random.Random(7)
    certificates = [synthesize_tight_derivation(random_circuit(rng, 3, 3),
                                                random_circuit(rng, 3, 3))
                    for _ in range(40)]
    leaves = set()
    nodes = list(certificates)
    while nodes:
        node = nodes.pop()
        nodes += node.premises
        parts = list(node.endpoints)
        while parts:
            t = parts.pop()
            if isinstance(t, Seq):
                parts += (t.first, t.second)
            elif isinstance(t, Par):
                parts += (t.left, t.right)
            elif not isinstance(t, Id):
                leaves.add(id(t))
    judged = []
    leaf_type = terms._leaf_type
    monkeypatch.setattr(terms, "_leaf_type",
                        lambda t: judged.append(t) or leaf_type(t))
    for d in certificates:
        check_derivation(d)
    assert 0 < len(judged) <= len(leaves)


def test_a_check_builds_each_structurally_distinct_term_once(monkeypatch):
    # The series of a check compiles a star-free term once per shape,
    # whatever objects spell it: the 40 certificates build 2,380 nodes,
    # where one node per term object built 10,643.
    rng = random.Random(7)
    certificates = [synthesize_tight_derivation(random_circuit(rng, 3, 3),
                                                random_circuit(rng, 3, 3))
                    for _ in range(40)]
    built = []
    build = Series._build
    monkeypatch.setattr(
        Series, "_build",
        lambda self, term, parts: built.append(term) or build(
            self, term, parts))
    for d in certificates:
        start = len(built)
        check_derivation(d)
        assert len(set(built[start:])) == len(built) - start
    assert 0 < len(built) <= 2380


def test_checking_a_certificate_compiles_each_subterm_once(monkeypatch):
    # Every Refl node of a check asks one series, and the Refl endpoints
    # share their subterms, so no subterm object is compiled twice: the
    # 8-coin certificate builds 1,283 nodes for its 13,046 distinct
    # subterm objects under Refl nodes (4,351 with a node per object).
    # A series per Refl node, with a new term for every output word and
    # every arm of a conditional compiled, built 30,676 nodes for 24,566
    # distinct subterms.
    half = Fraction(1, 2)
    d = synthesize_tight_derivation(
        par(*[coin(half)] * 8), par(coin(Fraction(1, 3)), *[coin(half)] * 7))
    subterms = set()
    nodes = [d]
    while nodes:
        node = nodes.pop()
        nodes += node.premises
        if node.rule == REFL:
            parts = list(node.endpoints)
            while parts:
                t = parts.pop()
                if id(t) not in subterms:
                    subterms.add(id(t))
                    if isinstance(t, Seq):
                        parts += (t.first, t.second)
                    elif isinstance(t, Par):
                        parts += (t.left, t.right)
    built = []
    build = Series._build
    monkeypatch.setattr(
        Series, "_build",
        lambda self, term, parts: built.append(id(term)) or build(
            self, term, parts))
    assert check_derivation(d) == Fraction(1, 6)
    assert len(set(built)) == len(built)
    assert 0 < len(built) <= len(subterms)


def test_checking_the_eight_coin_certificate_runs_few_kernels(monkeypatch):
    # A conditional asks only for the arms its chooser weighs, so each
    # mixture of a spine reads one word and the rest of the spine: the
    # check runs 654 kernels (1,035 with a node per term object), where
    # evaluating both arms of every mixture and multiplying them ran
    # 183,038.
    runs = []
    init = semantics._Node.__init__

    def counted(self, *args, kernel=None, **kwargs):
        if kernel is not None:
            run = kernel

            def kernel(x):
                runs.append(x)
                return run(x)
        init(self, *args, kernel=kernel, **kwargs)

    monkeypatch.setattr(semantics._Node, "__init__", counted)
    half = Fraction(1, 2)
    d = synthesize_tight_derivation(
        par(*[coin(half)] * 8), par(coin(Fraction(1, 3)), *[coin(half)] * 7))
    del runs[:]
    assert check_derivation(d) == Fraction(1, 6)
    assert 0 < len(runs) <= 1100


def test_equal_words_of_one_certificate_are_one_object():
    # The synthesizer builds each output word once, so every normal-form
    # term of the certificate shares it, and the checker compiles it and
    # compares it once.
    rng = random.Random(5)
    f, g = random_circuit(rng, 2, 3), random_circuit(rng, 2, 3)
    d = synthesize_tight_derivation(f, g)
    given = set()
    todo = [f, g]
    while todo:
        t = todo.pop()
        given.add(id(t))
        todo += (t.first, t.second) if isinstance(t, Seq) else (
            (t.left, t.right) if isinstance(t, Par) else ())
    words, seen = {}, 0
    nodes = [d]
    while nodes:
        node = nodes.pop()
        nodes += node.premises
        todo = list(node.endpoints)
        while todo:
            t = todo.pop()
            if id(t) in given:
                continue
            if isinstance(t, Seq):
                todo += (t.first, t.second)
            elif isinstance(t, Par):
                leaves = terms.factors(t)
                if len(leaves) == 3 and all(
                        x.__class__ is Gen and x.p in (0, 1) for x in leaves):
                    words.setdefault(
                        tuple(x.p for x in leaves), set()).add(id(t))
                    seen += 1
                else:
                    todo += (t.left, t.right)
    assert seen > 2 * len(words) > 0
    assert all(len(ids) == 1 for ids in words.values())


def test_a_case_node_is_built_around_its_premises_endpoints():
    rng = random.Random(11)
    cases = 0
    for _ in range(20):
        f = random_circuit(rng, 2, 2)
        g = random_circuit(rng, 2, 2)
        todo = [synthesize_tight_derivation(f, g)]
        while todo:
            node = todo.pop()
            todo += node.premises
            if node.rule != PHI_CASE:
                continue
            cases += 1
            p1, p0 = node.premises
            for side, (c, d) in enumerate(((p1.lhs, p0.lhs),
                                           (p1.rhs, p0.rhs))):
                # (c x id<B> x d) ; if
                branches = node.endpoints[side].first
                assert branches.left.left is c
                assert branches.right is d
    assert cases


def test_equality_builds_no_normal_form(monkeypatch):
    import pbc.normalform

    def refuse(f):
        raise AssertionError("a normal form was built")

    monkeypatch.setattr(pbc.normalform, "synthesize_from_map", refuse)
    assert decide_equal(otp_lhs(), otp_rhs())
    assert not decide_equal(coin(1), coin(0))
    assert check_derivation(
        Derivation(REFL, (otp_lhs(), otp_rhs()), 0)) == 0
    with pytest.raises(PBCProofError, match="not semantically equal"):
        check_derivation(Derivation(REFL, (coin(1), coin(0)), 0))


# ---------------------------------------------------------------------------
# Soundness under random decoration.

def _decorated(rng, depth=2):
    n_in, n_out = rng.randint(0, 1), rng.randint(1, 2)
    f = random_circuit(rng, n_in, n_out, max_gens=6)
    g = random_circuit(rng, n_in, n_out, max_gens=6)
    d = synthesize_tight_derivation(f, g)
    for _ in range(depth):
        kind = rng.choice(("weaken", "sym", "triangle", "par"))
        a, b = d.endpoints
        if kind == "weaken":
            extra = Fraction(rng.randint(1, 4), 8)
            d = Derivation(WEAKEN, (a, b), min(d.bound + extra, 2), (d,))
        elif kind == "sym":
            d = Derivation(SYM, (b, a), d.bound, (d,))
        elif kind == "triangle":
            h = random_circuit(rng, *_arity(b), max_gens=6)
            step = synthesize_tight_derivation(b, h)
            d = Derivation(TRIANGLE, (a, h), d.bound + step.bound, (d, step))
        else:
            d = Derivation(
                PAR_LEFT, (Par(a, Id(B)), Par(b, Id(B))), d.bound, (d,))
    return d


def _arity(t):
    j = typecheck(t)
    return len(j.domain), len(j.codomain)


def test_decorated_derivations_stay_sound():
    rng = random.Random(11235)
    for _ in range(40):
        d = _decorated(rng)
        bound = check_derivation(d)
        assert bound >= exact_distance(*d.endpoints)


# ---------------------------------------------------------------------------
# Malformed derivations are rejected.

def test_refl_on_distinct_denotations_is_rejected():
    d = Derivation(REFL, (coin(1), coin(0)), 0)
    with pytest.raises(PBCProofError):
        check_derivation(d)


def test_wrong_top_bound_is_rejected():
    d = Derivation(TOP, (coin(1), coin(0)), Fraction(1, 2))
    with pytest.raises(PBCProofError):
        check_derivation(d)


def test_triangle_sum_must_be_exact():
    a, b, c = coin(0), coin("1/2"), coin(1)
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(
            TRIANGLE, (a, c), Fraction(3, 4),
            (synthesize_tight_derivation(a, b),
             synthesize_tight_derivation(b, c))))


def test_triangle_premises_must_chain():
    a, b = coin(0), coin(1)
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(
            TRIANGLE, (a, b), 0,
            (Derivation(REFL, (a, a), 0),
             Derivation(REFL, (b, b), 0))))


def test_weaken_cannot_shrink():
    inner = synthesize_tight_derivation(coin(0), coin(1))
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(
            WEAKEN, inner.endpoints, Fraction(1, 2), (inner,)))


def test_mix_parameter_must_match_the_coin():
    p = Fraction(2, 5)
    lhs = phi_mix(coin(1), coin(0), B, p)
    rhs = phi_mix(coin(0), coin(0), B, p)
    arms = (
        Derivation(TOP, (coin(1), coin(0)), 1),
        Derivation(REFL, (coin(0), coin(0)), 0),
    )
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(
            PHI_MIX, (lhs, rhs), Fraction(3, 5), arms,
            param=Fraction(3, 5)))


def test_mismatched_endpoint_types_are_rejected():
    d = Derivation(TOP, (coin(1), Id(B)), 1)
    with pytest.raises(PBCProofError):
        check_derivation(d)


def test_congruence_must_share_a_factor():
    # Each congruence rule accepts a node that varies one factor, then
    # rejects each way to break its schema, in the order it checks them.
    f, g = coin("1/2"), coin("3/4")
    inner = synthesize_tight_derivation(f, g)
    flipped = Derivation(SYM, (g, f), inner.bound, (inner,))
    rules = (
        (SEQ_LEFT, "compositions", lambda v, s: Seq(v, s), Id(B)),
        (SEQ_RIGHT, "compositions", lambda v, s: Seq(s, v), Id(UNIT)),
        (PAR_LEFT, "tensors", lambda v, s: Par(v, s), Id(B)),
        (PAR_RIGHT, "tensors", lambda v, s: Par(s, v), Id(B)),
    )
    endpoints = {rule: (build(f, s), build(g, s))
                 for rule, _, build, s in rules}
    for rule, noun, build, shared in rules:
        good = endpoints[rule]
        assert check_derivation(
            Derivation(rule, good, inner.bound, (inner,))) == inner.bound
        other_former = endpoints[PAR_LEFT if noun == "compositions"
                                 else SEQ_LEFT]
        unshared = (build(f, shared), build(g, seq(shared, shared)))
        for endpoints_, bound, premises, message in (
                (good, inner.bound, (), "takes 1 premises, got 0"),
                (other_former, inner.bound, (inner,),
                 f"endpoints must be {noun}"),
                (unshared, inner.bound, (inner,),
                 "must share the other factor"),
                (good, inner.bound, (flipped,),
                 "premise must relate the varying factor"),
                (good, 2 * inner.bound, (inner,),
                 "keeps the premise bound")):
            with pytest.raises(PBCProofError, match=f"^{rule} {message}$"):
                check_derivation(
                    Derivation(rule, endpoints_, bound, premises))


def _first(d, rule):
    """The first node of a rule in a derivation, depth first."""
    todo = [d]
    while todo:
        node = todo.pop()
        if node.rule == rule:
            return node
        todo += reversed(node.premises)
    raise AssertionError(f"no {rule} node")


def _mutants():
    """Derivations that each break one rule schema, by name."""
    # The certificate pinned in test_serialization_golden: a PhiCase
    # over a Weaken and a chain holding one PhiMix.
    f = seq(par(coin("1/2"), Id(B), coin("1/3")), phi_gen(B))
    g = seq(par(coin("1/2"), Id(B), coin("1/4")), phi_gen(B))
    cert = synthesize_tight_derivation(f, g)
    case = _first(cert, PHI_CASE)
    on1, on0 = case.premises
    mix = _first(cert, PHI_MIX)
    arm, common = mix.premises
    p = mix.param
    a, b = coin("1/4"), coin("3/4")
    ab = synthesize_tight_derivation(a, b)
    return {
        "refl bound 1/2": Derivation(REFL, (a, a), Fraction(1, 2)),
        "sym premise not flipped": Derivation(SYM, (a, b), ab.bound, (ab,)),
        "sym changed bound": Derivation(SYM, (b, a), 2 * ab.bound, (ab,)),
        "weaken changed endpoints": Derivation(WEAKEN, (b, a), 1, (ab,)),
        "case swapped premises": Derivation(
            PHI_CASE, case.endpoints, case.bound, (on0, on1)),
        "case premise on the wrong branch": Derivation(
            PHI_CASE, case.endpoints, case.bound, (on0, on0)),
        "case unequal premise bounds": Derivation(
            PHI_CASE, case.endpoints, case.bound, (on1.premises[0], on0)),
        "case conditional at another word": Derivation(
            PHI_CASE,
            tuple(seq(par(Par(c, coin(0)), Id(B), Par(d, coin(0))),
                      phi_gen(bools(2)))
                  for c, d in ((on1.lhs, on0.lhs), (on1.rhs, on0.rhs))),
            case.bound, case.premises),
        "case endpoints not a case": Derivation(
            PHI_CASE, _first(cert, SEQ_RIGHT).endpoints, case.bound,
            case.premises),
        "mix without param": Derivation(
            PHI_MIX, mix.endpoints, mix.bound, mix.premises),
        "mix swapped arms": Derivation(
            PHI_MIX, mix.endpoints, 1 - p, (common, arm), param=p),
        "mix bound not the weighted sum": Derivation(
            PHI_MIX, mix.endpoints, 1, mix.premises, param=p),
        "mix sides with different biases": Derivation(
            PHI_MIX,
            (mix.lhs, phi_mix(arm.rhs, common.rhs, B, p / 2)),
            mix.bound, mix.premises, param=p),
        "endpoints loop at a star-free type": Derivation(
            TOP, (vn_lhs(Fraction(3, 4)), vn_rhs()), 1),
    }


@pytest.mark.parametrize("name", list(_mutants()))
def test_a_broken_rule_schema_is_rejected(name):
    with pytest.raises(PBCProofError):
        check_derivation(_mutants()[name])


def test_synthesis_refuses_a_looping_pair():
    with pytest.raises(PBCTypeError):
        synthesize_tight_derivation(vn_lhs(Fraction(3, 4)), vn_rhs())


def test_star_typed_endpoints_are_rejected():
    t = copy_at(star(B))
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(REFL, (t, t), 0))


def test_bounds_and_weights_are_exact():
    ends = (coin(0), coin(1))
    with pytest.raises(TypeError):
        Derivation(TOP, ends, 0.1)
    with pytest.raises(TypeError):
        Derivation(PHI_MIX, ends, 1, param=0.5)
    for bound in (1, Fraction(1), "1/1"):
        assert Derivation(TOP, ends, bound).bound == 1
    assert Derivation(PHI_MIX, ends, 1, param="1/10").param == Fraction(1, 10)


def test_endpoints_must_be_a_pair():
    for ends in ((), (coin(0),), (coin(0), coin(0), coin(0))):
        with pytest.raises(ValueError):
            Derivation(REFL, ends, 0)


def test_negative_bound_is_rejected():
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(REFL, (coin(1), coin(1)), -1))


def test_param_is_exclusive_to_the_mix_rule():
    with pytest.raises(PBCProofError):
        check_derivation(Derivation(
            REFL, (coin(1), coin(1)), 0, param=Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Serialization.

def test_serialization_golden():
    inner = Derivation(REFL, (coin(1), coin(1)), 0)
    outer = Derivation(
        WEAKEN, (coin(1), coin(1)), Fraction(1, 4), (inner,))
    assert serialize_derivation(outer) == ("Weaken 1/4\n"
                                           "  Refl 0/1")
    # One branch equal, one a mixture: Weaken, PhiCase and PhiMix.
    f = seq(par(coin("1/2"), Id(B), coin("1/3")), phi_gen(B))
    g = seq(par(coin("1/2"), Id(B), coin("1/4")), phi_gen(B))
    assert serialize_derivation(synthesize_tight_derivation(f, g)) == (
        "Triangle 1/12\n"
        "  Refl 0/1\n"
        "  Triangle 1/12\n"
        "    SeqRight 1/12\n"
        "      PhiCase 1/12\n"
        "        Weaken 1/12\n"
        "          Refl 0/1\n"
        "        Triangle 1/12\n"
        "          Refl 0/1\n"
        "          Triangle 1/12\n"
        "            PhiMix(1/12) 1/12\n"
        "              Top 1/1\n"
        "              Refl 0/1\n"
        "            Refl 0/1\n"
        "    Refl 0/1")


def test_serialization_labels_the_mix_weight():
    p = Fraction(2, 5)
    lhs = Seq(Par(coin(1), coin(0)), phi_p(B, p))
    rhs = Seq(Par(coin(0), coin(0)), phi_p(B, p))
    d = Derivation(
        PHI_MIX, (lhs, rhs), p,
        (Derivation(TOP, (coin(1), coin(0)), 1),
         Derivation(REFL, (coin(0), coin(0)), 0)),
        param=p)
    assert serialize_derivation(d) == ("PhiMix(2/5) 2/5\n"
                                       "  Top 1/1\n"
                                       "  Refl 0/1")
