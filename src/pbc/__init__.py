"""Probabilistic Boolean circuits with parametric iteration.

Exact (rational) semantics for a small circuit calculus: words of bits
and streams as objects, coins, copying, discarding, and a conditional
as generators, plus an iteration former whose instances at every finite
size can be evaluated, normalized, and compared.  On top of the
semantics sit a canonical normal form with a decision procedure, a
checked proof system for distance bounds, and exact decay-series
reports for negligibility arguments.

The surface syntax is parsed by :func:`parse_circuit`; the ``pbc``
console script exposes the same operations on files.
"""

from .objects import (
    B,
    BOOL,
    UNIT,
    Atom,
    BoolAtom,
    Object,
    Star,
    bools,
    is_star_free,
    obj_to_str,
    power,
    star,
    tensor,
    width,
)
from .terms import (
    COIN,
    COPY,
    DISCARD,
    PHI,
    Gen,
    Id,
    Par,
    PBCError,
    PBCTypeError,
    Seq,
    Swap,
    TauStar,
    Term,
    TypeJudgement,
    coin,
    copy_gen,
    discard_gen,
    par,
    permute_blocks,
    phi_gen,
    phi_p,
    pretty_term,
    seq,
    typecheck,
)
from .semantics import (
    HARD_WIRE_LIMIT,
    SOFT_WIRE_LIMIT,
    Distribution,
    StochMap,
    WireLimitError,
    bernoulli,
    compose_maps,
    denote,
    dirac,
    distribution,
    hom_distance,
    identity_map,
    map_to_tsv,
    tensor_maps,
    tv_distance,
)
from .iteration import (
    K_TEST,
    Counterexample,
    EqualUpTo,
    TupleSpec,
    dot_power,
    instantiate,
    instantiate_object,
    pop_term,
    push_term,
    star_equiv_bounded,
    tau_k_expand,
)
from .normalform import (
    Case,
    Leaf,
    Node,
    NormalForm,
    Tree,
    WeightedTree,
    decide_equal,
    nf_pretty,
    nf_to_term,
    normalize,
    synthesize_from_map,
)
from .proofs import (
    Derivation,
    PBCProofError,
    check_derivation,
    serialize_derivation,
    synthesize_tight_derivation,
)
from .asymptotics import (
    CONSISTENT,
    INCONCLUSIVE,
    NOT_DECREASING,
    DecayReport,
    DecaySeries,
    EqualityReport,
    NewtonReport,
    distance_series,
    lemma_demo,
    negligibility_report,
    newton_bound_check,
    report_to_csv,
)
from .parser import PBCSyntaxError, parse_circuit, parse_object, parse_term
from .axioms import axiom_corpus
from .dot import emit_dot
from . import combinators

__all__ = [
    # objects
    "Atom", "BoolAtom", "Star", "Object", "BOOL", "B", "UNIT",
    "tensor", "bools", "star", "power",
    "is_star_free", "width", "obj_to_str",
    # terms
    "Term", "Id", "Gen", "Swap", "Seq", "Par", "TauStar",
    "TypeJudgement", "PBCError", "PBCTypeError",
    "COPY", "DISCARD", "COIN", "PHI",
    "copy_gen", "discard_gen", "coin", "phi_gen", "phi_p",
    "seq", "par", "typecheck", "pretty_term", "permute_blocks",
    # semantics
    "Distribution", "StochMap", "dirac", "bernoulli", "distribution",
    "compose_maps", "tensor_maps", "identity_map",
    "tv_distance", "hom_distance", "denote",
    "map_to_tsv", "WireLimitError", "HARD_WIRE_LIMIT", "SOFT_WIRE_LIMIT",
    # iteration
    "TupleSpec", "dot_power", "push_term", "pop_term", "tau_k_expand",
    "instantiate_object", "instantiate", "star_equiv_bounded",
    "EqualUpTo", "Counterexample", "K_TEST",
    # normal form
    "Leaf", "Node", "Tree", "Case", "NormalForm", "WeightedTree",
    "normalize", "synthesize_from_map", "nf_to_term", "decide_equal",
    "nf_pretty",
    # proofs
    "Derivation", "PBCProofError", "check_derivation",
    "synthesize_tight_derivation", "serialize_derivation",
    # asymptotics
    "DecaySeries", "DecayReport", "EqualityReport", "NewtonReport",
    "CONSISTENT", "NOT_DECREASING", "INCONCLUSIVE",
    "distance_series", "negligibility_report", "newton_bound_check",
    "lemma_demo", "report_to_csv",
    # parsing and front end
    "PBCSyntaxError", "parse_term", "parse_object", "parse_circuit",
    "axiom_corpus", "emit_dot", "combinators",
]
