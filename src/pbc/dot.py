"""Graphviz rendering of terms, for ``pbc dot``."""

from __future__ import annotations

from itertools import count

from .objects import obj_to_str
from .terms import (
    COIN, GEN_NAMES, Gen, Id, Par, PBCError, Seq, Swap, TauStar, Term,
    factors, typecheck,
)

__all__ = ["emit_dot"]


def _gen_label(g: Gen) -> str:
    if g.kind == COIN:
        return f"coin({g.p.numerator}/{g.p.denominator})"
    return f"{GEN_NAMES[g.kind]}<{obj_to_str(g.at)}>"


def emit_dot(t: Term) -> str:
    """Deterministic Graphviz text: one box per generator, read left to
    right; iterations appear as clusters labelled with the star marker.
    Wires into and out of an iteration's starred streams are drawn once
    per block port, standing in for the whole stream."""
    nodes: list[str] = []
    edges: list[str] = []
    node_ids = count()
    cluster_ids = count()

    def put(text: str, depth: int) -> None:
        nodes.append("  " * depth + text)

    def edge(sources, target: str, port: int, target_arity: int) -> None:
        """One wire into ``target``; a thick (stream) wire may carry
        several producers, giving one edge per producer."""
        for node, out_port, out_arity in sources:
            attrs = []
            if out_arity > 1:
                attrs.append(f'taillabel="{out_port}"')
            if target_arity > 1:
                attrs.append(f'headlabel="{port}"')
            suffix = f" [{', '.join(attrs)}]" if attrs else ""
            edges.append(f"  {node} -> {target}{suffix};")

    def walk(term: Term, ins: list, depth: int):
        """Wire a subterm to the front of ``ins``; returns its outputs and
        the inputs it left unconsumed.  A generator: it yields the
        arguments of each sub-walk and is sent back its result, so that
        ``wire`` runs every walk on one stack.

        Each entry of ``ins`` stands for one atom and holds a tuple of
        (node, out_port, out_arity) producers.  Star wires entering an
        iteration fan out to every port of the block they stand for, so
        an entry can carry more than one producer on the way back out.
        """
        if isinstance(term, Id):
            w = len(term.obj)
            return ins[:w], ins[w:]
        if isinstance(term, Swap):
            w = len(term.left)
            end = w + len(term.right)
            return ins[w:end] + ins[:w], ins[end:]
        if isinstance(term, Gen):
            judgement = typecheck(term)
            n_in = len(judgement.domain)
            n_out = len(judgement.codomain)
            node = f"n{next(node_ids)}"
            put(f'{node} [label="{_gen_label(term)}"];', depth)
            for port, src in enumerate(ins[:n_in]):
                edge(src, node, port, n_in)
            outs = [((node, port, n_out),) for port in range(n_out)]
            return outs, ins[n_in:]
        # A chain is walked factor by factor, leftmost first, so the
        # stack of walks stays short.
        if isinstance(term, Seq):
            first, *stages = factors(term)
            outs, rest = yield first, ins, depth
            for stage in stages:
                outs = (yield stage, outs, depth)[0]
            return outs, rest
        if isinstance(term, Par):
            outs, rest = [], ins
            for factor in factors(term):
                more, rest = yield factor, rest, depth
                outs += more
            return outs, rest
        if isinstance(term, TauStar):
            in_words = ", ".join(obj_to_str(b) for b in term.inputs)
            out_words = ", ".join(obj_to_str(b) for b in term.outputs)
            put(f"subgraph cluster{next(cluster_ids)} {{", depth)
            put(f'label="iter[{obj_to_str(term.state)}; ({in_words}); '
                f'({out_words})] ^*";', depth + 1)
            sw = len(term.state)
            body_ins, rest = ins[:sw], ins[sw:]
            for block in term.inputs:
                # A stream over the empty word has no wire.
                if width := len(block):
                    body_ins += rest[:1] * width
                    rest = rest[1:]
            body_outs, _ = yield term.body, body_ins, depth + 1
            put("}", depth)
            outs = []
            for block in term.outputs:
                if width := len(block):
                    outs.append(tuple(p for entry in body_outs[:width]
                                      for p in entry))
                    body_outs = body_outs[width:]
            return outs + body_outs, rest
        raise PBCError(f"not a term: {term!r}")

    def wire(term: Term, ins: list) -> list:
        """The outputs of the whole term: every walk, without recursion."""
        stack, result = [walk(term, ins, 1)], None
        while stack:
            try:
                sub = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(walk(*sub))
                result = None
        return result[0]

    ins = []
    for i in range(len(typecheck(t).domain)):
        put(f"i{i} [shape=point];", 1)
        ins.append(((f"i{i}", 0, 1),))
    outs = wire(t, ins)
    for i, entry in enumerate(outs):
        put(f"o{i} [shape=point];", 1)
        edge(entry, f"o{i}", 0, 1)
    return "\n".join([
        "digraph circuit {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
        *nodes,
        *edges,
        "}",
    ]) + "\n"
