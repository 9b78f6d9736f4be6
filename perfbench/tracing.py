"""Spans around the public functions of each pbc layer.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``pbc`` module: the layers import each other's functions by name
(``from .semantics import denote``), so patching the defining module
alone would miss most calls.  ``_denote`` looks ``compose_maps``,
``tensor_maps`` and ``identity_map`` up as module globals, so the
bindings in ``pbc.semantics`` catch those calls.

A span records its name, start, end, parent span and operation.  Spans
stay in memory (packed in arrays) until ``write`` dumps them.  A span's
self time is its duration minus the time its child spans cover.  A
traced function that calls itself through the wrapper (``typecheck``,
``instantiate``) stays inside its outermost span.

Counts are computed from arguments and results after the span has
ended, on a paused clock: every span, the operation's root span too,
excludes the counting work.  Each wrapper frame raises the recursion
limit by one while it is active, so a deep recursion fails at the same
depth traced and untraced.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

from pbc.normalform import Case, Node
from pbc.terms import Id, Par, Seq, Swap, TauStar

# Layer (module of src/pbc) -> traced public functions.
LAYERS = {
    "parser": ("parse_circuit",),
    "terms": ("typecheck",),
    "iteration": ("instantiate", "star_equiv_bounded"),
    "semantics": ("denote", "compose_maps", "tensor_maps", "identity_map",
                  "hom_distance"),
    "normalform": ("normalize", "decide_equal"),
    "proofs": ("synthesize_tight_derivation", "check_derivation"),
    "asymptotics": ("lemma_demo", "distance_series", "negligibility_report"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)
OP_SPAN = "op"

# Count names recorded next to the spans, one per (span, count).
COUNT_NAMES = (
    "iteration.instantiate.nodes",
    "iteration.instantiate.wiring_nodes",
    "semantics.denote.out_weights",
    "semantics.compose_maps.mults",
    "semantics.tensor_maps.mults",
    "semantics.hom_distance.rows",
    "normalform.normalize.spine_nodes",
    "normalform.normalize.failed",
    "proofs.synthesize_tight_derivation.nodes",
    "proofs.check_derivation.refl_nodes",
    "cli.main.failed",
)
MAX_NAMES = ("semantics.tensor_maps.max_wires",)


def _term_nodes(term) -> tuple[int, int]:
    """(all nodes, Id/Swap wiring nodes), walked without recursion."""
    nodes = wiring = 0
    todo = [term]
    while todo:
        t = todo.pop()
        nodes += 1
        if isinstance(t, (Id, Swap)):
            wiring += 1
        elif isinstance(t, Seq):
            todo += (t.first, t.second)
        elif isinstance(t, Par):
            todo += (t.left, t.right)
        elif isinstance(t, TauStar):
            todo.append(t.body)
    return nodes, wiring


def _spine_nodes(nf) -> int:
    count = 0
    todo = [nf]
    while todo:
        f = todo.pop()
        if isinstance(f, Case):
            todo += (f.on_last_1, f.on_last_0)
            continue
        tree = f.tree
        while isinstance(tree, Node):
            count += 1
            tree = tree.rest
    return count


def _derivation_nodes(d, rule=None) -> int:
    count = 0
    todo = [d]
    while todo:
        node = todo.pop()
        if rule is None or node.rule == rule:
            count += 1
        todo += node.premises
    return count


def _weights(f) -> int:
    return sum(len(row) for row in f.rows)


def _count(tracer, name, args, result, exc) -> None:
    """Record the counts of one finished call."""
    add = tracer.counts
    if name == "iteration.instantiate" and exc is None:
        nodes, wiring = _term_nodes(result)
        add["iteration.instantiate.nodes"] += nodes
        add["iteration.instantiate.wiring_nodes"] += wiring
    elif name == "semantics.denote" and exc is None:
        add["semantics.denote.out_weights"] += _weights(result)
    elif name == "semantics.compose_maps" and exc is None:
        f, g = args
        add["semantics.compose_maps.mults"] += sum(
            len(g.rows[mid]) for row in f.rows for mid in row)
    elif name == "semantics.tensor_maps" and exc is None:
        f, g = args
        add["semantics.tensor_maps.mults"] += _weights(f) * _weights(g)
        tracer.maxima["semantics.tensor_maps.max_wires"] = max(
            tracer.maxima["semantics.tensor_maps.max_wires"],
            result.in_arity, result.out_arity)
    elif name == "semantics.hom_distance" and exc is None:
        add["semantics.hom_distance.rows"] += len(args[0].rows)
    elif name == "normalform.normalize":
        if exc is None:
            add["normalform.normalize.spine_nodes"] += _spine_nodes(result)
        else:
            add["normalform.normalize.failed"] += 1
    elif name == "proofs.synthesize_tight_derivation" and exc is None:
        add["proofs.synthesize_tight_derivation.nodes"] += (
            _derivation_nodes(result))
    elif name == "proofs.check_derivation":
        add["proofs.check_derivation.refl_nodes"] += _derivation_nodes(
            args[0], "Refl")
    elif name == "cli.main" and (exc is not None or result == 2):
        add["cli.main.failed"] += 1


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self._paused = 0.0
        self._stack = []  # open: [span index, function, start, child time, name]
        self._names = {}
        # One entry per span, column-wise.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op_ids: list[str] = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._installed = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def pause(self, seconds: float) -> None:
        """Hide ``seconds`` just spent outside the program from every span."""
        self._paused += seconds

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, fn) -> None:
        index = len(self.span_name)
        self.span_name.append(self._names.setdefault(name, len(self._names)))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(len(self.op_ids) - 1)
        self._stack.append([index, fn, self.clock(), 0.0, name])

    def _close(self) -> None:
        end = self.clock()
        index, _, start, child, name = self._stack.pop()
        self.span_start[index] = start
        self.span_end[index] = end
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def begin_op(self, op_id: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_ids.append(op_id)
        self._open(OP_SPAN, None)

    def end_op(self) -> float:
        """Close the root span, and any span that an exception raised
        inside the tracer's own bookkeeping left open; returns the root
        span's duration."""
        while self._stack[-1][4] != OP_SPAN:
            self._close()
        index = self._stack[-1][0]
        self._close()
        return self.span_end[index] - self.span_start[index]

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + 1)
            try:
                stack = tracer._stack
                if stack and stack[-1][1] is fn:
                    return fn(*args, **kwargs)
                tracer._open(name, fn)
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    tracer._close()
                    paused_at = time.perf_counter()
                    _count(tracer, name, args, result, exc)
                    tracer.pause(time.perf_counter() - paused_at)
            finally:
                try:
                    sys.setrecursionlimit(limit)
                except RecursionError:
                    pass  # still too deep; the run resets it after the op

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded pbc modules."""
        originals = {}
        for layer, fns in LAYERS.items():
            module = sys.modules[f"pbc.{layer}"]
            for fn_name in fns:
                fn = getattr(module, fn_name)
                originals[id(fn)] = (f"{layer}.{fn_name}", fn)
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pbc" and not mod_name.startswith("pbc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span, column-wise, as one JSON document."""
        names = sorted(self._names, key=self._names.get)
        doc = {
            "names": names,
            "ops": self.op_ids,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": {
                "name": self.span_name.tolist(),
                "start_s": self.span_start.tolist(),
                "end_s": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
