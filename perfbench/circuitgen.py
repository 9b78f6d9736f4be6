"""Random star-free circuit pipelines for the benchmark's seeded inputs.

A frozen copy of the stage-by-stage generator in ``tests/circuitgen.py``:
the benchmark keeps its own so that edits to the tests never change the
circuits it measures.  Only the ``.pbc`` text of a circuit reaches the
program under test.

Circuits are built stage by stage from the primitive generators only, so
the generator count and the widest cut are under exact control.  Every
stage is one generator wide, padded with identities, which keeps the
result well typed by construction.
"""

import random
from fractions import Fraction

from pbc import B, Id, Swap, bools, coin, copy_gen, discard_gen, par, phi_gen, seq


def random_bias(rng: random.Random, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def _stage(rng, kind, w, max_den):
    """One primitive at a random position across ``w`` wires."""
    if kind == "coin":
        i = rng.randint(0, w)
        return par(Id(bools(i)), coin(random_bias(rng, max_den)),
                   Id(bools(w - i))), w + 1
    if kind == "copy":
        i = rng.randint(0, w - 1)
        return par(Id(bools(i)), copy_gen(B), Id(bools(w - i - 1))), w + 1
    if kind == "del":
        i = rng.randint(0, w - 1)
        return par(Id(bools(i)), discard_gen(B), Id(bools(w - i - 1))), w - 1
    if kind == "phi":
        i = rng.randint(0, w - 3)
        return par(Id(bools(i)), phi_gen(B), Id(bools(w - i - 3))), w - 2
    i = rng.randint(0, w - 2)
    return par(Id(bools(i)), Swap(B, B), Id(bools(w - i - 2))), w


def _options(w, max_wires):
    kinds = []
    if w < max_wires:
        kinds.append("coin")
        if w >= 1:
            kinds.append("copy")
    if w >= 1:
        kinds.append("del")
    if w >= 3:
        kinds.append("phi")
    if w >= 2:
        kinds.append("swap")
    return kinds


def random_circuit(rng: random.Random, in_wires: int, out_wires: int,
                   max_gens: int = 10, max_wires: int = 3,
                   max_den: int = 8):
    """A random term of type bools(in_wires) -> bools(out_wires).

    No cut is ever wider than ``max_wires`` and at most ``max_gens``
    generators appear (swaps are free, being pure wiring).
    """
    if max(in_wires, out_wires) > max_wires:
        raise ValueError("target widths exceed the wire cap")
    w = in_wires
    parts = [Id(bools(w))]
    budget = max_gens
    steps = rng.randint(0, max_gens)
    for _ in range(steps):
        if budget <= abs(w - out_wires):
            break
        kinds = _options(w, max_wires)
        kind = rng.choice(kinds)
        stage, w2 = _stage(rng, kind, w, max_den)
        # keep enough budget to widen or narrow back to the target
        if kind != "swap" and budget - 1 < abs(w2 - out_wires):
            continue
        parts.append(stage)
        w = w2
        if kind != "swap":
            budget -= 1
    while w > out_wires:
        stage, w = _stage(rng, "del", w, max_den)
        parts.append(stage)
    while w < out_wires:
        stage, w = _stage(rng, "coin", w, max_den)
        parts.append(stage)
    return seq(*parts) if len(parts) > 1 else parts[0]
