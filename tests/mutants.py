#!/usr/bin/env python3
"""Comparison mutants of one package module, run against a test subset.

    python tests/mutants.py src/pbc/_rows.py tests/test_row_kernels.py \
        tests/test_series.py tests/test_semantics.py

Each comparison operator in the module (``==``, ``!=``, ``<``, ``<=``,
``>``, ``>=``) is flipped, one at a time: ``==`` and ``!=`` swap, and
each order moves its boundary (``<`` and ``<=`` swap, ``>`` and ``>=``
swap).  A mutant is the module rewritten from its syntax tree
(``ast.unparse``) in a copy of the checkout made under a temporary
directory, so the checkout itself is never changed.  The tests run in
that copy, one child process at a time, with ``pytest -x``; a mutant is
killed when they fail, survives when they pass, and times out when they
run past the cap, three times the unmutated run plus 10 s.  Each mutant
is printed as it finishes, then the score.  Uses the standard library
only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
         ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def mutants(source: str):
    """Each comparison flip of a module's source: its line, the
    comparison before and after, and the mutated module's source."""
    tree = ast.parse(source)
    sites = [(node, i) for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             for i, op in enumerate(node.ops) if type(op) in FLIPS]
    sites.sort(key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))
    for node, i in sites:
        op = node.ops[i]
        before = ast.unparse(node)
        node.ops[i] = FLIPS[type(op)]()
        yield node.lineno, before, ast.unparse(node), ast.unparse(tree)
        node.ops[i] = op


def run_tests(copy: Path, tests: list, timeout: float | None) -> tuple:
    """Run the tests in the copy: ``("passed" | "failed" | "timed out",
    seconds)``."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = child.wait(timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:  # also when interrupted: no test run outlives this one
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    verdict = ("timed out" if code is None
               else "passed" if code == 0 else "failed")
    return verdict, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module",
                    help="the module to mutate, e.g. src/pbc/_rows.py")
    ap.add_argument("tests", nargs="+", help="test files or node ids")
    args = ap.parse_args(argv)
    # A termination unwinds, so the copy is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    module = Path(args.module).resolve()
    target = module.relative_to(ROOT)
    source = module.read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory(prefix="pbc-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        copy.mkdir()
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=(
                shutil.ignore_patterns("__pycache__", ".hypothesis")))
        shutil.copy(ROOT / "pyproject.toml", copy)
        verdict, seconds = run_tests(copy, args.tests, None)
        if verdict != "passed":
            print(f"the tests fail without a mutant ({seconds:.1f} s)")
            return 2
        cap = 3 * seconds + 10
        print(f"clean run: {seconds:.1f} s; cap per mutant {cap:.0f} s",
              flush=True)
        names = {"failed": "killed", "passed": "survived",
                 "timed out": "timed out"}
        score = dict.fromkeys(names.values(), 0)
        for line, before, after, mutated in mutants(source):
            (copy / target).write_text(mutated, encoding="utf-8")
            verdict, seconds = run_tests(copy, args.tests, cap)
            score[names[verdict]] += 1
            print(f"{names[verdict]:9}  {target.name}:{line}  "
                  f"{before}  ->  {after}  ({seconds:.1f} s)", flush=True)
    print(", ".join(f"{n} {name}" for name, n in score.items()),
          f"of {sum(score.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
