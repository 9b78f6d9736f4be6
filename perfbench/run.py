#!/usr/bin/env python3
"""The pbc benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record

Run it from the root of a checkout; the program under test is the
checkout's ``src/pbc``, imported from source.  A run starts set-up
children (each imports pbc and builds the workload's inputs), then one
measuring child that builds the inputs again and runs the workload's
items closed-loop, one after another, in one thread, for ``--seconds``.
Children run one at a time and the parent waits for each.  Every
operation's stdout is hashed and checked against ``expected.json`` and
against its item's own cross-checks.

End-to-end times are given at a reference machine speed (``speed.py``):
each is the measured time scaled by how fast a fixed reference
computation ran during the same run.  The text report prints the
measured times and the scale next to them.

``--trace 0`` ends with the end-to-end metrics on the last stdout line;
``--trace 1`` wraps each layer's public functions (``tracing.py``),
reports per-layer metrics instead, averaged per item run, and writes the
spans under ``.perfbench/``.  ``--all`` runs every workload both ways,
prints both reports with the tracing overhead, and fails if a layer
records no call on a workload mapped to it, if the layer self times and
the unattributed rest do not add up to the traced item time, or if a
traced and an untraced digest differ.  ``--record`` rewrites
``expected.json`` from one pass over every workload at seed 0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("iter-wide", "iter-input-free", "certify", "eq-wide")
RECORD_SEED = 0
SETUP_CHILDREN = 2  # plus the measuring child's own set-up: three samples
RUN_TIMEOUT_S = 170  # every run must end within 180 s
RECURSION_LIMIT = 1000  # CPython's default, as under the pbc console script
SAMPLE_EVERY_S = 0.05  # speed samples while a run measures
SOFT_LIMIT_TEXT = "expect slow exact arithmetic"

END_TO_END = (("setup_s", "s"), ("item_geomean_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))

# Traced function -> workloads on which the self-test requires calls.
LAYER_WORKLOADS = {
    "parser.parse_circuit": ("iter-wide", "certify", "eq-wide"),
    "terms.typecheck": WORKLOADS,
    "iteration.instantiate": ("iter-wide", "iter-input-free"),
    "iteration.star_equiv_bounded": ("iter-wide",),
    "semantics.denote": WORKLOADS,
    "semantics.compose_maps": WORKLOADS,
    "semantics.tensor_maps": WORKLOADS,
    "semantics.identity_map": WORKLOADS,
    "semantics.hom_distance": WORKLOADS,
    "normalform.normalize": ("certify", "eq-wide"),
    "normalform.decide_equal": ("certify", "eq-wide"),
    "proofs.synthesize_tight_derivation": ("certify",),
    "proofs.check_derivation": ("certify",),
    "asymptotics.lemma_demo": ("iter-wide", "iter-input-free"),
    "asymptotics.distance_series": ("iter-wide", "iter-input-free"),
    "asymptotics.negligibility_report": ("iter-wide", "iter-input-free"),
    "cli.main": WORKLOADS,
}


class OpLimitExceeded(Exception):
    """An operation used more CPU time than its limit."""


# ---------------------------------------------------------------------------
# Child side: runs inside a fresh interpreter.

def _import_pbc():
    sys.path.insert(0, SRC)
    import pbc
    if os.path.dirname(os.path.abspath(pbc.__file__)) != os.path.join(SRC, "pbc"):
        raise ImportError(f"pbc resolved to {pbc.__file__}, not the checkout")
    import workloads
    return workloads


def _setup(name, seed):
    """Import pbc and build the inputs.  Returns the workload, its input
    directory and the set-up time at the reference speed."""
    t0 = time.perf_counter()
    workloads = _import_pbc()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    try:
        wl = workloads.build(name, seed, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    seconds = time.perf_counter() - t0
    return wl, workdir, seconds * Sampler(0).factor()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Limit:
    """CPU-time limit for one operation, delivered as an exception."""

    def __init__(self):
        self.seconds = None
        signal.signal(signal.SIGPROF, self._fire)

    def _fire(self, signum, frame):
        if self.seconds is not None:
            seconds, self.seconds = self.seconds, None
            raise OpLimitExceeded(f"over {seconds} s of CPU time")

    def arm(self, seconds):
        self.seconds = seconds
        if seconds is not None:
            signal.setitimer(signal.ITIMER_PROF, seconds)

    def disarm(self):
        self.seconds = None
        signal.setitimer(signal.ITIMER_PROF, 0)


class Runner:
    """Runs items, checks every output and keeps the measurements."""

    def __init__(self, wl, expected, tracer=None):
        self.wl = wl
        self.expected = expected
        self.tracer = tracer
        self.limit = _Limit()
        self.sampler = Sampler(SAMPLE_EVERY_S,
                               tracer.pause if tracer else None)
        self.first_digest = {}
        self.op_times = {}  # op kind -> [seconds, inf when it failed]
        self.item_samples = {}  # item name -> [(seconds, ok)], one per run
        self.item_runs = 0
        self.item_total_s = 0.0
        # Per distinct operation: None while every run of it passed, else
        # whether it printed a wrong answer (True) or only failed (False).
        self.op_status = {}
        self.warnings = 0
        self.failures = []  # (op id, reason), the first few

    def _run_op(self, op, ctx):
        out, err = io.StringIO(), io.StringIO()
        code = error = None
        if self.tracer:
            self.tracer.begin_op(op.id)
        stolen = self.sampler.stolen
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), \
                    warnings.catch_warnings():
                # A fresh filter state per operation, as in a new process.
                warnings.simplefilter("default")
                self.limit.arm(op.limit_s)
                try:
                    code = op.run(ctx)
                finally:
                    self.limit.disarm()
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # the run goes on; the op counts failed
            error = traceback.format_exception_only(exc)[-1].strip()[:200]
        seconds = time.perf_counter() - t0 - (self.sampler.stolen - stolen)
        if self.tracer:
            seconds = self.tracer.end_op()
        sys.setrecursionlimit(RECURSION_LIMIT)
        self.warnings += err.getvalue().count(SOFT_LIMIT_TEXT)
        return out.getvalue(), code, error, seconds

    def run_item(self, item):
        """Run and check one item.  Returns {op id: {sha256, exit}} for
        the operations that passed every check."""
        ctx, outs, codes, passed, bad = {}, {}, {}, {}, {}
        total = 0.0
        for op in item.ops:
            text, code, error, seconds = self._run_op(op, ctx)
            self.op_status.setdefault(op.id, None)
            total += seconds
            self.op_times.setdefault(op.kind, []).append(
                seconds if error is None else math.inf)
            if error is not None:
                bad[op.kind] = (f"raised {error}", False)
                continue
            digest = _digest(text)
            want = self.expected.get(op.id)
            if code not in op.codes or (want and code != want["exit"]):
                bad[op.kind] = (f"exit code {code}", True)
            elif want and digest != want["sha256"]:
                bad[op.kind] = ("stdout differs from expected.json", True)
            elif self.first_digest.setdefault(op.id, digest) != digest:
                bad[op.kind] = ("stdout differs from an earlier run", True)
            else:
                outs[op.kind], codes[op.kind] = text, code
                passed[op.id] = {"sha256": digest, "exit": code}
        for kind, problem in item.check(outs, codes).items():
            bad.setdefault(kind, (problem, True))
        for op in item.ops:
            if op.kind in bad:
                reason, wrong = bad[op.kind]
                self.op_status[op.id] = bool(self.op_status[op.id]) or wrong
                if len(self.failures) < 50:
                    self.failures.append((op.id, reason))
        self.item_runs += 1
        self.item_total_s += total
        self.item_samples.setdefault(item.name, []).append((total, not bad))
        return {op.id: passed[op.id] for op in item.ops
                if op.id in passed and op.kind not in bad}

    @property
    def attempted(self):
        """Distinct operations run.  Each runs at least once per window,
        however many times the window repeats it, so the count and the
        ones below do not depend on how fast the machine ran."""
        return len(self.op_status)

    @property
    def failed(self):
        """Distinct operations that failed on at least one run."""
        return sum(s is not None for s in self.op_status.values())

    @property
    def wrong(self):
        """Distinct operations that printed a wrong answer at least once."""
        return sum(s is True for s in self.op_status.values())

    def run_for(self, seconds):
        """The ``once`` items, then a closed loop over the items: at least
        one full pass, so that every operation runs, then on while at
        least half of a typical item still fits in the window and three
        windows have not passed."""
        items = self.wl.items
        start = time.perf_counter()
        with self.sampler:
            for item in self.wl.once:
                self.run_item(item)
            i = 0
            while items:
                if i >= len(items):
                    elapsed = time.perf_counter() - start
                    typical = statistics.median(
                        t for runs in self.item_samples.values()
                        for t, _ in runs)
                    if elapsed + typical / 2 >= seconds or elapsed >= 3 * seconds:
                        break
                self.run_item(items[i % len(items)])
                i += 1

    def per_item(self):
        """One (seconds, ok) per distinct item: the mean of its runs, ok
        when every run of it passed."""
        return [(statistics.fmean(t for t, _ in runs),
                 all(ok for _, ok in runs))
                for runs in self.item_samples.values()]


def _median_inf(values):
    """Median where a failed sample (inf) ranks above every other."""
    ordered = sorted(values)
    n = len(ordered)
    low, high = ordered[(n - 1) // 2], ordered[n // 2]
    return low if low == high else (low + high) / 2


def _tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None for fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[max(0, math.ceil(pct / 100 * n) - 1)]


def _summary(runner, setup_s):
    """Everything the parent reports about one measuring child."""
    scale = runner.sampler.factor()
    items = runner.per_item()
    ok_times = [t for t, ok in items if ok]
    if not ok_times:
        raise RuntimeError("no item passed; there is no time to report")
    latency = [(t if ok else math.inf) * scale for t, ok in items]
    return {
        "setup_s": setup_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong": runner.wrong,
        "items": len(items),
        "items_ok": len(ok_times),
        "item_runs": runner.item_runs,
        "speed_scale": scale,
        "speed_samples": len(runner.sampler.samples),
        "item_geomean_s": statistics.geometric_mean(ok_times) * scale,
        "item_median_s": _median_inf(latency),
        "item_tail": _tail(latency),
        "items_per_s": len(ok_times) / sum(t for t, _ in items) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_s": {kind: [_median_inf(t) * scale, _median_inf(t), len(t)]
                 for kind, t in runner.op_times.items()},
        "soft_limit_warnings": runner.warnings,
        "failures": runner.failures,
        "digests": runner.first_digest,
    }


def _per_layer(tracer, runner):
    """Per item run: calls, self time and counts of each traced function,
    the traced item time and the part of it no layer span covers.  Times
    are as measured, not scaled."""
    from tracing import COUNT_NAMES, MAX_NAMES, OP_SPAN, SPAN_NAMES
    n = runner.item_runs
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = tracer.calls[name] / n
        out[f"{name}.self_s"] = tracer.self_s[name] / n
    for name in COUNT_NAMES:
        out[name] = tracer.counts[name] / n
    for name in MAX_NAMES:
        out[name] = tracer.maxima[name]
    out["semantics.soft_limit_warnings"] = runner.warnings / n
    out["trace.item_s"] = runner.item_total_s / n
    out["trace.unattributed_s"] = tracer.self_s[OP_SPAN] / n
    return out


def _load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def child_setup(args):
    _, workdir, setup_s = _setup(args.workload, args.seed)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))


def child_measure(args):
    wl, workdir, setup_s = _setup(args.workload, args.seed)
    tracer = None
    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        runner = Runner(wl, _load_expected(), tracer)
        runner.run_for(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = _summary(runner, setup_s)
    if tracer:
        tracer.uninstall()
        result["per_layer"] = _per_layer(tracer, runner)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))


def child_record(args):
    """One pass over every item; prints what each operation gave."""
    wl, workdir, _ = _setup(args.workload, args.seed)
    try:
        runner = Runner(wl, {})
        ops = {}
        for item in wl.once + wl.items:
            ops.update(runner.run_item(item))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ops": ops, "failures": runner.failures,
                      "soft_limit_warnings": runner.warnings}))


# ---------------------------------------------------------------------------
# Parent side.

def _child(args, mode, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    """Set-up children, then the measuring child; returns the summary."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [_child(args, "setup", 60)["setup_s"]
              for _ in range(SETUP_CHILDREN)]
    result = _child(args, "measure", deadline - time.monotonic())
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    return result


def report(workload, r, trace):
    """Human-readable lines; the JSON line comes after them."""
    lines = [f"workload {workload}{' (traced)' if trace else ''}: "
             f"{r['items']} items, {r['items_ok']} ok, {r['item_runs']} "
             f"item runs; {r['attempted']} operations, {r['failed']} failed "
             f"(ops_failed_ratio {r['failed'] / r['attempted']:.4f}), "
             f"{r['wrong']} wrong outputs"]
    for name, unit in END_TO_END:
        lines.append(f"  {name} = {r[name]:.6g} {unit}")
    lines.append(f"  item_median_s = {r['item_median_s']:.6g} s over "
                 f"{r['items']} items (a failed item counts as infinite)")
    if r["item_tail"]:
        pct, value = r["item_tail"]
        lines.append(f"  item_p{pct}_s = {value:.6g} s")
    lines.append(f"  speed_scale = {r['speed_scale']:.4f} "
                 f"({r['speed_samples']} samples)")
    for kind, (scaled, measured, n) in sorted(r["op_s"].items()):
        lines.append(f"  cmd_s.{kind} = {scaled:.6g} s, measured "
                     f"{measured:.6g} s (median of {n})")
    lines.append(f"  soft_limit_warnings = {r['soft_limit_warnings']}")
    for op_id, reason in r["failures"][:20]:
        lines.append(f"  failed {op_id}: {reason}")
    if trace:
        for name, value in sorted(r["per_layer"].items()):
            lines.append(f"  {name} = {value:.6g}")
    return lines


def final_line(r, trace):
    if trace:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else "count"}
                   for name, value in r["per_layer"].items()}
    else:
        metrics = {name: {"value": r[name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({"correct": r["wrong"] == 0, "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": metrics})


def record(args):
    """Rewrite expected.json at seed 0.  Operations that fail are left
    out and listed with their reason."""
    ops, failures, warnings_by = {}, {}, {}
    for name in WORKLOADS:
        args.workload, args.seed = name, RECORD_SEED
        out = _child(args, "record", None)
        ops.update(out["ops"])
        failures.update(dict(out["failures"]))
        warnings_by[name] = out["soft_limit_warnings"]
    doc = {"seed": RECORD_SEED, "failed_at_record": failures,
           "soft_limit_warnings_per_pass": warnings_by,
           "ops": dict(sorted(ops.items()))}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(ops)} operations, {len(failures)} failing")
    for op_id, reason in sorted(failures.items()):
        print(f"  failed {op_id}: {reason}")
    return 0


def run_all(args):
    """Every workload untraced, then traced; prints both reports and the
    tracing overhead, and runs the self-test."""
    problems = []
    for name in WORKLOADS:
        args.workload = name
        plain, traced = (run_workload(argparse.Namespace(**{**vars(args),
                                                           "trace": t}))
                         for t in (0, 1))
        print("\n".join(report(name, plain, False)))
        print("\n".join(report(name, traced, True)))
        layer = traced["per_layer"]
        attributed = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        overhead = traced["item_geomean_s"] / plain["item_geomean_s"] - 1
        print(f"  tracing overhead on {name}: {overhead:+.1%} of "
              f"item_geomean_s; per item run, layer self times "
              f"{attributed:.6g} s + unattributed "
              f"{layer['trace.unattributed_s']:.6g} s = traced "
              f"{layer['trace.item_s']:.6g} s")
        if not math.isclose(attributed + layer["trace.unattributed_s"],
                            layer["trace.item_s"], rel_tol=1e-9):
            problems.append(f"{name}: self times do not add up")
        for span, names in LAYER_WORKLOADS.items():
            if name in names and layer[f"{span}.calls"] == 0:
                problems.append(f"{name}: no calls to {span}")
        differ = sorted(k for k in plain["digests"].keys() & traced["digests"].keys()
                        if plain["digests"][k] != traced["digests"][k])
        if differ:
            problems.append(f"{name}: traced digests differ on {differ[:5]}")
        for r in (plain, traced):
            if r["wrong"]:
                problems.append(f"{name}: {r['wrong']} wrong outputs")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=RECORD_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--child", choices=("setup", "measure", "record"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pbc", "__init__.py")):
        print(f"perfbench: no pbc sources under {SRC}", file=sys.stderr)
        return 2
    children = {"setup": child_setup, "measure": child_measure,
                "record": child_record}
    if args.child:
        children[args.child](args)
        return 0
    try:
        if args.record:
            return record(args)
        if args.all:
            return run_all(args)
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print("\n".join(report(args.workload, result, args.trace)))
    print(final_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
