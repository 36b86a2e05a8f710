#!/usr/bin/env python3
"""hgsparse benchmark: seeded workloads, end-to-end times, per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload pubmed-cli --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke

One client runs a closed loop: each iteration starts when the previous
one ends, in one process and one thread.  ``--workload all`` runs each
workload in its own child process, one after another.  The program is
imported from ``src/`` beside this directory and receives only the
generated files or arrays.  Every output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The exit code is 0 only when
every check passed.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One thread per workload: cap the numeric libraries before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("pubmed-cli", "eval-20k", "small-batch")
DEFAULT_SEED = 0
SETUP_REPEATS = 3
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
# Per-operation medians each workload prints besides the JSON metrics.
OP_METRICS = {
    "pubmed-cli": (("sparsify_s", "sparsify"), ("verify_s", "verify"),
                   ("stats_s", "stats")),
    "eval-20k": (("eval_full_s", "eval_full"), ("eval_k3_s", "eval_k3")),
    "small-batch": (("batch_s", "batch"),),
}


class Context:
    """Times operations and counts checked outcomes for one run.

    Timings taken while a tracer is attached are dropped, so the
    end-to-end figures only ever hold untraced iterations.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self._iteration_s = 0.0

    @contextlib.contextmanager
    def op(self, name: str):
        """A top-level operation; iterations are the sum of these."""
        if self.tracer is not None:
            self.tracer.phase = name
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._iteration_s += elapsed
            self._record(name, elapsed)

    @contextlib.contextmanager
    def sample(self, name: str):
        """A timed call nested inside an operation."""
        start = perf_counter()
        try:
            yield
        finally:
            self._record(name, perf_counter() - start)

    def _record(self, name: str, value: float) -> None:
        if self.tracer is None:
            self.samples.setdefault(name, []).append(value)

    def verdict(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def iterate(self, workload) -> float:
        self._iteration_s = 0.0
        workload.iterate(self)
        return self._iteration_s


class Reference:
    """A fixed piece of work that tracks the speed the machine gives us.

    On a shared host the speed a process gets can drift by 10-30% within
    minutes (seen on a 2-vCPU KVM guest), moving every timing of a run
    together, and a run's median iteration moves with it.  The
    loop times this work before every iteration; the median iteration
    time over the median reference time keeps the program's speed and
    drops most of the drift.  The work is like hgsparse's own (parsing
    tab-separated integers in Python, a numpy lexsort, grouping into a
    dict of lists) but calls no hgsparse code, so a change to the
    program cannot move it.  It runs in small chunks so that its memory
    stays below every workload's own peak.
    """

    def __init__(self, chunks: int = 80, lines: int = 1_000):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(12345)
        self.texts = []
        for _ in range(chunks):
            rows = rng.integers(0, 60_000, size=(lines, 3)).tolist()
            self.texts.append("".join(f"{a}\t{b}\t{c}\n" for a, b, c in rows))

    def time(self) -> float:
        np = self._np
        start = perf_counter()
        for text in self.texts:
            rows = [tuple(int(f) for f in line.split("\t"))
                    for line in text.splitlines()]
            arr = np.array(rows)
            order = np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0]))
            groups: dict[int, list[int]] = {}
            for src, dst, _ in arr[order].tolist():
                groups.setdefault(src, []).append(dst)
        return perf_counter() - start


def loop(workload, ctx: Context, seconds: float, reference: Reference,
         tracer=None):
    """Closed loop for ``seconds``.

    Returns the untraced and traced iteration times and the reference
    time taken before each iteration.  With a tracer, untraced and
    traced iterations alternate, so drift in machine speed falls on both
    alike.
    """
    untraced, traced, refs = [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        refs.append(reference.time())
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            ctx.tracer = tracer
            tracer.install()
            try:
                traced.append(ctx.iterate(workload))
            finally:
                tracer.uninstall()
                ctx.tracer = None
        else:
            untraced.append(ctx.iterate(workload))
        if (perf_counter() - start >= seconds
                and (tracer is None or len(traced) == len(untraced))):
            return untraced, traced, refs


def tail(values: list[float]):
    """(percentile, value) of the highest listed percentile with at least
    ten samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    best = None
    for p in TAIL_PERCENTILES:
        index = max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)
        if len(ordered) - 1 - index >= 10:
            best = (p, ordered[index])
    return best


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def import_program():
    """Import hgsparse from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hgsparse
        import hgsparse.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import hgsparse from {src}: {exc}")
    if Path(hgsparse.__file__).resolve().parent != src / "hgsparse":
        sys.exit(f"error: hgsparse was imported from {hgsparse.__file__}, "
                 f"not from {src}")
    return hgsparse


def environment(hg, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "numba_enabled": bool(hg.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def metric_line(name: str, value, unit: str, how: str) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"metric {name} = {shown} {unit} ({how})"


def run_one(args) -> int:
    start = perf_counter()
    hg = import_program()
    import_s = perf_counter() - start

    import tracing
    from workloads import WORKLOADS

    env = environment(hg, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if not hg.NUMBA_ENABLED:
        print("NOTE: " + "=" * 66)
        print("NOTE: numba is not importable: every number below is from the")
        print("NOTE: pure-Python kernels. Compiled-path numbers are absent.")
        print("NOTE: " + "=" * 66)

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), args.smoke)
        tracer = tracing.Tracer() if args.trace else None
        ctx = Context()

        if tracer is not None:
            tracer.install()
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            workload.setup()
            setup_runs.append(perf_counter() - started)
        if tracer is not None:
            tracer.uninstall()

        gc.collect()
        warmup_s = ctx.iterate(workload)
        ctx.samples.clear()
        # A traced run spends half its iterations untraced.
        seconds = args.seconds * (2 if tracer is not None else 1)
        iterations, traced, refs = loop(workload, ctx, seconds, Reference(),
                                        tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    setup_s = import_s + statistics.median(setup_runs) + warmup_s
    iteration_s = statistics.median(iterations)
    reference_s = statistics.median(refs)
    end_to_end = {
        "iteration_norm": (iteration_s / reference_s, "x"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }

    print(metric_line("iteration_norm", iteration_s / reference_s, "x",
                      "iteration_s / reference_s"))
    print(metric_line("iteration_s", iteration_s, "s",
                      f"median, n={len(iterations)}"))
    print(metric_line("reference_s", reference_s, "s",
                      f"median, n={len(refs)}"))
    print("samples iteration_s " + " ".join(f"{v:.4f}" for v in iterations))
    for name, op in OP_METRICS[args.workload]:
        values = ctx.samples[op]
        print(metric_line(name, statistics.median(values), "s",
                          f"median, n={len(values)}"))
    calls = ctx.samples.get("sparsify_call")
    if calls:
        found = tail(calls)
        print(metric_line("sparsify_call_p50_ms", 1e3 * statistics.median(calls),
                          "ms", f"median, n={len(calls)}"))
        print(metric_line("sparsify_call_tail_ms",
                          None if found is None else 1e3 * found[1], "ms",
                          f"p{found[0]:g}, n={len(calls)}" if found
                          else f"fewer than 11 samples, n={len(calls)}"))
    print(metric_line("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss, n=1"))
    print(metric_line("setup_s", setup_s, "s",
                      f"import {import_s:.4f} + median of {SETUP_REPEATS} "
                      f"set-ups {statistics.median(setup_runs):.4f} + "
                      f"warm-up {warmup_s:.4f}"))
    print(metric_line("error_rate", ctx.failed / max(ctx.attempted, 1), "ratio",
                      f"{ctx.failed} failed of {ctx.attempted} attempted"))
    for label, digest in sorted(workload.expected_digests.items()):
        print(f"digest {label} sha256={digest}")
    for problem in ctx.failures[:20]:
        print(f"FAILED: {problem}")

    if tracer is not None:
        metrics = trace_report(tracer, workload, args, iterations, traced)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    correct = ctx.failed == 0 and ctx.attempted > 0
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0 if correct else 1


def trace_report(tracer, workload, args, untraced, traced) -> dict:
    import tracing

    overhead = statistics.median(traced) - statistics.median(untraced)
    layers = tracing.layer_metrics(tracer, workload.ops, len(traced),
                                   SETUP_REPEATS)
    layers["tracing_overhead_s"] = overhead
    iteration = statistics.median(untraced)
    print(f"trace: {len(traced)} traced iterations, median "
          f"{statistics.median(traced):.4f} s against {iteration:.4f} s "
          f"untraced (overhead {overhead:+.4f} s)")
    print("trace: self time per iteration, and share of the untraced iteration")
    for name, value in layers.items():
        if name in tracing.COUNTS:
            print(f"layer {name} = {value:.6g} count")
        elif value:
            print(f"layer {name} = {value:.6g} s ({100 * value / iteration:.1f}%)")
    for phase, values in sorted(tracing.phase_breakdown(tracer).items()):
        per, runs = (("set-up", SETUP_REPEATS) if phase == "setup"
                     else ("iteration", len(traced)))
        parts = ", ".join(f"{k} {v / runs:.4f}" for k, v in
                          sorted(values.items(), key=lambda kv: -kv[1]) if v)
        print(f"trace: op {phase} (s per {per}): {parts}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"trace: {len(tracer.spans)} spans written to "
          f"{spans.relative_to(ROOT)}")
    return {name: {"value": value,
                   "unit": "count" if name in tracing.COUNTS else "s"}
            for name, value in layers.items()}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result (exit {proc.returncode})")
            return proc.returncode or 1
        exit_code = exit_code or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return exit_code


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="hgsparse benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed loop (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: interleave traced iterations and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a check that takes seconds")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**62:
        parser.error("--seed must be in [0, 2**62)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
