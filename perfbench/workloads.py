"""The three benchmark workloads: seeded inputs, one timed iteration, checks.

Each workload class takes its inputs from the benchmark seed alone and
hands the program only generated files (``pubmed-cli``, ``eval-20k``)
or arrays (``small-batch``).  ``setup`` is repeated by the runner and
must be cheap to redo; ``iterate`` runs one closed-loop iteration and
checks every output it produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import hgsparse as hg
from hgsparse import cli as hg_cli

# The checks below stand for the paper's guarantees and the CLI's
# contract: exit 0, bucket coverage, no isolated node, the size bound,
# finite AUC/MRR in [0, 1], and byte-identical output for one seed.


def size_bound(k: int, t: int, n: int, method: str) -> int:
    return 2 * k * t * n if method == hg.PER_TYPE else 2 * max(k, t) * n


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _scaled_spec(spec: hg.GenSpec, divisor: int) -> hg.GenSpec:
    return hg.GenSpec(
        tuple(max(s // divisor, 2) for s in spec.node_type_sizes),
        tuple(hg.EdgeTypeSpec(e.src_type, e.dst_type, max(e.count // divisor, 1),
                              e.alpha) for e in spec.edge_types),
        spec.seed)


class _CliWorkload:
    """Shared by the workloads that drive ``hgsparse.cli.run`` on files."""

    name = ""

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.links = os.path.join(workdir, "link.dat")
        self.nodes = os.path.join(workdir, "node.dat")
        self.workdir = workdir
        self.graph = None
        self.expected_digests: dict[str, str] = {}

    def spec(self) -> hg.GenSpec:
        raise NotImplementedError

    def setup(self) -> None:
        g = hg.generate(self.spec())
        hg.write_link_file(g, self.links)
        hg.write_node_file(self.nodes, g.node_ids, g.node_types)
        self.graph = g

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, ctx, op: str, argv: list[str]):
        """Run one command in-process; returns (exit code, problems)."""
        out, err = io.StringIO(), io.StringIO()
        with ctx.op(op), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = hg_cli.run(argv)
            except Exception as exc:  # a traceback is a failed operation
                return None, [f"{op}: raised {type(exc).__name__}: {exc}"]
        if code != 0:
            return code, [f"{op}: exit {code}: {err.getvalue().strip()}"]
        return code, []

    def same_bytes(self, label: str, path: str) -> list[str]:
        """The file at ``path`` must match the first iteration's bytes."""
        digest = _sha256(path)
        first = self.expected_digests.setdefault(label, digest)
        if digest != first:
            return [f"{label}: sha256 {digest[:16]} differs from the "
                    f"first iteration's {first[:16]}"]
        return []

    @staticmethod
    def report(path: str) -> dict:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)


class PubmedCli(_CliWorkload):
    """``sparsify --k 3``, ``verify`` of its output, ``stats``."""

    name = "pubmed-cli"
    ops = ("sparsify", "verify", "stats")
    k = 3

    def spec(self) -> hg.GenSpec:
        spec = hg.pubmed_like_spec(self.seed, alpha=1.0)
        return _scaled_spec(spec, 100) if self.smoke else spec

    def iterate(self, ctx) -> None:
        g = self.graph
        common = ["--links", self.links, "--nodes", self.nodes]
        sparse, rep = self.path("sparse.dat"), self.path("sparsify.json")
        code, problems = self.cli(ctx, "sparsify", [
            "sparsify", *common, "--k", str(self.k), "--seed", str(self.seed),
            "--out", sparse, "--report", rep, "--deterministic"])
        kept = None
        if code == 0:
            r = self.report(rep)
            kept = r["kept_edges"]
            if (r["n"], r["m"]) != (g.n, g.m):
                problems.append(f"sparsify: report n, m {r['n']}, {r['m']} "
                                f"!= generated {g.n}, {g.m}")
            if r["coverage_violations"] or r["isolated_nodes"]:
                problems.append(
                    f"sparsify: {len(r['coverage_violations'])} coverage "
                    f"violations, {len(r['isolated_nodes'])} isolated nodes")
            if kept > size_bound(self.k, g.t, g.n, hg.PER_TYPE):
                problems.append(f"sparsify: kept {kept} exceeds 2ktn")
            problems += self.same_bytes("sparsify.out", sparse)
            problems += self.same_bytes("sparsify.report", rep)
        ctx.verdict(problems)

        rep = self.path("verify.json")
        code, problems = self.cli(ctx, "verify", [
            "verify", *common, "--sparse", sparse, "--k", str(self.k),
            "--report", rep, "--deterministic"])
        if code == 0:
            if self.report(rep)["kept_edges"] != kept:
                problems.append("verify: kept-edge count differs from sparsify's")
            problems += self.same_bytes("verify.report", rep)
        ctx.verdict(problems)

        rep = self.path("stats.json")
        code, problems = self.cli(ctx, "stats", [
            "stats", *common, "--report", rep, "--deterministic"])
        if code == 0:
            r = self.report(rep)
            if (r["n"], r["m"]) != (g.n, g.m):
                problems.append(f"stats: n, m {r['n']}, {r['m']} != "
                                f"generated {g.n}, {g.m}")
            problems += self.same_bytes("stats.report", rep)
        ctx.verdict(problems)


class Eval20k(_CliWorkload):
    """``eval`` on the full graph, then ``eval --k 3`` with Adamic-Adar."""

    name = "eval-20k"
    ops = ("eval_full", "eval_k3")
    sizes = (700, 600, 500, 200)
    mix = ((0, 1, 6000), (1, 0, 5000), (0, 2, 4000), (2, 1, 5000))

    def spec(self) -> hg.GenSpec:
        spec = hg.GenSpec(
            self.sizes,
            tuple(hg.EdgeTypeSpec(s, d, c, 0.6) for s, d, c in self.mix),
            seed=1000 + self.seed)
        return _scaled_spec(spec, 10) if self.smoke else spec

    def iterate(self, ctx) -> None:
        common = ["eval", "--links", self.links, "--nodes", self.nodes,
                  "--holdout", "0.2", "--seed", str(self.seed),
                  "--negatives-per-positive", "19", "--deterministic"]
        for op, extra in (
                ("eval_full", ["--scorer", "common-neighbors"]),
                ("eval_k3", ["--k", "3", "--scorer", "adamic-adar"])):
            rep = self.path(f"{op}.json")
            code, problems = self.cli(ctx, op, [*common, *extra, "--report", rep])
            if code == 0:
                r = self.report(rep)
                for key in ("auc", "mrr"):
                    value = r[key]
                    if not (isinstance(value, float) and math.isfinite(value)
                            and 0.0 <= value <= 1.0):
                        problems.append(f"{op}: {key} {value!r} not in [0, 1]")
                if r["positives"] < 1:
                    problems.append(f"{op}: no test positives")
                problems += self.same_bytes(f"{op}.report", rep)
            ctx.verdict(problems)


class SmallBatch:
    """Many small random graphs, each sparsified for every k and method.

    Sizes follow the acceptance invariant suite's recipe (log-uniform
    n <= 200 and m <= 5000, t <= 8, up to 3 node types, multi-edges
    allowed), stratified: the i-th graph draws each size from one of
    ``count`` equal-probability strata, and which stratum it gets is
    fixed, not seeded.  Every seed therefore runs the same size mix and
    the seed picks only the edges and the place inside each stratum.
    With a plain random mix the total edge count of the batch alone has
    an interquartile range of about 18% of its median across seeds.
    """

    name = "small-batch"
    ops = ("batch",)
    ks = (1, 2, 3, 5, 10)
    methods = (hg.PER_TYPE, hg.ALL_TYPES)

    def __init__(self, seed: int, workdir: str, smoke: bool):
        self.seed = seed
        self.count, self.max_n, self.max_m, self.max_t = (
            (10, 40, 300, 4) if smoke else (200, 200, 5000, 8))
        self.arrays: list[tuple] = []
        self.expected_digest = None

    def _strata(self, shape_rng, rng) -> np.ndarray:
        return (shape_rng.permutation(self.count) + rng.random(self.count)) / self.count

    def setup(self) -> None:
        shape_rng = np.random.default_rng(0x5B)
        rng = np.random.default_rng([self.seed, 0x5B])
        u_n, u_m, u_t, u_nt = (self._strata(shape_rng, rng) for _ in range(4))
        self.arrays = []
        for i in range(self.count):
            n = int(np.exp(np.log(2) + u_n[i] * (np.log(self.max_n + 1) - np.log(2))))
            m = int(np.exp(u_m[i] * np.log(self.max_m + 1)))
            t = 1 + int(u_t[i] * self.max_t)
            node_type_count = 1 + int(u_nt[i] * 3)
            self.arrays.append((
                rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                rng.integers(0, t, size=m), np.arange(n),
                rng.integers(0, node_type_count, size=n)))

    def iterate(self, ctx) -> None:
        digest = hashlib.sha256()
        problems: list[str] = []
        failed_before = ctx.failed
        with ctx.op("batch"):
            for i, (src, dst, etype, node_ids, node_types) in enumerate(self.arrays):
                try:
                    g = hg.build_graph_arrays(src, dst, etype, node_ids=node_ids,
                                              node_types=node_types)
                except Exception as exc:
                    ctx.verdict([f"graph {i}: build raised {exc!r}"])
                    continue
                ctx.verdict([])
                for k in self.ks:
                    for method in self.methods:
                        tag = f"graph {i} k={k} {method}"
                        params = hg.SparsifyParams(
                            k=k, method=method, seed=hg.substream_seed(self.seed, i))
                        try:
                            with ctx.sample("sparsify_call"):
                                res = hg.sparsify(g, params)
                            found = []
                            if hg.coverage_report(g, res.mask, k, method):
                                found.append(f"{tag}: coverage violation")
                            if hg.isolated_nodes(g, res.mask):
                                found.append(f"{tag}: isolated node")
                            if res.kept > size_bound(k, g.t, g.n, method):
                                found.append(f"{tag}: size bound exceeded")
                        except Exception as exc:
                            found = [f"{tag}: raised {exc!r}"]
                        digest.update(res.mask.tobytes() if not found else b"!")
                        ctx.verdict(found)
        label = digest.hexdigest()
        if self.expected_digest is None:
            self.expected_digest = label
        elif label != self.expected_digest and ctx.failed == failed_before:
            problems.append(f"batch: mask digest {label[:16]} differs from the "
                            f"first iteration's {self.expected_digest[:16]}")
        ctx.verdict(problems)

    @property
    def expected_digests(self) -> dict[str, str]:
        return {"batch.masks": self.expected_digest}


WORKLOADS = {cls.name: cls for cls in (PubmedCli, Eval20k, SmallBatch)}
