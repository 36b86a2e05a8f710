"""Acceptance gate: every release-blocking behavior, one pass/fail line each.

The invariant sweep (1000 seeded random graphs x k in {1,2,3,5,10} x both
methods) backs the first three checks and is run once per session.  The
real-dataset reproduction is gated on HGSPARSE_PUBMED_LINKS pointing at a
PubMed-format link.dat; without it the synthetic trend check stands in.
"""

import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from hgsparse import (
    ALL_TYPES,
    PER_TYPE,
    EdgeTypeSpec,
    GenSpec,
    LinkFileOptions,
    SparsifyParams,
    auc,
    build_graph_arrays,
    coverage_report,
    evaluate,
    generate,
    isolated_nodes,
    mrr,
    pubmed_like_spec,
    read_link_file,
    sparsify,
    write_link_file,
)
from conftest import covered_hub, make_random_graph

SUITE_GRAPHS = 1000
SUITE_KS = (1, 2, 3, 5, 10)
PUBMED_ENV = "HGSPARSE_PUBMED_LINKS"


def _line(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """One pass over the whole invariant suite, shared by three checks."""
    coverage_bad = []
    isolated_bad = []
    bound_bad = []
    saturation_bad = []
    saturated_seen = 0
    started = time.perf_counter()
    for gseed in range(SUITE_GRAPHS):
        g = make_random_graph(gseed)
        assert g.n <= 200 and g.t <= 8 and g.m <= 5000
        max_bucket = g.stats().max_bucket
        for k in SUITE_KS:
            for method in (PER_TYPE, ALL_TYPES):
                res = sparsify(g, SparsifyParams(k=k, method=method, seed=gseed))
                tag = f"graph {gseed} k={k} {method}"
                if coverage_report(g, res.mask, k, method):
                    coverage_bad.append(tag)
                if isolated_nodes(g, res.mask):
                    isolated_bad.append(tag)
                limit = (2 * k * g.t * g.n if method == PER_TYPE
                         else 2 * max(k, g.t) * g.n)
                if res.kept > limit:
                    bound_bad.append(tag)
                if method == PER_TYPE and max_bucket <= k:
                    saturated_seen += 1
                    if res.ratio != 1.0:
                        saturation_bad.append(tag)
    elapsed = time.perf_counter() - started
    return SimpleNamespace(coverage_bad=coverage_bad, isolated_bad=isolated_bad,
                           bound_bad=bound_bad, saturation_bad=saturation_bad,
                           saturated_seen=saturated_seen, elapsed=elapsed)


def test_coverage_invariant_suite(sweep):
    ok = (not sweep.coverage_bad and not sweep.isolated_bad
          and sweep.elapsed < 60.0)
    _line("coverage invariant suite (1000 graphs, no violations, no "
          "isolated nodes, < 60 s)", ok,
          f"{sweep.elapsed:.1f}s, {len(sweep.coverage_bad)} coverage / "
          f"{len(sweep.isolated_bad)} isolation offenders")


def test_size_bounds(sweep):
    _line("size bounds |H| <= 2ktn per-type and 2*max(k,t)*n all-types",
          not sweep.bound_bad,
          f"{len(sweep.bound_bad)} offenders" if sweep.bound_bad else "0 offenders")


def test_saturation(sweep):
    ok = sweep.saturated_seen > 0 and not sweep.saturation_bad
    _line("saturation: max bucket <= k keeps every edge (ratio exactly 1.0)",
          ok, f"{sweep.saturated_seen} saturated instances checked")


def test_determinism_byte_identical(tmp_path):
    bad = []
    for seed in range(10):
        g = make_random_graph(3000 + seed, max_n=80, max_t=6, max_m=800)
        for method in (PER_TYPE, ALL_TYPES):
            paths = []
            for rep in ("a", "b"):
                res = sparsify(g, SparsifyParams(k=3, method=method, seed=seed))
                path = tmp_path / f"{seed}-{method}-{rep}.dat"
                write_link_file(g, path, res.mask)
                paths.append(path.read_bytes())
            if paths[0] != paths[1]:
                bad.append(f"seed {seed} {method}")
    _line("determinism: identical (input, k, method, seed) gives "
          "byte-identical output", not bad, f"{len(bad)} mismatches")


@pytest.mark.skipif(not os.environ.get(PUBMED_ENV),
                    reason=f"set {PUBMED_ENV} to a PubMed link.dat to enable")
def test_pubmed_ratio_reproduction():
    started = time.perf_counter()
    table = read_link_file(os.environ[PUBMED_ENV])
    g = build_graph_arrays(table.src, table.dst, table.etype, weight=table.weight)
    expected = {1: 0.45, 2: 0.59, 3: 0.67, 5: 0.75, 10: 0.86}
    ratios = {k: sparsify(g, SparsifyParams(k=k, seed=0)).ratio
              for k in SUITE_KS}
    elapsed = time.perf_counter() - started
    misses = {k: ratios[k] for k in SUITE_KS
              if abs(ratios[k] - expected[k]) > 0.03}
    ok = not misses and elapsed < 120.0
    _line("real-dataset ratio reproduction (k=1,2,3,5,10 within 0.03, < 2 min)",
          ok, f"{elapsed:.1f}s, ratios {[round(ratios[k], 3) for k in SUITE_KS]}")


def test_synthetic_ratio_trend():
    g = generate(pubmed_like_spec(seed=0, alpha=1.0))
    means = []
    for k in SUITE_KS:
        ratios = [sparsify(g, SparsifyParams(k=k, seed=s)).ratio
                  for s in range(20)]
        means.append(float(np.mean(ratios)))
    increasing = all(a < b for a, b in zip(means, means[1:]))
    in_range = all(0.0 < r <= 1.0 for r in means)
    _line("synthetic trend: mean ratio strictly increasing over "
          "k=1,2,3,5,10 and in (0,1]", increasing and in_range,
          f"means {[round(r, 4) for r in means]}")


def test_eval_proxy_robustness():
    sizes = (700, 600, 500, 200)
    mix = ((0, 1, 6000), (1, 0, 5000), (0, 2, 4000), (2, 1, 5000))
    worst10 = worst3 = 0.0
    for gseed in range(10):
        spec = GenSpec(sizes, tuple(EdgeTypeSpec(s, d, c, 0.6) for s, d, c in mix),
                       seed=1000 + gseed)
        g = generate(spec)
        assert g.n == 2000 and g.m == 20000 and g.t == 4
        full, k10, k3 = [], [], []
        for seed in range(5):
            full.append(evaluate(g, 0.2, seed=seed, negatives_per_positive=19).auc)
            k10.append(evaluate(g, 0.2, seed=seed, negatives_per_positive=19,
                                sparsify_params=SparsifyParams(k=10, seed=seed)).auc)
            k3.append(evaluate(g, 0.2, seed=seed, negatives_per_positive=19,
                               sparsify_params=SparsifyParams(k=3, seed=seed)).auc)
        worst10 = max(worst10, abs(np.mean(full) - np.mean(k10)))
        worst3 = max(worst3, abs(np.mean(full) - np.mean(k3)))
    ok = worst10 <= 0.05 and worst3 <= 0.10
    _line("eval proxy: sparsified AUC within 0.05 (k=10) / 0.10 (k=3) of "
          "full graph on 10 graphs x 5 seeds", ok,
          f"worst deltas {worst10:.4f} / {worst3:.4f}")


def test_metric_oracles():
    rng = np.random.default_rng(12345)
    exact = True
    for _ in range(50):
        pos = (rng.integers(0, 8, size=int(rng.integers(1, 60))) / 2).astype(float)
        neg = (rng.integers(0, 8, size=int(rng.integers(1, 60))) / 2).astype(float)
        brute = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        if auc(pos, neg) != brute / (len(pos) * len(neg)):
            exact = False
            break
    hand = (mrr([1, 1, 1]) == 1.0 and mrr([1, 2]) == 0.75
            and mrr([1.5]) == pytest.approx(2 / 3))
    _line("metric oracles: auc equals brute force on 50 score-list pairs, "
          "mrr matches hand values", exact and hand)


def test_sampling_uniformity():
    # a 5-edge hub bucket at k=1 whose leaves are already covered: the
    # sweep's own choice there, a per-type top-up or an all-types cover
    g = covered_hub(5, 1)
    freqs = {}
    for method in (PER_TYPE, ALL_TYPES):
        counts = np.zeros(5, dtype=np.int64)
        for seed in range(10_000):
            counts += sparsify(g, SparsifyParams(k=1, method=method, seed=seed)).mask[:5]
        assert counts.sum() == 10_000  # one hub edge kept per seed
        freqs[method] = counts / 10_000
    ok = all(abs(f - 0.2) <= 0.02 for fs in freqs.values() for f in fs)
    _line("sampling uniformity: each of a 5-edge bucket's edges kept at "
          "0.2 +/- 0.02 over 10k seeds, both methods", ok,
          f"freqs {({m: sorted(round(float(f), 4) for f in fs) for m, fs in freqs.items()})}")
