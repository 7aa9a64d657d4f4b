"""The benchmark run: builds, the query loop, checks and metrics.

``run.py`` is the command; this module assumes construm is importable.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
from construm import evaluation, graph, kernels, pipeline
from construm.catalog import MatchQuery, Side, load_catalog, mask_catalog
from construm.gateway import DiskCache, HashEmbeddingBackend, ModelGateway
from construm.tree import TreeParams, build_context_tree

from bots import SimulatedChat, SimulatedModel
from checks import (CheckFailed, artifacts_digest, check_benchmark, check_calls, check_leaves,
                    check_links, check_result, expected_benchmark, results_digest)
from metrics import PER_LAYER, PREDICTS
from tracing import Tracer, layer_metrics, targets
from workloads import K, PAIR_TAU, SETUPS, TAU, WORKLOADS, generate

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"
DIGEST_QUERIES = 64   # leading query slots whose outputs enter the digest
GENERATE_EVERY_S = 0.6  # one generate_benchmark sample per this much query time


def nearest_rank(n: int, p: float) -> int:
    return max(1, math.ceil(n * p / 100))


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = nearest_rank(len(values), p)
    return sorted(values)[rank - 1], len(values) - rank


def step_margin(latencies: list[float], calls: list[int], p: float) -> tuple[int, float]:
    """Chat calls of the query at the p-th latency rank, and how far (as a
    share of all queries) that rank sits from the nearest boundary between
    two call-count steps."""
    n = len(latencies)
    rank = nearest_rank(n, p)
    c = calls[sorted(range(n), key=lambda i: latencies[i])[rank - 1]]
    edges = []
    if c > min(calls):
        edges.append(rank - sum(1 for x in calls if x < c))
    if c < max(calls):
        edges.append(sum(1 for x in calls if x <= c) - rank)
    return c, min(edges, default=n) / n


def environment(w, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "kernel_backend": kernels.BACKEND,
            "workload": w.name, "seed": seed, "latency_s": w.latency_s}


class Bench:
    def __init__(self, w, inputs, workdir: Path, tracer):
        self.w = w
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.backend = SimulatedChat(
            SimulatedModel(inputs.themes, inputs.garble_source_diff, inputs.garble_decision),
            w.latency_s)
        self.paths = {}
        for side, doc in ((Side.SOURCE, inputs.source_doc), (Side.TARGET, inputs.target_doc)):
            self.paths[side] = workdir / f"{side.value}.json"
            self.paths[side].write_text(json.dumps(doc), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.builds: list[dict] = []
        self.artifacts = None   # of the latest build
        self.refs = None        # raw column name -> ColumnRef, per side
        self.generated = 0

    # -- one build: parse (and mask) both catalogs, build both graphs and trees

    def build(self, traced: bool) -> None:
        w = self.w
        gw = ModelGateway(chat_backend=self.backend, embed_backend=HashEmbeddingBackend())
        calls0 = self.backend.total_calls
        gc.collect()
        if traced:
            self.tracer.scope = ("build", len(self.builds))
            root = self.tracer.open("build")
            self.tracer.install(targets(self.backend, gw))
        self.attempted += 1
        t0 = time.perf_counter()
        scat = load_catalog(self.paths[Side.SOURCE], Side.SOURCE)
        tcat = load_catalog(self.paths[Side.TARGET], Side.TARGET)
        tm = time.perf_counter()
        if w.masked:
            scat, tcat = mask_catalog(scat), mask_catalog(tcat)
        t1 = time.perf_counter()
        sg = graph.build_hypergraph(scat, gw, TAU)
        tg = graph.build_hypergraph(tcat, gw, TAU)
        t2 = time.perf_counter()
        st = build_context_tree(scat, TreeParams(), gw, annotate_relations=True)
        tt = build_context_tree(tcat, TreeParams(), gw, annotate_relations=True)
        t3 = time.perf_counter()
        build_calls = self.backend.total_calls - calls0
        check_calls(build_calls, gw.accounting.snapshot().llm_calls, "build")

        src = {scat.meta(r).raw_name: r for r in scat.refs()}
        tgt = {tcat.meta(r).raw_name: r for r in tcat.refs()}
        if traced:
            self.tracer.uninstall()
            self.tracer.close(root)
        self.builds.append({
            "setup_s": t3 - t0, "parse_s": t1 - t0, "mask_s": t1 - tm, "graph_build_s": t2 - t1,
            "tree_build_s": t3 - t2, "build_llm_calls": build_calls, "traced": traced,
            "nonsingleton_groups": sum(1 for g in sg.groups + tg.groups if len(g) > 1),
            "digest": artifacts_digest((sg, tg), (st, tt), (scat, tcat)),
        })
        self.artifacts = pipeline.Artifacts(scat, tcat, st, tt, sg, tg)
        self.refs = (src, tgt)
        self.build_gateway = gw
        self.spec = evaluation.BenchmarkSpec(
            scat, tcat, PAIR_TAU, w.min_separation,
            {src[q.source]: tgt[q.truth] for q in self.inputs.queries})
        self.expected_benchmark = expected_benchmark(sg, self.spec)

    def generate(self, traced: bool) -> float:
        """One timed ``generate_benchmark`` over the latest build, checked."""
        if traced:
            self.tracer.scope = ("generate", self.generated)
            self.tracer.install(targets(self.backend, self.build_gateway))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            generated = evaluation.generate_benchmark(self.spec, self.build_gateway)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        self.generated += 1
        check_benchmark(generated, self.expected_benchmark, self.spec)
        return dt


class QueryLoop:
    """The closed query loop: one client, ``workers=1``, resumable, so the
    run can spread its query windows between the builds. One query runs
    from the ``shortlist`` call to the ``run_match`` return."""

    def __init__(self, bench: Bench, trace: bool):
        self.bench = bench
        self.trace = trace
        w = bench.w
        self.cfg = pipeline.PipelineConfig.from_mode("full", k=K)
        cache = DiskCache(bench.workdir / "cache") if w.disk_cache else None
        self.gw = ModelGateway(chat_backend=bench.backend, embed_backend=HashEmbeddingBackend(),
                               cache=cache)
        src, tgt = bench.refs
        self.queries = [MatchQuery(src[q.source], ground_truth=tgt[q.truth])
                        for q in bench.inputs.queries]
        self.targets = targets(bench.backend, self.gw) if trace else None
        # traced slots are drawn at random so they do not line up with the
        # sequence's periodic repeats
        self.coin = random.Random(0)
        self.slot = 0
        self.wall = 0.0
        self.lat, self.calls, self.traced_lat, self.untraced_lat = [], [], [], []
        self.correct = 0
        self.kept = []
        self.backend_calls = 0
        self.pack_violations = 0
        self.generate_s: list[float] = []

    def _query(self, slot: int):
        q = self.queries[self.bench.inputs.sequence[slot % len(self.bench.inputs.sequence)]]
        art = self.bench.artifacts
        before = self.bench.backend.total_calls
        try:
            shortlist = pipeline.shortlist(q.source, art, self.cfg.k, self.gw)
            res = pipeline.run_match(q.with_shortlist(shortlist), self.cfg, art, self.gw)
        finally:
            self.backend_calls += self.bench.backend.total_calls - before
        check_result(res, res.query, art.target_catalog)
        return q, res

    def run(self, seconds: float | None = None, count: int | None = None):
        """Run queries for ``seconds`` or ``count`` slots (at least one, and
        with tracing at least one traced and one untraced)."""
        bench, tracer = self.bench, self.bench.tracer
        gc.collect()
        start = time.perf_counter()
        paused = 0.0   # time spent on generate_benchmark samples
        next_sample = start
        done = 0
        try:
            self._check_packs(True)
            while True:
                enough = done >= 1 and (not self.trace or (self.traced_lat and self.untraced_lat))
                if enough and (done >= count if count is not None
                               else time.perf_counter() - start >= seconds):
                    break
                if time.perf_counter() >= next_sample:
                    # generate_benchmark is short, so its samples are spread
                    # over the query windows to see the machine at many times
                    t_s = time.perf_counter()
                    self.generate_s.append(bench.generate(self.trace and len(self.generate_s) % 2))
                    paused += time.perf_counter() - t_s
                    next_sample = time.perf_counter() + GENERATE_EVERY_S
                traced = self.trace and self.coin.random() < 0.5
                if traced:
                    tracer.scope = ("query", self.slot)
                    root = tracer.open("query")
                    tracer.install(self.targets)
                before = bench.backend.total_calls
                bench.attempted += 1
                t0 = time.perf_counter()
                try:
                    q, res = self._query(self.slot)
                except CheckFailed:
                    raise
                except Exception as exc:  # noqa: BLE001 - counted, reported, fails the run
                    res = None
                    bench.failed += 1
                    bench.errors.append(f"query slot {self.slot}: {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                    tracer.close(root)
                if res is not None:
                    self.lat.append(dt)
                    self.calls.append(bench.backend.total_calls - before)
                    (self.traced_lat if traced else self.untraced_lat).append(dt)
                    self.correct += res.chosen == q.ground_truth
                    if self.slot < DIGEST_QUERIES:
                        self.kept.append(res)
                self.slot += 1
                done += 1
        finally:
            self.wall += time.perf_counter() - start - paused
            self._check_packs(False)

    def _check_packs(self, on: bool):
        """Count every context pack the pipeline builds that is over budget."""
        if not on:
            pipeline.build_context_pack = pipeline.build_context_pack.__wrapped__
            return
        original = pipeline.build_context_pack

        def checked_pack(*args, **kwargs):
            pack = original(*args, **kwargs)
            if len(pack.rendered) > self.cfg.pack_budget:
                self.pack_violations += 1
            return pack
        checked_pack.__wrapped__ = original
        pipeline.build_context_pack = checked_pack

    def finish(self) -> dict:
        """Check the loop's outputs and return its counts and digest."""
        # outputs of the leading slots enter the digest even when the timed
        # loop ended before reaching them
        self._check_packs(True)
        try:
            kept = self.kept + [self._query(slot)[1]
                                for slot in range(self.slot, DIGEST_QUERIES)]
        finally:
            self._check_packs(False)
        acct = self.gw.accounting.snapshot()
        check_calls(self.backend_calls, acct.llm_calls, "queries")
        if self.pack_violations:
            raise CheckFailed(f"{self.pack_violations} context packs exceed the "
                              f"{self.cfg.pack_budget}-char budget")
        return {"n": len(self.lat), "wall": self.wall, "lat": self.lat, "calls": self.calls,
                "correct": self.correct, "llm_calls": acct.llm_calls,
                "tokens": acct.total_tokens, "traced_lat": self.traced_lat,
                "untraced_lat": self.untraced_lat, "generate_s": self.generate_s,
                "digest": results_digest(kept[:DIGEST_QUERIES],
                                         self.bench.artifacts.target_catalog)}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> int:
    w = WORKLOADS[workload]
    if scale != 1.0:
        w = w.scaled(scale)
    print("env " + json.dumps(environment(w, seed), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tracer = Tracer() if trace else None
    bench = Bench(w, generate(w, seed), workdir, tracer)
    try:
        try:
            # query windows alternate with the builds, so both sample the
            # machine over the whole run rather than one stretch of it
            loop = None
            start = time.perf_counter()
            while True:
                i = len(bench.builds)
                if w.window_queries:
                    if i >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
                        break
                elif i >= SETUPS:
                    break
                bench.build(traced=trace and i % 2 == 1)
                loop = loop or QueryLoop(bench, trace)
                if w.window_queries:
                    loop.run(count=w.window_queries)
                else:
                    loop.run(seconds=seconds / SETUPS)
            q = loop.finish()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            _check_artifacts(bench)
            if bench.failed:
                raise CheckFailed(f"{bench.failed} operations failed: {bench.errors[:3]}")
        except Exception as exc:  # noqa: BLE001 - any failure ends the run without timings
            if isinstance(exc, CheckFailed):
                print(f"CHECK FAILED: {exc}", file=sys.stderr)
            else:
                traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": bench.attempted,
                              "failed": bench.failed or 1, "metrics": {}}))
            return 1
        if trace:
            tracer.dump(workdir.parent / f"spans-{workload}-{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    builds = bench.builds
    digest = builds[0]["digest"] + "/" + q["digest"]
    print(f"digest {digest}")
    for key in ("setup_s", "parse_s", "mask_s", "graph_build_s", "tree_build_s"):
        print(f"per build {key}: " + " ".join(f"{b[key]:.4f}" for b in builds))
    print(f"bench_generate_s samples {len(q['generate_s'])}: "
          + " ".join(f"{t:.4f}" for t in q["generate_s"]))
    print(f"builds {len(builds)} queries {q['n']} fail_frac "
          f"{bench.failed / bench.attempted:.6f} ({bench.failed}/{bench.attempted})")
    p50, _ = percentile(q["lat"], 50)
    p95, beyond = percentile(q["lat"], 95)
    print(f"query_p50_ms n={q['n']}; query_p95_ms n={q['n']} beyond={beyond}")
    if w.latency_s >= 0.01:
        for p in (50, 95):
            c, margin = step_margin(q["lat"], q["calls"], p)
            print(f"p{p} rank: {c} chat calls, {margin:.3f} of queries from a step boundary")

    def med(key, rows=builds):
        return statistics.median(b[key] for b in rows)

    def mean(key):
        # the parts of a build are short enough that the host's speed swings
        # show; the mean of the builds is steadier than their median
        return statistics.fmean(b[key] for b in builds)

    if not trace:
        metrics = {
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "graph_build_s": (mean("graph_build_s"), "s"),
            "tree_build_s": (mean("tree_build_s"), "s"),
            # a mean, not a median: the host alternates between a fast and a
            # slow state, and the median of such a mix jumps between them
            "bench_generate_s": (statistics.fmean(q["generate_s"]), "s"),
            "build_llm_calls": (med("build_llm_calls"), "count"),
            "query_p50_ms": (p50 * 1e3, "ms"),
            "query_p95_ms": (p95 * 1e3, "ms"),
            "queries_per_s": (q["n"] / q["wall"], "1/s"),
            "llm_calls_per_query": (q["llm_calls"] / q["n"], "calls/query"),
            "tokens_per_query": (q["tokens"] / q["n"], "tokens/query"),
            "acc_at_1": (q["correct"] / q["n"], "ratio"),
        }
    else:
        traced_builds = [b for b in builds if b["traced"]]
        # the first build also pays for warming up, so it is the untraced
        # reference only when it is the sole one
        plain_builds = [b for b in builds[1:] if not b["traced"]] or builds[:1]
        q_over = (statistics.median(q["traced_lat"]) / statistics.median(q["untraced_lat"])
                  - 1) * 100
        b_over = (med("setup_s", traced_builds) / med("setup_s", plain_builds) - 1) * 100
        print(f"tracing overhead: query p50 {q_over:+.2f}%, setup {b_over:+.2f}%")
        values = layer_metrics(tracer, {
            "parse_s": [b["parse_s"] for b in traced_builds],
            "nonsingleton_groups": [b["nonsingleton_groups"] for b in traced_builds],
            "overhead_pct": q_over,
        })
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        scopes = {name: scope for name, _, _, scope in PER_LAYER}
        metrics = {name: (values[name], units[name]) for name in units}
    for name, (value, unit) in metrics.items():
        line = f"{name} {value!r} {unit}"
        if trace:
            line += f"  [per {scopes[name]}; moves " + (
                ", ".join(f"{e2e}@{wl}" for e2e, wl in PREDICTS[name]) or "nothing") + "]"
        print(line)
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def _check_artifacts(bench):
    digests = {b["digest"] for b in bench.builds}
    if len(digests) != 1:
        raise CheckFailed(f"{len(bench.builds)} builds of the same inputs gave "
                          f"{len(digests)} different artifacts")
    a = bench.artifacts
    check_links(a.source_graph, "source graph")
    check_links(a.target_graph, "target graph")
    check_leaves(a.source_tree, a.source_catalog, "source tree")
    check_leaves(a.target_tree, a.target_catalog, "target tree")
