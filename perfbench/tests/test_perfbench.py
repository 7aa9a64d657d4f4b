"""Tests of the benchmark itself: run them with
``python3 -m pytest perfbench/tests`` from the repository root."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from construm.catalog import catalog_from_dict
from construm.gateway import HashEmbeddingBackend, ModelGateway
from construm.graph import Hypergraph, build_hypergraph
from construm.tree import TreeParams, build_context_tree

import checks
import metrics
from bots import SimulatedChat, SimulatedModel
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SCALE = "0.05"
COUNT_RATIOS = {"tree.plan_ok_ratio", "diff.parse_ok_ratio", "pipeline.decision_retry_ratio",
                "gateway.cache.hit_ratio"}


def run_bench(workload, seed=3, trace=0, cwd=ROOT, bench=BENCH):
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def declared(trace):
    rows = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {name: unit for name, unit, *_ in rows}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_declared_metric(workload, trace):
    proc, lines = run_bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared(trace)
    for name, unit in got.items():
        assert f"\n{name} " in "\n" + "\n".join(lines[:-1])
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "cpu", "python", "numpy", "kernel_backend", "seed",
            "latency_s"} <= set(env)


def test_same_seed_repeats_digest_and_counts():
    runs = [run_bench("offline_build", seed=5, trace=1) for _ in range(2)]
    for proc, _ in runs:
        assert proc.returncode == 0, proc.stderr
    digests = [next(ln for ln in lines if ln.startswith("digest ")) for _, lines in runs]
    assert digests[0] == digests[1]
    counts = [{k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()
               if v["unit"] == "count" or k in COUNT_RATIOS} for _, lines in runs]
    assert counts[0] == counts[1]
    other = run_bench("offline_build", seed=6)[1]
    assert next(ln for ln in other if ln.startswith("digest ")) != digests[0]


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = run_bench("match_llm", cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_declarations():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == metrics.benchmark_json()
    assert set(metrics.PREDICTS) == {name for name, *_ in metrics.PER_LAYER}
    workloads = set(WORKLOADS)
    for moves in metrics.PREDICTS.values():
        for e2e, workload in moves:
            assert e2e in declared(0) and workload in workloads


# -- tampered outputs trip the checks ---------------------------------------------


@pytest.fixture(scope="module")
def small():
    doc = {"tables": [{"table_id": "T", "name": "t", "ordered": True, "columns": [
        {"name": f"c{i}", "description": f"shared words here {'alpha' if i % 2 else 'beta'}"}
        for i in range(12)]}]}
    cat = catalog_from_dict(doc, "target")
    chat = SimulatedChat(SimulatedModel({}), 0.0)
    gw = ModelGateway(chat_backend=chat, embed_backend=HashEmbeddingBackend())
    graph = build_hypergraph(cat, gw, tau=0.8)
    tree = build_context_tree(cat, TreeParams(leaf_budget=10, min_group=2, window=10), gw)
    return cat, graph, tree


def test_intact_outputs_pass(small):
    cat, graph, tree = small
    assert graph.links
    checks.check_links(graph, "graph")
    checks.check_leaves(tree, cat, "tree")


def test_dropped_link_trips_the_link_check(small):
    _, graph, _ = small
    tampered = Hypergraph(graph.side, graph.tau, graph.columns, graph.embeddings,
                          graph.links[1:], graph.groups)
    with pytest.raises(checks.CheckFailed, match="differ from the matmul pair set"):
        checks.check_links(tampered, "graph")


def test_moved_leaf_column_trips_the_leaf_check(small):
    cat, _, tree = small
    leaf = tree.leaves()[0]
    tree.nodes[leaf.node_id] = replace(leaf, members=leaf.members[1:])
    try:
        with pytest.raises(checks.CheckFailed, match="under none"):
            checks.check_leaves(tree, cat, "tree")
    finally:
        tree.nodes[leaf.node_id] = leaf


def test_call_count_mismatch_trips_the_accounting_check():
    checks.check_calls(7, 7, "queries")
    with pytest.raises(checks.CheckFailed):
        checks.check_calls(8, 7, "queries")


def test_choice_outside_the_candidates_trips_the_result_check(small):
    from construm.catalog import MatchQuery
    from construm.pipeline import MatchResult, MatchTrace

    cat, _, _ = small
    refs = list(cat.refs())
    prompt = "Candidates:\n- C1: name: c0; desc: x\n- C2: name: c1; desc: y\nANSWER"
    q = MatchQuery(refs[5], shortlist=(refs[0], refs[1]))
    good = MatchResult(q, refs[1], (refs[1], refs[0]), MatchTrace(prompt_snapshot=prompt))
    checks.check_result(good, q, cat)
    bad = MatchResult(q, refs[2], (refs[2], refs[0], refs[1]),
                      MatchTrace(prompt_snapshot=prompt))
    with pytest.raises(checks.CheckFailed, match="not a candidate"):
        checks.check_result(bad, q, cat)


def test_dropped_query_trips_the_benchmark_check():
    from construm.evaluation import BenchmarkSpec, generate_benchmark

    twin = "one two three four five six seven eight nine ten eleven twelve"
    cols = [{"name": f"c{i}", "description": twin if i in (0, 7) else f"filler {i} x{i} y{i}"}
            for i in range(8)]
    cat = catalog_from_dict({"tables": [{"table_id": "S", "columns": cols}]}, "source")
    gw = ModelGateway(embed_backend=HashEmbeddingBackend())
    refs = list(cat.refs())
    spec = BenchmarkSpec(cat, cat, 0.8, 3, {refs[0]: refs[1], refs[7]: refs[2]})
    generated = generate_benchmark(spec, gw)
    expected = checks.expected_benchmark(build_hypergraph(cat, gw, tau=0.8), spec)
    assert [q.source for q in generated] == [refs[0], refs[7]]
    checks.check_benchmark(generated, expected, spec)
    with pytest.raises(checks.CheckFailed, match="missing 1"):
        checks.check_benchmark(generated[1:], expected, spec)

