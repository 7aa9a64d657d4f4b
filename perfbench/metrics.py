"""Declared metrics: names, units, direction, bounds and predictions.

``BENCHMARK.json`` at the repository root is rendered from these tables
(``python3 perfbench/metrics.py > BENCHMARK.json``); a test keeps the two
in step. ``PREDICTS`` records, for every per-layer metric, the end-to-end
metrics and workloads it is expected to move, so a later change can say
which of its numbers should move and which should not.
"""

from __future__ import annotations

import json

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("graph_build_s", "s", "lower", 0.25),
    ("tree_build_s", "s", "lower", 0.25),
    ("bench_generate_s", "s", "lower", 0.25),
    ("build_llm_calls", "count", "lower", 0.05),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p95_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("llm_calls_per_query", "calls/query", "lower", 0.05),
    ("tokens_per_query", "tokens/query", "lower", 0.05),
    ("acc_at_1", "ratio", "higher", 0.05),
)

# Scope of a per-layer value: "build" = per build of both sides' graphs and
# trees (median over the traced builds), "call" = median over calls,
# "query" = mean per query, "run" = over the whole traced run.
PER_LAYER = (
    ("kernels.threshold_links.s", "s", "lower", "build"),
    ("kernels.threshold_links.calls", "count", "lower", "build"),
    ("kernels.pairs", "count", "lower", "build"),
    ("kernels.links", "count", "lower", "build"),
    ("kernels.component_labels.s", "s", "lower", "build"),
    ("graph.build_hypergraph.self_s", "s", "lower", "build"),
    ("graph.nonsingleton_groups", "count", "lower", "build"),
    ("graph.expand_candidates.ms", "ms", "lower", "call"),
    ("graph.groups_within.ms", "ms", "lower", "call"),
    ("graph.expansion_added", "count", "lower", "query"),
    ("tree.build_table_tree.s", "s", "lower", "build"),
    ("tree.cluster_tables.self_s", "s", "lower", "build"),
    ("tree.annotate_sibling_relations.s", "s", "lower", "build"),
    ("tree.plan_ok_ratio", "ratio", "higher", "build"),
    ("tree.build_context_pack.ms", "ms", "lower", "call"),
    ("tree.packs_per_query", "count", "lower", "query"),
    ("diff.select_groups.ms", "ms", "lower", "call"),
    ("diff.generate_block.ms", "ms", "lower", "call"),
    ("diff.blocks_per_query", "count", "lower", "query"),
    ("diff.parse_ok_ratio", "ratio", "higher", "query"),
    ("pipeline.shortlist.ms", "ms", "lower", "call"),
    ("pipeline.run_match.self_ms", "ms", "lower", "call"),
    ("pipeline.decision.ms", "ms", "lower", "call"),
    ("pipeline.candidates_per_query", "count", "lower", "query"),
    ("pipeline.decision_retry_ratio", "ratio", "lower", "query"),
    ("gateway.chat.calls.tree_summary", "count", "lower", "build"),
    ("gateway.chat.calls.relation", "count", "lower", "build"),
    ("gateway.chat.calls.differentiation", "count", "lower", "query"),
    ("gateway.chat.calls.decision", "count", "lower", "query"),
    ("gateway.chat.wait_s.tree_summary", "s", "lower", "build"),
    ("gateway.chat.wait_s.relation", "s", "lower", "build"),
    ("gateway.chat.wait_s.differentiation", "s", "lower", "query"),
    ("gateway.chat.wait_s.decision", "s", "lower", "query"),
    ("gateway.chat.overhead_ms", "ms", "lower", "run"),
    ("gateway.cache.hit_ratio", "ratio", "higher", "query"),
    ("gateway.latency_over_wall", "ratio", "higher", "run"),
    ("gateway.embed.s", "s", "lower", "build"),
    ("gateway.embed.texts", "count", "lower", "build"),
    ("evaluation.similar_separated_pairs.s", "s", "lower", "call"),
    ("evaluation.pairs_compared", "count", "lower", "call"),
    ("catalog.parse_s", "s", "lower", "build"),
    ("trace.overhead_pct", "%", "lower", "run"),
)

_OB, _LLM = "offline_build", "match_llm"

# per-layer metric -> ((end-to-end metric, workload), ...) it should move.
# The per-query CPU layers move offline_build queries (2k targets) and
# should leave match_llm queries unchanged, where model latency sets the
# time; an empty tuple means the metric must not move (a shape count).
PREDICTS = {
    "kernels.threshold_links.s": (("graph_build_s", _OB), ("setup_s", _LLM)),
    "kernels.threshold_links.calls": (("graph_build_s", _OB),),
    "kernels.pairs": (("graph_build_s", _OB), ("setup_s", _LLM)),
    "kernels.links": (("graph_build_s", _OB),),
    "kernels.component_labels.s": (("graph_build_s", _OB), ("setup_s", _LLM)),
    "graph.build_hypergraph.self_s": (("graph_build_s", _OB), ("setup_s", _LLM)),
    "graph.nonsingleton_groups": (),
    "graph.expand_candidates.ms": (("query_p50_ms", _OB), ("queries_per_s", _OB)),
    "graph.groups_within.ms": (("query_p50_ms", _OB), ("queries_per_s", _OB)),
    "graph.expansion_added": (("query_p50_ms", _OB),),
    "tree.build_table_tree.s": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "tree.cluster_tables.self_s": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "tree.annotate_sibling_relations.s": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "tree.plan_ok_ratio": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "tree.build_context_pack.ms": (("query_p50_ms", _OB),),
    "tree.packs_per_query": (("query_p50_ms", _OB),),
    "diff.select_groups.ms": (("query_p50_ms", _OB),),
    "diff.generate_block.ms": (("query_p50_ms", _LLM), ("query_p95_ms", _LLM)),
    "diff.blocks_per_query": (("query_p50_ms", _LLM), ("query_p95_ms", _LLM)),
    "diff.parse_ok_ratio": (("query_p50_ms", _LLM), ("query_p95_ms", _LLM)),
    "pipeline.shortlist.ms": (("query_p50_ms", _OB), ("queries_per_s", _OB)),
    "pipeline.run_match.self_ms": (("query_p50_ms", _OB), ("queries_per_s", _OB)),
    "pipeline.decision.ms": (("query_p50_ms", _LLM),),
    "pipeline.candidates_per_query": (("query_p50_ms", _LLM),),
    "pipeline.decision_retry_ratio": (("llm_calls_per_query", _LLM), ("query_p50_ms", _LLM)),
    "gateway.chat.calls.tree_summary": (("build_llm_calls", _OB), ("tree_build_s", _OB)),
    "gateway.chat.calls.relation": (("build_llm_calls", _OB), ("tree_build_s", _OB)),
    "gateway.chat.calls.differentiation": (("llm_calls_per_query", _LLM), ("query_p50_ms", _LLM)),
    "gateway.chat.calls.decision": (("llm_calls_per_query", _LLM), ("query_p50_ms", _LLM)),
    "gateway.chat.wait_s.tree_summary": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "gateway.chat.wait_s.relation": (("tree_build_s", _OB), ("setup_s", _LLM)),
    "gateway.chat.wait_s.differentiation": (("query_p50_ms", _LLM),),
    "gateway.chat.wait_s.decision": (("query_p50_ms", _LLM),),
    "gateway.chat.overhead_ms": (("queries_per_s", _LLM), ("tree_build_s", _OB)),
    "gateway.cache.hit_ratio": (("queries_per_s", _LLM), ("llm_calls_per_query", _LLM)),
    "gateway.latency_over_wall": (("queries_per_s", _LLM), ("tree_build_s", _OB)),
    "gateway.embed.s": (("graph_build_s", _OB), ("setup_s", _LLM)),
    "gateway.embed.texts": (("graph_build_s", _OB),),
    "evaluation.similar_separated_pairs.s": (("bench_generate_s", _OB),),
    "evaluation.pairs_compared": (("bench_generate_s", _OB),),
    "catalog.parse_s": (("setup_s", _LLM), ("setup_s", _OB)),
    "trace.overhead_pct": (),
}


def benchmark_json() -> dict:
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 24,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
