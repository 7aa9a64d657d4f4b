"""Spans recorded from outside the program, and the per-layer metrics.

``Tracer.install`` replaces module attributes (``construm.pipeline.
expand_candidates``, ``construm.kernels.threshold_links``, ...) and the
gateway's bound methods with wrappers that record a span per call;
``uninstall`` puts the originals back. Spans stay in memory: name,
start, end, parent span and the scope (a build or a query) they belong
to, plus a few counts taken from arguments and results at the boundary.
One thread makes every call, so a stack gives each span its parent.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    scope: tuple
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.scope: tuple = ("build", 0)   # set before each build or query
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.scope))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def install(self, targets):
        """Wrap each (owner, attr, name, before, after) target.

        ``before(args, kwargs)`` runs ahead of the call and its value goes
        to ``after(span, args, kwargs, result, state)``, which annotates
        the span with counts.
        """
        for owner, attr, name, before, after in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(original, name, before, after))

    def uninstall(self):
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, name, before, after):
        tracer = self

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(tracer.spans[idx], args, kwargs, result, state)
            return result
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "scope": list(s.scope), "attrs": s.attrs},
                                    sort_keys=True) + "\n")


def targets(backend, gateway) -> list[tuple]:
    """The layer boundaries the per-layer metrics are read at."""
    from construm import evaluation, graph, kernels, pipeline, tree

    out = []

    def target(owner, attr, name, before=None, after=None):
        out.append((owner, attr, name, before, after))

    def n_pairs(n: int) -> int:
        return n * (n - 1) // 2

    def on_links(span, args, kwargs, result, _):
        span.attrs["pairs"] = n_pairs(len(args[0]))
        span.attrs["links"] = len(result)

    target(kernels, "threshold_links", "kernels.threshold_links", after=on_links)
    target(kernels, "component_labels", "kernels.component_labels")
    target(graph, "build_hypergraph", "graph.build_hypergraph")
    target(tree, "build_table_tree", "tree.build_table_tree")
    target(tree, "cluster_tables", "tree.cluster_tables")
    target(tree, "annotate_sibling_relations", "tree.annotate_sibling_relations")
    target(tree, "stage3_conceptual_map", "tree.stage3_conceptual_map")
    target(tree, "uniform_split", "tree.uniform_split")

    def on_pairs(span, args, kwargs, result, _):
        span.attrs["pairs"] = n_pairs(args[0].source_catalog.column_count)

    target(evaluation, "similar_separated_pairs",
                  "evaluation.similar_separated_pairs", after=on_pairs)
    target(pipeline, "shortlist", "pipeline.shortlist")

    def on_match(span, args, kwargs, result, _):
        span.attrs["candidates"] = len(result.ranked)

    target(pipeline, "run_match", "pipeline.run_match", after=on_match)

    def on_expand(span, args, kwargs, result, _):
        span.attrs["added"] = len(result) - len(args[0])

    target(pipeline, "expand_candidates", "graph.expand_candidates", after=on_expand)
    target(pipeline, "groups_within", "graph.groups_within")
    target(pipeline, "build_context_pack", "tree.build_context_pack")
    target(pipeline, "select_groups", "diff.select_groups")

    def on_block(span, args, kwargs, result, _):
        span.attrs["parsed"] = bool(result.cues)

    target(pipeline, "generate_block", "diff.generate_block", after=on_block)

    def before_chat(args, kwargs):
        return backend.total_wait_s

    def on_chat(span, args, kwargs, result, wait0):
        call = args[0]
        span.attrs["role"] = call.role_tag
        span.attrs["plan"] = call.prompt.startswith("TASK: group-plan")
        span.attrs["cache_hit"] = result.cache_hit
        span.attrs["backend_s"] = backend.total_wait_s - wait0

    def on_embed(span, args, kwargs, result, _):
        span.attrs["texts"] = len(args[0])

    target(gateway, "complete", "gateway.complete", before=before_chat, after=on_chat)
    target(gateway, "embed_batch", "gateway.embed_batch", after=on_embed)
    return out


# -- per-layer metrics ----------------------------------------------------------


def _self_time(spans: list[Span], children: dict[int, list[int]], i: int) -> float:
    return spans[i].dur - sum(spans[c].dur for c in children.get(i, ()))


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Aggregate the recorded spans into the declared per-layer metrics.

    ``extra`` supplies what is not a span: ``parse_s`` and
    ``nonsingleton_groups`` of each traced build, and ``overhead_pct``.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    scopes: dict[str, dict[tuple, list[int]]] = {"build": {}, "generate": {}, "query": {}}
    for i, s in enumerate(spans):
        scopes[s.scope[0]].setdefault(s.scope, []).append(i)
    builds, queries = scopes["build"], scopes["query"]
    generate_idx = [i for idx in scopes["generate"].values() for i in idx]

    def named(idx, name):
        return [i for i in idx if spans[i].name == name]

    def per_build(fn) -> float:
        return statistics.median(fn(idx) for idx in builds.values()) if builds else 0.0

    def per_query(fn) -> float:
        return statistics.fmean(fn(idx) for idx in queries.values()) if queries else 0.0

    def call_ms(name) -> float:
        durs = [spans[i].dur * 1e3 for idx in queries.values() for i in named(idx, name)]
        return statistics.median(durs) if durs else 0.0

    def total(name, attr=None):
        return lambda idx: sum(spans[i].attrs[attr] if attr else spans[i].dur
                               for i in named(idx, name))

    def count(name):
        return lambda idx: len(named(idx, name))

    def self_s(name):
        return lambda idx: sum(_self_time(spans, children, i) for i in named(idx, name))

    def chats(idx, role=None):
        return [spans[i] for i in named(idx, "gateway.complete")
                if role is None or spans[i].attrs["role"] == role]

    def backend_calls(role):
        return lambda idx: sum(1 for s in chats(idx, role) if not s.attrs["cache_hit"])

    def backend_wait(role):
        return lambda idx: sum(s.attrs["backend_s"] for s in chats(idx, role))

    def plan_ok(idx):
        plans = sum(1 for s in chats(idx) if s.attrs["plan"])
        accepted = len(named(idx, "tree.stage3_conceptual_map")) - len(
            named(idx, "tree.uniform_split"))
        return accepted / plans if plans else 1.0

    query_idx = [i for idx in queries.values() for i in idx]
    diff_chats = chats(query_idx, "differentiation")
    blocks = named(query_idx, "diff.generate_block")
    all_chats = [s for s in spans if s.name == "gateway.complete"]
    lookups = chats(query_idx)
    n_queries = len(queries)
    roots = [s for s in spans if s.parent is None and s.name in ("build", "query")]
    wall = sum(s.dur for s in roots)

    m = {
        "kernels.threshold_links.s": per_build(total("kernels.threshold_links")),
        "kernels.threshold_links.calls": per_build(count("kernels.threshold_links")),
        "kernels.pairs": per_build(total("kernels.threshold_links", "pairs")),
        "kernels.links": per_build(total("kernels.threshold_links", "links")),
        "kernels.component_labels.s": per_build(total("kernels.component_labels")),
        "graph.build_hypergraph.self_s": per_build(self_s("graph.build_hypergraph")),
        "graph.nonsingleton_groups": statistics.median(extra["nonsingleton_groups"]),
        "graph.expand_candidates.ms": call_ms("graph.expand_candidates"),
        "graph.groups_within.ms": call_ms("graph.groups_within"),
        "graph.expansion_added": per_query(total("graph.expand_candidates", "added")),
        "tree.build_table_tree.s": per_build(total("tree.build_table_tree")),
        "tree.cluster_tables.self_s": per_build(self_s("tree.cluster_tables")),
        "tree.annotate_sibling_relations.s": per_build(
            total("tree.annotate_sibling_relations")),
        "tree.plan_ok_ratio": per_build(plan_ok),
        "tree.build_context_pack.ms": call_ms("tree.build_context_pack"),
        "tree.packs_per_query": per_query(count("tree.build_context_pack")),
        "diff.select_groups.ms": call_ms("diff.select_groups"),
        "diff.generate_block.ms": call_ms("diff.generate_block"),
        "diff.blocks_per_query": per_query(count("diff.generate_block")),
        "diff.parse_ok_ratio": (sum(spans[i].attrs["parsed"] for i in blocks)
                                / len(diff_chats) if diff_chats else 1.0),
        "pipeline.shortlist.ms": call_ms("pipeline.shortlist"),
        "pipeline.run_match.self_ms": (statistics.median(
            _self_time(spans, children, i) * 1e3
            for i in named(query_idx, "pipeline.run_match")) if n_queries else 0.0),
        "pipeline.decision.ms": (statistics.median(
            sum(s.dur for s in chats(idx, "decision")) * 1e3
            for idx in queries.values()) if n_queries else 0.0),
        "pipeline.candidates_per_query": per_query(total("pipeline.run_match", "candidates")),
        "pipeline.decision_retry_ratio": per_query(
            lambda idx: len(chats(idx, "decision")) - 1),
        "gateway.chat.overhead_ms": (statistics.fmean(
            (s.dur - s.attrs["backend_s"]) * 1e3 for s in all_chats) if all_chats else 0.0),
        "gateway.cache.hit_ratio": (sum(s.attrs["cache_hit"] for s in lookups)
                                    / len(lookups) if lookups else 0.0),
        "gateway.latency_over_wall": (sum(s.attrs["backend_s"] for s in all_chats)
                                      / wall if wall else 0.0),
        "gateway.embed.s": per_build(total("gateway.embed_batch")),
        "gateway.embed.texts": per_build(total("gateway.embed_batch", "texts")),
        "evaluation.similar_separated_pairs.s": statistics.median(
            spans[i].dur for i in named(generate_idx, "evaluation.similar_separated_pairs")),
        "evaluation.pairs_compared": statistics.median(
            spans[i].attrs["pairs"]
            for i in named(generate_idx, "evaluation.similar_separated_pairs")),
        "catalog.parse_s": statistics.median(extra["parse_s"]),
        "trace.overhead_pct": extra["overhead_pct"],
    }
    for role in ("tree_summary", "relation"):
        m[f"gateway.chat.calls.{role}"] = per_build(backend_calls(role))
        m[f"gateway.chat.wait_s.{role}"] = per_build(backend_wait(role))
    for role in ("differentiation", "decision"):
        m[f"gateway.chat.calls.{role}"] = per_query(backend_calls(role))
        m[f"gateway.chat.wait_s.{role}"] = per_query(backend_wait(role))
    return m
