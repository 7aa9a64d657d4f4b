"""Context trees: a hierarchical summary index over one schema side.

Leaves hold spans of up to ``leaf_budget`` columns; internal nodes hold
increasingly coarse natural-language summaries, up through per-table roots
and cross-table cluster nodes to a single root. Wide tables are built in
four stages -- windowed batch summaries, a sampled global theme, an
LLM-proposed grouping plan (validated and repaired), and optional boundary
refinement for ordered tables -- recursing on any group still above the
leaf budget. Per-table trees are merged bottom-up by agglomerative
clustering over the embeddings of each table's first-round text (a narrow
table's root summary, a wide table's theme); merges tied at one height
form one n-ary cluster. The clustering and its cluster summaries run
beside the wide tables' remaining calls, so with a real model a wide
table is clustered on a theme drawn from a column sample, not on a
summary over all of its blocks.

A built tree is immutable. It answers two queries: the column-to-root
``lineage`` of summaries, and a budgeted ``ContextPack`` combining that
lineage with a few sibling relation snippets, truncated middle-out so the
leaf and root levels always survive. ``render_prompt_packs`` shows the
packs of one prompt with each of their lines said once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from construm.catalog import ColumnRef, SchemaCatalog, Side, TableMeta, as_side, masking_mismatch
from construm.gateway import ChatCall, GatewayError, ModelGateway
from construm.graph import embed_columns

logger = logging.getLogger(__name__)


class TreeError(Exception):
    pass


class UnknownColumnError(TreeError):
    pass


class PackBudgetError(TreeError):
    def __init__(self, budget: int, required: int):
        super().__init__(f"budget too small: {budget} chars given, {required} required")
        self.budget = budget
        self.required = required


class NodeKind(str, Enum):
    GROUP_LEAF = "group_leaf"
    WITHIN_TABLE = "within_table"
    TABLE_ROOT = "table_root"
    CLUSTER = "cluster"
    DB_ROOT = "db_root"


@dataclass(frozen=True)
class TreeParams:
    window: int = 250          # columns per scan batch (W)
    leaf_budget: int = 50      # max columns per leaf (B)
    min_group: int = 10        # minimum split-group size (m)
    fan_out: int = 5           # target child groups per split (b)
    switch_budget: int = 2     # boundary moves allowed per refinement pass (s)
    cluster_threshold: float = 0.5  # cosine-distance merge cutoff (delta)
    sample_count: int = 20     # columns sampled for the global theme

    def __post_init__(self):
        if not (self.window >= self.leaf_budget >= self.min_group >= 1):
            raise TreeError(
                f"require window >= leaf_budget >= min_group >= 1, got "
                f"{self.window}/{self.leaf_budget}/{self.min_group}"
            )
        if self.fan_out < 2:
            raise TreeError(f"fan_out must be >= 2, got {self.fan_out}")
        if not (0.0 < self.cluster_threshold < 2.0):
            raise TreeError(f"cluster_threshold must be in (0, 2), got {self.cluster_threshold}")
        if self.switch_budget < 0 or self.sample_count < 2:
            raise TreeError("switch_budget must be >= 0 and sample_count >= 2")


RELATIONS_PER_NODE = 2     # snippets incident to any one sibling node
RELATIONS_ASKED_MIN = 6    # requested lower bound (prompt hint, not enforced)
RELATIONS_PER_PARENT = 18  # hard cap on snippets kept per parent
RELATION_TIMEOUT = 75.0
PACK_RELATIONS = 3         # relation snippets one context pack holds at most


@dataclass
class TreeNode:
    node_id: str
    kind: NodeKind
    summary: str
    children: tuple[str, ...] = ()
    span: tuple[str, int, int] | None = None      # (table_id, lo, hi) inclusive
    members: tuple[ColumnRef, ...] | None = None  # leaf columns


@dataclass(frozen=True)
class RelationSnippet:
    from_node: str
    to_node: str
    relation_text: str


class ContextTree:
    def __init__(self, side: Side, root: str, nodes: dict[str, TreeNode],
                 params: TreeParams, relations: Sequence[RelationSnippet] = ()):
        self.side = side
        self.root = root
        self.nodes = nodes
        self.params = params
        self.relations = tuple(relations)
        # node id -> (position in ``relations``, text) of each snippet touching it
        self.relations_at: dict[str, list[tuple[int, str]]] = {}
        for order, r in enumerate(self.relations):
            for n in dict.fromkeys((r.from_node, r.to_node)):
                self.relations_at.setdefault(n, []).append((order, r.relation_text))
        self.parent: dict[str, str] = {}
        self.leaf_of: dict[ColumnRef, str] = {}
        for node in nodes.values():
            for child in node.children:
                if child in self.parent:
                    raise TreeError(f"node {child} has two parents")
                self.parent[child] = node.node_id
            if node.kind is NodeKind.GROUP_LEAF:
                for ref in node.members or ():
                    if ref in self.leaf_of:
                        raise TreeError(f"column {ref} appears under two leaves")
                    self.leaf_of[ref] = node.node_id
        if root in self.parent:
            raise TreeError("root must not have a parent")

    def node(self, node_id: str) -> TreeNode:
        return self.nodes[node_id]

    def depth(self, node_id: str) -> int:
        d = 0
        while node_id != self.root:
            node_id = self.parent[node_id]
            d += 1
        return d

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes.values()
                if n.kind is NodeKind.GROUP_LEAF]


def lineage(tree: ContextTree, column: ColumnRef) -> list[TreeNode]:
    """Leaf-to-root path of nodes for one column (parent links only)."""
    leaf_id = tree.leaf_of.get(column)
    if leaf_id is None:
        raise UnknownColumnError(f"unknown column {column}")
    path = [tree.node(leaf_id)]
    node_id = leaf_id
    while node_id != tree.root:
        node_id = tree.parent[node_id]
        path.append(tree.node(node_id))
    return path


# -- prompt construction ------------------------------------------------------

_SUMMARY_DESC_CHARS = 120


def _column_lines(catalog: SchemaCatalog, refs: Sequence[ColumnRef]) -> str:
    lines = []
    for ref in refs:
        desc = catalog.meta(ref).description[:_SUMMARY_DESC_CHARS]
        lines.append(f"- {catalog.display_name(ref)}: {desc}")
    return "\n".join(lines)


def _span_of(refs: Sequence[ColumnRef]) -> tuple[int, int]:
    return refs[0].ordinal, refs[-1].ordinal


# -- stage 1: windowed batch summaries ---------------------------------------


def window_partition(n: int, window: int, min_group: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) windows covering 0..n; a trailing window
    shorter than ``min_group`` merges into its predecessor."""
    if n <= 0:
        return []
    bounds = list(range(0, n, window)) + [n]
    spans = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    if len(spans) > 1 and (spans[-1][1] - spans[-1][0]) < min_group:
        last = spans.pop()
        prev = spans.pop()
        spans.append((prev[0], last[1]))
    return spans


def stage1_window_summaries(catalog: SchemaCatalog, table: TableMeta,
                            window: int, gateway: ModelGateway,
                            min_group: int = 1) -> list[tuple[tuple[int, int], str]]:
    """One short LLM summary per scan window, the windows' calls together.

    Windows are contiguous ordinal ranges for ordered tables and
    fixed-size batches over the stable listing otherwise; either way they
    partition the table's columns.
    """
    refs = table.columns

    def summarize(wi: int, chunk: Sequence[ColumnRef]) -> tuple[tuple[int, int], str]:
        lo, hi = _span_of(chunk)
        prompt = (
            f"TASK: window-summary\n"
            f"TABLE: {table.name} ({table.table_id})\n"
            f"ORDERED: {'yes' if table.ordered else 'no'}\n"
            f"SPAN: {lo}..{hi}\n"
            f"COLUMNS:\n{_column_lines(catalog, chunk)}\n"
            f"Write a 1-2 sentence summary of what these columns cover."
        )
        try:
            reply = gateway.complete(ChatCall("tree_summary", prompt))
        except GatewayError as exc:
            raise TreeError(f"window {wi} ({lo}..{hi}) summary failed: {exc}") from exc
        return (lo, hi), reply.text.strip()

    return gateway.concurrently([
        partial(summarize, wi, refs[start:stop])
        for wi, (start, stop) in enumerate(window_partition(len(refs), window, min_group))
    ])


# -- stage 2: global theme ----------------------------------------------------


def even_sample_indices(n: int, k: int) -> list[int]:
    """Evenly spaced sample positions, first and last always included.

    ``round(i * (n - 1) / (k - 1))`` for i in 0..k-1; when k >= n every
    position is sampled exactly once.
    """
    if k >= n:
        return list(range(n))
    return [round(i * (n - 1) / (k - 1)) for i in range(k)]


def stage2_global_theme(catalog: SchemaCatalog, table: TableMeta,
                        sample_count: int, gateway: ModelGateway) -> str:
    """Theme/flow text inferred by the LLM from an even column sample."""
    if sample_count < 2:
        raise TreeError("sample_count must be >= 2")
    refs = table.columns
    sample = [refs[i] for i in even_sample_indices(len(refs), sample_count)]
    prompt = (
        f"TASK: table-theme\n"
        f"TABLE: {table.name} ({table.table_id})\n"
        f"SAMPLE COLUMNS:\n{_column_lines(catalog, sample)}\n"
        f"Describe the overall theme of this table and, if the order is "
        f"meaningful, its coarse progression, in 1-2 sentences."
    )
    return gateway.complete(ChatCall("tree_summary", prompt)).text.strip()


# -- stage 3: grouping plan ---------------------------------------------------


@dataclass(frozen=True)
class PlanGroup:
    label: str
    columns: tuple[ColumnRef, ...]  # contiguous span when the table is ordered


_ORDERED_GROUP_RE = re.compile(r"\[(\d+)\.\.(\d+)\]\s*=\s*([^,\n\]]+)")
_UNORDERED_GROUP_RE = re.compile(r"\{([\d,\s]+)\}\s*=\s*([^,\n]+)")


def _parse_plan(reply: str, refs: Sequence[ColumnRef], ordered: bool) -> list[PlanGroup] | None:
    """The reply's groups as a partition of ``refs``, or None.

    Both formats become listing positions: an ordered ``[lo..hi]`` is
    ``lo - lo0 .. hi - lo0``, with groups in span order. One check then
    rejects an empty group, an out-of-range or repeated position,
    incomplete coverage and a single group.
    """
    found: list[tuple[Sequence[int], str]] = []
    if ordered:
        lo0 = refs[0].ordinal
        spans = sorted((int(m.group(1)), int(m.group(2)), m.group(3).strip())
                       for m in _ORDERED_GROUP_RE.finditer(reply))
        found = [(range(lo - lo0, hi - lo0 + 1), label) for lo, hi, label in spans]
    else:
        for m in _UNORDERED_GROUP_RE.finditer(reply):
            try:
                positions = [int(x) for x in m.group(1).split(",") if x.strip()]
            except ValueError:
                return None
            found.append((positions, m.group(2).strip()))
    seen: set[int] = set()
    groups = []
    for positions, label in found:
        if not positions:
            return None
        for p in positions:  # stops at the first bad position, however long the span
            if not 0 <= p < len(refs) or p in seen:
                return None
            seen.add(p)
        groups.append(PlanGroup(label, tuple(refs[p] for p in sorted(positions))))
    if len(seen) != len(refs) or len(groups) < 2:
        return None  # a single group makes no progress; force fallback
    return groups


def repair_plan(groups: list[PlanGroup], min_group: int, max_groups: int,
                ordered: bool, centroids: Sequence[np.ndarray] | None = None) -> list[PlanGroup]:
    """Merge undersized groups, then enforce the group-count cap.

    Ordered tables: a scan merges each undersized group into its smaller
    adjacent neighbor (left on ties), restarting until stable. Unordered
    tables merge into the nearest-centroid group, so they need
    ``centroids`` when a group is undersized. Finally adjacent (or
    smallest) pairs merge until at most ``max_groups`` remain.
    """
    groups = list(groups)

    def merge(i: int, j: int):
        i, j = min(i, j), max(i, j)
        a, b = groups[i], groups[j]
        cols = a.columns + b.columns
        if not ordered:
            cols = tuple(sorted(cols, key=lambda r: r.sort_key))
        label = a.label if len(a.columns) >= len(b.columns) else b.label
        groups[i] = PlanGroup(label, cols)
        del groups[j]
        if centroids is not None:
            centroids[i] = centroids[i] + centroids[j]
            del centroids[j]

    changed = True
    while changed and len(groups) > 1:
        changed = False
        for i, g in enumerate(groups):
            if len(g.columns) >= min_group:
                continue
            if ordered:
                neighbors = [j for j in (i - 1, i + 1) if 0 <= j < len(groups)]
                target = min(neighbors, key=lambda j: (len(groups[j].columns), j))
            else:
                others = [j for j in range(len(groups)) if j != i]

                def _cos(j):
                    a, b = centroids[i], centroids[j]
                    denom = float(np.linalg.norm(a) * np.linalg.norm(b)) or 1.0
                    return float(np.dot(a, b)) / denom
                target = max(others, key=lambda j: (_cos(j), -j))
            merge(i, target)
            changed = True
            break
    while len(groups) > max_groups:
        if ordered:
            i = min(range(len(groups) - 1),
                    key=lambda i: (len(groups[i].columns) + len(groups[i + 1].columns), i))
            merge(i, i + 1)
        else:
            order = sorted(range(len(groups)), key=lambda i: (len(groups[i].columns), i))
            merge(order[0], order[1])
    return groups


def uniform_split(refs: Sequence[ColumnRef], fan_out: int, min_group: int) -> list[PlanGroup]:
    """Fallback plan: near-equal spans. Sized to respect ``min_group`` when

    possible; when the span is too small for two minimum-size groups the
    size floor is relaxed (the leaf budget is the invariant that must
    hold, not the floor)."""
    n = len(refs)
    g = min(fan_out, max(2, n // min_group)) if n >= 2 * min_group else 2
    g = min(g, n)
    base, extra = divmod(n, g)
    groups = []
    start = 0
    for i in range(g):
        size = base + (1 if i < extra else 0)
        groups.append(PlanGroup(f"part {i + 1}", tuple(refs[start:start + size])))
        start += size
    return groups


def stage3_conceptual_map(catalog: SchemaCatalog, table: TableMeta,
                          window_summaries: list[tuple[tuple[int, int], str]],
                          theme: str, params: TreeParams,
                          gateway: ModelGateway) -> tuple[PlanGroup, ...]:
    """Ask for a labeled partition of the table's columns and repair it.

    The reply must list groups as ``[lo..hi]=label`` lines (ordered) or
    ``{i,j,...}=label`` lines over listing positions (unordered). An
    unparseable or non-covering reply is re-prompted once, then the
    uniform fallback split applies.
    """
    refs = table.columns
    lo, hi = _span_of(refs)
    summary_lines = "\n".join(f"- [{a}..{b}] {s}" for (a, b), s in window_summaries)
    fmt = "[lo..hi]=label" if table.ordered else "{positions}=label (0-based listing positions)"
    base_prompt = (
        f"TASK: group-plan\n"
        f"TABLE: {table.name} ({table.table_id})\n"
        f"ORDERED: {'yes' if table.ordered else 'no'}\n"
        f"SPAN: {lo}..{hi}\n"
        f"FANOUT: {params.fan_out}\n"
        f"MIN_GROUP: {params.min_group}\n"
        f"THEME: {theme}\n"
        f"WINDOW SUMMARIES:\n{summary_lines}\n"
        f"Partition all columns into roughly {params.fan_out} labeled groups "
        f"(at most {params.fan_out * 2}), each of at least {params.min_group} "
        f"columns, one per line as {fmt}."
    )
    groups, _ = gateway.ask(
        ChatCall("tree_summary", base_prompt),
        lambda text: _parse_plan(text, refs, table.ordered),
        "\nYour previous reply could not be parsed or did not cover every "
        "column exactly once. Reply with group lines only.")
    if groups is None:
        logger.warning("grouping plan unusable for %s %s..%s; uniform fallback",
                       table.table_id, lo, hi)
        groups = uniform_split(refs, params.fan_out, params.min_group)
    else:
        centroids = None
        if not table.ordered and any(len(g.columns) < params.min_group for g in groups):
            centroids = _member_centroid_vectors(catalog, groups, gateway)
        groups = repair_plan(groups, params.min_group, params.fan_out * 2,
                             table.ordered, centroids)
        if len(groups) < 2:
            groups = uniform_split(refs, params.fan_out, params.min_group)
    return tuple(groups)


def _member_centroid_vectors(catalog: SchemaCatalog, groups: Sequence[PlanGroup],
                             gateway: ModelGateway) -> list[np.ndarray]:
    """Each group's summed member embedding, from one batch over all members."""
    matrix = embed_columns(catalog, [r for g in groups for r in g.columns], gateway)
    ends = np.cumsum([len(g.columns) for g in groups])
    return [matrix[end - len(g.columns):end].sum(axis=0) for g, end in zip(groups, ends)]


# -- stage 4: boundary refinement ---------------------------------------------

_MOVE_RE = re.compile(r"MOVE\s+(\d+)\s*->\s*(\d+)")


def stage4_refine_boundaries(catalog: SchemaCatalog, table: TableMeta,
                             plan: tuple[PlanGroup, ...], params: TreeParams,
                             gateway: ModelGateway) -> tuple[PlanGroup, ...]:
    """Re-scan an ordered table and let the LLM nudge group boundaries.

    At most ``switch_budget`` moves apply per pass, in scan order; a move
    that would break contiguity or the minimum group size is discarded
    (logged) and the original boundary kept.
    """
    refs = table.columns
    lo, hi = _span_of(refs)
    boundaries = [g.columns[0].ordinal for g in plan[1:]]
    if not boundaries:
        return plan
    labels = [g.label for g in plan]
    moves_used = 0
    for start, stop in window_partition(len(refs), params.window, params.min_group):
        w_lo, w_hi = refs[start].ordinal, refs[stop - 1].ordinal
        local = [b for b in boundaries if w_lo <= b <= w_hi]
        if not local:
            continue
        edges = [lo] + boundaries + [hi + 1]
        group_lines = "\n".join(
            f"[{edges[i]}..{edges[i + 1] - 1}]={label}" for i, label in enumerate(labels)
        )
        prompt = (
            f"TASK: boundary-check\n"
            f"TABLE: {table.name} ({table.table_id})\n"
            f"SPAN: {lo}..{hi}\n"
            f"WINDOW: {w_lo}..{w_hi}\n"
            f"BOUNDARIES: {', '.join(str(b) for b in local)}\n"
            f"GROUPS:\n{group_lines}\n"
            f"COLUMNS:\n{_column_lines(catalog, refs[start:stop])}\n"
            f"If a group should begin at a different column, reply with lines "
            f"'MOVE <old> -> <new>'; otherwise reply 'KEEP'."
        )
        reply = gateway.complete(ChatCall("tree_summary", prompt))
        for m in _MOVE_RE.finditer(reply.text):
            old, new = int(m.group(1)), int(m.group(2))
            if moves_used >= params.switch_budget:
                logger.info("boundary move %d->%d discarded: switch budget spent", old, new)
                continue
            if old not in boundaries:
                logger.info("boundary move %d->%d discarded: not a boundary", old, new)
                continue
            i = boundaries.index(old)
            prev_start = boundaries[i - 1] if i > 0 else lo
            next_start = boundaries[i + 1] if i + 1 < len(boundaries) else hi + 1
            if not (prev_start + params.min_group <= new <= next_start - params.min_group):
                logger.info("boundary move %d->%d discarded: breaks group sizes", old, new)
                continue
            boundaries[i] = new
            moves_used += 1
    edges = [lo] + boundaries + [hi + 1]  # refs[o - lo] is ordinal o
    return tuple(PlanGroup(label, tuple(refs[a - lo:b - lo]))
                 for label, a, b in zip(labels, edges, edges[1:]))


# -- per-table build ----------------------------------------------------------


def _summarize_leaf(catalog: SchemaCatalog, table: TableMeta,
                    refs: Sequence[ColumnRef], gateway: ModelGateway) -> str:
    lo, hi = _span_of(refs)
    prompt = (
        f"TASK: leaf-summary\n"
        f"TABLE: {table.name} ({table.table_id})\n"
        f"SPAN: {lo}..{hi}\n"
        f"COLUMNS:\n{_column_lines(catalog, refs)}\n"
        f"Write a 1-2 sentence summary of this span of columns."
    )
    return gateway.complete(ChatCall("tree_summary", prompt)).text.strip()


def _summarize_node(task: str, context: str, child_summaries: Sequence[str],
                    gateway: ModelGateway) -> str:
    lines = "\n".join(f"- {s}" for s in child_summaries)
    prompt = (
        f"TASK: {task}\n{context}"
        f"CHILD SUMMARIES:\n{lines}\n"
        f"Write a 1-2 sentence summary covering all of the above."
    )
    return gateway.complete(ChatCall("tree_summary", prompt)).text.strip()


FirstRound = tuple[list[tuple[tuple[int, int], str]], str]  # window summaries, theme


def block_first_round(catalog: SchemaCatalog, table: TableMeta, params: TreeParams,
                      gateway: ModelGateway) -> FirstRound:
    """A wide block's first round: its window summaries beside its theme."""
    windows, theme = gateway.concurrently([
        partial(stage1_window_summaries, catalog, table, params.window, gateway,
                params.min_group),
        partial(stage2_global_theme, catalog, table,
                min(len(table.columns), params.sample_count), gateway),
    ])
    return windows, theme


def build_table_tree(catalog: SchemaCatalog, table: TableMeta, params: TreeParams,
                     gateway: ModelGateway, relations: Relations | None = None,
                     first: FirstRound | None = None) -> dict[str, TreeNode]:
    """Build one table's subtree; the root node id is ``tbl:<table_id>``.

    Tables at or under the leaf budget become a root plus a single group
    leaf (so "leaf" uniformly means a span of columns and lineage depths
    stay comparable); wider tables go through the staged plan-and-recurse
    path. Every internal node carries an LLM summary.

    Within a block, the window summaries go out beside the theme
    (:func:`block_first_round`; a wide table's root block reuses
    ``first`` when given); the plan and the boundary re-scan follow one
    call at a time; then the child blocks build together, and the block's
    own summary comes last, with the block's sibling-relation call beside
    it when ``relations`` is not None (:func:`_summarize_parents`). Nodes
    are listed in post-order, as a serial depth-first build lists them.
    """
    root_id = f"tbl:{table.table_id}"

    def make_leaf(node_id: str, refs: Sequence[ColumnRef]) -> TreeNode:
        return TreeNode(
            node_id=node_id, kind=NodeKind.GROUP_LEAF,
            summary=_summarize_leaf(catalog, table, refs, gateway),
            span=(table.table_id, refs[0].ordinal, refs[-1].ordinal) if table.ordered else None,
            members=tuple(refs),
        )

    def build_block(node_id: str, refs: Sequence[ColumnRef], kind: NodeKind,
                    first: FirstRound | None = None) -> list[TreeNode]:
        # the block's subtree in post-order: each child's subtree, then the block
        if len(refs) <= params.leaf_budget:
            return [make_leaf(node_id, refs)]
        view = replace(table, columns=tuple(refs))
        windows, theme = first or block_first_round(catalog, view, params, gateway)
        plan = stage3_conceptual_map(catalog, view, windows, theme, params, gateway)
        if table.ordered:
            plan = stage4_refine_boundaries(catalog, view, plan, params, gateway)
        subtrees = gateway.concurrently([
            partial(build_block, f"{node_id}.{gi}", group.columns, NodeKind.WITHIN_TABLE)
            for gi, group in enumerate(plan)
        ])
        context = f"TABLE: {table.name} ({table.table_id})\nTHEME: {theme}\n"
        children = [(sub[-1].node_id, sub[-1].summary) for sub in subtrees]
        [summary] = _summarize_parents([(node_id, "node-summary", context, children)],
                                       gateway, relations)
        node = TreeNode(
            node_id=node_id, kind=kind, summary=summary,
            children=tuple(cid for cid, _ in children),
            span=(table.table_id, refs[0].ordinal, refs[-1].ordinal) if table.ordered else None,
        )
        return [n for sub in subtrees for n in sub] + [node]

    n = len(table.columns)
    if n > params.leaf_budget:
        return {node.node_id: node for node in build_block(root_id, table.columns,
                                                           NodeKind.TABLE_ROOT, first)}
    leaf = make_leaf(f"{root_id}.0", table.columns)
    root = TreeNode(
        node_id=root_id, kind=NodeKind.TABLE_ROOT,
        summary=table.description.strip() or leaf.summary,
        children=(leaf.node_id,),
        span=(table.table_id, 0, n - 1) if table.ordered else None,
    )
    return {leaf.node_id: leaf, root_id: root}


# -- database-level clustering ------------------------------------------------


UNIFORM_READ_MIN = 4096  # block entries below which reading beats a uniform lookup


def plan_merges(dist: np.ndarray, threshold: float,
                ) -> tuple[list[tuple[int, int]], list[float], list[int]]:
    """Average-linkage merge plan over a cosine-distance matrix.

    Clusters are numbered as they appear: ``0..n-1`` are the inputs and
    ``n + k`` is the cluster made by merge ``k``. The nearest pair merges
    first while its distance stays at or under ``threshold``; exact ties
    go to the pair whose smallest members come first. Each merge is
    ``(earlier-listed cluster, later cluster)`` in a listing that starts
    in input order and appends each merged cluster at its end. A pair's
    distance is the mean of its block of ``dist`` with the earlier-listed
    cluster's items as rows, in listing order, so every distance is
    bit-for-bit that one ``mean`` call. Returns the merges, the distance
    each merged at (its height), and the surviving clusters, ordered by
    their smallest member.

    Besides its block means, a merge costs O(n): it reads one row to find
    the pair, and rescans a row only once no column holds its minimum. A
    block of one value (tables with equal summaries) is not read: the
    mean of ``k`` copies of ``v`` is summed once per ``(v, k)``.
    """
    # Per slot (row and column of ``live``): live[s, t] is the distance
    # between the clusters in slots s and t, inf on dead slots and the
    # diagonal; nearest[s] is the minimum of row s and ties[s] the number
    # of columns that hold it; rank[s] the smallest member; listed[s] the
    # position in the listing; cluster[s] the number.
    n = len(dist)
    live = np.full((n, n), np.inf)
    upper = np.triu_indices(n, 1)
    live[upper] = live[upper[::-1]] = dist[upper]
    nearest = live.min(axis=1)
    ties = (live == nearest[:, None]).sum(axis=1)
    # uniform[s, t]: the one value of the block with slot s's items as rows
    # and slot t's as columns, nan once the block holds two values
    uniform = dist.astype(float)
    rank = np.arange(n)
    listed = np.arange(n)
    cluster = np.arange(n)
    items = {s: np.array([s]) for s in range(n)}  # live slot -> members, in summation order
    # the live clusters of each size: their slots, and their members as rows
    by_size = {1: (np.arange(n), np.arange(n)[:, None])}
    merges: list[tuple[int, int]] = []
    heights: list[float] = []

    def unlist(slot: int):
        slots, members = by_size.pop(len(items[slot]))
        keep = slots != slot
        if keep.any():
            by_size[len(items[slot])] = (slots[keep], members[keep])

    def block_means(members: np.ndarray, merged: np.ndarray,
                    value: np.ndarray | None) -> np.ndarray:
        # the mean of a uniform block depends only on its value and size,
        # not on its layout, so each value is summed once; blocks too small
        # to repay the lookup are read
        def read(rows: np.ndarray) -> np.ndarray:
            return dist[rows[:, :, None], merged].reshape(len(rows), -1).mean(axis=1)

        if value is None or members.size * len(merged) < UNIFORM_READ_MIN:
            return read(members)
        mixed = np.isnan(value)
        means = np.empty(len(members))
        if mixed.any():
            means[mixed] = read(members[mixed])
        for v in set(value[~mixed].tolist()):
            means[value == v] = np.full(members.shape[1] * len(merged), v).mean()
        return means

    while len(items) > 1:
        d = nearest.min()
        if d > threshold:
            break
        # the pair with the smallest (lo, hi) member ranks: every pair at d
        # joins two rows whose minimum is d, so the lowest-ranked such row
        # is in it, and its own row alone gives the partner
        rows = np.flatnonzero(nearest == d)
        s = rows[np.argmin(rank[rows])]
        cols = np.flatnonzero(live[s] == d)
        t = cols[np.argmin(rank[cols])]
        a, b = sorted((int(s), int(t)), key=lambda slot: listed[slot])
        merges.append((int(cluster[a]), int(cluster[b])))
        heights.append(float(d))
        cluster[a] = n + len(merges) - 1
        listed[a] = n + len(merges)
        rank[a] = min(rank[a], rank[b])
        unlist(a)
        unlist(b)
        merged = np.concatenate((items[a], items.pop(b)))
        items[a] = merged
        if not by_size:
            break
        # every other live cluster is listed before the merged one, so its
        # items are the rows; clusters of one size share one ``mean`` call
        others = np.concatenate([slots for slots, _ in by_size.values()])
        # a block with the merged cluster is uniform where both parts' were,
        # with one value
        column = uniform[others, a]
        column[column != uniform[others, b]] = np.nan
        uniform[others, a] = column
        row = uniform[a, others]
        row[row != uniform[b, others]] = np.nan
        uniform[a, others] = row
        lookup = not np.isnan(column).all()
        fresh = np.concatenate([block_means(members, merged, uniform[slots, a] if lookup else None)
                                for slots, members in by_size.values()])
        # a row keeps its minimum while another column still holds it; only
        # a row that lost every holder of its minimum is rescanned
        row_min = nearest[others]
        held = ties[others] - (live[others, a] == row_min) - (live[others, b] == row_min)
        live[b, :] = live[:, b] = nearest[b] = np.inf
        live[others, a] = live[a, others] = fresh
        lower = fresh < row_min
        nearest[others] = np.where(lower, fresh, row_min)
        ties[others] = np.where(lower, 1, held + (fresh == row_min))
        stale = others[ties[others] == 0]
        rescanned = live[stale]
        nearest[stale] = rescanned.min(axis=1)
        ties[stale] = (rescanned == nearest[stale, None]).sum(axis=1)
        nearest[a] = fresh.min()
        ties[a] = np.count_nonzero(fresh == nearest[a])
        if len(merged) in by_size:
            slots, members = by_size[len(merged)]
            by_size[len(merged)] = (np.append(slots, a), np.vstack((members, merged)))
        else:
            by_size[len(merged)] = (np.array([a]), merged[None, :])
    survivors = sorted(items, key=lambda slot: rank[slot])
    return merges, heights, [int(cluster[slot]) for slot in survivors]


TIE_TOLERANCE = 1e-9  # merge heights this close are one height (float noise)


def collapse_tied_merges(n: int, merges: Sequence[tuple[int, int]], heights: Sequence[float],
                         ) -> list[tuple[int, tuple[int, ...]]]:
    """The multidendrogram of a merge plan: tied merges make one n-ary cluster.

    ``merges`` and ``heights`` are :func:`plan_merges`' plan over ``n``
    inputs; a merge's height is the average-linkage distance between its
    two clusters. When a merge is within ``TIE_TOLERANCE`` of a child
    cluster's height, it takes in that child's children, and the child is
    not kept (Fernández and Gómez, "Solving non-uniqueness in agglomerative
    hierarchical clustering using multidendrograms", 2008). A tolerance,
    not equality: the heights of identical rows differ in the last bits.
    Returns the kept clusters in merge order, each with its children, all
    in the plan's numbering.
    """
    children: dict[int, list[int]] = {}  # kept clusters only
    for c, ((a, b), h) in enumerate(zip(merges, heights), start=n):
        kids, todo = [], [a, b]
        while todo:
            child = todo.pop()
            if child in children and abs(h - heights[child - n]) <= TIE_TOLERANCE:
                todo.extend(children.pop(child))
            else:
                kids.append(child)
        children[c] = kids
    return [(c, tuple(kids)) for c, kids in children.items()]


def cluster_tables(table_trees: Sequence[dict[str, TreeNode]], params: TreeParams,
                   gateway: ModelGateway, side: Side,
                   relations: Relations | None = None) -> ContextTree:
    """Merge per-table subtrees into one connected tree.

    Each subtree lists its root last, as :func:`build_table_tree` does,
    and its root's summary is the text the table is clustered on and that
    cluster prompts list. :func:`build_context_tree` passes a narrow
    table's finished subtree and, for a wide table still being built, a
    stand-in root that holds its theme, and puts the finished subtree in
    its place afterwards.

    Average-linkage agglomerative merging on cosine distance between
    those texts' embeddings (:func:`plan_merges`): the nearest pair merges
    first (ties broken by the lexicographically smallest table-id pair)
    while the distance stays at or under the cutoff; whatever remains is
    joined under a final database root. A single table's root doubles as
    the database root.

    Tied merges then collapse (:func:`collapse_tied_merges`): a merge
    whose height is within ``TIE_TOLERANCE`` (1e-9, float noise) of a
    child cluster's takes in that child's children, so tables with equal
    texts sit under one n-ary cluster, not a chain of binary ones. The
    kept clusters are ``grp:1..m`` in merge order. The plan needs no
    summary, so the cluster summaries go out one level at a time, each
    level's calls together; a cluster's level is one above its highest
    child's, and its prompt lists every child's text. When ``relations``
    is not None, each cluster's and the database root's sibling-relation
    call goes beside its own summary (:func:`_summarize_parents`). The
    returned tree holds every snippet in ``relations`` when it returns,
    in parent-id order.
    """
    if not table_trees:
        raise TreeError("no table trees to cluster")
    nodes: dict[str, TreeNode] = {}
    for sub in table_trees:
        nodes.update(sub)
    roots = sorted(next(reversed(sub)) for sub in table_trees)
    root = roots[0]
    if len(roots) > 1:
        vectors = gateway.embed_batch([nodes[r].summary for r in roots])
        dist = 1.0 - vectors @ vectors.T
        merges, heights, survivors = plan_merges(dist, params.cluster_threshold)
        ids = dict(enumerate(roots))
        levels = dict.fromkeys(range(len(roots)), 0)
        kids: dict[str, tuple[str, ...]] = {}
        for k, (c, children) in enumerate(collapse_tied_merges(len(roots), merges, heights),
                                          start=1):
            ids[c] = f"grp:{k}"
            levels[c] = 1 + max(levels[child] for child in children)
            kids[ids[c]] = tuple(sorted(ids[child] for child in children))
        summaries = {r: nodes[r].summary for r in roots}
        for level in range(1, max(levels.values()) + 1):
            batch = [ids[c] for c, lv in levels.items() if lv == level]
            texts = _summarize_parents([
                (g, "cluster-summary", "", [(child, summaries[child]) for child in kids[g]])
                for g in batch
            ], gateway, relations)
            summaries.update(zip(batch, texts))
        for g, children in kids.items():
            nodes[g] = TreeNode(node_id=g, kind=NodeKind.CLUSTER, summary=summaries[g],
                                children=children)
        root = ids[survivors[0]]
        if len(survivors) > 1:
            root = "db:root"
            children = [(ids[c], summaries[ids[c]]) for c in survivors]
            [summary] = _summarize_parents([(root, "node-summary", "", children)],
                                           gateway, relations)
            nodes[root] = TreeNode(node_id=root, kind=NodeKind.DB_ROOT, summary=summary,
                                   children=tuple(cid for cid, _ in children))
    return ContextTree(side, root, nodes, params, _in_parent_order(relations))


# -- sibling relation annotation ----------------------------------------------


def _alias(i: int) -> str:
    letters = ""
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


_RELATION_RE = re.compile(r"^\s*([A-Z]+)\s*->\s*([A-Z]+)\s*:\s*(.+?)\s*$", re.MULTILINE)


def annotate_sibling_relations(parent_id: str, children: Sequence[tuple[str, str]],
                               gateway: ModelGateway) -> list[RelationSnippet]:
    """Ask for directed 1-2 sentence relations between a node's children.

    ``children`` holds each child's ``(node id, summary)`` in the parent's
    order. Replies use alias arrows (``A -> B: text``). Proposals naming
    unknown aliases are dropped and logged; survivors are capped in reply
    order at ``RELATIONS_PER_NODE`` incident snippets per sibling and
    ``RELATIONS_PER_PARENT`` total.
    """
    if len(children) < 2:
        return []
    aliases = {_alias(i): cid for i, (cid, _) in enumerate(children)}
    sibling_lines = "\n".join(
        f"{a}={cid}: {summary}" for a, (cid, summary) in zip(aliases, children)
    )
    prompt = (
        f"TASK: sibling-relations\n"
        f"PARENT: {parent_id}\n"
        f"SIBLINGS:\n{sibling_lines}\n"
        f"Propose between {RELATIONS_ASKED_MIN} and {RELATIONS_PER_PARENT} directed "
        f"relations between these parts (fewer if none exist), one per line as "
        f"'A -> B: one or two sentences'."
    )
    reply = gateway.complete(ChatCall("relation", prompt, timeout=RELATION_TIMEOUT))
    incident: dict[str, int] = {}
    kept: list[RelationSnippet] = []
    for m in _RELATION_RE.finditer(reply.text):
        src, dst, text = m.group(1), m.group(2), m.group(3)
        if src not in aliases or dst not in aliases or src == dst:
            logger.info("dropping relation with unknown sibling %s -> %s", src, dst)
            continue
        if len(kept) >= RELATIONS_PER_PARENT:
            break
        from_id, to_id = aliases[src], aliases[dst]
        if max(incident.get(from_id, 0), incident.get(to_id, 0)) >= RELATIONS_PER_NODE:
            continue
        kept.append(RelationSnippet(from_id, to_id, text))
        incident[from_id] = incident.get(from_id, 0) + 1
        incident[to_id] = incident.get(to_id, 0) + 1
    return kept


Relations = dict[str, list[RelationSnippet]]  # parent id -> its sibling snippets


def _in_parent_order(relations: Relations | None) -> list[RelationSnippet]:
    return [r for parent in sorted(relations or ()) for r in relations[parent]]


def _summarize_parents(parents: Sequence[tuple[str, str, str, Sequence[tuple[str, str]]]],
                       gateway: ModelGateway, relations: Relations | None) -> list[str]:
    """Each parent's summary, its sibling-relation call beside it.

    ``parents`` holds ``(parent id, task, context, children)``, with each
    child as ``(node id, summary)``. The summaries and, when ``relations``
    is not None, the relation call of every parent with two or more
    children go out in one fan-out: both read the same child summaries.
    Snippets land in ``relations[parent id]``. Returns the summaries in
    ``parents`` order.
    """
    thunks = [partial(_summarize_node, task, context, [s for _, s in children], gateway)
              for _, task, context, children in parents]
    annotated = [] if relations is None else [
        (parent_id, children) for parent_id, _, _, children in parents if len(children) >= 2]
    done = gateway.concurrently(thunks + [
        partial(annotate_sibling_relations, parent_id, children, gateway)
        for parent_id, children in annotated])
    if relations is not None:
        relations.update(zip([parent_id for parent_id, _ in annotated], done[len(thunks):]))
    return done[:len(thunks)]


# -- full build ---------------------------------------------------------------


def build_context_tree(catalog: SchemaCatalog, params: TreeParams, gateway: ModelGateway,
                       annotate_relations: bool = False) -> ContextTree:
    """Build the whole per-side tree: per-table subtrees and their clustering.

    Two fan-outs, in which no thunk waits on another. The first holds every
    table's first round: a narrow table's whole subtree, whose root
    summary is its description or its leaf summary, and a wide table's
    root window summaries beside its theme. The second runs each wide
    table's remaining chain (:func:`build_table_tree` reusing its first
    round) beside the clustering chain (:func:`cluster_tables`), which
    clusters and summarizes the tables on their first-round texts: a
    narrow table's root summary and a wide table's theme. A wide table's
    root keeps its own summary in the tree.

    With ``annotate_relations``, each parent with two or more children
    sends its relation call beside its own summary, so no call follows the
    clustering; the snippets are kept in parent-id order. A build keeps
    no state of its own between attempts: to resume an aborted build,
    rerun it through a gateway with a ``DiskCache``. It sends the same
    prompts, so every call that finished before the abort is a cache hit.
    """
    relations: Relations | None = {} if annotate_relations else None
    wide = [len(t.columns) > params.leaf_budget for t in catalog.tables]
    firsts = gateway.concurrently([
        partial(block_first_round if w else build_table_tree, catalog, t, params, gateway)
        for t, w in zip(catalog.tables, wide)])
    # what each table is clustered on; a wide table's stand-in root holds its theme
    stand_ins = [{f"tbl:{t.table_id}": TreeNode(f"tbl:{t.table_id}", NodeKind.TABLE_ROOT,
                                                 first[1])} if w else first
                 for t, w, first in zip(catalog.tables, wide, firsts)]
    *finished, clustered = gateway.concurrently([
        partial(build_table_tree, catalog, t, params, gateway, relations, first)
        for t, w, first in zip(catalog.tables, wide, firsts) if w
    ] + [partial(cluster_tables, stand_ins, params, gateway, catalog.side, relations)])
    finished = iter(finished)
    nodes: dict[str, TreeNode] = {}
    for w, sub in zip(wide, stand_ins):
        nodes.update(next(finished) if w else sub)
    nodes.update((n, node) for n, node in clustered.nodes.items() if n not in nodes)
    return ContextTree(catalog.side, clustered.root, nodes, params, _in_parent_order(relations))


# -- context packs ------------------------------------------------------------


@dataclass(frozen=True)
class ContextPack:
    column: ColumnRef
    lineage_summaries: tuple[tuple[int, str], ...]  # (depth, summary), leaf -> root
    relation_lines: tuple[str, ...]
    rendered: str


def _render_pack(header: list[str], levels: list[tuple[int, str]],
                 relations: list[str]) -> str:
    lines = list(header)
    lines.append("Path to root (summaries):")
    for i, (_, summary) in enumerate(levels):
        lines.append(f"- [{i + 1}] {summary}")
    if relations:
        lines.append("Relation snippets (selected):")
        lines.extend(f"- {r}" for r in relations)
    return "\n".join(lines)


def select_relation_lines(tree: ContextTree, path: Sequence[TreeNode]) -> list[str]:
    """Relation snippets touching the lineage, nearest the leaf first.

    A snippet ranks by its end nearest the leaf, then by its place in
    ``tree.relations``; only the path's nodes are looked up.
    """
    nearest: dict[int, tuple[int, str]] = {}  # snippet order -> (path position, text)
    for i, node in enumerate(path):  # 0 = leaf
        for order, text in tree.relations_at.get(node.node_id, ()):
            nearest.setdefault(order, (i, text))
    scored = sorted((i, order, text) for order, (i, text) in nearest.items())
    return [text for _, _, text in scored[:PACK_RELATIONS]]


def middle_out_drop_order(n_levels: int) -> list[int]:
    """Indices of interior lineage levels in drop order (center first,
    root-ward on ties); leaf (0) and root (n-1) are never dropped."""
    interior = list(range(1, n_levels - 1))
    center = (n_levels - 1) / 2
    return sorted(interior, key=lambda i: (abs(i - center), -i))


def build_context_pack(tree: ContextTree, catalog: SchemaCatalog, column: ColumnRef,
                       budget: int) -> ContextPack:
    """Budgeted evidence block for one column.

    Renders the column header, the leaf-to-root lineage summaries, and up
    to ``PACK_RELATIONS`` relation snippets. Over budget, relation snippets
    drop first (least relevant first), then interior lineage levels drop
    middle-out; the leaf and root summaries always survive. The rendered
    text never exceeds ``budget``; a budget below the minimal pack raises
    :class:`PackBudgetError` naming the required minimum.
    """
    path = lineage(tree, column)
    meta = catalog.meta(column)
    header = [f"Column: {catalog.display_name(column)}"]
    if meta.description:
        header.append(f"Description: {meta.description}")
    depth_max = len(path) - 1
    levels = [(depth_max - i, node.summary) for i, node in enumerate(path)]
    relations = select_relation_lines(tree, path)

    minimal_levels = [levels[0]] if len(levels) == 1 else [levels[0], levels[-1]]
    minimal = len(_render_pack(header, minimal_levels, []))
    if budget < minimal:
        raise PackBudgetError(budget, minimal)

    relations = list(relations)
    while relations and len(_render_pack(header, levels, relations)) > budget:
        relations.pop()
    keep = list(range(len(levels)))
    for idx in middle_out_drop_order(len(levels)):
        if len(_render_pack(header, [levels[i] for i in keep], relations)) <= budget:
            break
        keep.remove(idx)
    kept_levels = [levels[i] for i in keep]
    rendered = _render_pack(header, kept_levels, relations)
    assert len(rendered) <= budget
    return ContextPack(
        column=column,
        lineage_summaries=tuple(kept_levels),
        relation_lines=tuple(relations),
        rendered=rendered,
    )


_SHARED_ID_RE = re.compile(r"S[1-9][0-9]*")


def render_prompt_packs(packs: Sequence[ContextPack | None]) -> tuple[str, list[str | None]]:
    """The packs of one prompt as it shows them, each line said once.

    A pack drops its header, which the prompt's row for the column already
    gives, and becomes ``path to root: <leaf> > ... > <root>`` plus, with
    relation snippets, ``relations: <r1> | <r2>``. A line said twice or
    more across ``packs`` goes once into the shared section as
    ``- S<n>: <line>`` (ids in first-use order) and is cited by id. A line
    no longer than its id stays spelled out, so no prompt form outgrows
    its ``rendered`` pack; one that reads like an id or holds ``>`` or
    ``|`` always gets an id, so every item reads back exactly. Returns the
    shared section ("" when nothing is shared) and one prompt form per
    entry of ``packs``, None for None.
    """
    said: Counter[str] = Counter()
    for pack in filter(None, packs):
        said.update(s for _, s in pack.lineage_summaries)
        said.update(pack.relation_lines)
    ids: dict[str, str] = {}

    def cite(line: str) -> str:
        if line not in ids:
            sid = f"S{len(ids) + 1}"
            misread = _SHARED_ID_RE.fullmatch(line) or ">" in line or "|" in line
            if not (misread or (said[line] >= 2 and len(line) > len(sid))):
                return line
            ids[line] = sid
        return ids[line]

    bodies: list[str | None] = []
    for pack in packs:
        if pack is None:
            bodies.append(None)
            continue
        lines = ["path to root: " + " > ".join(cite(s) for _, s in pack.lineage_summaries)]
        if pack.relation_lines:
            lines.append("relations: " + " | ".join(cite(r) for r in pack.relation_lines))
        bodies.append("\n".join(lines))
    if not ids:
        return "", bodies
    shared = [f"- {sid}: {line}" for line, sid in ids.items()]
    return "\n".join(["Shared context (cited by id below):"] + shared), bodies


# -- serialization ------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    d = {"kind": node.kind.value, "summary": node.summary, "children": list(node.children)}
    if node.span is not None:
        d["span"] = [node.span[0], node.span[1], node.span[2]]
    if node.members is not None:
        d["members"] = [[r.table_id, r.ordinal] for r in node.members]
    return d


def _node_from_dict(node_id: str, d: dict, side: Side) -> TreeNode:
    span = d.get("span")
    members = d.get("members")
    return TreeNode(
        node_id=node_id,
        kind=NodeKind(d["kind"]),
        summary=d["summary"],
        children=tuple(d.get("children", ())),
        span=(span[0], int(span[1]), int(span[2])) if span else None,
        members=tuple(ColumnRef(side, m[0], int(m[1])) for m in members) if members else None,
    )


def tree_to_dict(tree: ContextTree) -> dict:
    return {
        "format": 1,
        "side": tree.side.value,
        "root": tree.root,
        "params": asdict(tree.params),
        "nodes": {nid: _node_to_dict(n) for nid, n in tree.nodes.items()},
        "relations": [
            [r.from_node, r.to_node, r.relation_text] for r in tree.relations
        ],
    }


def _content_hash(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_tree(tree: ContextTree, catalog: SchemaCatalog, path):
    doc = {**tree_to_dict(tree), "masked": catalog.masked}
    doc["content_hash"] = _content_hash(doc)
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_tree(path, catalog: SchemaCatalog) -> ContextTree:
    """Read a tree that :func:`save_tree` wrote over ``catalog``'s columns and
    masking state; an edited file, or any other tree, is rejected."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise TreeError(f"a tree file holds a JSON object, got {type(doc).__name__}")
    if doc.pop("content_hash", None) != _content_hash(doc):
        raise TreeError("content hash does not match the tree: the file was edited or is "
                        "corrupt; rebuild it")
    side = as_side(doc["side"])
    params = TreeParams(**doc["params"])
    nodes = {nid: _node_from_dict(nid, nd, side) for nid, nd in doc["nodes"].items()}
    relations = [RelationSnippet(a, b, t) for a, b, t in doc.get("relations", [])]
    tree = ContextTree(side, doc["root"], nodes, params, relations)
    if tree.leaf_of.keys() != set(catalog.refs()):
        raise TreeError(f"the tree's {len(tree.leaf_of)} columns are not the "
                        f"{catalog.column_count} of the {catalog.side.value} catalog; "
                        f"rebuild it from that catalog")
    if mismatch := masking_mismatch(doc, catalog):
        raise TreeError(f"the tree {mismatch}")
    return tree
