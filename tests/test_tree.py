import json
import math
import re
import threading
import zlib

import numpy as np
import pytest

from construm.catalog import Side
from construm.gateway import MAX_IN_FLIGHT, DiskCache, TransportError
from construm.tree import (
    TIE_TOLERANCE,
    ContextTree,
    NodeKind,
    PlanGroup,
    TreeError,
    TreeNode,
    TreeParams,
    annotate_sibling_relations,
    build_context_tree,
    build_table_tree,
    cluster_tables,
    collapse_tied_merges,
    even_sample_indices,
    lineage,
    plan_merges,
    load_tree,
    repair_plan,
    save_tree,
    stage1_window_summaries,
    stage2_global_theme,
    stage3_conceptual_map,
    stage4_refine_boundaries,
    tree_to_dict,
    uniform_split,
    window_partition,
)
from helpers import (
    PositionalEmbeddingBackend,
    RunningCount,
    build_catalog,
    cap_merge_oracle,
    chain_bots,
    greedy_merge_oracle,
    leaf_coverage,
    make_gateway,
    random_catalog,
    table_doc,
    tree_bot,
    tree_gateway,
    unit,
)

PARAMS = TreeParams()


def ordered_catalog(n, table_id="t0", seed=0):
    return random_catalog(seed, "source", n=n, table_id=table_id)


# -- stage 1 --------------------------------------------------------------------


def test_window_partition_exact_fit():
    assert window_partition(250, 250, 10) == [(0, 250)]


def test_window_partition_short_tail_merges():
    # 251 columns: the 1-column tail is under min_group, so one window of 251
    assert window_partition(251, 250, 10) == [(0, 251)]
    assert window_partition(505, 250, 10) == [(0, 250), (250, 505)]
    assert window_partition(530, 250, 10) == [(0, 250), (250, 500), (500, 530)]


def test_window_partition_properties():
    for n in (1, 9, 10, 99, 250, 251, 499, 500, 501, 2500):
        spans = window_partition(n, 250, 10)
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c and b > a
        if len(spans) > 1:
            assert all(b - a >= 10 for a, b in spans)
        assert all(b - a <= 250 + 10 - 1 for a, b in spans)


def test_stage1_single_window_for_250():
    cat = ordered_catalog(250)
    out = stage1_window_summaries(cat, cat.tables[0], 250, tree_gateway(), 10)
    assert len(out) == 1
    assert out[0][0] == (0, 249)
    assert out[0][1] == "S[0..249]"


def test_stage1_unordered_batches_partition():
    cat = random_catalog(1, "source", n=30, ordered=False)
    out = stage1_window_summaries(cat, cat.tables[0], 10, tree_gateway(), 1)
    assert [span for span, _ in out] == [(0, 9), (10, 19), (20, 29)]


# -- stage 2 --------------------------------------------------------------------


def test_even_sample_indices_frozen_and_properties():
    # round(i * 99 / 4) for i in 0..4
    assert even_sample_indices(100, 5) == [0, 25, 50, 74, 99]
    for n, k in [(100, 5), (37, 7), (1000, 20), (21, 20)]:
        idx = even_sample_indices(n, k)
        assert idx[0] == 0 and idx[-1] == n - 1
        assert all(a < b for a, b in zip(idx, idx[1:]))
        # each index sits within rounding distance of the exact even grid
        for i, got in enumerate(idx):
            assert abs(got - i * (n - 1) / (k - 1)) <= 0.5


def test_even_sample_clamps_to_all_columns():
    assert even_sample_indices(5, 5) == [0, 1, 2, 3, 4]
    assert even_sample_indices(5, 9) == [0, 1, 2, 3, 4]


def test_stage2_theme_is_stored_verbatim():
    cat = ordered_catalog(40)
    gw = make_gateway(rules=(), default="THEME: employment history",
                      responder=None)
    theme = stage2_global_theme(cat, cat.tables[0], 5, gw)
    assert theme == "THEME: employment history"


def test_stage2_requires_two_samples():
    cat = ordered_catalog(10)
    with pytest.raises(TreeError):
        stage2_global_theme(cat, cat.tables[0], 1, tree_gateway())


# -- stage 3 --------------------------------------------------------------------


def plan_reply_bot(reply):
    def bot(prompt):
        if "TASK: group-plan" in prompt:
            return reply
        return None
    return bot


def make_plan(cat, reply, params=PARAMS):
    gw = make_gateway(responder=chain_bots(plan_reply_bot(reply), tree_bot))
    table = cat.tables[0]
    windows = stage1_window_summaries(cat, table, params.window, gw, params.min_group)
    theme = stage2_global_theme(cat, table, 5, gw)
    return stage3_conceptual_map(cat, table, windows, theme, params, gw)


def test_stage3_valid_plan_accepted_verbatim():
    cat = ordered_catalog(250)
    plan = make_plan(cat, "groups: [0..119]=demographics, [120..249]=pensions")
    assert [(g.label, g.columns[0].ordinal, g.columns[-1].ordinal) for g in plan] \
        == [("demographics", 0, 119), ("pensions", 120, 249)]


def test_stage3_undersized_group_merges_like_greedy_oracle():
    cat = ordered_catalog(250)
    plan = make_plan(cat, "[0..2]=tiny, [3..119]=a, [120..249]=b")
    sizes = [len(g.columns) for g in plan]
    assert sizes == greedy_merge_oracle([3, 117, 130], m=10)
    # contiguity preserved
    cursor = 0
    for g in plan:
        assert g.columns[0].ordinal == cursor
        cursor = g.columns[-1].ordinal + 1
    assert cursor == 250


def test_repair_matches_oracle_on_random_size_sequences():
    rng = np.random.default_rng(5)
    cat = ordered_catalog(400)
    refs = list(cat.refs())
    for _ in range(25):
        sizes = []
        remaining = 400
        while remaining > 0:
            s = int(rng.integers(1, 60))
            s = min(s, remaining)
            sizes.append(s)
            remaining -= s
        groups, start = [], 0
        for i, s in enumerate(sizes):
            groups.append(PlanGroup(f"g{i}", tuple(refs[start:start + s])))
            start += s
        repaired = repair_plan(groups, min_group=10, max_groups=10**9, ordered=True)
        assert [len(g.columns) for g in repaired] == greedy_merge_oracle(sizes, 10)


def test_stage3_garbage_twice_falls_back_to_uniform_split():
    cat = ordered_catalog(250)
    plan = make_plan(cat, "total nonsense")
    assert [len(g.columns) for g in plan] == [50, 50, 50, 50, 50]


def test_stage3_single_group_plan_rejected():
    cat = ordered_catalog(250)
    plan = make_plan(cat, "[0..249]=everything")
    assert len(plan) == 5  # fell back to the uniform split


def test_stage3_unordered_sets():
    cat = random_catalog(2, "source", n=30, ordered=False)
    reply = ("{" + ",".join(map(str, range(0, 15))) + "}=first, "
             "{" + ",".join(map(str, range(15, 30))) + "}=second")
    plan = make_plan(cat, reply)
    assert [len(g.columns) for g in plan] == [15, 15]
    members = [r for g in plan for r in g.columns]
    assert sorted(r.ordinal for r in members) == list(range(30))


def test_stage3_unordered_undersized_merges_into_nearest_centroid():
    cols = []
    for i in range(12):
        cols.append((f"a{i}", "alpha measurement of the first concept family"))
    for i in range(12):
        cols.append((f"b{i}", "beta reading from the second concept family"))
    for i in range(6):
        cols.append((f"c{i}", "beta reading from the second concept family too"))
    cat = build_catalog("source", [table_doc("t0", cols, ordered=False)])
    reply = ("{" + ",".join(map(str, range(0, 12))) + "}=alpha, "
             "{" + ",".join(map(str, range(12, 24))) + "}=beta, "
             "{" + ",".join(map(str, range(24, 30))) + "}=tiny")
    plan = make_plan(cat, reply)
    # the 6-member group is under min_group and joins the beta-like group
    assert sorted(len(g.columns) for g in plan) == [12, 18]
    big = max(plan, key=lambda g: len(g.columns))
    assert {r.ordinal for r in big.columns} == set(range(12, 30))


def settle_plan(cat, reply):
    """Stage 3's plan for a table whose every plan reply is ``reply``, and
    the number of group-plan prompts it sent."""
    gw = make_gateway(responder=chain_bots(plan_reply_bot(reply), tree_bot))
    plan = stage3_conceptual_map(cat, cat.tables[0], [((0, 0), "a window")], "a theme",
                                 PARAMS, gw)
    asks = sum("TASK: group-plan" in p for _, p in gw.chat_backend.call_log)
    return plan, asks


def uniform_plan(cat):
    return tuple(uniform_split(cat.tables[0].columns, PARAMS.fan_out, PARAMS.min_group))


def positions(*spans):
    return "{" + ",".join(str(p) for lo, hi in spans for p in range(lo, hi + 1)) + "}"


@pytest.mark.parametrize("reply", [
    "[0..130]=a, [120..249]=b",                    # overlap
    "[0..119]=a, [121..249]=b",                    # gap
    "[0..119]=a, [120..250]=b",                    # a span past the table
    "[0..119]=a, [120..119]=none, [120..249]=b",   # hi < lo
    "[0..249]=everything",                         # a single group
], ids=["overlap", "gap", "past-table", "hi-below-lo", "single-group"])
def test_stage3_rejected_ordered_plan_reprompts_then_splits_uniformly(reply):
    cat = ordered_catalog(250)
    plan, asks = settle_plan(cat, reply)
    assert asks == 2
    assert plan == uniform_plan(cat)


@pytest.mark.parametrize("reply", [
    f"{positions((0, 15))}=a, {positions((15, 29))}=b",          # a duplicate position
    f"{positions((0, 0), (0, 14))}=a, {positions((15, 29))}=b",  # repeated in one group
    f"{positions((0, 14))}=a, {positions((16, 29))}=b",          # a missing position
    f"{positions((0, 14))}=a, {positions((15, 30))}=b",          # a position past the table
    "{0,1,2 3,4,5,6,7,8,9,10,11,12,13,14}=a, " + f"{positions((15, 29))}=b",  # not an int
    f"{positions((0, 29))}=everything",                          # a single group
], ids=["duplicate", "repeated-in-group", "missing", "out-of-range", "non-integer",
        "single-group"])
def test_stage3_rejected_unordered_plan_reprompts_then_splits_uniformly(reply):
    cat = random_catalog(2, "source", n=30, ordered=False)
    plan, asks = settle_plan(cat, reply)
    assert asks == 2
    assert plan == uniform_plan(cat)


@pytest.mark.parametrize("ordered", [True, False])
def test_stage3_group_cap_matches_greedy_oracle(ordered):
    rng = np.random.default_rng(11 + ordered)
    n = 300
    cat = random_catalog(3, "source", n=n, ordered=ordered)
    cap = 2 * PARAMS.fan_out
    for _ in range(8):
        # 11-20 groups, each at least min_group, so only the cap repairs them
        count = int(rng.integers(cap + 1, 2 * cap + 1))
        cuts = sorted(rng.choice(np.arange(1, n // PARAMS.min_group), count - 1,
                                 replace=False) * PARAMS.min_group)
        bounds = [0, *map(int, cuts), n]
        order = list(range(n)) if ordered else [int(p) for p in rng.permutation(n)]
        groups = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        if ordered:
            reply = ", ".join(f"[{g[0]}..{g[-1]}]=g{i}" for i, g in enumerate(groups))
        else:
            reply = ", ".join("{" + ",".join(map(str, g)) + f"}}=g{i}"
                              for i, g in enumerate(groups))
        plan, asks = settle_plan(cat, reply)
        assert asks == 1
        assert [[r.ordinal for r in g.columns] for g in plan] \
            == cap_merge_oracle(groups, cap, ordered)


@pytest.mark.parametrize("ordered, reply", [
    (True, "[0..24]=big, [25..29]=small"),
    (False, f"{positions((0, 24))}=big, {positions((25, 29))}=small"),
])
def test_stage3_plan_repaired_to_one_group_splits_uniformly(ordered, reply):
    cat = random_catalog(4, "source", n=30, ordered=ordered)
    plan, asks = settle_plan(cat, reply)
    assert asks == 1  # accepted, then the repair left a single group
    assert plan == uniform_plan(cat)


# -- stage 4 --------------------------------------------------------------------


def move_bot(replies):
    state = {"i": 0}

    def bot(prompt):
        if "TASK: boundary-check" in prompt:
            i = min(state["i"], len(replies) - 1)
            state["i"] += 1
            return replies[i]
        return None
    return bot


def plan_for(cat, spans):
    refs = list(cat.refs())
    return tuple(
        PlanGroup(f"g{i}", tuple(refs[lo:hi + 1])) for i, (lo, hi) in enumerate(spans)
    )


def spans_of(plan):
    return [(g.columns[0].ordinal, g.columns[-1].ordinal) for g in plan]


def test_stage4_accepts_in_budget_move():
    cat = ordered_catalog(250)
    plan = plan_for(cat, [(0, 119), (120, 249)])
    gw = make_gateway(responder=chain_bots(move_bot(["MOVE 120 -> 118"]), tree_bot))
    out = stage4_refine_boundaries(cat, cat.tables[0], plan, PARAMS, gw)
    assert spans_of(out) == [(0, 117), (118, 249)]


def test_stage4_switch_budget_caps_applied_moves():
    cat = ordered_catalog(600, seed=1)
    plan = plan_for(cat, [(0, 149), (150, 299), (300, 449), (450, 599)])
    # three valid proposals across the scan; switch budget 2 keeps the first two
    gw = make_gateway(responder=chain_bots(
        move_bot(["MOVE 150 -> 140\nMOVE 300 -> 310", "MOVE 450 -> 460", "KEEP"]),
        tree_bot))
    out = stage4_refine_boundaries(cat, cat.tables[0], plan, PARAMS, gw)
    assert spans_of(out) == [(0, 139), (140, 309), (310, 449), (450, 599)]


def test_stage4_discards_move_violating_min_group():
    cat = ordered_catalog(250)
    plan = plan_for(cat, [(0, 119), (120, 249)])
    gw = make_gateway(responder=chain_bots(move_bot(["MOVE 120 -> 4"]), tree_bot))
    out = stage4_refine_boundaries(cat, cat.tables[0], plan, PARAMS, gw)
    assert spans_of(out) == [(0, 119), (120, 249)]
    # validity oracle: still a contiguous partition with sizes >= min_group
    sizes = [hi - lo + 1 for lo, hi in spans_of(out)]
    assert all(s >= PARAMS.min_group for s in sizes)
    assert sum(sizes) == 250


# -- per-table build -------------------------------------------------------------


def check_tree_invariants(tree, catalog, params):
    cols = leaf_coverage(tree)
    assert len(cols) == len(set(cols)) == catalog.column_count  # coverage + disjoint
    assert set(cols) == set(catalog.refs())
    for leaf in tree.leaves():
        assert 1 <= len(leaf.members) <= params.leaf_budget
    # span algebra on ordered internal nodes
    for node in tree.nodes.values():
        if node.span is None or not node.children:
            continue
        child_spans = [tree.node(c).span for c in node.children]
        assert all(s is not None for s in child_spans)
        assert child_spans[0][1] == node.span[1]
        assert child_spans[-1][2] == node.span[2]
        for a, b in zip(child_spans, child_spans[1:]):
            assert a[0] == b[0] and a[2] + 1 == b[1]
    # lineage monotonicity
    for ref in list(catalog.refs())[:: max(1, catalog.column_count // 17)]:
        path = lineage(tree, ref)
        assert path[-1].node_id == tree.root
        for child, parent in zip(path, path[1:]):
            assert tree.parent[child.node_id] == parent.node_id


def test_small_table_is_root_plus_one_leaf():
    cat = ordered_catalog(40)
    nodes = build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway())
    root = nodes["tbl:t0"]
    assert root.kind is NodeKind.TABLE_ROOT
    assert len(root.children) == 1
    leaf = nodes[root.children[0]]
    assert leaf.kind is NodeKind.GROUP_LEAF and len(leaf.members) == 40


def test_single_column_table():
    cat = ordered_catalog(1)
    nodes = build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway())
    leaf = nodes[nodes["tbl:t0"].children[0]]
    assert len(leaf.members) == 1


def test_wide_table_recursion_depth_and_partition():
    cat = ordered_catalog(2500)
    gw = tree_gateway()
    nodes = build_table_tree(cat, cat.tables[0], PARAMS, gw)
    tree = ContextTree(Side.SOURCE, "tbl:t0", nodes, PARAMS)
    check_tree_invariants(tree, cat, PARAMS)
    depth = max(tree.depth(leaf.node_id) for leaf in tree.leaves())
    assert depth >= 3


def test_unordered_table_build():
    cat = random_catalog(3, "source", n=120, ordered=False)
    nodes = build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway())
    tree = ContextTree(Side.SOURCE, "tbl:t0", nodes, PARAMS)
    check_tree_invariants(tree, cat, PARAMS)


# -- clustering ------------------------------------------------------------------


def multi_table_catalog(sizes, seed=0):
    tables = [
        table_doc(f"t{i}", [(f"t{i}_c{j}", f"col {j} of table {i}") for j in range(n)])
        for i, n in enumerate(sizes)
    ]
    return build_catalog("source", tables)


def test_single_table_root_is_db_root():
    cat = ordered_catalog(5)
    tree = build_context_tree(cat, PARAMS, tree_gateway())
    assert tree.root == "tbl:t0"
    ref = next(cat.refs())
    path = lineage(tree, ref)
    assert [n.kind for n in path] == [NodeKind.GROUP_LEAF, NodeKind.TABLE_ROOT]
    assert len(path) == 2


def test_three_tables_cluster_then_forced_join():
    cat = multi_table_catalog([3, 3, 3])
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    e = np.eye(4)
    # root summaries embed as e1, e1, e3: d(T0,T1)=0 <= 0.5 merges first;
    # d(cluster, T2)=1 > 0.5 forces the final db-root join
    gw = make_gateway(responder=tree_bot,
                      embed_backend=PositionalEmbeddingBackend([[e[0], e[0], e[2]]]))
    tree = cluster_tables(subtrees, PARAMS, gw, Side.SOURCE)
    root = tree.node(tree.root)
    assert root.kind is NodeKind.DB_ROOT
    assert set(root.children) == {"grp:1", "tbl:t2"}
    assert set(tree.node("grp:1").children) == {"tbl:t0", "tbl:t1"}


def reference_agglomerative(dist, delta):
    """Independent average-linkage merger on a fixed distance matrix.

    Returns the merge list as (frozenset_a, frozenset_b) in order.
    """
    clusters = [frozenset([i]) for i in range(len(dist))]
    keys = {frozenset([i]): f"tbl:t{i}" for i in range(len(dist))}
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                d = sum(dist[x][y] for x in a for y in b) / (len(a) * len(b))
                ka, kb = sorted((keys[a], keys[b]))
                cand = (d, ka, kb, i, j)
                if best is None or cand[:3] < best[:3]:
                    best = cand
        d, _, _, i, j = best
        if d > delta:
            break
        a, b = clusters[i], clusters[j]
        merges.append((a, b))
        merged = a | b
        keys[merged] = min(keys[a], keys[b])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)] + [merged]
    return merges


def planted_hierarchy_vectors(k=8):
    # pairs nearly parallel, quads moderately close, halves far apart:
    # nearest-pair merging reproduces a balanced binary hierarchy
    rng = np.random.default_rng(4)
    base = [unit(v) for v in np.eye(k // 2, 16)[: k // 2]]
    out = []
    for i in range(k):
        quad = i // 2
        jitter = 0.08 * rng.standard_normal(16)
        coarse = 0.35 * np.ones(16) if quad < 2 else -0.35 * np.ones(16)
        out.append(unit(2.0 * base[quad] + coarse + jitter))
    return out


def test_full_merge_matches_reference_and_depth_bound():
    k = 8
    cat = multi_table_catalog([2] * k)
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    vectors = planted_hierarchy_vectors(k)
    params = TreeParams(cluster_threshold=1.999)  # accept everything
    gw = make_gateway(responder=tree_bot,
                      embed_backend=PositionalEmbeddingBackend([vectors]))
    tree = cluster_tables(subtrees, params, gw, Side.SOURCE)

    mat = np.stack(vectors)
    dist = (1.0 - mat @ mat.T).tolist()
    merges = reference_agglomerative(dist, 1.999)
    assert len(merges) == k - 1  # fully merged by the reference as well

    # our cluster nodes, in creation order, merge the same member sets
    def table_indices(node_id, tree):
        out = set()
        stack = [node_id]
        while stack:
            nid = stack.pop()
            if nid.startswith("tbl:") and "." not in nid:
                out.add(int(nid.split(":t")[1]))
            stack.extend(tree.node(nid).children if nid in tree.nodes else [])
        return frozenset(out)

    for idx, (a, b) in enumerate(merges, start=1):
        node = tree.node(f"grp:{idx}")
        got = {table_indices(c, tree) for c in node.children}
        assert got == {a, b}

    depth = max(tree.depth(leaf.node_id) for leaf in tree.leaves())
    # balanced merge of 8 tables: ceil(log2 8) cluster levels above each
    # table root, whose leaf sits one below it
    assert depth == math.ceil(math.log2(k)) + 1


def test_exact_distance_ties_merge_in_key_order():
    k = 8
    cat = described_tables([2] * k)
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    same = np.eye(1, 16)[0]  # identical one-hot summaries: every distance is 0.0
    asked = []

    def record(prompt):
        if "TASK: cluster-summary" in prompt:
            asked.append(re.findall(r"^- (.*)$", prompt.split("CHILD SUMMARIES:\n", 1)[1], re.M))
        return None

    gw = make_gateway(responder=chain_bots(record, tree_bot),
                      embed_backend=PositionalEmbeddingBackend([[same] * k]))
    tree = cluster_tables(subtrees, TreeParams(cluster_threshold=1.999), gw, Side.SOURCE)

    # the k - 1 tied merges make one cluster over every table, in key order
    tables = tuple(f"tbl:t{i}" for i in range(k))
    assert tree.root == "grp:1"
    assert [n for n in tree.nodes if n.startswith("grp:")] == ["grp:1"]
    assert tree.node("grp:1").children == tables
    assert asked == [[tree.node(t).summary for t in tables]]
    assert len(set(asked[0])) == k


def test_near_tied_heights_make_one_cluster():
    k = 12
    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    rows = np.stack([unit(base + 1e-13 * rng.standard_normal(16)) for _ in range(k)])
    dist = 1.0 - rows @ rows.T
    assert len(np.unique(dist[np.triu_indices(k, 1)])) > 1  # not an exact tie
    [(c, kids)] = collapse_tied_merges(dist, plan_merges(dist, 1.999)[0])
    assert c == 2 * k - 2 and sorted(kids) == list(range(k))


def test_tied_blocks_at_distinct_heights_stay_apart():
    k = 8
    cat = multi_table_catalog([2] * k)
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    e = np.eye(16)
    # t0..t3 identical (height 0); t4..t7 pairwise cosine 0.9 (height 0.1);
    # the two blocks orthogonal (height 1)
    vectors = [e[0]] * 4 + [unit(3 * e[1] + e[2 + i]) for i in range(4)]
    gw = make_gateway(responder=tree_bot, embed_backend=PositionalEmbeddingBackend([vectors]))
    tree = cluster_tables(subtrees, TreeParams(cluster_threshold=1.999), gw, Side.SOURCE)

    assert tree.root == "grp:3"
    assert tree.node("grp:3").children == ("grp:1", "grp:2")
    assert tree.node("grp:1").children == tuple(f"tbl:t{i}" for i in range(4))
    assert tree.node("grp:2").children == tuple(f"tbl:t{i}" for i in range(4, 8))


def test_collapse_keeps_member_sets_and_separates_heights():
    rng = np.random.default_rng(11)
    shrunk = 0
    for _ in range(200):
        n = int(np.exp(rng.uniform(np.log(2), np.log(121))))
        dist = random_distances(rng, n)
        merges, survivors = plan_merges(dist, float(rng.choice([0.3, 0.5, 1.0, 1.999])))
        members = [frozenset([i]) for i in range(n)]
        height = {}
        for c, (a, b) in enumerate(merges, start=n):
            members.append(members[a] | members[b])
            height[c] = float(dist[np.ix_(sorted(members[a]), sorted(members[b]))].mean())
        kept = collapse_tied_merges(dist, merges)
        assert [c for c, _ in kept] == sorted(c for c, _ in kept)
        children = dict(kept)
        for c, kids in kept:
            # a kept cluster holds its binary merge's members, split among its children
            assert frozenset().union(*(members[x] for x in kids)) == members[c]
            assert sum(len(members[x]) for x in kids) == len(members[c])
            assert all(x < n or x in children for x in kids)
            assert all(abs(height[c] - height[x]) > TIE_TOLERANCE for x in kids if x >= n)
        # every table sits under exactly one top-level node
        assert all(c < n or c in children for c in survivors)
        under = []
        todo = list(survivors)
        while todo:
            c = todo.pop()
            if c < n:
                under.append(c)
            else:
                todo.extend(children[c])
        assert sorted(under) == list(range(n))
        shrunk += len(kept) < len(merges)
    assert shrunk >= 50


# -- relations -------------------------------------------------------------------


def relation_bot(reply):
    def bot(prompt):
        if "TASK: sibling-relations" in prompt:
            return reply
        return None
    return bot


TWO_CHILDREN = [("a", "summary a"), ("b", "summary b")]


def test_relation_snippet_parsed_to_sibling_ids():
    gw = make_gateway(responder=relation_bot("A -> B: A defines terms used by B"))
    snippets = annotate_sibling_relations("root", TWO_CHILDREN, gw)
    assert len(snippets) == 1
    assert (snippets[0].from_node, snippets[0].to_node) == ("a", "b")
    assert snippets[0].relation_text == "A defines terms used by B"


def test_single_child_yields_no_relations():
    children = [("a", "summary a")]
    assert annotate_sibling_relations("root", children, make_gateway(default="x")) == []


def test_relation_cap_keeps_first_in_reply_order():
    children = [(f"c{i}", f"summary {i}") for i in range(26)]
    from construm.tree import _alias

    reply = "\n".join(
        f"{_alias(i)} -> {_alias(i + 1)}: rel {i}" for i in range(25)
    )
    gw = make_gateway(responder=relation_bot(reply))
    snippets = annotate_sibling_relations("root", children, gw)  # at most 18 per parent
    assert len(snippets) == 18
    assert [s.relation_text for s in snippets] == [f"rel {i}" for i in range(18)]


def test_relation_unknown_alias_dropped():
    gw = make_gateway(responder=relation_bot("A -> Z: bogus\nB -> A: real one"))
    snippets = annotate_sibling_relations("root", TWO_CHILDREN, gw)
    assert [(s.from_node, s.to_node) for s in snippets] == [("b", "a")]


def test_relation_per_column_cap():
    children = [(cid, cid) for cid in ("x", "y", "z")]
    reply = "A -> B: r1\nB -> A: r2\nA -> C: r3\nC -> A: r4"
    gw = make_gateway(responder=relation_bot(reply))
    snippets = annotate_sibling_relations("root", children, gw)  # at most 2 per sibling
    # x is saturated after two incident snippets; later ones touching it drop
    assert [(s.from_node, s.to_node) for s in snippets] == [("x", "y"), ("y", "x")]


# -- lineage ---------------------------------------------------------------------


def chain_tree(depth):
    cat = ordered_catalog(1)
    ref = next(cat.refs())
    nodes = {}
    ids = [f"n{i}" for i in range(depth)]
    for i, nid in enumerate(ids):
        children = (ids[i + 1],) if i + 1 < depth else ()
        kind = NodeKind.DB_ROOT if i == 0 else (
            NodeKind.GROUP_LEAF if i == depth - 1 else NodeKind.WITHIN_TABLE)
        nodes[nid] = TreeNode(nid, kind, f"level {i}", children=children,
                              members=(ref,) if i == depth - 1 else None)
    return ContextTree(Side.SOURCE, ids[0], nodes, PARAMS), cat, ref


def test_lineage_deep_tree_matches_ancestor_walk():
    tree, _, ref = chain_tree(5)
    path = lineage(tree, ref)
    assert len(path) == 5
    # ancestor-walk oracle from an independently built child->parent map
    parent = {}
    for node in tree.nodes.values():
        for c in node.children:
            parent[c] = node.node_id
    walk = [tree.leaf_of[ref]]
    while walk[-1] in parent:
        walk.append(parent[walk[-1]])
    assert [n.node_id for n in path] == walk
    depths = [tree.depth(n.node_id) for n in path]
    assert depths == sorted(depths, reverse=True)


def test_lineage_unknown_column():
    tree, cat, _ = chain_tree(3)
    other = random_catalog(9, "source", n=2, table_id="zz")
    with pytest.raises(TreeError, match="unknown column"):
        lineage(tree, next(other.refs()))


# -- determinism, serialization, resume -------------------------------------------


def test_build_is_deterministic_and_serializable(tmp_path):
    cat = multi_table_catalog([80, 7, 30], seed=2)
    t1 = build_context_tree(cat, PARAMS, tree_gateway())
    t2 = build_context_tree(cat, PARAMS, tree_gateway())
    assert json.dumps(tree_to_dict(t1), sort_keys=True) == \
        json.dumps(tree_to_dict(t2), sort_keys=True)
    path = tmp_path / "tree.json"
    save_tree(t1, cat, path)
    loaded = load_tree(path, cat)
    assert tree_to_dict(loaded) == tree_to_dict(t1)
    check_tree_invariants(loaded, cat, PARAMS)


def test_load_tree_rejects_an_edited_summary(tmp_path):
    cat = multi_table_catalog([12, 5], seed=2)
    tree = build_context_tree(cat, PARAMS, tree_gateway())
    path = tmp_path / "tree.json"
    save_tree(tree, cat, path)
    assert tree_to_dict(load_tree(path, cat)) == tree_to_dict(tree)
    doc = json.loads(path.read_text())
    doc["nodes"]["tbl:t0"]["summary"] += " (edited)"
    path.write_text(json.dumps(doc, sort_keys=True))
    with pytest.raises(TreeError, match="content hash"):
        load_tree(path, cat)


def test_table_ids_with_separator_characters():
    cat = build_catalog("source", [
        table_doc("wave.2016:J", [(f"a{i}", f"col {i}") for i in range(4)]),
        table_doc("wave.2018:J", [(f"b{i}", f"col {i}") for i in range(4)]),
    ])
    tree = build_context_tree(cat, PARAMS, tree_gateway())
    for ref in cat.refs():
        assert lineage(tree, ref)[-1].node_id == tree.root
    check_tree_invariants(tree, cat, PARAMS)


def test_concurrent_build_matches_serial():
    cat = multi_table_catalog([60, 60, 60, 60], seed=3)
    serial = build_context_tree(cat, PARAMS, tree_gateway(max_in_flight=1))
    parallel = build_context_tree(cat, PARAMS, tree_gateway(max_in_flight=MAX_IN_FLIGHT))
    assert tree_to_dict(serial) == tree_to_dict(parallel)


def test_build_never_runs_more_pool_threads_than_max_in_flight():
    cat = multi_table_catalog([60, 60, 60, 60], seed=3)
    cap = 3
    before = threading.active_count()
    seen, most, built = set(), [0], threading.Event()

    def sample():
        while not built.wait(0.0005):
            most[0] = max(most[0], threading.active_count())

    def who(prompt):
        seen.add(threading.get_ident())
        return "A -> B: A feeds B" if "TASK: sibling-relations" in prompt else None

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        tree = build_context_tree(cat, PARAMS, tree_gateway(who, delay=0.001, max_in_flight=cap),
                                  annotate_relations=True)
    finally:
        built.set()
        sampler.join(timeout=10)
    assert not sampler.is_alive()
    assert tree.relations
    assert 1 < len(seen) <= cap + 1  # the pool's threads and the caller sent the calls
    assert most[0] <= before + 1 + cap  # the sampler itself is one thread


def test_relations_completing_in_reverse_order_give_the_same_tree():
    cat = multi_table_catalog([60, 60, 60, 60], seed=3)

    def relations(prompt):
        if "TASK: sibling-relations" not in prompt:
            return None
        parent = re.search(r"^PARENT: (.*)$", prompt, re.M).group(1)
        return f"A -> B: A feeds B under {parent}"

    reference = build_context_tree(cat, PARAMS, tree_gateway(relations),
                                   annotate_relations=True)
    parents = sorted(n.node_id for n in reference.nodes.values() if len(n.children) >= 2)
    assert 2 <= len(parents) <= MAX_IN_FLIGHT  # the pool can hold every waiting relation call
    assert [r.relation_text.rsplit(" ", 1)[1] for r in reference.relations] == parents
    done = {p: threading.Event() for p in parents}
    completed = []

    def reversed_relations(prompt):
        reply = relations(prompt)
        if reply is not None:
            parent = re.search(r"^PARENT: (.*)$", prompt, re.M).group(1)
            later = parents[parents.index(parent) + 1:]
            assert not later or done[later[0]].wait(timeout=5)
            completed.append(parent)
            done[parent].set()
        return reply

    tree = build_context_tree(cat, PARAMS, tree_gateway(reversed_relations),
                              annotate_relations=True)
    assert completed == parents[::-1]
    assert json.dumps(tree_to_dict(tree), sort_keys=True) == \
        json.dumps(tree_to_dict(reference), sort_keys=True)


def test_rebuild_resumes_from_reply_cache(tmp_path):
    cat = multi_table_catalog([12, 80], seed=4)
    fail = {"on": True}

    def flaky(prompt):
        # t1 is wide: its window, theme and plan calls finish before a leaf fails
        if fail["on"] and "TASK: leaf-summary" in prompt and "t1_c" in prompt:
            raise TransportError("injected failure")
        return tree_bot(prompt)

    first = make_gateway(responder=flaky, cache=DiskCache(tmp_path))
    with pytest.raises(TransportError):
        build_context_tree(cat, PARAMS, first, annotate_relations=True)
    aborted = first.accounting.snapshot()
    assert aborted.llm_calls > 0 and aborted.cache_hits == 0

    fail["on"] = False
    second = make_gateway(responder=flaky, cache=DiskCache(tmp_path))
    resumed = build_context_tree(cat, PARAMS, second, annotate_relations=True)
    clean_gw = tree_gateway()
    clean = build_context_tree(cat, PARAMS, clean_gw, annotate_relations=True)
    assert tree_to_dict(resumed) == tree_to_dict(clean)
    rerun = second.accounting.snapshot()
    assert rerun.cache_hits == aborted.llm_calls
    assert rerun.llm_calls + rerun.cache_hits == clean_gw.accounting.snapshot().llm_calls


# -- merge planning ----------------------------------------------------------------


def reference_loop_plan(dist, threshold):
    """One merge per step over a live matrix, one ``mean`` per live cluster.

    Clusters are kept as a listing: the merged cluster replaces its two
    parts at the end, and a pair's distance is the mean of the ``dist``
    block with the earlier-listed cluster's items as rows. Returns
    ``plan_merges``' format.
    """
    n = len(dist)
    live = np.full((n, n), np.inf)
    upper = np.triu_indices(n, 1)
    live[upper] = live[upper[::-1]] = dist[upper]
    rank = np.arange(n)
    listing = [(i, [i], i) for i in range(n)]  # (cluster number, items, slot)
    merges = []
    while len(listing) > 1:
        d = live.min()
        if d > threshold:
            break
        s, t = np.nonzero(live == d)
        lo, hi = np.minimum(rank[s], rank[t]), np.maximum(rank[s], rank[t])
        first = np.lexsort((hi, lo))[0]
        i, j = [pos for pos, c in enumerate(listing) if c[2] in (s[first], t[first])]
        a, b = listing[i], listing[j]
        merges.append((a[0], b[0]))
        merged = (n + len(merges) - 1, a[1] + b[1], a[2])
        rank[a[2]] = min(rank[a[2]], rank[b[2]])
        live[b[2], :] = live[:, b[2]] = np.inf
        listing = [c for k, c in enumerate(listing) if k not in (i, j)]
        to_merged = dist[:, merged[1]]
        for c in listing:
            live[c[2], a[2]] = live[a[2], c[2]] = float(to_merged[c[1]].mean())
        listing.append(merged)
    listing.sort(key=lambda c: rank[c[2]])
    return merges, [c[0] for c in listing]


def random_distances(rng, n):
    dim = int(rng.integers(2, 24))
    kind = rng.integers(3)
    if kind == 0:  # a few distinct directions: many exact distance ties
        base = rng.standard_normal((int(rng.integers(1, 5)), dim))
        v = base[rng.integers(len(base), size=n)]
    elif kind == 1:  # small integer coordinates: ties between distinct pairs
        v = rng.integers(-2, 3, size=(n, dim)).astype(float)
        v[np.all(v == 0, axis=1), 0] = 1.0
    else:
        v = rng.standard_normal((n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return 1.0 - v @ v.T


def test_plan_merges_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(10)
    tied = 0
    for _ in range(300):
        n = int(np.exp(rng.uniform(np.log(2), np.log(161))))  # log-uniform in 2..160
        dist = random_distances(rng, n)
        threshold = float(rng.choice([0.3, 0.5, 1.0, 1.999]))
        plan = plan_merges(dist, threshold)
        assert plan == reference_loop_plan(dist, threshold)
        merges, survivors = plan
        assert sorted(survivors + [c for m in merges for c in m]) == list(range(n + len(merges)))
        upper = dist[np.triu_indices(n, 1)]
        tied += len(np.unique(upper)) < len(upper)
    assert tied >= 100


# -- fan-out within a build --------------------------------------------------------


def span_plan_bot(spans_by_block):
    """Plans that split the block spanning (lo, hi) into the given spans."""
    def bot(prompt):
        if "TASK: group-plan" not in prompt:
            return None
        span = tuple(map(int, re.search(r"^SPAN: (\d+)\.\.(\d+)$", prompt, re.M).groups()))
        return "\n".join(f"[{a}..{b}]=part{i}" for i, (a, b) in
                         enumerate(spans_by_block[span]))
    return bot


def prompt_span(prompt):
    return re.search(r"^SPAN: (\d+\.\.\d+)$", prompt, re.M).group(1)


def test_block_windows_and_theme_are_in_flight_together():
    cat = ordered_catalog(150)
    params = TreeParams(window=50, leaf_budget=50)
    plan = span_plan_bot({(0, 149): [(0, 49), (50, 99), (100, 149)]})
    together = threading.Barrier(4, timeout=10)  # three windows and the theme

    def waits(prompt):
        if "TASK: window-summary" in prompt or "TASK: table-theme" in prompt:
            together.wait()
        return None

    gw = tree_gateway(chain_bots(waits, plan))
    nodes = build_table_tree(cat, cat.tables[0], params, gw)
    assert nodes == build_table_tree(cat, cat.tables[0], params, tree_gateway(plan))
    assert not together.broken


def test_sibling_blocks_are_in_flight_together():
    cat = ordered_catalog(300)
    plan = span_plan_bot({
        (0, 299): [(0, 149), (150, 299)],
        (0, 149): [(0, 49), (50, 99), (100, 149)],
        (150, 299): [(150, 199), (200, 249), (250, 299)],
    })
    # the two sub-blocks' windows, then one sub-block's three leaves
    blocks = threading.Barrier(2, timeout=10)
    leaves = {"0..49": threading.Barrier(3, timeout=10)}
    leaves.update({"50..99": leaves["0..49"], "100..149": leaves["0..49"]})

    def waits(prompt):
        if "TASK: window-summary" in prompt and prompt_span(prompt) in ("0..149", "150..299"):
            blocks.wait()
        if "TASK: leaf-summary" in prompt and prompt_span(prompt) in leaves:
            leaves[prompt_span(prompt)].wait()
        return None

    nodes = build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway(chain_bots(waits, plan)))
    assert nodes["tbl:t0"].children == ("tbl:t0.0", "tbl:t0.1")
    assert nodes["tbl:t0.0"].children == ("tbl:t0.0.0", "tbl:t0.0.1", "tbl:t0.0.2")
    # listed in post-order, as a serial depth-first build lists them
    assert list(nodes) == ["tbl:t0.0.0", "tbl:t0.0.1", "tbl:t0.0.2", "tbl:t0.0",
                           "tbl:t0.1.0", "tbl:t0.1.1", "tbl:t0.1.2", "tbl:t0.1", "tbl:t0"]


def described_tables(sizes):
    return build_catalog("source", [
        table_doc(f"t{i}", [(f"t{i}_c{j}", f"col {j} of table {i}") for j in range(n)],
                  description=f"table {i} about topic {i}")
        for i, n in enumerate(sizes)
    ])


def merge_levels(tree):
    """Each cluster node's dendrogram level, in merge order."""
    level = {}
    for k in range(1, sum(n.startswith("grp:") for n in tree.nodes) + 1):
        level[f"grp:{k}"] = 1 + max(level.get(c, 0) for c in tree.node(f"grp:{k}").children)
    return level


def child_summaries(prompt):
    return frozenset(re.findall(r"^- (.*)$", prompt.split("CHILD SUMMARIES:\n", 1)[1], re.M))


def child_summaries_of(tree, node_id):
    return frozenset(tree.node(c).summary for c in tree.node(node_id).children)


def test_each_dendrogram_level_is_in_flight_together():
    k = 8
    cat = described_tables([2] * k)
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    params = TreeParams(cluster_threshold=1.999)

    def cluster(bot=None):
        gw = tree_gateway(bot, embed_backend=PositionalEmbeddingBackend(
            [planted_hierarchy_vectors(k)]))
        return cluster_tables(subtrees, params, gw, Side.SOURCE)

    reference = cluster()
    level = merge_levels(reference)
    sizes = [list(level.values()).count(lv) for lv in (1, 2, 3)]
    assert sizes == [4, 2, 1]
    level_of = {child_summaries_of(reference, n): lv for n, lv in level.items()}
    barriers = {lv: threading.Barrier(size, timeout=10) for lv, size in zip((1, 2, 3), sizes)}

    def waits(prompt):
        if "TASK: cluster-summary" in prompt:
            barriers[level_of[child_summaries(prompt)]].wait()
        return None

    assert tree_to_dict(cluster(waits)) == tree_to_dict(reference)


def in_reverse(order, key_of):
    """A bot that makes the calls keyed by ``order`` complete last-first.

    Each call waits until the call after it in ``order`` has replied; the
    keys of the calls that replied are appended to the returned list.
    """
    done = {key: threading.Event() for key in order}
    completed = []

    def bot(prompt):
        key = key_of(prompt)
        if key in done:
            later = order[order.index(key) + 1:]
            assert not later or done[later[0]].wait(timeout=10)
            completed.append(key)
            done[key].set()
        return None
    return bot, completed


def test_replies_completing_in_reverse_order_give_the_same_build():
    k = 8
    cat = described_tables([150] + [2] * (k - 1))
    plan = span_plan_bot({(0, 149): [(0, 49), (50, 99), (100, 149)]})
    params = TreeParams(cluster_threshold=1.999)

    def build(bot=None):
        gw = tree_gateway(chain_bots(*filter(None, (bot, plan))),
                          embed_backend=PositionalEmbeddingBackend(
                              [planted_hierarchy_vectors(k)]))
        return build_context_tree(cat, params, gw)

    reference = build()
    level = merge_levels(reference)
    merge_of = {child_summaries_of(reference, n): n for n in level}

    def key_of(prompt):
        if "TASK: cluster-summary" in prompt:
            return merge_of[child_summaries(prompt)]
        if "TASK: leaf-summary" in prompt and "(t0)" in prompt:
            return prompt_span(prompt)
        return None

    # a level's merges go out together, in merge order
    leaf_order = ["0..49", "50..99", "100..149"]
    by_level = [[n for n in level if level[n] == lv] for lv in (1, 2, 3)]
    assert [len(merges) for merges in by_level] == [4, 2, 1]
    leaf_bot, leaves_done = in_reverse(leaf_order, key_of)
    cluster_bots = [in_reverse(merges, key_of) for merges in by_level]
    tree = build(chain_bots(leaf_bot, *(bot for bot, _ in cluster_bots)))

    assert leaves_done == leaf_order[::-1]
    assert [done for _, done in cluster_bots] == [merges[::-1] for merges in by_level]
    assert json.dumps(tree_to_dict(tree), sort_keys=True) == \
        json.dumps(tree_to_dict(reference), sort_keys=True)
    assert list(tree.nodes) == list(reference.nodes)
    assert [n.node_id for n in tree.leaves()] == [n.node_id for n in reference.leaves()]


# -- relation calls beside their parent's summary ---------------------------------


def relation_parent(prompt):
    """The parent a sibling-relation prompt asks about, or None."""
    if "TASK: sibling-relations" not in prompt:
        return None
    return re.search(r"^PARENT: (.*)$", prompt, re.M).group(1)


def paired_bot(pairs, summary_parent):
    """Holds a parent's summary call and its relation call at one barrier.

    ``pairs`` maps a parent id to a ``Barrier(2)``; ``summary_parent``
    names the parent a summary prompt belongs to. Each call of a pair
    waits until the other is in flight too, so a build that sends the two
    one after the other breaks the barrier and fails.
    """
    def bot(prompt):
        parent = relation_parent(prompt) or summary_parent(prompt)
        if parent in pairs:
            pairs[parent].wait()
        return "A -> B: A leads to B" if relation_parent(prompt) else None
    return bot


def test_block_summary_and_its_relation_call_are_in_flight_together():
    cat = ordered_catalog(150)
    plan = span_plan_bot({(0, 149): [(0, 49), (50, 99), (100, 149)]})
    pairs = {"tbl:t0": threading.Barrier(2, timeout=5)}
    bot = paired_bot(pairs, lambda p: "tbl:t0" if "TASK: node-summary" in p else None)
    relations = {}
    nodes = build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway(chain_bots(bot, plan)),
                             relations)
    assert nodes == build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway(plan))
    assert {p: [(r.from_node, r.to_node) for r in snippets]
            for p, snippets in relations.items()} == {"tbl:t0": [("tbl:t0.0", "tbl:t0.1")]}
    assert not pairs["tbl:t0"].broken


def test_cluster_and_root_summaries_are_in_flight_beside_their_relation_calls():
    cat = multi_table_catalog([3, 3, 3])
    subtrees = [build_table_tree(cat, t, PARAMS, tree_gateway()) for t in cat.tables]
    e = np.eye(4)

    def cluster(bot=None, relations=None):
        # root summaries embed as e1, e1, e3: t0 and t1 make grp:1, then db:root
        gw = tree_gateway(bot, embed_backend=PositionalEmbeddingBackend([[e[0], e[0], e[2]]]))
        return cluster_tables(subtrees, PARAMS, gw, Side.SOURCE, relations)

    pairs = {parent: threading.Barrier(2, timeout=5) for parent in ("grp:1", "db:root")}
    task_of = {"TASK: cluster-summary": "grp:1", "TASK: node-summary": "db:root"}
    relations = {}
    tree = cluster(paired_bot(pairs, lambda p: task_of.get(p.split("\n", 1)[0])), relations)
    assert tree_to_dict(tree) == tree_to_dict(cluster())
    assert tree.node("db:root").children == ("grp:1", "tbl:t2")
    assert {p: [(r.from_node, r.to_node) for r in snippets]
            for p, snippets in relations.items()} == {
        "grp:1": [("tbl:t0", "tbl:t1")], "db:root": [("grp:1", "tbl:t2")]}
    assert not any(barrier.broken for barrier in pairs.values())


def test_relations_ride_beside_summaries_without_changing_the_tree():
    # the narrow tables with one description have equal root summaries, so they cluster
    cat = build_catalog("source", [
        table_doc(f"t{i}", [(f"t{i}_c{j}", f"col {j} of table {i}") for j in range(n)],
                  description=about)
        for i, (n, about) in enumerate([(60, ""), (7, "payments"), (130, ""), (3, "visits"),
                                        (12, "payments"), (4, "visits"), (55, "")])
    ])

    def relations(prompt):
        if relation_parent(prompt) is None:
            return None
        tag = zlib.crc32(prompt.encode())  # a reply that depends on the children listed
        return "\n".join(f"{a} -> {b}: {a} leads to {b} ({tag})"
                         for a, b in ("AB", "BC", "CA", "BA", "DA"))

    on = build_context_tree(cat, PARAMS, tree_gateway(relations), annotate_relations=True)
    off = build_context_tree(cat, PARAMS, tree_gateway(relations))
    assert (on.root, on.nodes) == (off.root, off.nodes) and off.relations == ()
    parents = sorted(n for n, node in on.nodes.items() if len(node.children) >= 2)
    assert {on.node(p).kind for p in parents} >= {NodeKind.TABLE_ROOT, NodeKind.CLUSTER}
    # the oracle: one relation call per parent over the finished tree, in parent-id order
    gw = tree_gateway(relations)
    expected = [r for p in parents for r in annotate_sibling_relations(
        p, [(c, on.node(c).summary) for c in on.node(p).children], gw)]
    assert len(expected) > len(parents)
    assert list(on.relations) == expected


def test_first_failure_in_submission_order_is_raised_and_threads_end():
    cat = ordered_catalog(600)
    threads = threading.active_count()
    window2_failed = threading.Event()
    running, started, late = RunningCount(), set(), []

    def windows(prompt):
        if "TASK: window-summary" in prompt:
            if window2_failed.is_set() and prompt_span(prompt) not in started:
                late.append(prompt_span(prompt))  # a retry is not a start
            started.add(prompt_span(prompt))
            with running:
                if prompt_span(prompt) == "500..599":
                    window2_failed.set()
                    raise TransportError("window 2 down")
                if prompt_span(prompt) == "250..499":
                    assert window2_failed.wait(timeout=10)
                    raise TransportError("window 1 down")
        return None

    with pytest.raises(TreeError, match=r"window 1 \(250\.\.499\) summary failed: "
                                        r"window 1 down"):
        build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway(windows))
    assert running.now == 0 and late == []
    assert threading.active_count() <= threads + MAX_IN_FLIGHT

    cat = ordered_catalog(150)
    plan = span_plan_bot({(0, 149): [(0, 49), (50, 99), (100, 149)]})
    leaf2_failed = threading.Event()
    running, started, late = RunningCount(), set(), []

    def leaves(prompt):
        if "TASK: leaf-summary" in prompt:
            if leaf2_failed.is_set() and prompt_span(prompt) not in started:
                late.append(prompt_span(prompt))
            started.add(prompt_span(prompt))
            with running:
                if prompt_span(prompt) == "100..149":
                    leaf2_failed.set()
                    raise TransportError("leaf 2 down")
                if prompt_span(prompt) == "50..99":
                    assert leaf2_failed.wait(timeout=10)
                    raise TransportError("leaf 1 down")
        return None

    with pytest.raises(TransportError, match="leaf 1 down"):
        build_table_tree(cat, cat.tables[0], PARAMS, tree_gateway(chain_bots(leaves, plan)))
    assert running.now == 0 and late == []
    assert threading.active_count() <= threads + MAX_IN_FLIGHT


def test_stage4_prompt_shows_moves_applied_earlier_in_the_scan():
    cat = ordered_catalog(600, seed=1)
    plan = plan_for(cat, [(0, 149), (150, 299), (300, 449), (450, 599)])
    gw = make_gateway(responder=chain_bots(move_bot(["MOVE 150 -> 140", "KEEP"]), tree_bot))
    out = stage4_refine_boundaries(cat, cat.tables[0], plan, PARAMS, gw)
    assert spans_of(out) == [(0, 139), (140, 299), (300, 449), (450, 599)]
    checks = [p for _, p in gw.chat_backend.call_log if "TASK: boundary-check" in p]
    assert "GROUPS:\n[0..149]=g0\n[150..299]=g1\n" in checks[0]
    assert "WINDOW: 250..499" in checks[1]
    assert "BOUNDARIES: 300, 450" in checks[1]
    assert "GROUPS:\n[0..139]=g0\n[140..299]=g1\n[300..449]=g2\n[450..599]=g3\n" in checks[1]
