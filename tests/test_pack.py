import random

import pytest

from construm.catalog import ColumnRef, Side
from construm.tree import (
    PACK_RELATIONS,
    ContextPack,
    ContextTree,
    NodeKind,
    PackBudgetError,
    RelationSnippet,
    TreeNode,
    TreeParams,
    build_context_pack,
    lineage,
    middle_out_drop_order,
    render_prompt_packs,
    select_relation_lines,
)
from helpers import build_catalog, table_doc

PARAMS = TreeParams()


def deep_tree(depth=5, description="what this column means", relations=()):
    cat = build_catalog("source", [table_doc("t0", [("col_a", description)])])
    ref = next(cat.refs())
    ids = [f"n{i}" for i in range(depth)]
    nodes = {}
    for i, nid in enumerate(ids):
        children = (ids[i + 1],) if i + 1 < depth else ()
        kind = NodeKind.DB_ROOT if i == 0 else (
            NodeKind.GROUP_LEAF if i == depth - 1 else NodeKind.WITHIN_TABLE)
        nodes[nid] = TreeNode(nid, kind, f"summary level {i}", children=children,
                              members=(ref,) if i == depth - 1 else None)
    tree = ContextTree(Side.SOURCE, ids[0], nodes, PARAMS, relations)
    return tree, cat, ref


def render_expect(display, description, level_summaries, relations):
    # independent re-rendering from the documented pack format
    lines = [f"Column: {display}"]
    if description:
        lines.append(f"Description: {description}")
    lines.append("Path to root (summaries):")
    lines += [f"- [{i + 1}] {s}" for i, s in enumerate(level_summaries)]
    if relations:
        lines.append("Relation snippets (selected):")
        lines += [f"- {r}" for r in relations]
    return "\n".join(lines)


def test_generous_budget_keeps_everything():
    relations = (RelationSnippet("n3", "n2", "the leaf span refines its parent"),
                 RelationSnippet("n1", "n0", "broad scope feeds the root"))
    tree, cat, ref = deep_tree(relations=relations)
    pack = build_context_pack(tree, cat, ref, budget=10**5)
    assert [d for d, _ in pack.lineage_summaries] == [4, 3, 2, 1, 0]
    assert len(pack.relation_lines) == 2
    assert pack.rendered == render_expect(
        "col_a", "what this column means",
        [f"summary level {i}" for i in (4, 3, 2, 1, 0)],
        list(pack.relation_lines),
    )
    assert len(pack.rendered) <= 10**5


def test_truncation_follows_middle_out_oracle():
    relations = (RelationSnippet("n4", "n3", "rel nearest leaf"),
                 RelationSnippet("n0", "n1", "rel nearest root"))
    tree, cat, ref = deep_tree(relations=relations)
    full = build_context_pack(tree, cat, ref, budget=10**5)
    minimum = len(render_expect("col_a", "what this column means",
                                ["summary level 4", "summary level 0"], []))
    drop_order = middle_out_drop_order(5)
    assert drop_order == [2, 3, 1]

    for budget in range(minimum, len(full.rendered) + 3):
        pack = build_context_pack(tree, cat, ref, budget=budget)
        assert len(pack.rendered) <= budget
        depths = [d for d, _ in pack.lineage_summaries]
        assert depths[0] == 4 and depths[-1] == 0  # leaf and root survive

        # relations drop from the end of the ranked list
        assert list(pack.relation_lines) == ["rel nearest leaf", "rel nearest root"][: len(pack.relation_lines)]

        # dropped interior levels must form a prefix of the middle-out order
        kept_positions = [4 - d for d, _ in pack.lineage_summaries]
        dropped = {i for i in range(5) if i not in kept_positions}
        assert dropped == set(drop_order[: len(dropped)])

        # greedy minimality: could not have kept one more level/relation
        if dropped:
            one_less = drop_order[: len(dropped) - 1]
            kept_if = [i for i in range(5) if i not in one_less]
            candidate = render_expect(
                "col_a", "what this column means",
                [f"summary level {i}" for i in kept_if],
                list(pack.relation_lines))
            assert len(candidate) > budget


def test_empty_description_omits_line():
    tree, cat, ref = deep_tree(description="")
    pack = build_context_pack(tree, cat, ref, budget=10**4)
    assert "Description:" not in pack.rendered
    assert pack.rendered.startswith("Column: col_a\nPath to root")


def test_budget_below_minimum_reports_requirement():
    tree, cat, ref = deep_tree()
    minimum = len(render_expect("col_a", "what this column means",
                                ["summary level 4", "summary level 0"], []))
    with pytest.raises(PackBudgetError) as exc:
        build_context_pack(tree, cat, ref, budget=minimum - 1)
    assert exc.value.required == minimum
    assert str(minimum) in str(exc.value)
    # exactly the minimum succeeds
    pack = build_context_pack(tree, cat, ref, budget=minimum)
    assert len(pack.rendered) == minimum


def test_relations_prefer_lineage_proximity_to_leaf():
    relations = (
        RelationSnippet("n0", "n1", "near root"),
        RelationSnippet("n4", "n3", "touches leaf"),
        RelationSnippet("zz", "qq", "unrelated nodes"),
        RelationSnippet("n2", "n3", "mid lineage"),
    )
    tree, cat, ref = deep_tree(relations=relations)
    pack = build_context_pack(tree, cat, ref, budget=10**5)
    # three at most, leaf-nearest first; the unrelated snippet stays out
    assert list(pack.relation_lines) == ["touches leaf", "mid lineage", "near root"]


def scan_relation_lines(tree, path):
    """Oracle: every snippet of the tree scored against the path."""
    on_path = {node.node_id: i for i, node in enumerate(path)}  # 0 = leaf
    scored = []
    for order, snippet in enumerate(tree.relations):
        touches = [on_path[n] for n in (snippet.from_node, snippet.to_node) if n in on_path]
        if touches:
            scored.append((min(touches), order, snippet.relation_text))
    scored.sort()
    return [text for _, _, text in scored[:PACK_RELATIONS]]


def test_relation_lookup_per_lineage_matches_the_full_scan():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 30)
        parent = {i: rng.randrange(i) for i in range(1, n)}  # node 0 is the root
        kids = {i: tuple(f"n{c}" for c in range(1, n) if parent[c] == i) for i in range(n)}
        leaves = [i for i in range(n) if not kids[i]]
        cat = build_catalog("source", [table_doc("t0", [(f"c{j}", "d")
                                                        for j in range(len(leaves))])])
        refs = list(cat.refs())
        nodes = {}
        for i in range(n):
            leaf = not kids[i]
            nodes[f"n{i}"] = TreeNode(
                f"n{i}", NodeKind.GROUP_LEAF if leaf else NodeKind.WITHIN_TABLE, f"s{i}",
                children=kids[i], members=(refs[leaves.index(i)],) if leaf else None)
        ids = [f"n{i}" for i in range(n)] + ["elsewhere"]
        relations = [RelationSnippet(rng.choice(ids), rng.choice(ids), f"r{rng.randrange(8)}")
                     for _ in range(rng.randint(0, 40))]
        tree = ContextTree(Side.SOURCE, "n0", nodes, PARAMS, relations)
        for ref in refs:
            path = lineage(tree, ref)
            assert select_relation_lines(tree, path) == scan_relation_lines(tree, path)


def test_two_level_tree_min_pack():
    tree, cat, ref = deep_tree(depth=2)
    pack = build_context_pack(tree, cat, ref, budget=10**4)
    assert [d for d, _ in pack.lineage_summaries] == [1, 0]


# -- packs as prompts show them ----------------------------------------------------


def pack_of(levels, relations=(), name="c"):
    rendered = render_expect(name, "", levels, list(relations))
    return ContextPack(ColumnRef(Side.TARGET, "t", 0),
                       tuple((len(levels) - 1 - i, s) for i, s in enumerate(levels)),
                       tuple(relations), rendered)


def test_prompt_packs_drop_the_header_and_say_shared_lines_once():
    first = pack_of(["leaf one", "cluster of both", "the root"], ["one feeds two"])
    second = pack_of(["leaf two", "cluster of both", "the root"], ["one feeds two"])
    shared, bodies = render_prompt_packs([first, second])
    assert shared == ("Shared context (cited by id below):\n"
                      "- S1: cluster of both\n"
                      "- S2: the root\n"
                      "- S3: one feeds two")
    assert bodies == ["path to root: leaf one > S1 > S2\nrelations: S3",
                      "path to root: leaf two > S1 > S2\nrelations: S3"]


def test_prompt_packs_share_nothing_said_once():
    packs = [pack_of(["leaf one", "root one"]), pack_of(["leaf two", "root two"], ["rel"])]
    shared, bodies = render_prompt_packs(packs)
    assert shared == ""
    assert bodies == ["path to root: leaf one > root one",
                      "path to root: leaf two > root two\nrelations: rel"]
    assert render_prompt_packs([]) == ("", [])


def test_prompt_packs_keep_a_place_for_each_missing_pack():
    packs = [pack_of(["leaf one", "the root"]), pack_of(["leaf two", "the root"])]
    shared, bodies = render_prompt_packs(packs)
    assert render_prompt_packs([None, packs[0], None, packs[1]]) == (
        shared, [None, bodies[0], None, bodies[1]])


def test_prompt_pack_lines_that_could_be_misread_get_ids():
    # "S9" reads like an id, and ">" and "|" are the separators, so each
    # gets an id though said once; "ab" is said twice but no longer than
    # an id, so it stays spelled out
    packs = [pack_of(["S9", "ab", "x > y"], ["p | q"]), pack_of(["ab"])]
    shared, bodies = render_prompt_packs(packs)
    assert shared.splitlines()[1:] == ["- S1: S9", "- S2: x > y", "- S3: p | q"]
    assert bodies == ["path to root: S1 > ab > S2\nrelations: S3", "path to root: ab"]


def test_a_line_said_twice_in_one_pack_is_shared():
    shared, bodies = render_prompt_packs([pack_of(["same words", "same words"])])
    assert shared.splitlines()[1:] == ["- S1: same words"]
    assert bodies == ["path to root: S1 > S1"]
