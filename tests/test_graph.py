import json

import numpy as np
import pytest

from construm.catalog import ColumnRef, Side
from construm.gateway import HashEmbeddingBackend, ModelGateway
from construm.graph import (
    Hypergraph,
    build_hypergraph,
    expand_candidates,
    extract_groups,
    groups_within,
    load_hypergraph,
    save_hypergraph,
    source_confusable_set,
)
from helpers import (
    PositionalEmbeddingBackend,
    build_catalog,
    dfs_components,
    random_catalog,
    stated_cosines_embedder,
    table_doc,
    unit,
    vectors_with_cosines,
)


def hash_gateway():
    return ModelGateway(embed_backend=HashEmbeddingBackend())


def graph_for_vectors(names, vectors, tau, side="target"):
    cat = build_catalog(side, [table_doc("t", [(n, "") for n in names])])
    gw = ModelGateway(embed_backend=PositionalEmbeddingBackend([vectors]))
    return cat, build_hypergraph(cat, gw, tau=tau)


def test_impossible_tau_gives_singletons():
    cat = random_catalog(0, "target", n=8)
    hg = build_hypergraph(cat, hash_gateway(), tau=1.0 + 1e-6)
    assert hg.links == ()
    assert len(hg.groups) == 8
    assert all(len(g) == 1 for g in hg.groups)


def test_three_column_transitive_group_with_hand_cosines():
    # cos(A,B)=0.95, cos(B,C)=0.92, cos(A,C)=0.80: A-B and B-C link at 0.9,
    # A-C does not, yet one component {A,B,C} emerges
    gram = np.array([[1.0, 0.95, 0.80],
                     [0.95, 1.0, 0.92],
                     [0.80, 0.92, 1.0]])
    assert np.all(np.linalg.eigvalsh(gram) > 0)  # realizable cosines
    vectors = vectors_with_cosines(gram)
    cat, hg = graph_for_vectors(["A", "B", "C"], vectors, tau=0.9)
    a, b, c = cat.refs()
    pairs = {(l.a, l.b) for l in hg.links}
    assert pairs == {(a, b), (b, c)}
    assert [len(g) for g in hg.groups] == [3]
    # brute-force DFS oracle over independently recomputed cosines
    mat = np.stack(vectors)
    oracle_pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)
                    if float(mat[i] @ mat[j]) >= 0.9]
    assert dfs_components(3, oracle_pairs) == [frozenset({0, 1, 2})]


def test_duplicate_texts_always_link():
    # same column and table names and description in two tables, so the
    # embedded texts are byte-identical
    cat = build_catalog("target", [table_doc("t1", [("a", "same words here")], name="tab"),
                                   table_doc("t2", [("a", "same words here")], name="tab")])
    hg = build_hypergraph(cat, hash_gateway(), tau=0.999999)
    assert len(hg.links) == 1
    assert hg.links[0].cosine == pytest.approx(1.0, abs=1e-9)
    assert [len(g) for g in hg.groups] == [2]


def test_extract_groups_no_links_all_singletons():
    cat = random_catalog(1, "target", n=4)
    refs = list(cat.refs())
    groups = extract_groups([], refs)
    assert [g.members for g in groups] == [frozenset({r}) for r in refs]


def test_extract_groups_chain_is_one_group():
    cat = random_catalog(2, "target", n=4)
    a, b, c, d = cat.refs()
    groups = extract_groups([(0, 1, 0.95), (1, 2, 0.95), (2, 3, 0.95)], [a, b, c, d])
    assert [g.members for g in groups] == [frozenset({a, b, c, d})]


def test_extract_groups_random_vs_dfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        cat = random_catalog(int(rng.integers(0, 10_000)), "target", n=n)
        refs = list(cat.refs())
        n_links = int(rng.integers(0, n))
        idx_pairs = set()
        while len(idx_pairs) < n_links:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            idx_pairs.add((int(i), int(j)))
        pairs = [(i, j, 0.99) for i, j in sorted(idx_pairs)]
        got = {frozenset(refs.index(r) for r in g.members)
               for g in extract_groups(pairs, refs)}
        assert got == set(dfs_components(n, sorted(idx_pairs)))


def test_expand_candidates_ranking_matches_oracle():
    # A's neighborhood: D at 0.97, E at 0.93, F at 0.91; cap 2 adds D then E
    e = np.eye(8)
    vectors = [
        unit(e[0]),                                  # A
        unit(0.10 * e[0] + e[1]),                    # B (below tau to A)
        unit(0.97 * e[0] + np.sqrt(1 - 0.97**2) * e[2]),  # D
        unit(0.93 * e[0] + np.sqrt(1 - 0.93**2) * e[3]),  # E
        unit(0.91 * e[0] + np.sqrt(1 - 0.91**2) * e[4]),  # F
    ]
    cat, hg = graph_for_vectors(["A", "B", "D", "E", "F"], vectors, tau=0.9)
    a, b, d, e_, f = cat.refs()
    got = expand_candidates([a], hg, cap_total=2, cap_strong=3)
    assert got == [a, d, e_]
    # oracle: rank all tau-neighbors of A by independently computed cosine
    mat = np.stack(vectors)
    sims = sorted(
        ((float(mat[0] @ mat[i]), i) for i in range(1, 5) if float(mat[0] @ mat[i]) >= 0.9),
        reverse=True,
    )
    assert [i for _, i in sims[:2]] == [2, 3]


def test_expand_candidates_caps_and_idempotence():
    cat = random_catalog(3, "target", n=6)
    refs = list(cat.refs())
    hg = build_hypergraph(cat, hash_gateway(), tau=0.9)
    assert expand_candidates(refs[:3], hg, cap_total=0) == refs[:3]
    assert expand_candidates(refs[:3], hg, cap_strong=0) == refs[:3]  # no strong head
    assert expand_candidates(refs, hg, cap_total=5) == refs  # nothing left to add
    expanded = expand_candidates(refs[:2], hg, cap_total=5)
    assert expanded[:2] == refs[:2]
    assert len(expanded) <= 2 + 5


def test_ranked_matches_sort_oracle_with_ties_and_unsorted_tables():
    # tables listed out of table_id order, so catalog order is not sort_key
    # order; the repeated (name, description, table name) texts embed to
    # identical rows, so their cosines tie exactly
    cat = build_catalog("target", [
        table_doc("t2", [("amount", "total paid"), ("code", "status code"),
                         ("note", "free text")], name="tab"),
        table_doc("t0", [("amount", "total paid"), ("code", "status code"),
                         ("rate", "daily rate")], name="tab"),
        table_doc("t1", [("amount", "total paid"), ("level", "grade level")], name="tab"),
    ])
    hg = build_hypergraph(cat, hash_gateway(), tau=0.9)
    assert [r.sort_key for r in hg.columns] != sorted(r.sort_key for r in hg.columns)
    rng = np.random.default_rng(5)
    queries = [hg.matrix[0], hg.matrix[1], unit(rng.standard_normal(hg.matrix.shape[1]))]
    for q in queries:
        scores = hg.matrix @ q
        assert len(set(scores.tolist())) < len(scores)  # exact ties present
        cos = dict(zip(hg.columns, scores.tolist()))
        oracle = sorted(hg.columns, key=lambda r: (-cos[r], r.sort_key))
        assert hg.ranked(scores) == oracle
        among = hg.columns[1::2] + hg.columns[:1]
        assert hg.ranked(scores, among=among) == [r for r in oracle if r in among]
        assert hg.ranked(scores, among=[]) == []


def test_graph_freezes_its_own_copy_of_the_rows():
    cat = random_catalog(3, "target", n=6)
    rows = hash_gateway().embed_batch([f"text {i}" for i in range(6)])
    hg = Hypergraph(Side.TARGET, 0.9, list(cat.refs()), rows, (), ())
    assert np.array_equal(hg.matrix, rows) and hg.matrix is not rows
    assert not hg.matrix.flags.writeable and rows.flags.writeable


def test_top_k_ranking_matches_the_full_ranking_cut_at_k():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 120))
        # tables out of table_id order, so catalog order is not sort_key order
        tables = rng.permutation(max(1, n // 7))
        columns = [ColumnRef(Side.TARGET, f"t{tables[i % len(tables)]}", i) for i in range(n)]
        hg = Hypergraph(Side.TARGET, 0.9, columns, rng.standard_normal((n, 4)), (), ())
        # planted exact ties: most scores come from a few values, -0.0 among them
        scores = np.where(rng.random(n) < 0.7,
                          rng.choice([0.5, 0.25, 0.0, -0.0, -0.5], size=n),
                          rng.standard_normal(n))
        if trial % 10 == 9:
            scores[rng.integers(n)] = np.nan
        among = [columns[i] for i in rng.integers(n, size=int(rng.integers(0, n + 5)))]
        for k in range(-2, n + 3):
            assert hg.ranked(scores, k=k) == hg.ranked(scores)[:k]
            assert hg.ranked(scores, among=among, k=k) == hg.ranked(scores, among=among)[:k]


def test_groups_within_induced_subgraph():
    gram = np.array([[1.0, 0.95, 0.2],
                     [0.95, 1.0, 0.2],
                     [0.2, 0.2, 1.0]])
    vectors = vectors_with_cosines(gram)
    cat, hg = graph_for_vectors(["A", "B", "C"], vectors, tau=0.9)
    a, b, c = cat.refs()
    groups = groups_within([a, b, c], hg)
    assert sorted((g.members for g in groups), key=len) == [frozenset({c}), frozenset({a, b})]


def test_groups_within_all_below_tau_are_singletons():
    cat = random_catalog(4, "target", n=5, tokens_per_desc=3)
    hg = build_hypergraph(cat, hash_gateway(), tau=1.0 + 1e-6)
    refs = list(cat.refs())
    groups = groups_within(refs[:3], hg)
    assert all(len(g) == 1 for g in groups)


def test_groups_within_recovers_full_stored_group():
    cat = build_catalog("target", [table_doc("t", [
        ("x1", "shared tokens all over this text"),
        ("x2", "shared tokens all over this text"),
        ("y", "unrelated content entirely"),
    ])])
    hg = build_hypergraph(cat, hash_gateway(), tau=0.85)
    full = [g for g in hg.groups if len(g) == 2][0]
    got = groups_within(full.sorted_members(), hg)
    assert got == [full]


def test_source_confusable_set_contains_query():
    cat = random_catalog(5, "source", n=6, tokens_per_desc=3)
    hg = build_hypergraph(cat, hash_gateway(), tau=1.0 + 1e-6)
    s = next(cat.refs())
    group = source_confusable_set(s, hg)
    assert group.members == frozenset({s})


def test_source_confusable_set_charttime_storetime_pair():
    cat = build_catalog("source", [table_doc("CHARTEVENTS", [
        ("CHARTTIME", "records the time at which an observation was made"),
        ("STORETIME", "records the time at which an observation was manually "
                      "input or manually validated by a member of the clinical staff"),
        ("VALUE", "the value measured"),
    ])])
    # the time pair clears tau 0.65 by 0.15; VALUE stays 0.35 under it
    gram = [[1.0, 0.8, 0.3], [0.8, 1.0, 0.3], [0.3, 0.3, 1.0]]
    hg = build_hypergraph(cat, ModelGateway(embed_backend=stated_cosines_embedder(gram, [3])),
                          tau=0.65)
    charttime, storetime, value = cat.refs()
    group = source_confusable_set(charttime, hg)
    assert group.members == frozenset({charttime, storetime})


def test_source_confusable_set_table_restriction_oracle():
    shared = "identical descriptive words repeated enough times to group"
    tables = [table_doc("a", [("a0", shared), ("a1", shared)], name="tab"),
              table_doc("b", [("b0", shared)], name="tab")]
    cat = build_catalog("source", tables)
    hg = build_hypergraph(cat, hash_gateway(), tau=0.8)
    a0, a1, b0 = cat.refs()
    assert hg.group_of(a0).members == frozenset({a0, a1, b0})
    restricted = source_confusable_set(a0, hg)
    # oracle: plain set intersection with the table, query always kept
    expected = (frozenset({a0, a1, b0}) & {a0, a1}) | {a0}
    assert restricted.members == expected


def test_tau_monotonicity_on_small_grid():
    for seed in range(5):
        cat = random_catalog(seed, "target", n=30, tokens_per_desc=4)
        gw = hash_gateway()
        graphs = [build_hypergraph(cat, gw, tau=t) for t in (0.5, 0.7, 0.9)]
        for lo, hi in zip(graphs, graphs[1:]):
            lo_pairs = {(l.a, l.b) for l in lo.links}
            hi_pairs = {(l.a, l.b) for l in hi.links}
            assert hi_pairs <= lo_pairs
            for g in hi.groups:  # raising tau only refines components
                assert any(g.members <= big.members for big in lo.groups)


def test_partition_property():
    cat = random_catalog(9, "target", n=40, tokens_per_desc=3)
    hg = build_hypergraph(cat, hash_gateway(), tau=0.8)
    seen = [r for g in hg.groups for r in g.members]
    assert len(seen) == len(set(seen)) == cat.column_count


def test_save_load_roundtrip(tmp_path):
    cat = random_catalog(6, "target", n=25, tokens_per_desc=4)
    hg = build_hypergraph(cat, hash_gateway(), tau=0.8)
    path = tmp_path / "graph.json"
    save_hypergraph(hg, cat, path)
    loaded = load_hypergraph(path, cat)
    assert loaded.tau == hg.tau and loaded.side is Side.TARGET
    assert loaded.columns == hg.columns
    assert loaded.links == hg.links
    assert loaded.groups == hg.groups
    assert np.array_equal(loaded.matrix, hg.matrix)
    assert loaded.embeddings is loaded.matrix and loaded.matrix.flags.c_contiguous
    assert not loaded.matrix.flags.writeable
    doc = json.loads(path.read_text())
    assert "norms" not in doc
    # files written while graphs still stored per-column norms load unchanged
    doc["norms"] = [1.0] * len(doc["columns"])
    old = tmp_path / "old_graph.json"
    old.write_text(json.dumps(doc))
    assert np.array_equal(load_hypergraph(old, cat).matrix, hg.matrix)
    doc["embeddings"].pop()
    old.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="embedding rows"):
        load_hypergraph(old, cat)
