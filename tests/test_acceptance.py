"""Acceptance suite: one test per release criterion, each against an
independent oracle and a stated tolerance or exact expectation, with
runtime ceilings where the criterion names one."""

import dataclasses
import json
import re
import time
import zlib
from collections import Counter

import numpy as np

from construm import kernels, pipeline
from construm.catalog import MatchQuery, mask_catalog, scan_for_raw_identifiers
from construm.evaluation import (
    BenchmarkSpec,
    generate_benchmark,
    run_ablation_suite,
    run_queries,
    save_benchmark,
    weighted_average,
)
from construm.gateway import HashEmbeddingBackend, ModelGateway
from construm.graph import build_hypergraph, embedding_text, extract_groups, save_hypergraph
from construm.pipeline import MODES, Artifacts, PipelineConfig, run_match, shortlist
from construm.tree import TreeParams, build_context_tree, lineage, save_tree
from helpers import (
    build_catalog,
    chain_bots,
    diff_echo_bot,
    dfs_components,
    first_candidate_decision_bot,
    jittered,
    leaf_coverage,
    make_gateway,
    random_catalog,
    stated_cosines_embedder,
    table_doc,
    tree_bot,
    tree_gateway,
)
from test_pack import deep_tree, render_expect
from test_pipeline import time_fixture

TAU_GRID = (0.80, 0.90, 0.95)


def grouping_catalogs(count=100, max_n=300):
    rng = np.random.default_rng(2024)
    embedder = HashEmbeddingBackend()
    gateway = ModelGateway(embed_backend=embedder)
    out = []
    for i in range(count):
        n = int(rng.integers(5, max_n + 1))
        cat = random_catalog(seed=10_000 + i, side="target", n=n,
                             tokens_per_desc=int(rng.integers(2, 7)))
        refs = list(cat.refs())
        matrix = gateway.embed_batch([embedding_text(cat, r) for r in refs])
        out.append((cat, refs, matrix))
    return out


def production_groups(refs, matrix, tau):
    pairs = kernels.threshold_links(matrix, tau)
    return pairs, extract_groups(pairs, refs)


def test_component_oracle_equivalence_100_catalogs():
    t0 = time.monotonic()
    catalogs = grouping_catalogs()
    assert len(catalogs) == 100
    for cat, refs, matrix in catalogs:
        # independent oracle: numpy all-pairs matrix + DFS components
        cos = matrix @ matrix.T
        n = len(refs)
        for tau in TAU_GRID:
            _, groups = production_groups(refs, matrix, tau)
            oracle_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                            if cos[i, j] >= tau]
            expected = {frozenset(c) for c in dfs_components(n, oracle_pairs)}
            got = {frozenset(refs.index(r) for r in g.members) for g in groups}
            assert got == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_tau_monotonicity_zero_violations():
    catalogs = grouping_catalogs()
    for cat, refs, matrix in catalogs:
        per_tau = {}
        for tau in TAU_GRID:
            pairs, groups = production_groups(refs, matrix, tau)
            per_tau[tau] = ({(i, j) for i, j, _ in pairs},
                            [g.members for g in groups])
        for lo, hi in zip(TAU_GRID, TAU_GRID[1:]):
            lo_links, lo_groups = per_tau[lo]
            hi_links, hi_groups = per_tau[hi]
            assert hi_links <= lo_links  # raising tau never adds a link
            for members in hi_groups:   # ... and never merges components
                assert any(members <= big for big in lo_groups)


def test_tree_partition_suite_50_seeds():
    t0 = time.monotonic()
    params = TreeParams()
    rng = np.random.default_rng(7)
    for seed in range(50):
        n_tables = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 2501)) for _ in range(n_tables)]
        tables = []
        for ti, n in enumerate(sizes):
            cols = [(f"t{ti}_c{j:04d}", f"field {j} group {j % 13} kind {j % 7}")
                    for j in range(n)]
            tables.append(table_doc(f"t{ti}", cols))
        cat = build_catalog("source", tables)
        tree = build_context_tree(cat, params, tree_gateway())

        cols = leaf_coverage(tree)
        assert len(cols) == len(set(cols)) == cat.column_count
        assert set(cols) == set(cat.refs())
        for leaf in tree.leaves():
            assert 1 <= len(leaf.members) <= params.leaf_budget
        for node in tree.nodes.values():
            if node.span is None or not node.children:
                continue
            child_spans = [tree.node(c).span for c in node.children]
            assert child_spans[0][1] == node.span[1]
            assert child_spans[-1][2] == node.span[2]
            for a, b in zip(child_spans, child_spans[1:]):
                assert a[2] + 1 == b[1]
        step = max(1, cat.column_count // 23)
        for ref in list(cat.refs())[::step]:
            path = lineage(tree, ref)
            assert path[-1].node_id == tree.root
            for child, parent in zip(path, path[1:]):
                assert tree.parent[child.node_id] == parent.node_id
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_budget_compliance_sweep():
    from construm.tree import RelationSnippet, build_context_pack

    relations = (RelationSnippet("n4", "n3", "leaf-adjacent relation"),
                 RelationSnippet("n1", "n0", "root-adjacent relation"))
    tree, cat, ref = deep_tree(depth=5, relations=relations)
    minimum = len(render_expect("col_a", "what this column means",
                                ["summary level 4", "summary level 0"], []))
    full_len = len(build_context_pack(tree, cat, ref, budget=10**5).rendered)
    budgets = list(range(minimum, full_len + 2)) + [2_000, 10_000, 10**5]
    for budget in budgets:
        pack = build_context_pack(tree, cat, ref, budget=budget)
        assert len(pack.rendered) <= budget
        depths = [d for d, _ in pack.lineage_summaries]
        assert depths[0] == 4 and depths[-1] == 0  # leaf and root survive


# -- planted end-to-end ablation ---------------------------------------------------


def planted_fixture():
    n_pairs = 5
    pair_words = {
        i: " ".join(f"p{i}tok{k}" for k in range(8)) for i in range(1, n_pairs + 1)
    }
    target_cols = []
    for i in range(1, n_pairs + 1):
        target_cols.append((f"t{i}_alpha", f"{pair_words[i]} alpha-kind"))
        target_cols.append((f"t{i}_beta", f"{pair_words[i]} beta-kind"))
    for j in range(20):
        target_cols.append((f"fill{j:02d}", f"f{j}a f{j}b f{j}c f{j}d"))
    tcat = build_catalog("target", [table_doc("T", target_cols)])
    assert tcat.column_count == 30

    source_cols = []
    for i in range(1, n_pairs + 1):
        source_cols.append((f"q{i}_a", pair_words[i]))
        source_cols.append((f"q{i}_b", pair_words[i]))
    scat = build_catalog("source", [table_doc("Q", source_cols)])

    # stated cosines, source columns then target ones: 0.95 within a source
    # pair, 0.9 within a target pair, 0.85 from a source pair to its target
    # pair, and 0 between any other two columns
    gram = np.eye(2 * n_pairs + tcat.column_count)
    for i in range(n_pairs):
        src, tgt = [2 * i, 2 * i + 1], [2 * n_pairs + 2 * i, 2 * n_pairs + 2 * i + 1]
        gram[np.ix_(src, tgt)] = gram[np.ix_(tgt, src)] = 0.85
        gram[src[0], src[1]] = gram[src[1], src[0]] = 0.95
        gram[tgt[0], tgt[1]] = gram[tgt[1], tgt[0]] = 0.9
    gw_build = ModelGateway(embed_backend=stated_cosines_embedder(
        gram, [2 * n_pairs, tcat.column_count]))
    artifacts = Artifacts(
        scat, tcat, source_tree=None, target_tree=None,
        source_graph=build_hypergraph(scat, gw_build, tau=0.8),
        target_graph=build_hypergraph(tcat, gw_build, tau=0.8),
    )
    # sanity: the five target pairs (and nothing else) are confusable groups
    pair_groups = [g for g in artifacts.target_graph.groups if len(g) > 1]
    assert len(pair_groups) == n_pairs
    assert all(len(g) == 2 for g in pair_groups)

    def target_diff_bot(prompt):
        if "TASK: differentiate" not in prompt or "SIDE: target" not in prompt:
            return None
        members = re.findall(r"^- (C[0-9]+) \(t\d+_(alpha|beta)\):", prompt, re.M)
        lines = ["Summary: same metric; the variants differ in kind"]
        lines += [f"- {cid}: planted-cue {kind}-kind" for cid, kind in members]
        return "\n".join(lines)

    def decision_bot(prompt):
        if "Select the single best matching target column" not in prompt:
            return None
        q = re.search(r"Query column: q\d+_(a|b)", prompt)
        want = "alpha" if q.group(1) == "a" else "beta"
        cues = re.findall(r"^- (C[0-9]+): planted-cue (alpha|beta)-kind$", prompt, re.M)
        if cues:  # the planted differentiation cue resolves the pair
            for cid, kind in cues:
                if kind == want:
                    return f"ANSWER: {cid}"
        candidates = re.findall(r"^- (C[0-9]+): name:", prompt, re.M)
        lowest = min(candidates, key=lambda c: int(c[1:]))
        return f"ANSWER: {lowest}"

    responder = chain_bots(target_diff_bot, diff_echo_bot, decision_bot, tree_bot)
    queries = []
    for i in range(1, n_pairs + 1):
        queries.append(MatchQuery(source=scat.resolve(f"q{i}_a"),
                                  ground_truth=tcat.resolve(f"t{i}_alpha")))
        queries.append(MatchQuery(source=scat.resolve(f"q{i}_b"),
                                  ground_truth=tcat.resolve(f"t{i}_beta")))
    return queries, artifacts, responder


def test_planted_ablation_full_perfect_local_half():
    t0 = time.monotonic()
    queries, artifacts, responder = planted_fixture()
    gw = make_gateway(responder=responder)
    base = PipelineConfig.from_mode("full", k=2)
    suite = run_ablation_suite(queries, ["full", "llm_local"], artifacts, gw,
                               base_config=base)
    full_report, _ = suite["full"]
    local_report, _ = suite["llm_local"]
    assert full_report.acc1 == 1.00
    assert local_report.acc1 == 0.50
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_time_column_scenario_modes_disagree_as_planted():
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    q = MatchQuery(source=scat.resolve("CHARTTIME"),
                   shortlist=(tcat.resolve("observation_time"),
                              tcat.resolve("recorded_time")))
    full = run_match(q, PipelineConfig.from_mode("full"), artifacts,
                     make_gateway(responder=responder))
    local = run_match(q, PipelineConfig.from_mode("llm_local"), artifacts,
                      make_gateway(responder=responder))
    assert full.chosen == tcat.resolve("observation_time")
    assert local.chosen == tcat.resolve("recorded_time")


def test_efficiency_accounting_exact_sums():
    rng = np.random.default_rng(3)
    scat = random_catalog(31, "source", n=20, table_id="S", tokens_per_desc=5)
    tcat = random_catalog(32, "target", n=25, table_id="T", tokens_per_desc=5)
    gw_build = ModelGateway(embed_backend=HashEmbeddingBackend())
    artifacts = Artifacts(
        scat, tcat, source_tree=None, target_tree=None,
        source_graph=build_hypergraph(scat, gw_build, tau=0.8),
        target_graph=build_hypergraph(tcat, gw_build, tau=0.8),
    )
    gw = make_gateway(responder=chain_bots(diff_echo_bot,
                                           first_candidate_decision_bot, tree_bot))
    spent = []
    for s in list(scat.refs())[:20]:
        q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 5, gw)))
        result = run_match(q, PipelineConfig.from_mode("no_tree"), artifacts, gw)
        spent.append(result.trace.spent)
    assert len(spent) == 20
    total = gw.accounting.snapshot()
    assert sum(t.total_tokens for t in spent) == total.total_tokens
    assert sum(t.llm_calls for t in spent) == total.llm_calls

    gw2 = make_gateway(responder=first_candidate_decision_bot)
    for s in list(scat.refs())[:20]:
        q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 5, gw2)))
        result = run_match(q, PipelineConfig.from_mode("embed_top1"), artifacts, gw2)
        assert result.trace.spent.llm_calls == 0
        assert result.trace.spent.total_tokens == 0
    assert gw2.accounting.snapshot().total_tokens == 0


def test_reported_weighted_total_recomputes():
    slices = [(12, 0.917), (28, 0.964), (32, 0.906), (5, 1.000)]
    assert abs(weighted_average(slices) - 0.935) <= 0.002


def test_benchmark_determinism_and_exhaustive_oracle():
    n = 200
    pair_positions = [(3, 40), (10, 90), (25, 120), (55, 170), (80, 195),
                      (100, 150), (15, 18), (60, 61)]  # last two are too close
    # a planted pair shares 34 of its 36 tokens (cosine 0.94 expected under the
    # hash embedder, >= 0.87 over its seeds 0-199); any other two texts share
    # at most 5 tokens, two fillers 4 of 16 (<= 0.71 over those seeds), so
    # tau 0.8 parts them
    cols = [(f"s{i:03d}", " ".join(f"u{i}{c}" for c in "abcdefghijkl")) for i in range(n)]
    for pi, (a, b) in enumerate(pair_positions):
        words = " ".join(f"set{pi}w{k}" for k in range(30))
        cols[a] = (f"s{a:03d}", f"{words} first")
        cols[b] = (f"s{b:03d}", f"{words} second")
    source = build_catalog("source", [table_doc("J", cols)])
    target = build_catalog("target", [table_doc("K", [
        (f"t{i:03d}", f"w{i}x w{i}y w{i}z") for i in range(n)])])
    unmatched = {40, 90}
    verified = {r: target.resolve(f"t{r.ordinal:03d}")
                for r in source.refs() if r.ordinal not in unmatched}
    spec = BenchmarkSpec(source, target, pair_similarity_tau=0.8,
                         min_separation=5, verified_matches=verified)

    gw = ModelGateway(embed_backend=HashEmbeddingBackend())
    first = save_benchmark(generate_benchmark(spec, gw), source, target)
    second = save_benchmark(
        generate_benchmark(spec, ModelGateway(embed_backend=HashEmbeddingBackend())),
        source, target)
    assert first.encode() == second.encode()  # byte-identical reruns

    # exhaustive oracle over all column pairs
    refs = list(source.refs())
    m = gw.embed_batch([embedding_text(source, r) for r in refs])
    expected = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(refs[j].ordinal - refs[i].ordinal) - 1 < spec.min_separation:
                continue
            if float(m[i] @ m[j]) < spec.pair_similarity_tau:
                continue
            for r in (refs[i], refs[j]):
                if r in spec.verified_matches:
                    expected.add(r)
    got = {q.source for q in generate_benchmark(spec, gw)}
    assert got == expected
    # the separation filter really dropped the two close pairs, and the
    # verified-match filter dropped the two unmatched members
    assert {15, 18, 60, 61} & {r.ordinal for r in got} == set()
    assert {3, 10, 25, 55, 80, 100} <= {r.ordinal for r in got}
    assert unmatched & {r.ordinal for r in got} == set()
    assert len(got) == 2 * 6 - len(unmatched)


def masked_fixture():
    """Masked catalogs whose descriptions name other raw columns, with
    trees that carry relation snippets."""
    n = 50
    src_cols = [
        (f"J{i:03d}",
         f"employment item; routed from J{(i + 11) % n:03d} and J{(i + 29) % n:03d}")
        for i in range(n)
    ]
    tgt_cols = [
        (f"K{i:03d}", f"later wave field aligned with K{(i + 17) % n:03d}")
        for i in range(n)
    ]
    raw_source = build_catalog("source", [table_doc("J", src_cols)])
    raw_target = build_catalog("target", [table_doc("K", tgt_cols)])
    scat = mask_catalog(raw_source)
    tcat = mask_catalog(raw_target)

    gw_build = ModelGateway(embed_backend=HashEmbeddingBackend())
    params = TreeParams(leaf_budget=20, min_group=4, window=50)
    artifacts = Artifacts(
        scat, tcat,
        source_tree=build_context_tree(scat, params, tree_gateway(relation_bot), True),
        target_tree=build_context_tree(tcat, params, tree_gateway(relation_bot), True),
        source_graph=build_hypergraph(scat, gw_build, tau=0.8),
        target_graph=build_hypergraph(tcat, gw_build, tau=0.8),
    )
    return raw_source, raw_target, artifacts


def relation_bot(prompt):
    # the second snippet holds both separators of a pack's prompt form
    if "TASK: sibling-relations" not in prompt:
        return None
    return "A -> B: A is read before B\nB -> A: B | A, since B > A"


def test_masking_soundness_full_mode_run():
    raw_source, raw_target, artifacts = masked_fixture()
    scat = artifacts.source_catalog
    gw = make_gateway(responder=chain_bots(diff_echo_bot,
                                           first_candidate_decision_bot, tree_bot))
    for s in list(scat.refs())[:5]:
        q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 6, gw)))
        run_match(q, PipelineConfig.from_mode("full"), artifacts, gw)
    prompts = [p for _, p in gw.chat_backend.call_log]
    assert len(prompts) >= 5
    assert scan_for_raw_identifiers(raw_source, prompts) == []
    assert scan_for_raw_identifiers(raw_target, prompts) == []


# -- packs in prompts: each line said once, read back exactly --------------------

_SHARED_RE = re.compile(r"^- (S[1-9][0-9]*): (.*)$")
_ID_RE = re.compile(r"S[1-9][0-9]*")
_OWNER_RE = re.compile(r"^- (C[0-9]+)(?:: name: | \()")


def read_prompt_packs(prompt):
    """The shared lines and the packs of one prompt, read from the format
    the README documents: ``{id: line}`` and, in prompt order, (owner, path
    items, relation items, prompt form), the owner ``"query"`` or a cid."""
    lines = prompt.splitlines()
    shared, packs, owner = {}, [], None
    for i, line in enumerate(lines):
        if line == "Shared context (cited by id below):":
            for entry in lines[i + 1:]:
                m = _SHARED_RE.match(entry)
                if not m:
                    break
                assert m.group(1) not in shared
                shared[m.group(1)] = m.group(2)
        elif line == "Query context:":
            owner = "query"
        elif _OWNER_RE.match(line):
            owner = _OWNER_RE.match(line).group(1)
        body = line.removeprefix("    ")
        if body.startswith("path to root: "):
            form = [body]
            relations = []
            following = lines[i + 1].removeprefix("    ") if i + 1 < len(lines) else ""
            if following.startswith("relations: "):
                form.append(following)
                relations = following[len("relations: "):].split(" | ")
            path = body[len("path to root: "):].split(" > ")
            packs.append((owner, path, relations, "\n".join(form)))
    return shared, packs


def check_prompt_packs(prompt, pack_of_owner):
    shared, packs = read_prompt_packs(prompt)
    assert len(set(shared.values())) == len(shared)  # each shared line listed once
    spelled = []
    for owner, path, relations, form in packs:
        pack = pack_of_owner(owner)
        for items, want in ((path, [s for _, s in pack.lineage_summaries]),
                            (relations, list(pack.relation_lines))):
            assert all(x in shared for x in items if _ID_RE.fullmatch(x))
            assert [shared[x] if _ID_RE.fullmatch(x) else x for x in items] == want
            spelled += [x for x in items if not _ID_RE.fullmatch(x)]
        assert len(form) <= len(pack.rendered)  # the per-pack budget still bounds it
    # a shared line is never spelled out; a line spelled out twice is no
    # longer than an id
    assert not set(spelled) & set(shared.values())
    longest_id = len(f"S{len(shared) + 1}")
    assert all(len(x) <= longest_id for x in spelled if spelled.count(x) > 1)
    return len(shared), len(packs)


def run_and_check_prompt_packs(queries, artifacts, responder, monkeypatch):
    built = {}
    original = pipeline.build_context_pack

    def recording(tree, catalog, column, budget):
        built[column] = original(tree, catalog, column, budget)
        return built[column]

    monkeypatch.setattr(pipeline, "build_context_pack", recording)
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    shared_lines = packs_read = 0
    for q in queries:
        gw = make_gateway(responder=responder)
        q = q.with_shortlist(tuple(shortlist(q.source, artifacts, 6, gw)))
        run_match(q, PipelineConfig.from_mode("full"), artifacts, gw)
        for tag, prompt in gw.chat_backend.call_log:
            if tag == "decision":
                def owner_pack(owner):
                    return built[q.source if owner == "query" else tcat.resolve(owner)]
            elif tag == "differentiation":
                catalog = scat if "\nSIDE: source\n" in prompt else tcat

                def owner_pack(owner, catalog=catalog):
                    return built[catalog.resolve(owner)]
            else:
                continue
            shared, packs = check_prompt_packs(prompt, owner_pack)
            shared_lines += shared
            packs_read += packs
    return shared_lines, packs_read


def test_prompt_packs_read_back_to_their_evidence_masked_and_unmasked(monkeypatch):
    queries, artifacts, responder = planted_fixture()
    params = TreeParams(leaf_budget=6, min_group=3, window=12)
    artifacts.source_tree = build_context_tree(
        artifacts.source_catalog, params, tree_gateway(relation_bot), True)
    artifacts.target_tree = build_context_tree(
        artifacts.target_catalog, params, tree_gateway(relation_bot), True)
    shared, packs = run_and_check_prompt_packs(queries, artifacts, responder, monkeypatch)
    assert shared > 0 and packs > len(queries)

    _, _, masked = masked_fixture()
    masked_queries = [MatchQuery(source=s) for s in list(masked.source_catalog.refs())[:5]]
    responder = chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot)
    shared, packs = run_and_check_prompt_packs(masked_queries, masked, responder, monkeypatch)
    assert shared > 0 and packs > len(masked_queries)


# -- schedule perturbation: no interleaving changes an output ---------------------

SCHEDULE_SEEDS = (1, 2, 3, 4, 5)


def clustered_catalog():
    """Three wide tables and four pairs of narrow ones; each pair shares a
    description, so the pairs make four clusters on one dendrogram level.
    The wide tables cluster on their themes, so the build answers each
    theme distinctly (``distinct_themes``)."""
    sizes = [(60, ""), (3, "payments"), (130, ""), (4, "visits"), (5, "payments"),
             (3, "visits"), (2, "claims"), (3, "claims"), (55, ""), (2, "wards"), (4, "wards")]
    return build_catalog("source", [
        table_doc(f"t{i}", [(f"t{i}_c{j}", f"col {j} of table {i}") for j in range(n)],
                  description=about)
        for i, (n, about) in enumerate(sizes)])


def distinct_themes(prompt):
    # one token per table, as tree_bot gives node summaries
    if "TASK: table-theme" not in prompt:
        return None
    return f"theme#{zlib.crc32(prompt.encode()) & 0xFFFF:04x}"


def tagged_relations(prompt):
    # snippets whose text depends on the siblings listed
    if "TASK: sibling-relations" not in prompt:
        return None
    tag = zlib.crc32(prompt.encode())
    return "\n".join(f"{a} -> {b}: {a} leads to {b} ({tag})" for a, b in ("AB", "BC", "CA"))


def counters(spent):
    return Counter({k: v for k, v in dataclasses.asdict(spent).items() if k != "latency"})


def scheduled_run(out_dir, max_in_flight, seed=None):
    """What one end-to-end run of the acceptance fixtures outputs: graph
    and tree files, every chat prompt, and each query's outcome in every
    mode, with every ``spent`` counter but latency. With ``seed``, each
    chat call first sleeps a seeded 0-2 ms (``jittered``)."""
    def gateway(*bots):
        responder = chain_bots(*bots)
        return make_gateway(responder=responder if seed is None else jittered(responder, seed),
                            max_in_flight=max_in_flight)

    out_dir.mkdir()
    prompts, outcomes = Counter(), {}
    queries, planted, planted_bot = planted_fixture()
    _, _, masked = masked_fixture()
    masked_queries = [MatchQuery(source=s) for s in list(masked.source_catalog.refs())[:5]]
    for name, artifacts, qs, bot, params in (
            ("planted", planted, queries, planted_bot,
             TreeParams(leaf_budget=6, min_group=3, window=12)),
            ("masked", masked, masked_queries,
             chain_bots(diff_echo_bot, first_candidate_decision_bot),
             TreeParams(leaf_budget=20, min_group=4, window=50))):
        build = gateway(relation_bot, tree_bot)
        for side in ("source", "target"):
            catalog = getattr(artifacts, f"{side}_catalog")
            tree = build_context_tree(catalog, params, build, True)
            setattr(artifacts, f"{side}_tree", tree)
            save_tree(tree, catalog, out_dir / f"{name}_{side}_tree.json")
            save_hypergraph(getattr(artifacts, f"{side}_graph"), catalog,
                            out_dir / f"{name}_{side}_graph.json")
        ask = gateway(bot, tree_bot)
        spent = Counter()
        for mode in MODES:
            results = run_queries(qs, PipelineConfig.from_mode(mode), artifacts, ask)
            for i, (result, failure) in enumerate(results):
                if result is None:
                    record = (failure.message, counters(failure.spent))
                else:
                    record = (result.chosen, result.ranked, result.trace.prompt_snapshot,
                              counters(result.trace.spent))
                outcomes[name, mode, i] = record
                spent += record[-1]
        # every call a query made is booked to that query and no other
        assert spent == counters(ask.accounting.snapshot())
        prompts.update(build.chat_backend.call_log + ask.chat_backend.call_log)
    build, catalog = gateway(tagged_relations, distinct_themes, tree_bot), clustered_catalog()
    save_tree(build_context_tree(catalog, TreeParams(), build, True), catalog,
              out_dir / "clustered_tree.json")
    prompts.update(build.chat_backend.call_log)
    files = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
    return files, prompts, outcomes


def test_schedule_perturbation_changes_no_output(tmp_path):
    t0 = time.monotonic()
    files, prompts, outcomes = scheduled_run(tmp_path / "serial", max_in_flight=1)
    # the clustered tree's first level is four pairs, whose relation calls
    # go out in one fan-out
    clustered = json.loads(files["clustered_tree.json"])
    pairs = [frozenset(node["children"]) for n, node in clustered["nodes"].items()
             if n.startswith("grp:")]
    assert len(pairs) == 4 and all(len(pair) == 2 for pair in pairs)
    assert set(pairs) <= {frozenset(r[:2]) for r in clustered["relations"]}
    # full-mode prompts hold packs and both sections of differentiation blocks
    full = [o[2] for (_, mode, _), o in outcomes.items() if mode == "full" and len(o) == 4]
    assert any("Group #2" in p and "Source diff" in p and "path to root" in p for p in full)
    for seed in SCHEDULE_SEEDS:
        run = scheduled_run(tmp_path / f"seed{seed}", max_in_flight=16, seed=seed)
        assert run[0] == files, seed
        assert run[1] == prompts, seed
        assert run[2] == outcomes, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
