from dataclasses import replace

import sys

import numpy as np
import pytest

from construm import evaluation
from construm.catalog import MatchQuery
from construm.evaluation import (
    BenchmarkError,
    BenchmarkSpec,
    EvalReport,
    QueryFailure,
    evaluate,
    generate_benchmark,
    load_benchmark,
    parse_report_csv,
    render_report,
    run_ablation_suite,
    run_queries,
    save_benchmark,
    weighted_average,
    weighted_total,
)
from construm.gateway import AccountingSnapshot, DiskCache, HashEmbeddingBackend, ModelGateway
from construm.graph import build_hypergraph, embedding_text
from construm.pipeline import Artifacts, MatchResult, MatchTrace, PipelineConfig
from helpers import (
    build_catalog,
    chain_bots,
    diff_echo_bot,
    first_candidate_decision_bot,
    make_gateway,
    random_catalog,
    stated_cosines_embedder,
    table_doc,
    tree_bot,
)

PAIR_DESC = "wage income amount reported by respondent in the reference year"


def hash_gw():
    return ModelGateway(embed_backend=HashEmbeddingBackend())


def benchmark_catalogs(pair_positions, n=60, unmatched=()):
    """Source catalog with near-duplicate descriptions planted at the given
    (i, j) ordinal pairs; every filler column gets its own disjoint tokens."""
    cols = [(f"s{i:03d}", f"topic{i}a theme{i}b focus{i}c note{i}d")
            for i in range(n)]
    for pi, (a, b) in enumerate(pair_positions):
        cols[a] = (f"s{a:03d}", f"{PAIR_DESC} variant {pi} early")
        cols[b] = (f"s{b:03d}", f"{PAIR_DESC} variant {pi} late")
    source = build_catalog("source", [table_doc("J", cols)])
    tcols = [(f"t{i:03d}", f"item{i}x subject{i}y detail{i}z") for i in range(n)]
    target = build_catalog("target", [table_doc("K", tcols)])
    verified = {}
    for ref in source.refs():
        if ref.ordinal in unmatched:
            continue
        verified[ref] = target.resolve(f"t{ref.ordinal:03d}")
    return source, target, verified


def make_spec(pair_positions, tau=0.8, min_separation=5, n=60, unmatched=()):
    source, target, verified = benchmark_catalogs(pair_positions, n, unmatched)
    return BenchmarkSpec(source, target, tau, min_separation, verified)


def test_close_pair_rejected_by_separation():
    # ordinals 5 and 8: two intervening items < 5 required
    spec = make_spec([(5, 8)])
    assert generate_benchmark(spec, hash_gw()) == []


def test_separated_pair_emits_two_queries():
    spec = make_spec([(5, 40)])
    queries = generate_benchmark(spec, hash_gw())
    assert [q.source.ordinal for q in queries] == [5, 40]
    assert all(q.ground_truth is not None for q in queries)
    assert all(q.shortlist == () for q in queries)


def test_planted_pairs_against_exhaustive_oracle():
    pairs = [(0, 10), (2, 30), (4, 50), (6, 70), (8, 90),
             (12, 95), (20, 60), (25, 80), (35, 75), (45, 85)]
    unmatched = {30, 60, 85}  # three pair members lack a verified match
    spec = make_spec(pairs, n=100, unmatched=unmatched)
    queries = generate_benchmark(spec, hash_gw())

    # exhaustive oracle: recompute every pair's cosine and separation
    cat = spec.source_catalog
    refs = list(cat.refs())
    m = hash_gw().embed_batch([embedding_text(cat, r) for r in refs])
    expected = set()
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            if abs(refs[j].ordinal - refs[i].ordinal) - 1 < spec.min_separation:
                continue
            if float(m[i] @ m[j]) < spec.pair_similarity_tau:
                continue
            for r in (refs[i], refs[j]):
                if r in spec.verified_matches:
                    expected.add(r)
    assert {q.source for q in queries} == expected
    # only planted pairs qualify, and members in `unmatched` dropped out
    planted_members = {o for p in pairs for o in p}
    assert {q.source.ordinal for q in queries} == planted_members - unmatched
    assert len(queries) == 17


def test_generation_is_deterministic_bytes():
    spec = make_spec([(3, 33), (7, 47)])
    gw = hash_gw()
    a = save_benchmark(generate_benchmark(spec, gw), spec.source_catalog, spec.target_catalog)
    b = save_benchmark(generate_benchmark(spec, hash_gw()), spec.source_catalog,
                       spec.target_catalog)
    assert a == b
    loaded = load_benchmark(a, spec.source_catalog, spec.target_catalog)
    assert [q.source for q in loaded] == \
        [q.source for q in generate_benchmark(spec, hash_gw())]


# -- evaluate -------------------------------------------------------------------


def fake_outcome(query, target_catalog, rank, n_candidates=8, tokens=100, calls=1):
    """A successful outcome whose ranked list places the truth at `rank`
    (or nowhere when rank is None)."""
    others = [r for r in target_catalog.refs() if r != query.ground_truth]
    ranked = others[: n_candidates - 1]
    if rank is not None:
        ranked = ranked[: rank - 1] + [query.ground_truth] + ranked[rank - 1:]
    spent = AccountingSnapshot(llm_calls=calls, prompt_tokens=tokens, latency=0.5)
    return MatchResult(query, ranked[0], tuple(ranked), MatchTrace(spent)), None


def ranked_fixture(ranks):
    source, target, verified = benchmark_catalogs([], n=20)
    queries = [MatchQuery(source=r, ground_truth=verified[r])
               for r in list(source.refs())[: len(ranks)]]
    outcomes = [fake_outcome(q, target, rank) for q, rank in zip(queries, ranks)]
    return queries, outcomes


def test_accuracy_at_k_hand_count():
    queries, outcomes = ranked_fixture([1, 1, 2, 7])
    report = evaluate(queries, outcomes)
    assert report.acc1 == 0.50
    assert report.acc3 == 0.75
    assert report.acc5 == 0.75
    assert report.mean_llm_calls == 1.0 and report.mean_tokens == 100.0
    assert report.mean_latency == 0.5


def test_all_rank_one_is_perfect():
    queries, outcomes = ranked_fixture([1, 1, 1])
    report = evaluate(queries, outcomes)
    assert report.acc1 == report.acc3 == report.acc5 == 1.0


def test_accuracy_is_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ranks = [int(r) if r <= 8 else None
                 for r in rng.integers(1, 12, size=int(rng.integers(1, 12)))]
        queries, outcomes = ranked_fixture(ranks)
        report = evaluate(queries, outcomes)
        assert report.acc1 <= report.acc3 <= report.acc5


def test_failed_outcome_scores_incorrect_and_counts_its_spend():
    queries, outcomes = ranked_fixture([1, 2])
    with pytest.raises(BenchmarkError):
        evaluate(queries[:1], outcomes)
    failure = QueryFailure("boom", AccountingSnapshot(llm_calls=3, completion_tokens=40,
                                                      latency=1.5))
    report = evaluate(queries, [outcomes[0], (None, failure)])
    assert report.acc1 == report.acc3 == report.acc5 == 0.5
    assert report.mean_llm_calls == (1 + 3) / 2
    assert report.mean_tokens == (100 + 40) / 2
    assert report.mean_latency == (0.5 + 1.5) / 2


def test_weighted_total_formula():
    pairs = [(12, 0.917), (28, 0.964), (32, 0.906), (5, 1.000)]
    got = weighted_average(pairs)
    assert abs(got - 0.935) <= 0.002
    # exact formula check to near machine precision
    manual = sum(n * a for n, a in pairs) / sum(n for n, _ in pairs)
    assert abs(got - manual) < 1e-12


def test_weighted_total_report_row():
    reports = [
        EvalReport("a", 12, 0.917, 0.95, 0.95, 1.0, 100.0, 1.0),
        EvalReport("b", 28, 0.964, 0.99, 1.00, 2.0, 200.0, 2.0),
    ]
    total = weighted_total(reports)
    assert total.n == 40
    assert total.acc1 == pytest.approx(weighted_average([(12, 0.917), (28, 0.964)]))
    assert total.mean_tokens == pytest.approx((12 * 100 + 28 * 200) / 40)


# -- ablation suite ----------------------------------------------------------------


def suite_fixture():
    spec = make_spec([(3, 33), (7, 47)], n=60)
    gw_build = hash_gw()
    artifacts = Artifacts(
        spec.source_catalog, spec.target_catalog,
        source_graph=build_hypergraph(spec.source_catalog, gw_build, tau=0.9),
        target_graph=build_hypergraph(spec.target_catalog, gw_build, tau=0.9),
    )
    queries = generate_benchmark(spec, hash_gw())
    assert len(queries) == 4
    gw = make_gateway(responder=chain_bots(diff_echo_bot,
                                           first_candidate_decision_bot, tree_bot))
    return queries, artifacts, gw


def test_embed_top1_suite_row_has_zero_cost():
    queries, artifacts, gw = suite_fixture()
    suite = run_ablation_suite(queries, ["embed_top1"], artifacts, gw)
    report, outcomes = suite["embed_top1"]
    assert report.mean_llm_calls == 0.0
    assert report.mean_tokens == 0.0
    assert all(r is not None and f is None for r, f in outcomes)


def test_suite_records_errors_and_continues():
    queries, artifacts, gw = suite_fixture()

    def broken_decider(prompt):
        if "Select the single best matching" in prompt:
            raise RuntimeError("injected")
        return None

    gw_bad = make_gateway(responder=chain_bots(broken_decider, diff_echo_bot, tree_bot))
    suite = run_ablation_suite(queries, ["llm_local"], artifacts, gw_bad)
    report, outcomes = suite["llm_local"]
    assert all(r is None for r, _ in outcomes)
    assert all("injected" in f.message for _, f in outcomes)
    assert report.acc1 == 0.0


def test_suite_carries_every_non_mode_field_into_every_mode(monkeypatch):
    queries, artifacts, gw = suite_fixture()
    base = PipelineConfig(mode="full", k=2, pack_budget=900)
    seen = []
    run_match = evaluation.run_match

    def recording_run_match(q, cfg, *args):
        seen.append(cfg)
        return run_match(q, cfg, *args)

    monkeypatch.setattr(evaluation, "run_match", recording_run_match)
    modes = ["llm_local", "no_tree"]
    suite = run_ablation_suite(queries, modes, artifacts, gw, base_config=base)
    assert [cfg.mode for cfg in seen] == [m for m in modes for _ in queries]
    assert all(cfg == replace(base, mode=cfg.mode) for cfg in seen)
    for mode in modes:
        _, outcomes = suite[mode]
        assert all(len(r.query.shortlist) == 2 for r, _ in outcomes)


def test_concurrent_query_traces_equal_serial_and_sum_to_totals():
    scat = random_catalog(31, "source", n=20, table_id="S", tokens_per_desc=5)
    tcat = random_catalog(32, "target", n=25, table_id="T", tokens_per_desc=5)
    # stated cosines in five clusters: source column c is in cluster (c // 2) % 5
    # and target column t in t // 5; within a cluster sources are 0.8 apart,
    # targets 0.9 and a source and a target 0.85, and clusters are orthogonal.
    # So each query shortlists its cluster's five targets and makes three
    # calls: one source block, one candidate block and the decision
    cluster = [(c // 2) % 5 for c in range(20)] + [t // 5 for t in range(25)]
    gram = np.eye(45)
    for a, b in zip(*np.nonzero(np.equal.outer(cluster, cluster))):
        if a != b:
            gram[a, b] = 0.8 if max(a, b) < 20 else 0.9 if min(a, b) >= 20 else 0.85
    gw_build = make_gateway(embed_backend=stated_cosines_embedder(gram, [20, 25]))
    artifacts = Artifacts(scat, tcat, source_graph=build_hypergraph(scat, gw_build, tau=0.5),
                          target_graph=build_hypergraph(tcat, gw_build, tau=0.5))
    queries = [MatchQuery(source=s) for s in list(scat.refs())[:16]]
    config = PipelineConfig.from_mode("no_tree", k=5)
    traces = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cap in (1, 16):
            # the per-call delay keeps several queries in flight at once
            gw = make_gateway(responder=chain_bots(diff_echo_bot,
                                                   first_candidate_decision_bot), delay=0.002,
                              max_in_flight=cap)
            outcomes = run_queries(queries, config, artifacts, gw)
            assert [error for _, error in outcomes] == [None] * 16
            traces[cap] = [result.trace for result, _ in outcomes]
            total = gw.accounting.snapshot()
            assert sum(t.spent.llm_calls for t in traces[cap]) == total.llm_calls == 48
            assert sum(t.spent.total_tokens for t in traces[cap]) == total.total_tokens
    finally:
        sys.setswitchinterval(interval)
    assert traces[16] == traces[1]


def test_repeated_queries_split_calls_and_cache_hits_the_same_way_every_run(tmp_path):
    scat = random_catalog(31, "source", n=20, table_id="S", tokens_per_desc=5)
    tcat = random_catalog(32, "target", n=25, table_id="T", tokens_per_desc=5)
    gw_build = hash_gw()
    artifacts = Artifacts(scat, tcat, source_graph=build_hypergraph(scat, gw_build, tau=0.5),
                          target_graph=build_hypergraph(tcat, gw_build, tau=0.5))
    # four sources, each asked twice in a row: the copies share every prompt
    queries = [MatchQuery(source=s) for s in list(scat.refs())[:4] for _ in range(2)]
    config = PipelineConfig.from_mode("no_tree", k=6)
    splits = set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for run in range(20):
            gw = make_gateway(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot),
                              delay=0.002, cache=DiskCache(tmp_path / f"cache{run}"))
            outcomes = run_queries(queries, config, artifacts, gw)
            splits.add(tuple((r.trace.spent.llm_calls, r.trace.spent.cache_hits)
                             for r, _ in outcomes))
    finally:
        sys.setswitchinterval(interval)
    assert len(splits) == 1, splits
    (split,) = splits
    # the first copy of each query books the calls, the repeat only cache hits
    assert all(calls > 0 for calls, _ in split[::2])
    assert all(calls == 0 and hits > 0 for calls, hits in split[1::2])


def test_failed_queries_count_their_calls_in_the_report():
    spec = make_spec([(3, 33), (7, 47), (11, 51)], n=60)
    gw_build = hash_gw()
    artifacts = Artifacts(
        spec.source_catalog, spec.target_catalog,
        source_graph=build_hypergraph(spec.source_catalog, gw_build, tau=0.9),
        target_graph=build_hypergraph(spec.target_catalog, gw_build, tau=0.9),
    )
    queries = generate_benchmark(spec, hash_gw())
    assert len(queries) == 6

    def never_decides(prompt):
        if "Select the single best matching" in prompt:
            return "still nothing useful"
        return None

    gw = make_gateway(responder=never_decides)
    report, outcomes = run_ablation_suite(queries, ["llm_local"], artifacts, gw)["llm_local"]
    total = gw.accounting.snapshot()
    assert all(r is None for r, _ in outcomes) and total.llm_calls == 12
    assert report.mean_llm_calls == total.llm_calls / 6 == 2.0
    assert report.mean_tokens == total.total_tokens / 6
    assert "| llm_local | 6 | 2.00 |" in render_report({"all": {"llm_local": report}})
    assert [failure.spent.llm_calls for _, failure in outcomes] == [2] * 6


def test_empty_mode_list_gives_empty_table():
    queries, artifacts, gw = suite_fixture()
    assert run_ablation_suite(queries, [], artifacts, gw) == {}


# -- rendering ----------------------------------------------------------------------


def demo_reports():
    r1 = EvalReport("2016_2018", 28, 0.964, 0.99, 1.0, 1.5, 5000.0, 12.0)
    r2 = EvalReport("2018_2020", 32, 0.906, 0.95, 0.97, 1.8, 6000.5, 14.25)
    r3 = EvalReport("waveé → next, with comma", 5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    return {"2016_2018": {"full": r1, "embed_top1": r1},
            "2018_2020": {"full": r2},
            r3.slice_name: {"full": r3}}


def test_markdown_shape_and_total_row():
    text = render_report(demo_reports(), "markdown")
    assert "## Accuracy" in text and "## Efficiency" in text
    assert "| Slice | n | embed_top1 | full |" in text
    assert "| Total |" in text  # two slices produce a weighted Total row
    assert "| 2016_2018 | 28 | 0.964 | 0.964 |" in text


def test_single_slice_markdown_has_no_total():
    text = render_report({"all": {"full": demo_reports()["2016_2018"]["full"]}},
                         "markdown")
    assert "| Total |" not in text


def test_csv_round_trip_exact():
    grid = demo_reports()
    assert parse_report_csv(render_report(grid, "csv")) == grid


def test_csv_handles_unicode_slice_names():
    r = EvalReport("waveé → next, with comma", 5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    text = render_report({r.slice_name: {"full": r}}, "csv")
    grid = parse_report_csv(text)
    assert list(grid) == ["waveé → next, with comma"]
    assert grid[r.slice_name]["full"] == r
