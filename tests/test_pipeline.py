import dataclasses
import logging
import re
import threading
import time
from collections import Counter

import numpy as np
import pytest

from construm import pipeline
from construm.catalog import MatchQuery, mask_catalog, scan_for_raw_identifiers
from construm.evaluation import run_queries
from construm.gateway import (
    GatewayError,
    ModelGateway,
    ScriptedChatBackend,
    TransportError,
    estimate_tokens,
)
from construm.graph import build_hypergraph, load_hypergraph, save_hypergraph
from construm.pipeline import (
    Artifacts,
    ChoiceParseError,
    InvalidChoiceError,
    PipelineConfig,
    PipelineError,
    assemble_final_prompt,
    final_prompt_sections,
    parse_choice,
    run_match,
    shortlist,
)
from construm.tree import TreeError, TreeParams, build_context_tree, load_tree, save_tree
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
    tree_gateway,
)
from test_pack import pack_of

PARAMS = TreeParams()


def hash_gw(responder=None, **kw):
    return make_gateway(responder=responder, **kw)


def basic_artifacts(n_targets=12, tau=0.9):
    scat = build_catalog("source", [table_doc("s", [("query_col", "an interesting field")])])
    tcat = random_catalog(7, "target", n=n_targets, table_id="tt")
    gw = hash_gw()
    return Artifacts(scat, tcat, source_tree=None, target_tree=None,
                     source_graph=build_hypergraph(scat, gw, tau=tau),
                     target_graph=build_hypergraph(tcat, gw, tau=tau))


# -- shortlist -------------------------------------------------------------------


def test_shortlist_clamps_to_target_size():
    artifacts = basic_artifacts(n_targets=12)
    s = next(artifacts.source_catalog.refs())
    got = shortlist(s, artifacts, k=20, gateway=hash_gw())
    assert len(got) == 12


def test_shortlist_top1_matches_argmax_oracle():
    artifacts = basic_artifacts(n_targets=40)
    s = next(artifacts.source_catalog.refs())
    gw = hash_gw()
    got = shortlist(s, artifacts, k=1, gateway=gw)
    hg = artifacts.target_graph
    from construm.graph import embedding_text

    s_vec = gw.embed_batch([embedding_text(artifacts.source_catalog, s)])[0]
    sims = [float(np.dot(hg.vector(r), s_vec)) for r in hg.columns]
    assert got == [hg.columns[int(np.argmax(sims))]]


def test_shortlist_descending_with_deterministic_ties():
    artifacts = basic_artifacts(n_targets=15)
    s = next(artifacts.source_catalog.refs())
    gw = hash_gw()
    got = shortlist(s, artifacts, k=15, gateway=gw)
    hg = artifacts.target_graph
    from construm.graph import embedding_text

    s_vec = gw.embed_batch([embedding_text(artifacts.source_catalog, s)])[0]
    sims = [float(np.dot(hg.vector(r), s_vec)) for r in got]
    assert sims == sorted(sims, reverse=True)
    assert len(set(got)) == 15


# -- parse_choice ----------------------------------------------------------------


def cid_map(catalog, refs):
    return {catalog.meta(r).cid: r for r in refs}


def test_parse_choice_takes_last_answer():
    artifacts = basic_artifacts()
    refs = list(artifacts.target_catalog.refs())
    mapping = cid_map(artifacts.target_catalog, refs)
    chosen = parse_choice("maybe C12... ANSWER: C1\nANSWER: C3", mapping)
    assert chosen == artifacts.target_catalog.resolve("C3")


def test_parse_choice_requires_candidate_membership():
    artifacts = basic_artifacts()
    refs = list(artifacts.target_catalog.refs())[:2]
    mapping = cid_map(artifacts.target_catalog, refs)
    with pytest.raises(InvalidChoiceError):
        parse_choice("ANSWER: C99", mapping)
    with pytest.raises(ChoiceParseError):
        parse_choice("no answer line at all", mapping)


# -- prompt assembly --------------------------------------------------------------


def test_final_prompt_section_order():
    source_diff = "Source diff (confusable source group):\nSummary: s\n"
    candidate_diff = "Differentiation among candidates:\nGroup #1 (C1 vs C2): x"
    candidates = [("C1", "a", "da", None), ("C2", "b", "db", None)]
    sections = final_prompt_sections("qcol", "desc", None, source_diff,
                                     candidate_diff, candidates)
    names = [n for n, _ in sections]
    assert names == ["query", "source_diff", "candidates_header",
                     "candidate:C1", "candidate:C2", "candidate_diff", "instruction"]
    prompt = assemble_final_prompt("qcol", "desc", None, source_diff,
                                   candidate_diff, candidates)
    # substring-position oracle over the canonical section markers
    positions = [prompt.index("Query column:"), prompt.index("Source diff"),
                 prompt.index("Candidates:"), prompt.index("- C1:"),
                 prompt.index("Differentiation among candidates:"),
                 prompt.index("ANSWER: <cid>")]
    assert positions == sorted(positions)

    # packs: the shared context comes only when two packs share a line
    alone = [("C1", "a", "da", pack_of(["leaf a", "root a"])),
             ("C2", "b", "db", pack_of(["leaf b", "root b"]))]
    sections = final_prompt_sections("qcol", "desc", pack_of(["leaf q", "root q"]),
                                     source_diff, candidate_diff, alone)
    assert [n for n, _ in sections] == [
        "query", "query_context", "source_diff", "candidates_header",
        "candidate:C1", "candidate_context:C1", "candidate:C2", "candidate_context:C2",
        "candidate_diff", "instruction"]
    shared = [("C1", "a", "da", pack_of(["leaf a", "one root"])),
              ("C2", "b", "db", pack_of(["leaf b", "one root"]))]
    sections = final_prompt_sections("qcol", "desc", pack_of(["leaf q", "root q"]),
                                     source_diff, candidate_diff, shared)
    assert [n for n, _ in sections][:3] == ["query", "shared_context", "query_context"]
    text = dict(sections)
    assert text["shared_context"] == "Shared context (cited by id below):\n- S1: one root"
    assert text["query_context"] == "Query context:\npath to root: leaf q > root q"
    assert text["candidate_context:C2"] == "    path to root: leaf b > S1"


def test_llm_local_prompt_has_only_core_sections():
    prompt = assemble_final_prompt("q", "d", None, "", "",
                                   [("C1", "a", "da", None), ("C2", "b", "db", None)])
    assert "Source diff" not in prompt
    assert "Differentiation" not in prompt
    assert "context" not in prompt
    assert prompt.startswith("Query column: q; desc: d\nCandidates:")


def test_empty_candidates_rejected():
    with pytest.raises(PipelineError):
        assemble_final_prompt("q", "d", None, "", "", [])


# -- mode configs ------------------------------------------------------------------


def test_mode_flag_implications():
    assert PipelineConfig.from_mode("full").use_tree
    assert not PipelineConfig.from_mode("no_tree").use_tree
    assert PipelineConfig.from_mode("no_tree").use_diff
    cfg = PipelineConfig.from_mode("llm_local")
    assert not cfg.use_tree and not cfg.use_diff and not cfg.use_expansion
    with pytest.raises(ValueError):
        PipelineConfig.from_mode("nonsense")
    with pytest.raises(ValueError):
        PipelineConfig(mode="nonsense")


@pytest.mark.parametrize("field,bad,least", [
    ("k", 0, 1), ("pack_budget", 0, 1),
])
def test_config_rejects_out_of_range_numbers(field, bad, least):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: bad})
    assert getattr(PipelineConfig(**{field: least}), field) == least


# -- end-to-end runs ---------------------------------------------------------------


def test_embed_top1_answers_shortlist_head_with_zero_llm():
    artifacts = basic_artifacts()
    s = next(artifacts.source_catalog.refs())
    gw = hash_gw()
    c0 = shortlist(s, artifacts, k=5, gateway=gw)
    q = MatchQuery(source=s, shortlist=tuple(c0))
    result = run_match(q, PipelineConfig.from_mode("embed_top1"), artifacts, gw)
    assert result.chosen == c0[0]
    assert result.ranked == tuple(c0)
    assert result.trace.spent.llm_calls == 0 and result.trace.spent.total_tokens == 0


# cosines of CHARTTIME and STORETIME (source), then observation_time,
# recorded_time and site_code (target): each side's time pair clears its tau
# by 0.15, each source time column is nearest its like target, and site_code
# is far from all
TIME_COSINES = [[1.00, 0.80, 0.70, 0.55, 0.10],
                [0.80, 1.00, 0.55, 0.70, 0.10],
                [0.70, 0.55, 1.00, 0.75, 0.10],
                [0.55, 0.70, 0.75, 1.00, 0.10],
                [0.10, 0.10, 0.10, 0.10, 1.00]]


def time_fixture():
    scat = build_catalog("source", [table_doc("CHARTEVENTS", [
        ("CHARTTIME", "records the time at which an observation was made"),
        ("STORETIME", "records the time at which an observation was manually "
                      "input or manually validated by a member of the clinical staff"),
    ])])
    tcat = build_catalog("target", [table_doc("obs", [
        ("observation_time", "time the observation occurred"),
        ("recorded_time", "time the observation was recorded or entered"),
        ("site_code", "facility identifier"),
    ])])
    gw = hash_gw(embed_backend=stated_cosines_embedder(TIME_COSINES, [2, 3]))
    sg = build_hypergraph(scat, gw, tau=0.65)
    tg = build_hypergraph(tcat, gw, tau=0.60)
    artifacts = Artifacts(scat, tcat, source_tree=None, target_tree=None,
                          source_graph=sg, target_graph=tg)
    obs_cid = tcat.meta(tcat.resolve("observation_time")).cid
    rec_cid = tcat.meta(tcat.resolve("recorded_time")).cid

    def source_diff_bot(prompt):
        if "TASK: differentiate" in prompt and "SIDE: source" in prompt:
            return ("Summary: one marks when the observation was made, the "
                    "sibling marks when it was entered\n"
                    "- C1: made-time, not entry time\n"
                    "- C2: entered-not-made marker")
        return None

    def decision_bot(prompt):
        if "Select the single best matching target column" not in prompt:
            return None
        if "entered-not-made" in prompt:
            return f"ANSWER: {obs_cid}"
        return f"ANSWER: {rec_cid}"

    responder = chain_bots(source_diff_bot, diff_echo_bot, decision_bot, tree_bot)
    return artifacts, responder


def test_time_column_scenario_full_vs_llm_local():
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    charttime = scat.resolve("CHARTTIME")
    c0 = (tcat.resolve("observation_time"), tcat.resolve("recorded_time"))
    q = MatchQuery(source=charttime, shortlist=c0)

    full = run_match(q, PipelineConfig.from_mode("full"), artifacts,
                     hash_gw(responder=responder))
    assert full.chosen == tcat.resolve("observation_time")

    local = run_match(q, PipelineConfig.from_mode("llm_local"), artifacts,
                      hash_gw(responder=responder))
    assert local.chosen == tcat.resolve("recorded_time")
    assert full.ranked[0] == full.chosen
    assert local.ranked[0] == local.chosen


def test_source_summary_echoing_candidate_header_stays_in_source_section():
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    summary = "Differentiation among candidates: made-time versus entry-time"
    cue_lines = ["- C1: made-time, not entry time", "- C2: entered-not-made marker"]

    def echoing_source_bot(prompt):
        if "TASK: differentiate" in prompt and "SIDE: source" in prompt:
            return "\n".join([f"Summary: {summary}"] + cue_lines)
        return None

    q = MatchQuery(source=scat.resolve("CHARTTIME"),
                   shortlist=(tcat.resolve("observation_time"),
                              tcat.resolve("recorded_time")))
    gw = hash_gw(responder=chain_bots(echoing_source_bot, responder))
    lines = run_match(q, PipelineConfig(mode="full"), artifacts, gw) \
        .trace.prompt_snapshot.splitlines()
    candidates_at = lines.index("Candidates:")
    for line in [f"Summary: {summary}"] + cue_lines:
        assert lines.index(line) < candidates_at, line
    assert lines.count("Differentiation among candidates:") == 1
    assert lines.index("Differentiation among candidates:") > candidates_at


def test_all_singleton_groups_mean_no_diff_sections_and_one_call():
    scat = build_catalog("source", [table_doc("s", [("lonely", "completely unique words")])])
    tcat = build_catalog("target", [table_doc("t", [
        ("aaa", "first topic entirely"), ("bbb", "second subject matter"),
        ("ccc", "third theme overall")])])
    gw_build = hash_gw()
    artifacts = Artifacts(
        scat, tcat, source_tree=None, target_tree=None,
        source_graph=build_hypergraph(scat, gw_build, tau=0.95),
        target_graph=build_hypergraph(tcat, gw_build, tau=0.95),
    )
    s = scat.resolve("lonely")
    q = MatchQuery(source=s, shortlist=tuple(tcat.refs()))
    gw = hash_gw(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot))
    result = run_match(q, PipelineConfig.from_mode("full"), artifacts, gw)
    assert "Source diff" not in result.trace.prompt_snapshot
    assert "Differentiation among candidates" not in result.trace.prompt_snapshot
    decision_calls = [p for tag, p in gw.chat_backend.call_log if tag == "decision"]
    assert len(decision_calls) == 1
    assert result.trace.spent.llm_calls == 1


def test_blank_differentiation_replies_skip_blocks_not_the_query(caplog):
    scat = random_catalog(31, "source", n=20, table_id="S", tokens_per_desc=5)
    tcat = random_catalog(32, "target", n=25, table_id="T", tokens_per_desc=5)
    gw_build = hash_gw()
    artifacts = Artifacts(scat, tcat, source_tree=None, target_tree=None,
                          source_graph=build_hypergraph(scat, gw_build, tau=0.5),
                          target_graph=build_hypergraph(tcat, gw_build, tau=0.5))

    def blank_diff(prompt):
        return " \n\t " if "TASK: differentiate" in prompt else None

    gw = hash_gw(responder=chain_bots(blank_diff, first_candidate_decision_bot))
    s = next(scat.refs())
    q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 5, gw)))
    result = run_match(q, PipelineConfig.from_mode("no_tree"), artifacts, gw)
    roles = [tag for tag, _ in gw.chat_backend.call_log]
    assert roles.count("differentiation") == 4  # two blocks, each retried once
    assert "Source diff" not in result.trace.prompt_snapshot
    assert "Differentiation among candidates" not in result.trace.prompt_snapshot
    assert result.trace.spent.llm_calls == 1
    assert "source differentiation skipped" in caplog.text
    assert "differentiation block skipped" in caplog.text


def four_groups_fixture():
    """A query whose source group and four candidate groups each get a block."""
    words = ["amount balance batch city", "dose event flag grade",
             "hour index item label", "phase rate score stage"]
    tcat = build_catalog("target", [table_doc("T", [
        (f"g{g}_{v}", f"{w} {v}") for g, w in enumerate(words) for v in ("one", "two")])])
    scat = build_catalog("source", [table_doc("S", [
        ("q", "measure note order unit first"), ("q2", "measure note order unit second"),
        ("other", "wave total value")])])
    # stated cosines, source columns then target ones: 0.9 within q's pair and
    # within each target group, 0.1 between any other two columns of a side,
    # and from q and q2 0.5 to g2_one, 0.6 to g2_two and 0.2 to the rest
    gram = np.full((11, 11), 0.1)
    np.fill_diagonal(gram, 1.0)
    for a in (0, 3, 5, 7, 9):
        gram[a, a + 1] = gram[a + 1, a] = 0.9
    near = [0.2, 0.2, 0.2, 0.2, 0.5, 0.6, 0.2, 0.2]
    gram[:2, 3:] = near
    gram[3:, :2] = np.transpose([near, near])
    gw_build = hash_gw(embed_backend=stated_cosines_embedder(gram, [3, 8]))
    artifacts = Artifacts(scat, tcat, source_tree=None, target_tree=None,
                          source_graph=build_hypergraph(scat, gw_build, tau=0.7),
                          target_graph=build_hypergraph(tcat, gw_build, tau=0.7))
    q = MatchQuery(source=scat.resolve("q"), shortlist=tuple(tcat.refs()))
    return artifacts, q


def test_source_block_goes_out_beside_the_candidate_blocks():
    artifacts, q = four_groups_fixture()
    config = PipelineConfig.from_mode("no_tree")
    lock = threading.Lock()
    candidates_back = threading.Event()
    arrived, in_flight, most = [], [0], [0]

    def beside(prompt):
        if "TASK: differentiate" not in prompt:
            return None
        if "SIDE: source" in prompt:
            # returns only once every candidate block is back, so a source
            # block sent before or after them is skipped
            if not candidates_back.wait(timeout=5):
                raise TransportError("the source block was sent on its own")
            return diff_echo_bot(prompt)
        with lock:
            arrived.append(" vs ".join(re.findall(r"^- (C\d+) \(", prompt, re.M)))
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
        try:
            time.sleep(0.02)  # long enough for blocks sent together to overlap
            return diff_echo_bot(prompt)
        finally:
            with lock:
                in_flight[0] -= 1
                if len(arrived) == 4:
                    candidates_back.set()

    gw = hash_gw(responder=chain_bots(beside, first_candidate_decision_bot))
    result = run_match(q, config, artifacts, gw)
    snapshot = result.trace.prompt_snapshot
    assert "Source diff (confusable source group):" in snapshot
    groups = re.findall(r"^Group #(\d+) \(([^)]*)\)", snapshot, re.M)
    assert [int(n) for n, _ in groups] == [1, 2, 3, 4]
    # the candidate blocks went out one at a time, in the prompt's order
    assert most[0] == 1
    assert arrived == [members for _, members in groups]
    assert result.trace.spent.llm_calls == 6


def test_block_completion_order_does_not_change_prompt_or_trace():
    artifacts, q = four_groups_fixture()
    config = PipelineConfig.from_mode("no_tree")
    bots = chain_bots(diff_echo_bot, first_candidate_decision_bot)
    plain = run_match(q, config, artifacts, hash_gw(responder=bots))
    groups = re.findall(r"^Group #(\d+) \(([^)]*)\)", plain.trace.prompt_snapshot, re.M)
    rank = {members: int(n) for n, members in groups}
    assert len(rank) == 4

    def earlier_is_slower(prompt):
        if "TASK: differentiate" in prompt:
            members = " vs ".join(re.findall(r"^- (C\d+) \(", prompt, re.M))
            position = 0 if "SIDE: source" in prompt else rank[members]
            time.sleep(0.01 * (len(rank) - position))
        return None

    gw = hash_gw(responder=chain_bots(earlier_is_slower, bots))
    slow = run_match(q, config, artifacts, gw)
    assert slow.trace == plain.trace
    assert slow.ranked == plain.ranked


def test_ablation_containment_of_sections():
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    q = MatchQuery(source=scat.resolve("CHARTTIME"),
                   shortlist=(tcat.resolve("observation_time"),
                              tcat.resolve("recorded_time")))
    artifacts = dataclasses.replace(
        artifacts, source_tree=build_context_tree(scat, PARAMS, tree_gateway()),
        target_tree=build_context_tree(tcat, PARAMS, tree_gateway()))
    prompts = {}
    for mode in ("full", "llm_local", "no_tree", "no_diff"):
        gw = hash_gw(responder=responder)
        prompts[mode] = run_match(q, PipelineConfig.from_mode(mode), artifacts, gw) \
            .trace.prompt_snapshot
    # the two candidates share their table's leaf and root, said once
    assert "Shared context (cited by id below):" in prompts["full"]
    # every reduced-mode line appears in the full prompt, in order
    full_lines = prompts["full"].splitlines()
    for mode in ("llm_local", "no_tree", "no_diff"):
        idx = 0
        for line in prompts[mode].splitlines():
            while idx < len(full_lines) and full_lines[idx] != line:
                idx += 1
            assert idx < len(full_lines), f"{mode} line missing from full prompt: {line!r}"
            idx += 1


def test_unparseable_decision_retries_once_then_errors():
    artifacts = basic_artifacts()
    s = next(artifacts.source_catalog.refs())
    q = MatchQuery(source=s, shortlist=tuple(list(artifacts.target_catalog.refs())[:3]))

    attempts = []

    def flaky_decider(prompt):
        if "Select the single best matching" not in prompt:
            return None
        attempts.append(prompt)
        if "Reminder:" in prompt:
            return "ANSWER: C2"
        return "hmm I cannot decide"

    gw = hash_gw(responder=chain_bots(diff_echo_bot, flaky_decider, tree_bot))
    result = run_match(q, PipelineConfig.from_mode("llm_local"), artifacts, gw)
    assert artifacts.target_catalog.meta(result.chosen).cid == "C2"
    assert len(attempts) == 2
    assert result.trace.spent.llm_calls == 2  # the retry is counted

    def never_decides(prompt):
        if "Select the single best matching" in prompt:
            return "still nothing useful"
        return None

    gw2 = hash_gw(responder=chain_bots(diff_echo_bot, never_decides, tree_bot))
    with pytest.raises(PipelineError) as exc:
        run_match(q, PipelineConfig.from_mode("llm_local"), artifacts, gw2)
    assert "Query column:" in exc.value.prompt_snapshot


def test_masked_full_run_produces_no_raw_identifiers():
    tables_s = [table_doc("J", [
        (f"J{i:03d}", f"item about work; see J{(i + 7) % 20:03d} for the follow-up")
        for i in range(20)
    ])]
    tables_t = [table_doc("K", [
        (f"K{i:03d}", f"later wave item; compare K{(i + 3) % 20:03d}")
        for i in range(20)
    ])]
    raw_s = build_catalog("source", tables_s)
    raw_t = build_catalog("target", tables_t)
    scat = mask_catalog(raw_s)
    tcat = mask_catalog(raw_t)
    gw_build = hash_gw()
    artifacts = Artifacts(
        scat, tcat,
        source_tree=build_context_tree(scat, PARAMS, tree_gateway()),
        target_tree=build_context_tree(tcat, PARAMS, tree_gateway()),
        source_graph=build_hypergraph(scat, gw_build, tau=0.8),
        target_graph=build_hypergraph(tcat, gw_build, tau=0.8),
    )
    gw = hash_gw(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot))
    s = next(scat.refs())
    q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 5, gw)))
    run_match(q, PipelineConfig.from_mode("full"), artifacts, gw)
    prompts = [p for _, p in gw.chat_backend.call_log]
    assert prompts
    # the scan covers the shared context of the decision and block prompts
    for tag in ("decision", "differentiation"):
        assert any(t == tag and "Shared context (cited by id below):" in p
                   for t, p in gw.chat_backend.call_log)
    assert scan_for_raw_identifiers(raw_s, prompts) == []
    assert scan_for_raw_identifiers(raw_t, prompts) == []


def test_trace_tokens_equal_backend_log_estimate():
    artifacts = basic_artifacts()
    s = next(artifacts.source_catalog.refs())
    gw = hash_gw(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot))
    q = MatchQuery(source=s, shortlist=tuple(shortlist(s, artifacts, 6, gw)))
    result = run_match(q, PipelineConfig.from_mode("no_tree"), artifacts, gw)
    # independent oracle: replay the pure responder over the logged prompts
    backend = gw.chat_backend
    responder = chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot)
    expected = 0
    for tag, prompt in backend.call_log:
        reply_text = responder(prompt)
        expected += estimate_tokens(prompt) + estimate_tokens(reply_text)
    assert result.trace.spent.total_tokens == expected
    assert result.trace.spent.llm_calls == len(backend.call_log)


def test_expansion_appends_near_duplicates():
    desc = ("shared description tokens for the planted pair example with "
            "many more common words included")
    tcat = build_catalog("target", [table_doc("t", [
        ("pair_a", desc + " one"),
        ("pair_b", desc + " two"),
        ("other", "nothing in common with anything"),
    ])])
    scat = build_catalog("source", [table_doc("s", [("q", desc)])])
    gw = hash_gw()
    artifacts = Artifacts(scat, tcat, source_tree=None, target_tree=None,
                          source_graph=build_hypergraph(scat, gw, tau=0.85),
                          target_graph=build_hypergraph(tcat, gw, tau=0.85))
    s = scat.resolve("q")
    q = MatchQuery(source=s, shortlist=(tcat.resolve("pair_a"),))
    gw_run = hash_gw(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot, tree_bot))
    result = run_match(q, PipelineConfig.from_mode("no_tree"), artifacts, gw_run)
    assert tcat.resolve("pair_b") in result.ranked
    assert result.ranked[0] == result.chosen


def test_full_query_builds_each_context_pack_once(monkeypatch):
    # CHARTTIME sits in its own source confusable set, so the source block
    # and the query section both need its pack
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    artifacts = dataclasses.replace(
        artifacts, source_tree=build_context_tree(scat, PARAMS, tree_gateway()),
        target_tree=build_context_tree(tcat, PARAMS, tree_gateway()))
    built = Counter()
    original = pipeline.build_context_pack

    def counting(tree, catalog, ref, budget):
        built[ref] += 1
        return original(tree, catalog, ref, budget)

    monkeypatch.setattr(pipeline, "build_context_pack", counting)
    charttime = scat.resolve("CHARTTIME")
    q = MatchQuery(source=charttime, shortlist=(tcat.resolve("observation_time"),
                                                tcat.resolve("recorded_time")))
    result = run_match(q, PipelineConfig.from_mode("full"), artifacts,
                       hash_gw(responder=responder))
    assert "Source diff (confusable source group):" in result.trace.prompt_snapshot
    assert {charttime, scat.resolve("STORETIME")} <= set(built)
    assert set(built.values()) == {1}, built


def test_a_pack_budget_below_every_minimum_still_answers_without_packs(caplog):
    artifacts, responder = time_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    artifacts = dataclasses.replace(
        artifacts, source_tree=build_context_tree(scat, PARAMS, tree_gateway()),
        target_tree=build_context_tree(tcat, PARAMS, tree_gateway()))
    packed = [scat.resolve("CHARTTIME"), scat.resolve("STORETIME"),
              tcat.resolve("observation_time"), tcat.resolve("recorded_time")]
    q = MatchQuery(source=packed[0], shortlist=tuple(packed[2:]))
    config = PipelineConfig.from_mode("full", pack_budget=1)
    with caplog.at_level(logging.WARNING):
        result = run_match(q, config, artifacts, hash_gw(responder=responder))
    assert result.chosen == tcat.resolve("observation_time")  # the source block still decides
    assert "path to root" not in result.trace.prompt_snapshot.lower()
    unavailable = [r.args[0] for r in caplog.records
                   if r.getMessage().startswith("context pack unavailable for ")]
    assert Counter(unavailable) == Counter(packed)


def test_queries_make_no_embedding_call_in_any_mode():
    artifacts, q = four_groups_fixture()
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    artifacts = dataclasses.replace(
        artifacts, source_tree=build_context_tree(scat, PARAMS, tree_gateway()),
        target_tree=build_context_tree(tcat, PARAMS, tree_gateway()))
    chat = ScriptedChatBackend(responder=chain_bots(diff_echo_bot, first_candidate_decision_bot))
    gw = ModelGateway(chat_backend=chat, embed_backend=None)  # any embed_batch raises
    with pytest.raises(GatewayError):
        gw.embed_batch(["text"])
    queries = [q, MatchQuery(source=q.source)]  # with a shortlist and without
    for mode in pipeline.MODES:
        outcomes = run_queries(queries, PipelineConfig.from_mode(mode, k=5), artifacts, gw)
        assert [failure for _, failure in outcomes] == [None, None], mode
    assert gw.accounting.snapshot().embed_calls == 0


@pytest.mark.parametrize("change", ["grew", "shrank"])
@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("kind", ["graph", "tree"])
def test_loader_rejects_an_artifact_built_before_its_catalog_changed(tmp_path, kind, side,
                                                                     change):
    columns = [(f"col_{i}", f"field number {i} of the table") for i in range(6)]
    built = build_catalog(side, [table_doc("t", columns)])
    now = build_catalog(side, [table_doc(
        "t", columns + [("new_col", "a new field")] if change == "grew" else columns[:-1])])
    gw = hash_gw(responder=tree_bot)
    path = tmp_path / f"{kind}.json"
    if kind == "graph":
        save_hypergraph(build_hypergraph(built, gw, tau=0.9), built, path)
        load, error = load_hypergraph, ValueError
    else:
        save_tree(build_context_tree(built, PARAMS, gw), built, path)
        load, error = load_tree, TreeError
    load(path, built)  # the catalog it was built from
    with pytest.raises(error, match="rebuild") as info:
        load(path, now)
    message = str(info.value)
    assert f"{built.column_count} columns" in message, message
    assert f"not the {now.column_count} of the {side} catalog" in message, message
