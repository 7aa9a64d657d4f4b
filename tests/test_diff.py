import numpy as np

from construm.diff import (
    MISSING_CUE,
    DifferentiationBlock,
    generate_block,
    render_candidate_diff,
    render_source_diff,
    select_groups,
)
from construm.gateway import DiskCache, ModelGateway
from construm.graph import build_hypergraph
from helpers import (
    PositionalEmbeddingBackend,
    build_catalog,
    diff_echo_bot,
    make_gateway,
    table_doc,
    unit,
)


def planted_graph(group_sims):
    """A target graph with one 2-member group per entry, whose max member
    cosine to the query direction e0 is the given value."""
    e = np.eye(32)
    names, vectors = [], []
    for gi, sim in enumerate(group_sims):
        direction = unit(sim * e[0] + np.sqrt(max(1 - sim**2, 0.0)) * e[2 + gi])
        for vi in range(2):
            names.append(f"g{gi}_{vi}")
            # members nearly parallel so they group at tau
            vectors.append(unit(direction + 0.001 * vi * e[20 + gi]))
    cat = build_catalog("target", [table_doc("t", [(n, "") for n in names])])
    gw = ModelGateway(embed_backend=PositionalEmbeddingBackend([vectors]))
    hg = build_hypergraph(cat, gw, tau=0.98)
    assert sum(1 for g in hg.groups if len(g) == 2) == len(group_sims)
    return cat, hg, e[0]


def test_select_groups_drops_singletons():
    cat, hg, query = planted_graph([0.9])
    singles = [g for g in hg.groups if len(g) == 1]
    assert select_groups(singles, hg.matrix @ query, hg) == []


def test_select_groups_priority_matches_sort_oracle():
    sims = [0.30, 0.95, 0.10, 0.80, 0.55, 0.70, 0.20, 0.60]
    cat, hg, query = planted_graph(sims)
    chosen = select_groups(list(hg.groups), hg.matrix @ query, hg)
    assert len(chosen) == 6

    # oracle: sort groups by max member cosine to the query, descending
    def max_cos(group):
        return max(float(np.dot(hg.vector(m), query)) for m in group.members)

    oracle = sorted((g for g in hg.groups if len(g) >= 2), key=max_cos, reverse=True)
    assert [g for g, _ in chosen] == oracle[:6]


def test_select_groups_truncates_oversize_group_by_cosine():
    e = np.eye(64)
    names, vectors = [], []
    for i in range(30):
        sim = 0.99 - 0.001 * i
        names.append(f"m{i:02d}")
        vectors.append(unit(sim * e[0] + np.sqrt(1 - sim**2) * e[1] + 1e-4 * e[2 + i]))
    cat = build_catalog("target", [table_doc("t", [(n, "") for n in names])])
    gw = ModelGateway(embed_backend=PositionalEmbeddingBackend([vectors]))
    hg = build_hypergraph(cat, gw, tau=0.9)
    big = [g for g in hg.groups if len(g) == 30][0]
    chosen = select_groups([big], hg.matrix @ e[0], hg)
    (group, members), = chosen
    assert len(members) == 24
    assert [m.ordinal for m in members] == list(range(24))  # highest cosine first


def reply_for(cat, refs, cues):
    lines = ["Summary: all measure the same concept; differ in scope"]
    for ref, cue in zip(refs, cues):
        if cue is not None:
            lines.append(f"- {cat.meta(ref).cid}: {cue}")
    return "\n".join(lines)


def three_member_fixture():
    cat = build_catalog("target", [table_doc("t", [
        ("a", "first variant"), ("b", "second variant"), ("c", "third variant")])])
    return cat, list(cat.refs())


def test_generate_block_parses_all_cues():
    cat, refs = three_member_fixture()
    reply = reply_for(cat, refs, ["applies to subset A", "applies to subset B",
                                  "same scope; different timeframe"])
    gw = make_gateway(rules=(), default=reply)
    block = generate_block(refs, cat, None, "query meta", gw)
    assert block.summary == "all measure the same concept; differ in scope"
    assert block.cues == {
        refs[0]: "applies to subset A",
        refs[1]: "applies to subset B",
        refs[2]: "same scope; different timeframe",
    }


def test_generate_block_fills_missing_cue_with_placeholder():
    cat, refs = three_member_fixture()
    members = refs[:2]
    reply = reply_for(cat, members, ["only cue", None])
    gw = make_gateway(default=reply)
    block = generate_block(members, cat, None, "q", gw)
    assert block.cues[members[0]] == "only cue"
    assert block.cues[members[1]] == MISSING_CUE


def test_generate_block_unparseable_falls_back_to_summary_only():
    cat, refs = three_member_fixture()
    gw = make_gateway(default="no structure at all in this reply")
    backend = gw.chat_backend
    block = generate_block(refs, cat, None, "q", gw)
    assert block.cues == {}
    assert block.summary.startswith("no structure at all")
    assert len(backend.call_log) == 2  # one re-prompt happened


def test_generate_block_second_call_is_cached(tmp_path):
    cat, refs = three_member_fixture()
    reply = reply_for(cat, refs, ["x", "y", "z"])
    gw = make_gateway(default=reply, cache=DiskCache(tmp_path))
    generate_block(refs, cat, None, "q", gw)
    with gw.metered() as meter:
        block = generate_block(refs, cat, None, "q", gw)
    delta = meter.snapshot()
    assert delta.total_tokens == 0 and delta.llm_calls == 0 and delta.cache_hits == 1
    assert block.cues[refs[0]] == "x"


def test_render_empty_is_empty_string():
    assert render_source_diff([], None) == ""
    assert render_candidate_diff([], None) == ""


def source_and_target_blocks():
    scat = build_catalog("source", [table_doc("s", [("s1", ""), ("s2", "")])])
    tcat = build_catalog("target", [table_doc("t", [("t1", ""), ("t2", ""),
                                                    ("t3", ""), ("t4", "")])])
    s_refs = list(scat.refs())
    t_refs = list(tcat.refs())
    sblock = DifferentiationBlock(
        "source contrast", {s_refs[0]: "made", s_refs[1]: "entered"}, tuple(s_refs))
    t1 = DifferentiationBlock(
        "first pair", {t_refs[0]: "cue a", t_refs[1]: "cue b"}, tuple(t_refs[:2]))
    t2 = DifferentiationBlock(
        "second pair", {t_refs[2]: "cue c", t_refs[3]: "cue d"}, tuple(t_refs[2:]))
    return sblock, t1, t2, scat, tcat


def test_render_source_section_exact_text():
    sblock, _, _, scat, _ = source_and_target_blocks()
    assert render_source_diff([sblock], scat) == (
        "Source diff (confusable source group):\n"
        "Summary: source contrast\n"
        "- C1: made\n"
        "- C2: entered"
    )


def test_render_numbers_groups_in_priority_order():
    _, t1, t2, _, tcat = source_and_target_blocks()
    text = render_candidate_diff([t1, t2], tcat)
    assert text.splitlines()[0] == "Differentiation among candidates:"
    assert "Group #1 (C1 vs C2): first pair" in text
    assert "Group #2 (C3 vs C4): second pair" in text
    assert text.index("Group #1") < text.index("Group #2")
    # ordering oracle: swapping priority order swaps the numbering
    swapped = render_candidate_diff([t2, t1], tcat)
    assert "Group #1 (C3 vs C4): second pair" in swapped


def test_render_is_byte_deterministic():
    sblock, t1, t2, scat, tcat = source_and_target_blocks()
    assert render_source_diff([sblock], scat) == render_source_diff([sblock], scat)
    assert render_candidate_diff([t1, t2], tcat) == render_candidate_diff([t1, t2], tcat)


def test_diff_echo_bot_round_trip():
    cat, refs = three_member_fixture()
    gw = make_gateway(responder=diff_echo_bot)
    block = generate_block(refs, cat, None, "q", gw)
    assert set(block.cues.values()) == {f"cue for {cat.meta(r).cid}" for r in refs}
