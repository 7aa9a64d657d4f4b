"""Grouped differentiation: contrast cues for confusable columns.

Every non-singleton similarity group that survives prioritization becomes
one LLM call producing a short group summary (what the members share and
along which axes they differ) plus one cue per member. The source-side and
candidate-side blocks render as two separate sections of the final
decision prompt, so the model chooses by explicit comparison instead of
scoring lookalikes in isolation.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from construm.catalog import ColumnRef, SchemaCatalog
from construm.gateway import ChatCall, ModelGateway
from construm.graph import Hypergraph, SimilarityGroup
from construm.tree import ContextPack, render_prompt_packs

logger = logging.getLogger(__name__)

MISSING_CUE = "no distinguishing information provided"
MAX_GROUPS = 6  # candidate groups one query differentiates at most
MAX_GROUP_MEMBERS = 24  # members one block lists at most, highest cosine first
DIFF_TIMEOUT = 45.0  # seconds for one differentiation call


@dataclass
class DifferentiationBlock:
    summary: str
    cues: dict[ColumnRef, str]
    members_in_prompt: tuple[ColumnRef, ...]


def select_groups(groups: Sequence[SimilarityGroup], sims: np.ndarray,
                  hypergraph: Hypergraph) -> list[tuple[SimilarityGroup, tuple[ColumnRef, ...]]]:
    """Keep the ``MAX_GROUPS`` most confusable non-singleton groups, members ranked.

    ``sims`` holds the query's cosine to every column of ``hypergraph``, in
    ``columns`` order. Priority is the maximum member cosine to the query
    (closest first), ties broken by larger group then smallest member id.
    Oversize groups are truncated to their ``MAX_GROUP_MEMBERS``
    highest-cosine members. Returns (group, ordered members) pairs; empty
    when no group has two or more members.
    """
    scored = []
    for g in groups:
        if len(g) < 2:
            continue
        members = hypergraph.ranked(sims, among=g.members)
        priority = float(sims[hypergraph.index_of(members[0])])
        smallest = min(g.members, key=lambda r: r.sort_key)
        scored.append(((-priority, -len(g), smallest.sort_key), g, members[:MAX_GROUP_MEMBERS]))
    scored.sort(key=lambda item: item[0])
    return [(g, tuple(members)) for _, g, members in scored[:MAX_GROUPS]]


_SUMMARY_RE = re.compile(r"^Summary:\s*(.+?)\s*$", re.MULTILINE)
_CUE_RE = re.compile(r"^-\s*(C[1-9][0-9]*)\s*:\s*(.+?)\s*$", re.MULTILINE)


def _block_prompt(catalog: SchemaCatalog, members: Sequence[ColumnRef],
                  packs: Mapping[ColumnRef, ContextPack | None] | None,
                  query_meta: str) -> str:
    shared, bodies = render_prompt_packs([packs.get(ref) if packs else None
                                          for ref in members])
    lines = []
    for ref, body in zip(members, bodies):
        meta = catalog.meta(ref)
        lines.append(f"- {meta.cid} ({catalog.display_name(ref)}): {meta.description}")
        if body is not None:
            ctx = body.replace("\n", "\n    ")
            lines.append(f"    {ctx}")
    return (
        f"TASK: differentiate\n"
        f"SIDE: {catalog.side.value}\n"
        f"QUERY: {query_meta}\n"
        + (shared + "\n" if shared else "")
        + "MEMBERS:\n" + "\n".join(lines) + "\n"
        f"These columns are easy to confuse. Reply with one line "
        f"'Summary: <1-2 sentences: what they share and how they differ>' "
        f"followed by one line '- <cid>: <short distinguishing cue>' per member."
    )


def generate_block(members: Sequence[ColumnRef], catalog: SchemaCatalog,
                   packs: Mapping[ColumnRef, ContextPack | None] | None,
                   query_meta: str, gateway: ModelGateway) -> DifferentiationBlock:
    """One LLM call turning a confusable group into summary + per-member cues.

    Members that the reply leaves without a cue get a placeholder. A reply
    with no parseable summary is re-prompted once; if that also fails the
    block keeps a trimmed version of the reply as its summary and no cues,
    so the prompt section is still emitted. Identical groups with identical
    context hit the gateway's disk cache and cost no new tokens.
    """
    if len(members) < 2:
        raise ValueError("differentiation needs at least 2 members")
    prompt = _block_prompt(catalog, members, packs, query_meta)
    parsed, reply = gateway.ask(
        ChatCall("differentiation", prompt, timeout=DIFF_TIMEOUT),
        lambda text: _parse_block(text, members, catalog),
        "\nYour previous reply could not be parsed. Use exactly the "
        "'Summary:' line followed by '- <cid>: <cue>' lines.")
    if parsed is None:
        logger.warning("differentiation reply unparseable for group of %d; summary only",
                       len(members))
        summary = reply.text.strip().splitlines()[0][:200]
        return DifferentiationBlock(summary, {}, tuple(members))
    summary, cues = parsed
    for ref in members:
        cues.setdefault(ref, MISSING_CUE)
    return DifferentiationBlock(summary, cues, tuple(members))


def _parse_block(text: str, members: Sequence[ColumnRef],
                 catalog: SchemaCatalog) -> tuple[str, dict[ColumnRef, str]] | None:
    m = _SUMMARY_RE.search(text)
    if not m:
        return None
    by_cid = {catalog.meta(ref).cid: ref for ref in members}
    cues: dict[ColumnRef, str] = {}
    for cm in _CUE_RE.finditer(text):
        ref = by_cid.get(cm.group(1))
        if ref is not None:
            cues[ref] = cm.group(2)
    return m.group(1), cues


def render_source_diff(blocks: Sequence[DifferentiationBlock],
                       catalog: SchemaCatalog) -> str:
    """Source-side section of the decision prompt.

    Each block of the query's own confusable group goes under a "Source
    diff" header with its summary and cues. Empty input renders as the
    empty string.
    """
    lines: list[str] = []
    for block in blocks:
        lines.append("Source diff (confusable source group):")
        lines.append(f"Summary: {block.summary}")
        lines.extend(_cue_lines(block, catalog))
    return "\n".join(lines)


def render_candidate_diff(blocks: Sequence[DifferentiationBlock],
                          catalog: SchemaCatalog) -> str:
    """Candidate-side section of the decision prompt.

    Candidate groups are numbered #1.. in the given (priority) order under
    one "Differentiation among candidates" header. Empty input renders as
    the empty string.
    """
    if not blocks:
        return ""
    lines = ["Differentiation among candidates:"]
    for i, block in enumerate(blocks, start=1):
        cids = [catalog.meta(r).cid for r in block.members_in_prompt]
        lines.append(f"Group #{i} ({' vs '.join(cids)}): {block.summary}")
        lines.extend(_cue_lines(block, catalog))
    return "\n".join(lines)


def _cue_lines(block: DifferentiationBlock, catalog: SchemaCatalog) -> list[str]:
    return [
        f"- {catalog.meta(ref).cid}: {block.cues[ref]}"
        for ref in block.members_in_prompt
        if ref in block.cues
    ]
