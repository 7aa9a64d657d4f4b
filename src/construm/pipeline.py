"""End-to-end match orchestration for one query.

Given a source column and a shortlist of target candidates (produced here
by embedding retrieval, or supplied verbatim by an upstream matcher), the
pipeline optionally expands the candidate set with near-duplicate
neighbors, attaches budgeted context packs from the context trees, adds
source-side and candidate-side differentiation blocks (the source block
is sent beside the candidate blocks), and makes exactly one forced-choice
LLM call whose reply must end with ``ANSWER: <cid>``.
The artifacts must cover their catalogs (the loaders reject stored ones
that do not). Both similarity graphs are required: a query reads its
vector from the source graph and makes no embedding call. Auxiliary
failures (packs, differentiation) degrade the prompt with a logged
warning; only an unparseable decision reply aborts, after one stricter
retry. Every cosine order is ``Hypergraph.ranked`` over a full
``matrix @ vec`` product.

The mode is the only switch for the evidence: ``full`` uses everything,
``no_tree`` drops context packs, ``no_diff`` drops differentiation,
``llm_local`` uses bare metadata only, and ``embed_top1`` answers with the
nearest embedding and never calls the LLM.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Sequence

from construm.catalog import ColumnRef, MatchQuery, SchemaCatalog
from construm.diff import (
    MAX_GROUP_MEMBERS,
    DifferentiationBlock,
    generate_block,
    render_candidate_diff,
    render_source_diff,
    select_groups,
)
from construm.gateway import AccountingSnapshot, ChatCall, GatewayError, ModelGateway
from construm.graph import Hypergraph, expand_candidates, groups_within, source_confusable_set
from construm.tree import (
    ContextPack,
    ContextTree,
    TreeError,
    build_context_pack,
    render_prompt_packs,
)

logger = logging.getLogger(__name__)

MODES = ("embed_top1", "llm_local", "full", "no_tree", "no_diff")  # in report order
DECISION_TIMEOUT = 90.0  # seconds for one decision call


class PipelineError(Exception):
    def __init__(self, message: str, prompt_snapshot: str = ""):
        super().__init__(message)
        self.prompt_snapshot = prompt_snapshot


class ChoiceParseError(PipelineError):
    pass


class InvalidChoiceError(PipelineError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Per-query settings; ``mode`` alone decides which evidence is used."""

    mode: str = "full"
    k: int = 20
    pack_budget: int = 1200

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for name in ("k", "pack_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def from_mode(cls, mode: str, **overrides) -> "PipelineConfig":
        return cls(mode=mode, **overrides)

    @property
    def use_tree(self) -> bool:
        return self.mode in ("full", "no_diff")

    @property
    def use_diff(self) -> bool:
        return self.mode in ("full", "no_tree")

    @property
    def use_expansion(self) -> bool:
        return self.mode in ("full", "no_tree", "no_diff")


@dataclass
class MatchTrace:
    spent: AccountingSnapshot = AccountingSnapshot()  # the query's own calls
    prompt_snapshot: str = ""
    mode: str = "full"


@dataclass
class MatchResult:
    query: MatchQuery
    chosen: ColumnRef
    ranked: tuple[ColumnRef, ...]
    trace: MatchTrace


@dataclass
class Artifacts:
    """Read-only bundle of offline-built structures one run shares.

    Both graphs are required; a tree may be None when no mode of the run
    packs context.
    """

    source_catalog: SchemaCatalog
    target_catalog: SchemaCatalog
    source_tree: ContextTree | None
    target_tree: ContextTree | None
    source_graph: Hypergraph
    target_graph: Hypergraph


# -- shortlist ----------------------------------------------------------------


def shortlist(s: ColumnRef, artifacts: Artifacts, k: int,
              gateway: ModelGateway) -> list[ColumnRef]:
    """Top-k targets by embedding cosine to the source column.

    Both vectors come from the artifacts' graphs, so ``gateway`` is unused.
    Ties break toward the smaller (table_id, ordinal); k is clamped to the
    target count.
    """
    hg = artifacts.target_graph
    return hg.ranked(hg.matrix @ artifacts.source_graph.vector(s), k=k)


# -- prompt assembly ----------------------------------------------------------


def final_prompt_sections(s_display: str, s_desc: str, s_pack: ContextPack | None,
                          source_diff: str, candidate_diff: str,
                          candidates: Sequence[tuple[str, str, str, ContextPack | None]],
                          ) -> list[tuple[str, str]]:
    """Ordered (name, text) sections of the decision prompt.

    Order: query line, shared context, query context, source diff,
    candidate list (cid, name, desc, then context), candidate
    differentiation, answer instruction. The packs appear as
    :func:`~construm.tree.render_prompt_packs` renders them: without their
    header, and with each line that two of them carry said once in the
    shared context, present only when some line is shared. The two
    differentiation sections arrive rendered and separate (empty when
    absent). Every prompt in a reduced mode is a subsequence of these
    sections for the same query.
    """
    sections: list[tuple[str, str]] = []
    query_line = f"Query column: {s_display}"
    if s_desc:
        query_line += f"; desc: {s_desc}"
    sections.append(("query", query_line))
    shared, (s_body, *bodies) = render_prompt_packs([s_pack] + [c[3] for c in candidates])
    if shared:
        sections.append(("shared_context", shared))
    if s_body is not None:
        sections.append(("query_context", "Query context:\n" + s_body))
    source_diff = source_diff.strip()
    if source_diff:
        sections.append(("source_diff", source_diff))
    sections.append(("candidates_header", "Candidates:"))
    for (cid, name, desc, _), body in zip(candidates, bodies):
        sections.append((f"candidate:{cid}", f"- {cid}: name: {name}; desc: {desc}"))
        if body is not None:
            indented = body.replace("\n", "\n    ")
            sections.append((f"candidate_context:{cid}", f"    {indented}"))
    if candidate_diff:
        sections.append(("candidate_diff", candidate_diff.rstrip()))
    sections.append((
        "instruction",
        "Select the single best matching target column from the candidates. "
        "End your reply with a final line: ANSWER: <cid>",
    ))
    return sections


def assemble_final_prompt(s_display: str, s_desc: str, s_pack: ContextPack | None,
                          source_diff: str, candidate_diff: str,
                          candidates: Sequence[tuple[str, str, str, ContextPack | None]],
                          ) -> str:
    if not candidates:
        raise PipelineError("cannot assemble a prompt with no candidates")
    return "\n".join(
        text for _, text in final_prompt_sections(s_display, s_desc, s_pack, source_diff,
                                                  candidate_diff, candidates)
    )


_ANSWER_RE = re.compile(r"ANSWER:\s*(C[1-9][0-9]*)")


def parse_choice(reply: str, candidates_by_cid: dict[str, ColumnRef]) -> ColumnRef:
    """Extract the chosen candidate; the last ``ANSWER: C<digits>`` wins."""
    matches = _ANSWER_RE.findall(reply)
    if not matches:
        raise ChoiceParseError("no 'ANSWER: <cid>' line in reply")
    cid = matches[-1]
    if cid not in candidates_by_cid:
        raise InvalidChoiceError(f"chosen cid {cid} is not a candidate")
    return candidates_by_cid[cid]


# -- per-query run ------------------------------------------------------------


def run_match(query: MatchQuery, config: PipelineConfig, artifacts: Artifacts,
              gateway: ModelGateway) -> MatchResult:
    """Run one forced-choice query end to end.

    Steps, in order: optional shortlist expansion, context packs for the
    query and every candidate, the source-side differentiation block, sent
    beside the candidate-side blocks, which go one after another, then a
    single decision call (none in ``embed_top1``).
    Returns the chosen candidate, the ranked candidate list (chosen first),
    and a trace whose ``spent`` snapshot counts the gateway calls this
    query made, and only those, even while other queries share the gateway.
    An exception raised on the way carries that snapshot as its ``spent``.
    """
    if not query.shortlist:
        raise PipelineError("query has an empty shortlist")
    for ref in query.shortlist:
        artifacts.target_catalog.meta(ref)  # raises on unknown candidates
    with gateway.metered() as meter:
        try:
            if config.mode == "embed_top1":
                chosen, ranked, prompt = query.shortlist[0], query.shortlist, ""
            else:
                chosen, ranked, prompt = _decide(query, config, artifacts, gateway)
        except Exception as exc:
            exc.spent = meter.snapshot()  # so the failed query's calls stay counted
            raise
    return MatchResult(query, chosen, tuple(ranked),
                       MatchTrace(meter.snapshot(), prompt, config.mode))


def _decide(query: MatchQuery, config: PipelineConfig, artifacts: Artifacts,
            gateway: ModelGateway) -> tuple[ColumnRef, list[ColumnRef], str]:
    scat, tcat = artifacts.source_catalog, artifacts.target_catalog
    sg, tg = artifacts.source_graph, artifacts.target_graph
    s = query.source
    candidates = list(query.shortlist)
    if config.use_expansion:
        candidates = expand_candidates(candidates, tg)
    sims = tg.matrix @ sg.vector(s)  # the query's cosine to every target column

    source_members: list[ColumnRef] = []
    if config.use_diff:
        group = source_confusable_set(s, sg)
        if len(group) >= 2:
            source_members = group.sorted_members()[:MAX_GROUP_MEMBERS]

    # one pack per column, read by the prompt and both sides' blocks; a
    # ColumnRef carries its side, so source and target keys never collide
    packs: dict[ColumnRef, ContextPack | None] = {}
    if config.use_tree:
        for tree, catalog, refs in ((artifacts.source_tree, scat, [s] + source_members),
                                    (artifacts.target_tree, tcat, candidates)):
            for ref in refs:
                if tree is None or ref in packs:
                    continue
                try:
                    packs[ref] = build_context_pack(tree, catalog, ref, config.pack_budget)
                except (TreeError, KeyError) as exc:
                    logger.warning("context pack unavailable for %s: %s", ref, exc)
                    packs[ref] = None

    chosen_groups = (select_groups(groups_within(candidates, tg), sims, tg)
                     if config.use_diff else [])

    query_meta = f"{scat.display_name(s)}: {scat.meta(s).description}"

    def block(members: Sequence[ColumnRef], catalog: SchemaCatalog,
              skipped: str) -> DifferentiationBlock | None:
        try:
            return generate_block(members, catalog, packs, query_meta, gateway)
        except GatewayError as exc:
            logger.warning("%s: %s", skipped, exc)
            return None

    # the source block goes out beside the candidate blocks, which go out
    # one after another; a skipped block comes back as None
    def source_lane() -> DifferentiationBlock | None:
        return block(source_members, scat, "source differentiation skipped")

    def candidate_lane() -> list[DifferentiationBlock | None]:
        return [block(members, tcat, f"differentiation block skipped for group of {len(members)}")
                for _, members in chosen_groups]

    lanes = [source_lane] if source_members else []
    *source_blocks, candidate_blocks = gateway.concurrently(lanes + [candidate_lane])
    source_diff = render_source_diff([b for b in source_blocks if b is not None], scat)
    candidate_diff = render_candidate_diff(
        [b for b in candidate_blocks if b is not None], tcat)

    candidate_rows = [
        (tcat.meta(t).cid, tcat.display_name(t), tcat.meta(t).description, packs.get(t))
        for t in candidates
    ]
    prompt = assemble_final_prompt(
        scat.display_name(s), scat.meta(s).description, packs.get(s), source_diff,
        candidate_diff, candidate_rows,
    )
    by_cid = {tcat.meta(t).cid: t for t in candidates}

    misses: list[PipelineError] = []

    def parse(text: str) -> ColumnRef | None:
        try:
            return parse_choice(text, by_cid)
        except PipelineError as exc:
            misses.append(exc)
            return None

    chosen, _ = gateway.ask(
        ChatCall("decision", prompt, timeout=DECISION_TIMEOUT), parse,
        "\nReminder: end your reply with exactly one line 'ANSWER: <cid>' "
        "where <cid> is one of: " + ", ".join(sorted(by_cid)) + ".")
    if chosen is None:
        first_error, exc = misses
        raise PipelineError(
            f"decision reply unusable after retry: {exc} (first failure: {first_error})",
            prompt_snapshot=prompt,
        ) from exc

    rest = tg.ranked(sims, among=[c for c in candidates if c != chosen])
    return chosen, [chosen] + rest, prompt  # chosen first, the rest by cosine
