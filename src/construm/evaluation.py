"""Benchmark generation, forced-choice evaluation, and ablation reports.

The context-stress benchmark generator is deterministic: it finds pairs of
semantically similar source columns that sit far apart in the ordered
sequence (so neighborhood cues, not adjacency, must disambiguate them),
keeps only pair members with a verified target match, and emits queries
sorted by position. Evaluation scores Top-k accuracy over each result's
ranked candidate list and averages the efficiency counters from traces.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from construm import kernels
from construm.catalog import ColumnRef, MatchQuery, SchemaCatalog
from construm.gateway import AccountingSnapshot, GatewayError, ModelGateway
from construm.graph import embedding_text
from construm.pipeline import (
    Artifacts,
    MatchResult,
    PipelineConfig,
    PipelineError,
    run_match,
    shortlist,
)

logger = logging.getLogger(__name__)

MODE_ORDER = ("embed_top1", "llm_local", "full", "no_tree", "no_diff")


class BenchmarkError(Exception):
    pass


@dataclass
class BenchmarkSpec:
    source_catalog: SchemaCatalog
    target_catalog: SchemaCatalog
    pair_similarity_tau: float
    min_separation: int  # intervening items required between pair members
    verified_matches: dict[ColumnRef, ColumnRef]


def similar_separated_pairs(spec: BenchmarkSpec, gateway: ModelGateway
                            ) -> list[tuple[ColumnRef, ColumnRef]]:
    """Same-table column pairs with cosine >= tau and enough separation.

    Separation counts the items strictly between the two positions in the
    ordered sequence. Pairs are returned with the smaller ordinal first,
    sorted by position.
    """
    cat = spec.source_catalog
    refs = list(cat.refs())
    texts = [embedding_text(cat, r) for r in refs]
    vectors = gateway.embed_batch(texts)
    matrix = np.stack([v.values for v in vectors])
    pairs = []
    start = 0
    for table in cat.tables:
        cols = table.columns
        block = matrix[start:start + len(cols)]
        start += len(cols)
        for i, j, _ in kernels.threshold_links(block, spec.pair_similarity_tau):
            # ordinals equal row positions within a table
            if j - i - 1 >= spec.min_separation:
                pairs.append((cols[i], cols[j]))
    pairs.sort(key=lambda p: (p[0].sort_key, p[1].sort_key))
    return pairs


def generate_benchmark(spec: BenchmarkSpec, gateway: ModelGateway) -> list[MatchQuery]:
    """Deterministic query list: pair members that have a verified match.

    Each qualifying pair contributes each of its members as a query when
    that member appears in ``verified_matches``. Queries are deduplicated
    and sorted by source position; shortlists are left empty for the run
    stage to fill. An empty result is a warning, not an error.
    """
    members: set[ColumnRef] = set()
    for a, b in similar_separated_pairs(spec, gateway):
        members.add(a)
        members.add(b)
    queries = [
        MatchQuery(source=ref, ground_truth=spec.verified_matches[ref])
        for ref in sorted(members, key=lambda r: r.sort_key)
        if ref in spec.verified_matches
    ]
    if not queries:
        logger.warning("benchmark is empty: no qualifying pairs with verified matches")
    return queries


def save_benchmark(queries: Sequence[MatchQuery], source_catalog: SchemaCatalog,
                   target_catalog: SchemaCatalog) -> str:
    rows = []
    for q in queries:
        row = {"source": source_catalog.meta(q.source).cid}
        if q.shortlist:
            row["shortlist"] = [target_catalog.meta(t).cid for t in q.shortlist]
        if q.ground_truth is not None:
            row["truth"] = target_catalog.meta(q.ground_truth).cid
        rows.append(row)
    return json.dumps(rows, sort_keys=True, indent=0)


def load_benchmark(text: str, source_catalog: SchemaCatalog,
                   target_catalog: SchemaCatalog) -> list[MatchQuery]:
    rows = json.loads(text)
    queries = []
    for row in rows:
        queries.append(MatchQuery(
            source=source_catalog.resolve(row["source"]),
            shortlist=tuple(target_catalog.resolve(c) for c in row.get("shortlist", [])),
            ground_truth=(target_catalog.resolve(row["truth"])
                          if "truth" in row else None),
        ))
    return queries


# -- scoring -------------------------------------------------------------------


@dataclass(frozen=True)
class QueryFailure:
    """A query that raised: its message and the calls it made before that."""

    message: str
    spent: AccountingSnapshot


@dataclass
class QueryRow:
    source_cid: str
    truth_cid: str
    chosen_cid: str | None
    truth_rank: int | None  # 1-based rank of the truth in the ranked list
    correct: bool
    error: QueryFailure | str | None = None


@dataclass
class EvalReport:
    slice_name: str
    n: int
    acc1: float
    acc3: float
    acc5: float
    mean_llm_calls: float
    mean_tokens: float
    mean_latency: float
    rows: list[QueryRow] = field(default_factory=list)


def evaluate(queries: Sequence[MatchQuery], results: Sequence[MatchResult | None],
             source_catalog: SchemaCatalog, target_catalog: SchemaCatalog,
             slice_name: str = "all",
             errors: Mapping[int, QueryFailure | str] | None = None) -> EvalReport:
    """Score one slice: accuracy@{1,3,5} plus mean efficiency counters.

    ``results[i]`` answers ``queries[i]``; a None result must come with an
    entry in ``errors`` and scores as incorrect. The efficiency means count
    the calls a ``QueryFailure`` made before it failed.
    """
    if len(queries) != len(results):
        raise BenchmarkError(
            f"need one result per query: {len(queries)} queries, {len(results)} results"
        )
    errors = errors or {}
    rows: list[QueryRow] = []
    hits = {1: 0, 3: 0, 5: 0}
    calls = tokens = 0.0
    latency = 0.0
    for i, (q, r) in enumerate(zip(queries, results)):
        if q.ground_truth is None:
            raise BenchmarkError(f"query {i} has no ground truth")
        truth_cid = target_catalog.meta(q.ground_truth).cid
        source_cid = source_catalog.meta(q.source).cid
        if r is None:
            failure = errors.get(i, "missing result")
            rows.append(QueryRow(source_cid, truth_cid, None, None, False, error=failure))
            if isinstance(failure, QueryFailure):
                calls += failure.spent.llm_calls
                tokens += failure.spent.total_tokens
                latency += failure.spent.latency
            continue
        rank = None
        if q.ground_truth in r.ranked:
            rank = r.ranked.index(q.ground_truth) + 1
        for k in hits:
            if rank is not None and rank <= k:
                hits[k] += 1
        rows.append(QueryRow(
            source_cid, truth_cid, target_catalog.meta(r.chosen).cid,
            rank, r.chosen == q.ground_truth,
        ))
        calls += r.trace.llm_calls
        tokens += r.trace.total_tokens
        latency += r.trace.latency
    n = len(queries)
    return EvalReport(
        slice_name=slice_name, n=n,
        acc1=hits[1] / n if n else 0.0,
        acc3=hits[3] / n if n else 0.0,
        acc5=hits[5] / n if n else 0.0,
        mean_llm_calls=calls / n if n else 0.0,
        mean_tokens=tokens / n if n else 0.0,
        mean_latency=latency / n if n else 0.0,
        rows=rows,
    )


def weighted_average(pairs: Sequence[tuple[int, float]]) -> float:
    """Size-weighted mean: sum(n_i * v_i) / sum(n_i)."""
    total = sum(n for n, _ in pairs)
    if total == 0:
        return 0.0
    return sum(n * v for n, v in pairs) / total


def weighted_total(reports: Sequence[EvalReport], slice_name: str = "Total") -> EvalReport:
    """The weighted "Total" row across benchmark slices."""
    return EvalReport(
        slice_name=slice_name,
        n=sum(r.n for r in reports),
        acc1=weighted_average([(r.n, r.acc1) for r in reports]),
        acc3=weighted_average([(r.n, r.acc3) for r in reports]),
        acc5=weighted_average([(r.n, r.acc5) for r in reports]),
        mean_llm_calls=weighted_average([(r.n, r.mean_llm_calls) for r in reports]),
        mean_tokens=weighted_average([(r.n, r.mean_tokens) for r in reports]),
        mean_latency=weighted_average([(r.n, r.mean_latency) for r in reports]),
    )


# -- ablation suite -------------------------------------------------------------


def run_queries(queries: Sequence[MatchQuery], config: PipelineConfig, artifacts: Artifacts,
                gateway: ModelGateway) -> list[tuple[MatchResult | None, QueryFailure | None]]:
    """Run every query; one (result, failure) pair per query, in query order.

    Queries without a shortlist get one from embedding retrieval (size
    ``config.k``). A query that raises gets ``(None, QueryFailure)``, which
    keeps the calls it made, and the run continues. Queries run
    concurrently on the gateway; each trace counts only its own query's calls.
    """
    def run_one(i: int) -> tuple[MatchResult | None, QueryFailure | None]:
        q = queries[i]
        try:
            if not q.shortlist:
                q = q.with_shortlist(shortlist(q.source, artifacts, config.k, gateway))
            return run_match(q, config, artifacts, gateway), None
        except Exception as exc:  # noqa: BLE001 - record the row, keep running
            # an error of another kind is a bug: keep its traceback
            logger.warning("query %d failed in mode %s: %s", i, config.mode, exc,
                           exc_info=not isinstance(exc, (PipelineError, GatewayError)))
            return None, QueryFailure(str(exc), getattr(exc, "spent", AccountingSnapshot()))

    return gateway.concurrently([partial(run_one, i) for i in range(len(queries))])


def run_ablation_suite(queries: Sequence[MatchQuery], modes: Sequence[str],
                       artifacts: Artifacts, gateway: ModelGateway,
                       base_config: PipelineConfig | None = None, slice_name: str = "all",
                       ) -> dict[str, tuple[EvalReport, list[MatchResult | None]]]:
    """Run every mode over the identical query list and score each.

    Every mode runs with ``base_config``'s other fields, through
    ``run_queries``. A failed query is recorded on its row (scored
    incorrect) and the run continues.
    """
    out: dict[str, tuple[EvalReport, list[MatchResult | None]]] = {}
    for mode in modes:
        cfg = replace(base_config or PipelineConfig(), mode=mode)
        outcomes = run_queries(queries, cfg, artifacts, gateway)
        results = [result for result, _ in outcomes]
        errors = {i: error for i, (_, error) in enumerate(outcomes) if error is not None}
        report = evaluate(queries, results, artifacts.source_catalog,
                          artifacts.target_catalog, slice_name, errors)
        out[mode] = (report, results)
    return out


# -- rendering -------------------------------------------------------------------


CSV_FIELDS = ("slice", "mode", "n", "acc1", "acc3", "acc5",
              "llm_calls_per_query", "tokens_per_query", "latency_s")


def render_report(reports: Mapping[str, Mapping[str, EvalReport]],
                  fmt: str = "markdown") -> str:
    """Serialize {slice: {mode: report}} grids.

    Markdown emits an accuracy table (slices x modes, plus a weighted
    Total row when there are several slices) and an efficiency table; CSV
    emits one long row per (slice, mode). Both are deterministic.
    """
    slices = list(reports)
    modes = [m for m in MODE_ORDER if any(m in reports[s] for s in slices)]
    for s in slices:  # preserve unknown/custom modes too
        for m in reports[s]:
            if m not in modes:
                modes.append(m)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for s in slices:
            for m in modes:
                r = reports[s].get(m)
                if r is None:
                    continue
                writer.writerow([s, m, r.n, repr(r.acc1), repr(r.acc3), repr(r.acc5),
                                 repr(r.mean_llm_calls), repr(r.mean_tokens),
                                 repr(r.mean_latency)])
        return buf.getvalue()
    if fmt != "markdown":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = ["## Accuracy", ""]
    header = ["Slice", "n"] + modes
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    totals: dict[str, list[EvalReport]] = {m: [] for m in modes}
    for s in slices:
        by_mode = reports[s]
        n = next(iter(by_mode.values())).n if by_mode else 0
        cells = [s, str(n)]
        for m in modes:
            r = by_mode.get(m)
            cells.append(f"{r.acc1:.3f}" if r is not None else "-")
            if r is not None:
                totals[m].append(r)
        lines.append("| " + " | ".join(cells) + " |")
    if len(slices) > 1:
        cells = ["Total", str(sum(r.n for r in totals[modes[0]]))]
        for m in modes:
            cells.append(f"{weighted_total(totals[m]).acc1:.3f}" if totals[m] else "-")
        lines.append("| " + " | ".join(cells) + " |")

    lines += ["", "## Efficiency", ""]
    eff_header = ["Setting", "n", "LLM calls/query", "Tokens/query", "Latency (s)"]
    lines.append("| " + " | ".join(eff_header) + " |")
    lines.append("|" + "---|" * len(eff_header))
    for m in modes:
        rs = [reports[s][m] for s in slices if m in reports[s]]
        if not rs:
            continue
        t = weighted_total(rs)
        lines.append(
            f"| {m} | {t.n} | {t.mean_llm_calls:.2f} | {t.mean_tokens:.0f} "
            f"| {t.mean_latency:.2f} |"
        )
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> list[dict]:
    """Inverse of the CSV rendering (used for round-trip checks and the

    report command)."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for row in reader:
        rows.append({
            "slice": row["slice"],
            "mode": row["mode"],
            "n": int(row["n"]),
            "acc1": float(row["acc1"]),
            "acc3": float(row["acc3"]),
            "acc5": float(row["acc5"]),
            "llm_calls_per_query": float(row["llm_calls_per_query"]),
            "tokens_per_query": float(row["tokens_per_query"]),
            "latency_s": float(row["latency_s"]),
        })
    return rows
