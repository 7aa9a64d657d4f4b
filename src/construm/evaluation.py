"""Benchmark generation, forced-choice evaluation, and ablation reports.

The context-stress benchmark generator is deterministic: it finds pairs of
semantically similar source columns that sit far apart in the ordered
sequence (so neighborhood cues, not adjacency, must disambiguate them),
keeps only pair members with a verified target match, and emits queries
sorted by position. Evaluation scores Top-k accuracy over each result's
ranked candidate list and averages the calls, tokens and latency each
query spent, failed queries included.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

from construm import kernels
from construm.catalog import ColumnRef, MatchQuery, SchemaCatalog
from construm.gateway import AccountingSnapshot, GatewayError, ModelGateway
from construm.graph import embed_columns
from construm.pipeline import (
    MODES,
    Artifacts,
    MatchResult,
    PipelineConfig,
    PipelineError,
    run_match,
    shortlist,
)

logger = logging.getLogger(__name__)


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
    matrix = embed_columns(cat, list(cat.refs()), gateway)
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
    """Read a query file: a JSON array of objects, each with a ``source``
    column identifier and optionally a ``shortlist`` array of them and a
    ``truth``. Any other shape is a ``ValueError``."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError(f"a query file holds a JSON array, not {type(rows).__name__}")
    queries = []
    for n, row in enumerate(rows):
        if not (isinstance(row, dict) and isinstance(row.get("shortlist", []), list)
                and all(isinstance(row.get(key, ""), str) for key in ("source", "truth"))
                and all(isinstance(c, str) for c in row.get("shortlist", []))):
            raise ValueError(f"query {n} is not an object of column identifier strings: "
                             f"{json.dumps(row)}")
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


Outcome = tuple[MatchResult | None, QueryFailure | None]


@dataclass
class EvalReport:
    """One slice's scores; the slice is the report's key in ``{slice: {mode: report}}``."""

    n: int
    acc1: float
    acc3: float
    acc5: float
    mean_llm_calls: float
    mean_tokens: float
    mean_latency: float


def evaluate(queries: Sequence[MatchQuery], outcomes: Sequence[Outcome]) -> EvalReport:
    """Score one slice: accuracy@{1,3,5} plus mean efficiency counters.

    ``outcomes[i]`` is ``run_queries``' pair for ``queries[i]``. A failed
    query scores as incorrect, and the efficiency means count the calls it
    made before it failed.
    """
    if len(queries) != len(outcomes):
        raise BenchmarkError(
            f"need one outcome per query: {len(queries)} queries, {len(outcomes)} outcomes"
        )
    hits = {1: 0, 3: 0, 5: 0}
    spent: list[AccountingSnapshot] = []
    for i, (q, (result, failure)) in enumerate(zip(queries, outcomes)):
        if q.ground_truth is None:
            raise BenchmarkError(f"query {i} has no ground truth")
        spent.append(failure.spent if result is None else result.trace.spent)
        if result is not None and q.ground_truth in result.ranked:
            rank = result.ranked.index(q.ground_truth) + 1
            for k in hits:
                hits[k] += rank <= k
    n = len(queries)

    def mean(total) -> float:
        return total / n if n else 0.0

    return EvalReport(
        n=n,
        acc1=mean(hits[1]), acc3=mean(hits[3]), acc5=mean(hits[5]),
        mean_llm_calls=mean(sum(s.llm_calls for s in spent)),
        mean_tokens=mean(sum(s.total_tokens for s in spent)),
        mean_latency=mean(sum(s.latency for s in spent)),
    )


def weighted_average(pairs: Sequence[tuple[int, float]]) -> float:
    """Size-weighted mean: sum(n_i * v_i) / sum(n_i)."""
    total = sum(n for n, _ in pairs)
    if total == 0:
        return 0.0
    return sum(n * v for n, v in pairs) / total


def weighted_total(reports: Sequence[EvalReport]) -> EvalReport:
    """The weighted "Total" row across benchmark slices."""
    return EvalReport(
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
                gateway: ModelGateway) -> list[Outcome]:
    """Run every query; one (result, failure) pair per query, in query order.

    Queries without a shortlist get one from embedding retrieval (size
    ``config.k``). A query that raises gets ``(None, QueryFailure)``, which
    keeps the calls it made (a ``gateway.metered()`` scope around each
    query counts them), and the run continues. Queries run
    concurrently on the gateway; each trace counts only its own query's calls.
    The first query of each (source, shortlist) pair runs before any repeat
    of it, so the first books the backend calls and the repeats the cache
    hits, whatever the timing.
    """
    def run_one(i: int) -> Outcome:
        q = queries[i]
        with gateway.metered() as meter:
            try:
                if not q.shortlist:
                    q = q.with_shortlist(shortlist(q.source, artifacts, config.k, gateway))
                return run_match(q, config, artifacts, gateway), None
            except Exception as exc:  # noqa: BLE001 - record the row, keep running
                # an error of another kind is a bug: keep its traceback
                logger.warning("query %d failed in mode %s: %s", i, config.mode, exc,
                               exc_info=not isinstance(exc, (PipelineError, GatewayError)))
                return None, QueryFailure(str(exc), meter.snapshot())

    first: dict[tuple, int] = {}
    for i, q in enumerate(queries):
        first.setdefault((q.source, q.shortlist), i)
    leads = list(first.values())  # in query order
    repeats = sorted(set(range(len(queries))) - set(leads))
    outcomes: list = [None] * len(queries)
    for wave in (leads, repeats):
        for i, outcome in zip(wave, gateway.concurrently([partial(run_one, i) for i in wave])):
            outcomes[i] = outcome
    return outcomes


def run_ablation_suite(queries: Sequence[MatchQuery], modes: Sequence[str],
                       artifacts: Artifacts, gateway: ModelGateway, base_config: PipelineConfig,
                       ) -> dict[str, tuple[EvalReport, list[Outcome]]]:
    """Run every mode over the identical query list and score each.

    Every mode runs with ``base_config``'s other fields, through
    ``run_queries``, and keeps its outcomes beside its report. A failed
    query scores as incorrect and the run continues.
    """
    out: dict[str, tuple[EvalReport, list[Outcome]]] = {}
    for mode in modes:
        outcomes = run_queries(queries, replace(base_config, mode=mode), artifacts, gateway)
        out[mode] = (evaluate(queries, outcomes), outcomes)
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
    modes = [m for m in MODES if any(m in reports[s] for s in slices)]
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


def parse_report_csv(text: str) -> dict[str, dict[str, EvalReport]]:
    """Inverse of the CSV rendering: the {slice: {mode: report}} grid.

    Raises ValueError unless the header is ``CSV_FIELDS`` and every row
    has one field per name, each of which parses.
    """
    reader = csv.reader(io.StringIO(text))
    if tuple(next(reader, ())) != CSV_FIELDS:
        raise ValueError(f"the header is not {','.join(CSV_FIELDS)}")
    grid: dict[str, dict[str, EvalReport]] = {}
    for row in filter(None, reader):
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                             f"not {len(CSV_FIELDS)}")
        slice_name, mode, n, *values = row
        grid.setdefault(slice_name, {})[mode] = EvalReport(int(n), *map(float, values))
    return grid
