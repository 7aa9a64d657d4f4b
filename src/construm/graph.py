"""Global similarity hypergraph over one schema side.

Columns whose embedding cosine reaches the threshold tau get an undirected
link; connected components of those links are the "confusable groups" --
the sets of mutually near-duplicate columns that must be contrasted
jointly rather than scored one by one. Link construction is exact
all-pairs (quadratic), delegated to the blocked numpy kernel. The built graph
is immutable and the per-query helpers (`expand_candidates`,
`groups_within`, `source_confusable_set`) only read it, so any number of
queries can share one instance. `Hypergraph.ranked` is the one cosine
ranking of the query path, so a near-tie breaks the same way everywhere.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from construm import kernels
from construm.catalog import ColumnRef, SchemaCatalog, Side, as_side, masking_mismatch
from construm.gateway import ModelGateway

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.90
CAP_STRONG = 3  # shortlist head whose tau-neighbours expansion adds
CAP_TOTAL = 5  # columns expansion adds at most


@dataclass(frozen=True)
class SimilarityLink:
    """Undirected tau-link, stored with a < b in catalog order."""

    a: ColumnRef
    b: ColumnRef
    cosine: float


@dataclass(frozen=True)
class SimilarityGroup:
    """One confusable set of columns on one schema side."""

    members: frozenset[ColumnRef]

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[ColumnRef]:
        return sorted(self.members, key=lambda r: r.sort_key)


def embedding_text(catalog: SchemaCatalog, ref: ColumnRef) -> str:
    """Text a column embeds as (masked names once the catalog is masked)."""
    meta = catalog.meta(ref)
    table = catalog.table(ref.table_id)
    return (f"name: {catalog.display_name(ref)}. description: {meta.description}."
            f" table: {table.name}.")


def embed_columns(catalog: SchemaCatalog, refs: Sequence[ColumnRef],
                  gateway: ModelGateway) -> np.ndarray:
    """One unit embedding row per column of ``refs``, in order, from one batch."""
    return gateway.embed_batch([embedding_text(catalog, r) for r in refs])


class Hypergraph:
    """Immutable tau-thresholded similarity structure for one side.

    ``embeddings`` is the graph's own read-only copy of the rows it is
    given: one C-contiguous float64 matrix of unit rows in ``columns``
    order, which ``matrix`` also names. Copying leaves the caller's array
    writeable, and a copy made once the embedding batch's temporaries are
    freed packs the heap tighter: repeated perfbench builds peak ~1.5 MB
    lower than when the graph keeps the batch's own matrix.
    """

    def __init__(self, side: Side, tau: float, columns: Sequence[ColumnRef],
                 embeddings: np.ndarray,
                 links: Sequence[SimilarityLink], groups: Sequence[SimilarityGroup]):
        self.side = side
        self.tau = tau
        self.columns = tuple(columns)
        self.embeddings = self.matrix = np.array(embeddings, dtype=np.float64, order="C")
        self.matrix.flags.writeable = False  # vector() hands out row views
        if self.matrix.shape[0] != len(self.columns):
            raise ValueError(f"{self.matrix.shape[0]} embedding rows for "
                             f"{len(self.columns)} columns")
        self.links = tuple(links)
        self.groups = tuple(groups)
        self._index = {ref: i for i, ref in enumerate(self.columns)}
        # each column's place in sort_key order, which catalog order need not follow
        by_key = sorted(range(len(self.columns)), key=lambda i: self.columns[i].sort_key)
        self._tie_rank = np.argsort(by_key)
        self._group_of: dict[ColumnRef, SimilarityGroup] = {}
        for g in self.groups:
            for ref in g.members:
                if self._group_of.setdefault(ref, g) is not g:
                    raise ValueError(f"column {ref} is in two groups")
        if self._group_of.keys() != self._index.keys():
            raise ValueError(f"the groups do not partition the graph's {len(self.columns)} columns")

    def index_of(self, ref: ColumnRef) -> int:
        return self._index[ref]

    def group_of(self, ref: ColumnRef) -> SimilarityGroup:
        return self._group_of[ref]

    def vector(self, ref: ColumnRef) -> np.ndarray:
        return self.matrix[self._index[ref]]

    def ranked(self, scores: np.ndarray, among: Iterable[ColumnRef] | None = None,
               k: int | None = None) -> list[ColumnRef]:
        """Columns by score, highest first; ties go to the smaller ``sort_key``.

        ``scores`` holds one value per column in ``columns`` order, such as
        ``matrix @ vec``. With ``among``, only those columns are ranked
        (a column listed twice comes back twice). With ``k``, the result
        is ``ranked(scores, among)[:k]``: ``np.argpartition`` finds the
        k-th highest score, and only the columns not below it, every tie
        with it included, are sorted.
        """
        idx = (np.arange(len(self.columns)) if among is None
               else np.array([self._index[r] for r in among], dtype=np.intp))
        if k is not None and 0 < k < len(idx):
            picked = scores[idx]
            # nan ranks last, as in the sort below; a nan k-th score keeps every column
            kth = picked[np.argpartition(-picked, k - 1)[k - 1]]
            idx = idx[~(picked < kth)]
        order = idx[np.lexsort((self._tie_rank[idx], -scores[idx]))]
        return [self.columns[i] for i in order[:k]]


def build_hypergraph(catalog: SchemaCatalog, gateway: ModelGateway,
                     tau: float = DEFAULT_TAU) -> Hypergraph:
    """Embed every column and take exact all-pairs tau-links and components.

    Deterministic given the embeddings: link order is row-major over the
    catalog order and groups are sorted by their smallest member.
    """
    refs = list(catalog.refs())
    if not refs:
        raise ValueError("cannot build a hypergraph over an empty catalog")
    matrix = embed_columns(catalog, refs, gateway)
    pairs = kernels.threshold_links(matrix, tau)
    links = [SimilarityLink(refs[i], refs[j], cos) for i, j, cos in pairs]
    return Hypergraph(catalog.side, tau, refs, matrix, links, extract_groups(pairs, refs))


def extract_groups(pairs: Iterable[tuple[int, int, float]],
                   refs: Sequence[ColumnRef]) -> list[SimilarityGroup]:
    """Connected components of ``(i, j, ...)`` index pairs over ``refs``, such
    as :func:`kernels.threshold_links` returns, singletons included.

    Output order is deterministic: groups sorted by their smallest index.
    """
    by_label: dict[int, list[ColumnRef]] = {}
    for ref, label in zip(refs, kernels.component_labels(len(refs), pairs)):
        by_label.setdefault(label, []).append(ref)
    return [SimilarityGroup(frozenset(members)) for _, members in sorted(by_label.items())]


def expand_candidates(c0: Sequence[ColumnRef], hypergraph: Hypergraph) -> list[ColumnRef]:
    """Grow a shortlist with near-duplicate neighbors of its strong head.

    The first ``CAP_STRONG`` shortlist members are the strong candidates;
    columns with cosine >= the graph's tau to any of them join the
    candidate set, highest cosine first, up to ``CAP_TOTAL`` additions.
    Shortlist order is preserved and additions are appended.
    """
    if not c0:
        raise ValueError("empty shortlist")
    strong = list(c0)[:CAP_STRONG]
    best = np.max([hypergraph.matrix @ hypergraph.vector(s) for s in strong], axis=0)
    keep = best >= hypergraph.tau
    keep[[hypergraph.index_of(r) for r in c0]] = False
    added = hypergraph.ranked(best, among=[hypergraph.columns[i] for i in np.flatnonzero(keep)])
    return list(c0) + added[:CAP_TOTAL]


def groups_within(candidates: Sequence[ColumnRef], hypergraph: Hypergraph) -> list[SimilarityGroup]:
    """Confusable groups restricted to one query's candidate set.

    Links are recomputed from the stored embeddings at the graph's tau,
    over just the induced subset; singletons are kept.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    order = sorted(candidates, key=lambda r: r.sort_key)
    sub = hypergraph.matrix[[hypergraph.index_of(r) for r in order]]
    return extract_groups(kernels.threshold_links(sub, hypergraph.tau), order)


def source_confusable_set(s: ColumnRef, hypergraph: Hypergraph) -> SimilarityGroup:
    """The confusable set around a query column on its own side.

    The stored component containing ``s``, intersected with ``s``'s table
    to avoid cross-table noise; always contains ``s``.
    """
    group = hypergraph.group_of(s)
    members = frozenset(r for r in group.members if r.table_id == s.table_id) | {s}
    return SimilarityGroup(members)


# -- persistence -------------------------------------------------------------


def save_hypergraph(hg: Hypergraph, catalog: SchemaCatalog, path):
    doc = {
        "format": 1,
        "masked": catalog.masked,
        "side": hg.side.value,
        "tau": hg.tau,
        "columns": [
            {"cid": catalog.meta(r).cid, "table_id": r.table_id, "ordinal": r.ordinal}
            for r in hg.columns
        ],
        "embeddings": hg.matrix.tolist(),
        "links": [
            [hg.index_of(l.a), hg.index_of(l.b), l.cosine] for l in hg.links
        ],
        "groups": [
            sorted(hg.index_of(r) for r in g.members) for g in hg.groups
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_hypergraph(path, catalog: SchemaCatalog) -> Hypergraph:
    """Read a graph that :func:`save_hypergraph` wrote over ``catalog``'s
    columns, in order, and masking state; any other graph is rejected."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"a graph file holds a JSON object, got {type(doc).__name__}")
    side = as_side(doc["side"])
    columns = [ColumnRef(side, c["table_id"], int(c["ordinal"])) for c in doc["columns"]]
    if columns != list(catalog.refs()):
        raise ValueError(f"the graph's {len(columns)} columns are not the {catalog.column_count} "
                         f"of the {catalog.side.value} catalog; rebuild it from that catalog")
    embeddings = np.asarray(doc["embeddings"], dtype=np.float64)
    links = [
        SimilarityLink(columns[int(i)], columns[int(j)], float(cos))
        for i, j, cos in doc["links"]
    ]
    groups = [SimilarityGroup(frozenset(columns[int(i)] for i in idxs)) for idxs in doc["groups"]]
    if mismatch := masking_mismatch(doc, catalog):
        raise ValueError(f"the graph {mismatch}")
    return Hypergraph(side, float(doc["tau"]), columns, embeddings, links, groups)
