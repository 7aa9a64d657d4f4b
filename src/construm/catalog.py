"""Schema catalogs: the column-level data model for matching.

A catalog is one side of a matching problem (source or target): a list of
tables -- or ordered codebook sections -- whose columns carry a name and
an optional free-text description. Columns are addressed three ways:

* ``ColumnRef`` -- (side, table_id, ordinal), the canonical identity;
* the raw name from the input file;
* a synthetic CID token ("C1", "C2", ...) assigned in file order.

CIDs are always generated at load time and never read from the file, so
they are stable for a given input. ``mask_catalog`` produces a catalog in
which prompts may only ever show CIDs: every raw identifier embedded in
any description or routing text is rewritten to the owning column's CID,
which prevents trivial string matching on identifier tokens.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

CID_PATTERN = re.compile(r"^C[1-9][0-9]*$")


class CatalogError(Exception):
    """Invalid catalog file or a violated catalog invariant."""


class Side(str, Enum):
    SOURCE = "source"
    TARGET = "target"


def as_side(value) -> Side:
    if isinstance(value, Side):
        return value
    try:
        return Side(str(value).lower())
    except ValueError:
        raise CatalogError(f"unknown schema side {value!r} (expected source/target)") from None


@dataclass(frozen=True)
class ColumnRef:
    """Identity of one column: side, owning table, position in table order."""

    side: Side
    table_id: str
    ordinal: int

    @property
    def sort_key(self) -> tuple[str, int]:
        return (self.table_id, self.ordinal)

    def __str__(self) -> str:
        return f"{self.side.value}:{self.table_id}[{self.ordinal}]"


@dataclass(frozen=True)
class ColumnMeta:
    ref: ColumnRef
    raw_name: str
    description: str
    cid: str


@dataclass(frozen=True)
class TableMeta:
    table_id: str
    name: str
    description: str
    ordered: bool
    columns: tuple[ColumnRef, ...]


class SchemaCatalog:
    """Immutable, index-consistent view of one schema side.

    Safe for concurrent reads; all mutation happens before construction.
    """

    def __init__(self, side: Side, tables: Iterable[TableMeta],
                 metas: Iterable[ColumnMeta], masked: bool = False):
        self.side = side
        self.tables: tuple[TableMeta, ...] = tuple(tables)
        self.masked = masked
        self._by_ref: dict[ColumnRef, ColumnMeta] = {}
        self._by_cid: dict[str, ColumnRef] = {}
        self._tables_by_id: dict[str, TableMeta] = {}
        for t in self.tables:
            if t.table_id in self._tables_by_id:
                raise CatalogError(f"duplicate table_id {t.table_id!r}")
            self._tables_by_id[t.table_id] = t
        for m in metas:
            if m.ref in self._by_ref:
                raise CatalogError(f"duplicate column ref {m.ref}")
            if not CID_PATTERN.match(m.cid):
                raise CatalogError(f"invalid cid {m.cid!r} for {m.ref}")
            if m.cid in self._by_cid:
                raise CatalogError(f"duplicate cid {m.cid!r}")
            self._by_ref[m.ref] = m
            self._by_cid[m.cid] = m.ref
        for t in self.tables:
            for i, ref in enumerate(t.columns):
                if ref.ordinal != i:
                    raise CatalogError(f"non-contiguous ordinals in table {t.table_id!r}")
                if ref not in self._by_ref:
                    raise CatalogError(f"table {t.table_id!r} references unknown column {ref}")

    # -- lookups ---------------------------------------------------------

    def meta(self, ref: ColumnRef) -> ColumnMeta:
        try:
            return self._by_ref[ref]
        except KeyError:
            raise CatalogError(f"unknown column {ref}") from None

    def table(self, table_id: str) -> TableMeta:
        try:
            return self._tables_by_id[table_id]
        except KeyError:
            raise CatalogError(f"unknown table {table_id!r}") from None

    def refs(self) -> Iterator[ColumnRef]:
        """All columns in catalog (file) order."""
        for t in self.tables:
            yield from t.columns

    def display_name(self, ref: ColumnRef) -> str:
        """Name to show in any prompt text: the CID once masked."""
        m = self.meta(ref)
        return m.cid if self.masked else m.raw_name

    def resolve(self, ident: str) -> ColumnRef:
        """Resolve a CID or a unique raw name to a column."""
        if ident in self._by_cid:
            return self._by_cid[ident]
        owners = [m.ref for m in self._by_ref.values() if m.raw_name == ident]
        if len(owners) == 1:
            return owners[0]
        if not owners:
            raise CatalogError(f"unknown column identifier {ident!r}")
        raise CatalogError(f"ambiguous column identifier {ident!r} ({len(owners)} owners)")

    @property
    def column_count(self) -> int:
        return len(self._by_ref)


# -- loading ---------------------------------------------------------------


def load_catalog(path, side) -> SchemaCatalog:
    """Load a catalog JSON file for the given side.

    The file holds ``{side?, tables: [{table_id?, name, description?,
    ordered?, columns: [{name, description?}]}]}``. Ordinals follow file
    order; CIDs are assigned C1, C2, ... in the same order. Loading is
    deterministic: identical bytes produce a structurally identical
    catalog.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return catalog_from_dict(doc, side, origin=str(path))


def catalog_from_dict(doc, side, origin: str = "<dict>") -> SchemaCatalog:
    side = as_side(side)
    if not isinstance(doc, dict):
        raise CatalogError(f"{origin}: top level must be an object")
    if "side" in doc and as_side(doc["side"]) is not side:
        raise CatalogError(f"{origin}: file says side={doc['side']!r} but {side.value} was requested")
    raw_tables = doc.get("tables")
    if not raw_tables:
        raise CatalogError(f"{origin}: empty catalog (no tables)")
    tables: list[TableMeta] = []
    metas: list[ColumnMeta] = []
    seen_names: dict[tuple[str, str], int] = {}
    cid_counter = 0
    for ti, t in enumerate(raw_tables):
        loc = f"{origin}: tables[{ti}]"
        if not isinstance(t, dict):
            raise CatalogError(f"{loc} must be an object")
        table_id = str(t.get("table_id") or t.get("name") or f"t{ti}")
        name = str(t.get("name", table_id))
        description = str(t.get("description", ""))
        ordered = bool(t.get("ordered", False))
        raw_cols = t.get("columns")
        if not raw_cols:
            raise CatalogError(f"{loc} ({table_id!r}): table has no columns")
        refs: list[ColumnRef] = []
        for ci, c in enumerate(raw_cols):
            if not isinstance(c, dict) or "name" not in c:
                raise CatalogError(f"{loc}.columns[{ci}]: missing field 'name'")
            raw_name = str(c["name"])
            if (table_id, raw_name) in seen_names:
                raise CatalogError(
                    f"{loc}.columns[{ci}]: duplicate column identifier {raw_name!r} "
                    f"in table {table_id!r}"
                )
            seen_names[(table_id, raw_name)] = ci
            cid_counter += 1
            ref = ColumnRef(side, table_id, ci)
            refs.append(ref)
            metas.append(ColumnMeta(
                ref=ref,
                raw_name=raw_name,
                description=str(c.get("description", "")),
                cid=f"C{cid_counter}",
            ))
        tables.append(TableMeta(table_id, name, description, ordered, tuple(refs)))
    return SchemaCatalog(side, tables, metas)


# -- masking ---------------------------------------------------------------


def _boundary_regex(names: list[str]) -> re.Pattern:
    # longest alternatives first so a name that prefixes another can never
    # shadow it; boundaries forbid matching inside a larger identifier token
    alts = sorted((re.escape(n) for n in names if n), key=len, reverse=True)
    return re.compile(r"(?<![A-Za-z0-9_])(?:" + "|".join(alts) + r")(?![A-Za-z0-9_])")


def mask_catalog(catalog: SchemaCatalog) -> SchemaCatalog:
    """Replace every embedded raw identifier with the owning column's CID.

    CID assignment is the deterministic load-time one (file order), so
    masking the same catalog always yields the same result, and masking an
    already-masked catalog is a no-op. When a raw name is owned by columns
    in several tables, references are resolved to the same-table owner
    when unique there, otherwise to the first owner in catalog order.
    """
    owners: dict[str, list[ColumnRef]] = {}
    for ref in catalog.refs():
        owners.setdefault(catalog.meta(ref).raw_name, []).append(ref)
    if not owners:
        return catalog
    pattern = _boundary_regex(list(owners))

    def cid_for(name: str, table_id: str) -> str:
        refs = owners[name]
        same_table = [r for r in refs if r.table_id == table_id]
        chosen = same_table[0] if len(same_table) == 1 else refs[0]
        return catalog.meta(chosen).cid

    def rewrite(text: str, table_id: str) -> str:
        if not text:
            return text
        return pattern.sub(lambda m: cid_for(m.group(0), table_id), text)

    tables: list[TableMeta] = []
    metas: list[ColumnMeta] = []
    for t in catalog.tables:
        tables.append(replace(
            t,
            name=rewrite(t.name, t.table_id),
            description=rewrite(t.description, t.table_id),
        ))
        for ref in t.columns:
            m = catalog.meta(ref)
            metas.append(replace(m, description=rewrite(m.description, t.table_id)))
    return SchemaCatalog(catalog.side, tables, metas, masked=True)


def masking_mismatch(doc: dict, catalog: SchemaCatalog) -> str | None:
    """Why an artifact file's ``doc`` does not fit ``catalog``'s masking state,
    or None when it does. A file that records no state never fits."""
    recorded = doc.get("masked")
    if recorded is catalog.masked:
        return None
    state = {True: "masked", False: "unmasked"}
    built = (f"was built from the {state[recorded]} catalog" if isinstance(recorded, bool)
             else "records no masking state")
    return (f"{built}, but this run's {catalog.side.value} catalog is {state[catalog.masked]}; "
            f"rebuild it from that catalog")


def scan_for_raw_identifiers(catalog: SchemaCatalog, texts: Iterable[str]) -> list[str]:
    """Raw identifiers of ``catalog`` found in ``texts`` (word-boundary match).

    The masking soundness check: after masking, this must come back empty
    for every prompt the system produces.
    """
    names = {catalog.meta(r).raw_name for r in catalog.refs()}
    pattern = _boundary_regex(list(names))
    found: list[str] = []
    for text in texts:
        for m in pattern.finditer(text):
            found.append(m.group(0))
    return found


# -- match query -----------------------------------------------------------


@dataclass(frozen=True)
class MatchQuery:
    """One forced-choice query: a source column and its target shortlist.

    ``shortlist`` may be empty at benchmark-generation time; the pipeline
    fills it (and requires it non-empty) before running the match.
    """

    source: ColumnRef
    shortlist: tuple[ColumnRef, ...] = ()
    ground_truth: ColumnRef | None = field(default=None)

    def with_shortlist(self, shortlist: Iterable[ColumnRef]) -> "MatchQuery":
        return MatchQuery(self.source, tuple(shortlist), self.ground_truth)
