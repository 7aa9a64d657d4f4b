import itertools
import json
import re

import pytest

from construm.catalog import (
    CatalogError,
    Side,
    catalog_from_dict,
    load_catalog,
    mask_catalog,
    scan_for_raw_identifiers,
)
from helpers import build_catalog, random_catalog, table_doc


def test_load_simple_two_columns(tmp_path):
    doc = {"tables": [table_doc("t0", [("name", "customer name"), ("zip_code", "postal")])]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    cat = load_catalog(path, "source")
    refs = list(cat.refs())
    assert len(refs) == 2
    assert [r.ordinal for r in refs] == [0, 1]
    assert [cat.meta(r).raw_name for r in refs] == ["name", "zip_code"]
    assert [cat.meta(r).cid for r in refs] == ["C1", "C2"]
    assert cat.side is Side.SOURCE


def test_load_is_deterministic(tmp_path):
    doc = {"tables": [table_doc("a", [("x", "one"), ("y", "two")]),
                      table_doc("b", [("z", "three")], ordered=False)]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    c1 = load_catalog(path, "target")
    c2 = load_catalog(path, "target")
    assert c1.tables == c2.tables
    assert [c1.meta(r) for r in c1.refs()] == [c2.meta(r) for r in c2.refs()]


def test_load_empty_catalog_errors():
    with pytest.raises(CatalogError, match="empty catalog"):
        catalog_from_dict({"tables": []}, "source")


def test_load_duplicate_identifier_names_it():
    doc = {"tables": [table_doc("t0", [("C7", "first"), ("C7", "second")])]}
    with pytest.raises(CatalogError, match="C7"):
        catalog_from_dict(doc, "source")


def test_load_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"tables": [,]}')
    with pytest.raises(CatalogError, match=r"line \d+, column \d+"):
        load_catalog(path, "source")


def test_load_missing_name_field_reports_path():
    doc = {"tables": [{"table_id": "t", "columns": [{"description": "x"}]}]}
    with pytest.raises(CatalogError, match=r"tables\[0\].columns\[0\]"):
        catalog_from_dict(doc, "source")


def test_side_mismatch_rejected():
    doc = {"side": "target", "tables": [table_doc("t", [("a", "")])]}
    with pytest.raises(CatalogError, match="side"):
        catalog_from_dict(doc, "source")


def test_cid_index_roundtrip_on_random_catalogs():
    for seed in range(5):
        cat = random_catalog(seed, "source", n=40)
        for ref in cat.refs():
            assert cat.by_cid(cat.meta(ref).cid) == ref


def test_resolve_by_cid_and_unique_name():
    cat = build_catalog("source", [table_doc("t", [("alpha", ""), ("beta", "")])])
    assert cat.resolve("C2") == cat.resolve("beta")
    with pytest.raises(CatalogError, match="unknown"):
        cat.resolve("gamma")


# -- masking -------------------------------------------------------------------


def test_mask_rewrites_self_reference():
    cat = build_catalog("source", [table_doc("J", [("J005", "see J005 branch")])])
    masked = mask_catalog(cat)
    ref = next(masked.refs())
    assert masked.meta(ref).cid == "C1"
    assert masked.meta(ref).description == "see C1 branch"
    assert masked.display_name(ref) == "C1"


def test_mask_without_crossrefs_keeps_descriptions():
    cat = build_catalog("source", [table_doc("t", [("a1", "plain text"), ("b2", "other")])])
    masked = mask_catalog(cat)
    assert [masked.meta(r).description for r in masked.refs()] == ["plain text", "other"]
    assert [masked.display_name(r) for r in masked.refs()] == ["C1", "C2"]


def _sequential_replace(text: str, order, owners_cid):
    # independent oracle: one boundary-replace per name, in the given order
    for name in order:
        pattern = re.compile(r"(?<![A-Za-z0-9_])" + re.escape(name) + r"(?![A-Za-z0-9_])")
        text = pattern.sub(owners_cid[name], text)
    return text


def test_mask_prefix_names_longest_first_oracle():
    desc = "see J005B after J005; J005B overrides J005"
    cat = build_catalog("source", [table_doc("J", [("J005", desc), ("J005B", "tail")])])
    masked = mask_catalog(cat)
    got = masked.meta(next(masked.refs())).description

    owners_cid = {"J005": "C1", "J005B": "C2"}
    results = {}
    for order in itertools.permutations(["J005", "J005B"]):
        candidate = _sequential_replace(desc, order, owners_cid)
        residuals = scan_for_raw_identifiers(cat, [candidate])
        results[order] = (candidate, residuals)
    longest_first = results[("J005B", "J005")]
    assert longest_first[1] == []          # the longest-first order is clean
    assert got == longest_first[0]
    assert got == "see C2 after C1; C2 overrides C1"


def test_mask_scan_finds_nothing_after_masking():
    tables = []
    for t in range(2):
        cols = []
        for i in range(10):
            other = f"Q{(i + 3) % 10:02d}_{t}"
            cols.append((f"Q{i:02d}_{t}", f"asked after {other} in section {t}"))
        tables.append(table_doc(f"sec{t}", cols))
    cat = build_catalog("source", tables)
    masked = mask_catalog(cat)
    texts = [masked.meta(r).description for r in masked.refs()]
    texts += [t.description for t in masked.tables] + [t.name for t in masked.tables]
    assert scan_for_raw_identifiers(cat, texts) == []


def test_masked_key_in_a_catalog_file_does_not_mask(tmp_path):
    # only mask_catalog masks: a file's own "masked" flag would show CIDs
    # as names while the descriptions still held raw identifiers
    doc = {"masked": True, "tables": [table_doc("J", [
        ("income_main", "wage income; compare income_side"),
        ("income_side", "side job pay, unlike income_main")])]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    cat = load_catalog(path, "source")
    assert not cat.masked
    assert [cat.display_name(r) for r in cat.refs()] == ["income_main", "income_side"]
    masked = mask_catalog(cat)
    assert [masked.display_name(r) for r in masked.refs()] == ["C1", "C2"]
    texts = [masked.display_name(r) for r in masked.refs()]
    texts += [masked.meta(r).description for r in masked.refs()]
    assert scan_for_raw_identifiers(cat, texts) == []


def test_mask_is_idempotent():
    cat = build_catalog("source", [table_doc("J", [("J1", "see J2"), ("J2", "see J1")])])
    once = mask_catalog(cat)
    twice = mask_catalog(once)
    assert [twice.meta(r) for r in twice.refs()] == [once.meta(r) for r in once.refs()]


def test_mask_duplicate_names_prefer_same_table_owner():
    tables = [
        table_doc("a", [("ROW_ID", "key"), ("val", "see ROW_ID for join")]),
        table_doc("b", [("ROW_ID", "key")]),
    ]
    cat = build_catalog("source", tables)
    masked = mask_catalog(cat)
    val_ref = [r for r in masked.refs() if masked.meta(r).raw_name == "val"][0]
    # the same-table ROW_ID is C1; table b's copy is C3
    assert masked.meta(val_ref).description == "see C1 for join"
