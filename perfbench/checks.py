"""Correctness checks that gate every run, and output digests.

Each check raises ``CheckFailed``; a run with a failed check reports no
timings. The oracles are independent of construm's own code paths:
links come from one numpy matmul, leaves from a plain count.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

# pairs whose cosine is this close to tau may land on either side of it,
# because the program and the oracle sum the products in different orders
COSINE_TIE = 1e-9


class CheckFailed(Exception):
    pass


def check_links(graph, what: str, block: int = 256):
    """The graph's links are exactly the pairs with matmul cosine >= tau."""
    m = graph.matrix
    got = set()
    for link in graph.links:
        i, j = graph.index_of(link.a), graph.index_of(link.b)
        if not i < j:
            raise CheckFailed(f"{what}: link {link.a} -- {link.b} is not in row-major order")
        if abs(link.cosine - float(m[i] @ m[j])) > COSINE_TIE:
            raise CheckFailed(f"{what}: link {i}-{j} has cosine {link.cosine}, "
                              f"matmul gives {float(m[i] @ m[j])}")
        got.add((i, j))
    want, tie = set(), set()
    for s in range(0, len(m), block):
        cos = m[s:s + block] @ m.T
        for pairs, mask in ((want, cos >= graph.tau),
                            (tie, np.abs(cos - graph.tau) <= COSINE_TIE)):
            rows, cols = np.nonzero(mask)
            pairs.update((int(i) + s, int(j)) for i, j in zip(rows, cols) if j > i + s)
    wrong = (got ^ want) - tie
    if wrong:
        i, j = min(wrong)
        raise CheckFailed(f"{what}: {len(wrong)} links differ from the matmul pair set "
                          f"(first {i}-{j}, tau {graph.tau})")


def expected_benchmark(graph, spec) -> tuple[set, set]:
    """The query sources ``generate_benchmark`` must emit, and those it may.

    Independent oracle for the pair scan: same-table pairs with enough
    columns between them and matmul cosine >= tau; a pair member with a
    verified match is a query. Pairs within ``COSINE_TIE`` of tau go only
    to the second set.
    """
    refs = list(graph.columns)
    m = graph.matrix
    cos = m @ m.T
    table = np.array([r.table_id for r in refs])
    ordinal = np.array([r.ordinal for r in refs])
    apart = np.triu((table[:, None] == table[None, :]) & (
        np.abs(ordinal[:, None] - ordinal[None, :]) - 1 >= spec.min_separation), k=1)
    must, maybe = set(), set()
    for pairs, mask in ((must, cos >= spec.pair_similarity_tau + COSINE_TIE),
                        (maybe, cos >= spec.pair_similarity_tau - COSINE_TIE)):
        for i, j in np.argwhere(apart & mask):
            pairs.update(r for r in (refs[i], refs[j]) if r in spec.verified_matches)
    return must, maybe


def check_benchmark(generated, expected: tuple[set, set], spec):
    """``generate_benchmark`` emitted exactly the oracle's queries, in
    source order, each with its verified match."""
    must, maybe = expected
    got = [q.source for q in generated]
    if got != sorted(got, key=lambda r: r.sort_key):
        raise CheckFailed("generate_benchmark queries are not in source order")
    if not must <= set(got) <= maybe:
        raise CheckFailed(f"generate_benchmark emitted {len(got)} queries; the pair oracle "
                          f"expects {len(must)} (missing {len(must - set(got))}, "
                          f"extra {len(set(got) - maybe)})")
    for q in generated:
        if spec.verified_matches[q.source] != q.ground_truth:
            raise CheckFailed(f"generate_benchmark gave {q.source} the wrong truth")


def check_leaves(tree, catalog, what: str):
    """Every catalog column sits under exactly one tree leaf."""
    seen = Counter(ref for leaf in tree.leaves() for ref in leaf.members or ())
    twice = [ref for ref, c in seen.items() if c > 1]
    missing = set(catalog.refs()) - set(seen)
    extra = set(seen) - set(catalog.refs())
    if twice or missing or extra:
        raise CheckFailed(f"{what}: {len(twice)} columns under two leaves, "
                          f"{len(missing)} under none, {len(extra)} unknown")


def check_result(result, query, catalog):
    """The chosen column is one of the query's candidates."""
    if result.chosen not in result.ranked:
        raise CheckFailed(f"query {query.source}: chosen column is not ranked")
    if not set(query.shortlist) <= set(result.ranked):
        raise CheckFailed(f"query {query.source}: ranked list drops shortlist members")
    cid = catalog.meta(result.chosen).cid
    if f"\n- {cid}: name: " not in result.trace.prompt_snapshot:
        raise CheckFailed(f"query {query.source}: chosen {cid} was not a candidate "
                          f"in the decision prompt")


def check_calls(seen: int, accounted: int, what: str):
    """The backend saw as many calls as the gateway accounted for."""
    if seen != accounted:
        raise CheckFailed(f"{what}: backend saw {seen} chat calls, gateway accounted {accounted}")


def artifacts_digest(graphs, trees, catalogs) -> str:
    """SHA-256 over graph links and groups and tree summaries."""
    h = hashlib.sha256()
    for graph in graphs:
        h.update(f"graph {graph.side.value} {graph.tau!r} {len(graph.columns)}\n".encode())
        for link in graph.links:
            h.update(f"{graph.index_of(link.a)} {graph.index_of(link.b)} "
                     f"{link.cosine!r}\n".encode())
        for group in graph.groups:
            h.update((" ".join(str(graph.index_of(r)) for r in group.sorted_members())
                      + "\n").encode())
    for tree, catalog in zip(trees, catalogs):
        h.update(f"tree {tree.side.value} {tree.root}\n".encode())
        for node_id in sorted(tree.nodes):
            node = tree.nodes[node_id]
            members = " ".join(catalog.meta(r).cid for r in node.members or ())
            h.update(f"{node_id}|{node.kind.value}|{node.summary}|"
                     f"{','.join(node.children)}|{members}\n".encode())
        for rel in tree.relations:
            h.update(f"{rel.from_node}>{rel.to_node}: {rel.relation_text}\n".encode())
    return h.hexdigest()


def results_digest(results, catalog) -> str:
    """SHA-256 over decision prompts and chosen and ranked cids."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.trace.prompt_snapshot.encode())
        h.update(("\n" + " ".join(catalog.meta(c).cid for c in r.ranked) + "\n").encode())
        h.update(catalog.meta(r.chosen).cid.encode())
    return h.hexdigest()
