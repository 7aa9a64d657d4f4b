#!/usr/bin/env python3
"""Time the link kernels at growing column counts, table-merge planning,
the shortlist, and embedding batches.

Times exact all-pairs thresholded link construction plus component
labeling over random unit embeddings, the workload that dominates offline
hypergraph builds. Then times ``tree.plan_merges``, the average-linkage
plan behind a context tree's table clustering, on random unit root
embeddings with a cutoff every pair is within, so each run makes n - 1
merges. Last, on tied roots (each table takes one of a few random
directions, as tables with equal summaries do), it times
``tree.plan_merges`` and ``tree.collapse_tied_merges``, which turns tied
merges into n-ary clusters from the plan's heights, and prints the clusters kept and the
collapse's share of the planning time. Last, at 5k and 20k target
columns with planted near-duplicates, it times one query's shortlist
(``Hypergraph.ranked`` with a top-k, as ``pipeline.shortlist`` calls it,
beside the full ranking cut at k) and its ``expand_candidates``, per
query over a few queries. Then it times ``ModelGateway.embed_batch`` over
2k and 20k synthetic column texts on a cold ``HashEmbeddingBackend`` (a
new one, as each graph build starts with) and on a warm one (every token
seen), prints texts/s and µs per text of both, the share of the cold time
spent creating token directions and that creation's µs per new token, and
checks a sample of rows byte for byte against a per-token running sum whose
directions are made one token at a time in Python integers: the sign bits
of a splitmix64 stream over the token's blake2b digest. No part makes an
LLM call. The first line states the thread count numpy's OpenBLAS runs the
products on: one, as importing construm sets it, unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set.

Usage: python benchmarks/bench_kernels.py [--dim 64] [--tau 0.5] [--repeat 3]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from construm import kernels  # noqa: E402
from construm.catalog import ColumnRef, Side  # noqa: E402
from construm.gateway import HashEmbeddingBackend, ModelGateway, openblas_function  # noqa: E402
from construm.graph import DEFAULT_TAU, Hypergraph, expand_candidates, extract_groups  # noqa: E402
from construm.tree import collapse_tied_merges, plan_merges  # noqa: E402


FULL_MERGE = 1.999  # a cosine-distance cutoff every pair of tables is within
TABLES = (200, 1000, 2000)  # table counts the merge planning is timed at
DIRECTIONS = 4  # distinct root directions among tied tables
TARGETS = (5000, 20000)  # target column counts the shortlist is timed at
SHORTLIST_K = 20  # PipelineConfig.k's default
QUERIES = 20  # queries each shortlist timing averages over
NEAR_DUPLICATES = 30  # target columns per planted direction
JITTER = 0.028  # per-dimension noise around a direction, over unit-scale rows
EMBED_TEXTS = (2000, 20000)  # column texts the embedding batch is timed at
DESCRIPTION_WORDS = 14  # words per synthetic column description
WORDS = 3000  # distinct description words
SAMPLE = 50  # rows checked against the per-token running sum
MASK64 = (1 << 64) - 1


def best_of(repeat, fn, *args):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times), out


def column_texts(n, rng):
    """``n`` texts shaped like ``graph.embedding_text``: a unique column name,
    a description drawn from a shared vocabulary, and the table name."""
    consonants, vowels = "bcdfghjklmnprstvz", "aeiou"
    words = ["".join(consonants[c] + vowels[v] for c, v in zip(cs, vs)) for cs, vs in
             zip(rng.integers(len(consonants), size=(WORDS, 3)),
                 rng.integers(len(vowels), size=(WORDS, 3)))]
    picks = rng.integers(WORDS, size=(n, DESCRIPTION_WORDS))
    return [f"name: t{i // 20:04d}_{i % 20:03d}. description: "
            f"{' '.join(words[j] for j in row)}. table: t{i // 20:04d}." for i, row in
            enumerate(picks)]


def token_direction(token, dim=64, seed=0):
    """A token's direction as the hash embedder defines it: coordinate ``i``
    is ``1 - 2 * bit``, bit ``i % 64`` (lowest first) of splitmix64 word
    ``i // 64`` over the token's 8-byte blake2b digest."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                             salt=str(seed).encode()).digest()
    state, entries = int.from_bytes(digest, "little"), []
    for k in range(-(-dim // 64)):
        z = (state + (k + 1) * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        entries.extend(1.0 - 2.0 * (z >> bit & 1) for bit in range(64))
    return np.array(entries[:dim])


def per_token_reference(texts, dim=64, seed=0):
    """Each text's running sum of its token directions, divided by its norm,
    each direction made on its own by ``token_direction``."""
    rows = []
    for text in texts:
        acc = np.zeros(dim)
        for token in text.split() or [""]:
            acc += token_direction(token, dim, seed)
        rows.append(acc / float(np.linalg.norm(acc)))
    return rows


def run_once(matrix, tau):
    t0 = time.perf_counter()
    links = kernels.threshold_links(matrix, tau)
    labels = kernels.component_labels(matrix.shape[0], links)
    elapsed = time.perf_counter() - t0
    return elapsed, len(links), len(set(labels))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[200, 400, 800, 1600, 5000, 10000])
    args = parser.parse_args()

    blas_threads = openblas_function("get_num_threads")
    print(f"BLAS threads: {blas_threads() if blas_threads else 'unknown (not a bundled OpenBLAS)'}")
    print(f"\nlinks, dim={args.dim} tau={args.tau} best-of-{args.repeat}")
    header = f"{'n':>6} | {'time':>10} | {'links':>10} | components"
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in args.sizes:
        m = rng.standard_normal((n, args.dim))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        times = []
        for _ in range(args.repeat):
            elapsed, n_links, n_comps = run_once(m, args.tau)
            times.append(elapsed)
        print(f"{n:>6} | {min(times) * 1e3:8.1f}ms | {n_links:>10} | {n_comps}")

    print(f"\nmerge planning, cluster cutoff {FULL_MERGE}, best-of-{args.repeat}")
    header = f"{'tables':>6} | {'time':>10} | {'merges':>10} | roots"
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in TABLES:
        m = rng.standard_normal((n, args.dim))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        dist = 1.0 - m @ m.T
        elapsed, (merges, _, survivors) = best_of(args.repeat, plan_merges, dist, FULL_MERGE)
        print(f"{n:>6} | {elapsed * 1e3:8.1f}ms | {len(merges):>10} | {len(survivors)}")

    print(f"\ntied roots ({DIRECTIONS} directions), cluster cutoff {FULL_MERGE}, "
          f"best-of-{args.repeat}")
    header = f"{'tables':>6} | {'plan':>10} | {'collapse':>10} | {'share':>6} | kept clusters"
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in TABLES:
        base = rng.standard_normal((DIRECTIONS, args.dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        m = base[rng.integers(DIRECTIONS, size=n)]
        dist = 1.0 - m @ m.T
        plan_s, (merges, heights, _) = best_of(args.repeat, plan_merges, dist, FULL_MERGE)
        collapse_s, kept = best_of(args.repeat, collapse_tied_merges, n, merges, heights)
        print(f"{n:>6} | {plan_s * 1e3:8.1f}ms | {collapse_s * 1e3:8.1f}ms | "
              f"{collapse_s / plan_s:6.1%} | {len(kept)}")

    print(f"\nshortlist (top-{SHORTLIST_K}) and expansion at tau {DEFAULT_TAU}, "
          f"per query over {QUERIES} queries, best-of-{args.repeat}")
    header = (f"{'targets':>7} | {'top-k':>8} | {'full sort':>9} | {'expand':>8} | "
              f"{'total':>8} | added")
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in TARGETS:
        # columns come in groups of NEAR_DUPLICATES around one direction (pairwise
        # cosine ~0.95), more than a shortlist holds, so expansion adds some
        base = rng.standard_normal((-(-n // NEAR_DUPLICATES), args.dim)) / np.sqrt(args.dim)
        m = np.repeat(base, NEAR_DUPLICATES, axis=0)[:n]
        m += JITTER * rng.standard_normal((n, args.dim))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        columns = [ColumnRef(Side.TARGET, f"t{i // 100:04d}", i % 100) for i in range(n)]
        hg = Hypergraph(Side.TARGET, DEFAULT_TAU, columns, m, (), extract_groups((), columns))
        queries = base[rng.integers(len(base), size=QUERIES)]

        def top_k():
            return [hg.ranked(hg.matrix @ q, k=SHORTLIST_K) for q in queries]

        def full_sort():
            return [hg.ranked(hg.matrix @ q)[:SHORTLIST_K] for q in queries]

        top_s, shortlists = best_of(args.repeat, top_k)
        full_s, cut = best_of(args.repeat, full_sort)
        assert shortlists == cut
        expand_s, expanded = best_of(args.repeat, lambda: [expand_candidates(c, hg)
                                                           for c in shortlists])
        added = sum(len(e) - len(c) for e, c in zip(expanded, shortlists)) / QUERIES
        ms = 1e3 / QUERIES
        print(f"{n:>7} | {top_s * ms:6.2f}ms | {full_s * ms:7.2f}ms | {expand_s * ms:6.2f}ms | "
              f"{(top_s + expand_s) * ms:6.2f}ms | {added:.1f}")

    print(f"\nembedding batches, hash embedder, best-of-{args.repeat}")
    header = (f"{'texts':>6} | {'tokens':>8} | {'cold':>9} | {'texts/s':>8} | {'warm':>9} | "
              f"{'texts/s':>8} | {'warm µs/text':>12} | creation share | µs/new token")
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(0)
    for n in EMBED_TEXTS:
        texts = column_texts(n, rng)
        tokens = list(dict.fromkeys(t for text in texts for t in text.split()))
        cold, warm, create = [], [], []
        for _ in range(args.repeat):
            gateway = ModelGateway(embed_backend=HashEmbeddingBackend())
            t0 = time.perf_counter()
            gateway.embed_batch(texts)
            t1 = time.perf_counter()
            rows = gateway.embed_batch(texts)
            fresh = HashEmbeddingBackend()
            directions = np.empty((len(tokens), fresh.dim))
            t2 = time.perf_counter()
            fresh._token_vectors(tokens, directions)  # a cold batch's creation, alone
            create.append(time.perf_counter() - t2)
            cold.append(t1 - t0)
            warm.append(t2 - t1)
        sample = rng.choice(n, size=SAMPLE, replace=False)
        want = per_token_reference([texts[i] for i in sample])
        assert all(rows[i].tobytes() == w.tobytes() for i, w in zip(sample, want))
        print(f"{n:>6} | {len(tokens):>8} | {min(cold) * 1e3:7.1f}ms | {n / min(cold):8.0f} | "
              f"{min(warm) * 1e3:7.1f}ms | {n / min(warm):8.0f} | {min(warm) / n * 1e6:12.2f} | "
              f"{min(create) / min(cold):14.1%} | {min(create) / len(tokens) * 1e6:12.2f}")


if __name__ == "__main__":
    main()
