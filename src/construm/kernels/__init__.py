"""Numeric kernels for hypergraph construction.

Exact thresholded-link construction compares every pair of columns, which
is quadratic in the column count and dominates offline graph builds. It
runs as a row-blocked numpy matmul: each block of rows is multiplied
against every row at or after it, and holds only about 8 MB of cosines
whatever the column count.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Cosines held per row block: 1M float64 values, about 8 MB. A 32 MB
# block raised a 2k-column build's peak RSS by about 16 MB; this one does not.
_BLOCK_FLOATS = 1 << 20


def _as_matrix(matrix) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def threshold_links(matrix, tau: float) -> list[tuple[int, int, float]]:
    """All pairs (i, j, cosine) with i < j and cosine >= tau.

    Rows of ``matrix`` must be unit-normalized embeddings; pairs are
    emitted in row-major order.
    """
    m = _as_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        return []
    rows = max(1, _BLOCK_FLOATS // n)
    out: list[tuple[int, int, float]] = []
    for s in range(0, n - 1, rows):
        block = m[s:s + rows] @ m[s:].T
        # block[r, c] pairs row s + r with row s + c; keep c > r only
        r, c = np.nonzero(np.triu(block >= tau, k=1))
        out.extend(zip((r + s).tolist(), (c + s).tolist(), block[r, c].tolist()))
    return out


def component_labels(n: int, pairs) -> list[int]:
    """Canonical component label (smallest member index) per node.

    ``pairs`` is any iterable of (i, j, ...) edge tuples over nodes
    0..n-1, e.g. the output of :func:`threshold_links`.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in pairs:
        ra, rb = find(pair[0]), find(pair[1])
        if ra != rb:
            # keep the smaller index as the root so roots are canonical
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return [find(i) for i in range(n)]
