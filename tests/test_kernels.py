import numpy as np
import pytest

from construm import kernels
from helpers import dfs_components, oracle_threshold_pairs


def random_unit_rows(seed, n, d=16):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_links_match_matmul_oracle(monkeypatch):
    # the default budget is one block; 7 * 30 gives five 7-row blocks at
    # n=30 and 7 gives one row per block
    for block_floats in (kernels._BLOCK_FLOATS, 7 * 30, 7):
        monkeypatch.setattr(kernels, "_BLOCK_FLOATS", block_floats)
        for seed in range(8):
            m = random_unit_rows(seed, n=30)
            for tau in (0.1, 0.3, 0.6):
                got = kernels.threshold_links(m, tau)
                assert {(i, j) for i, j, _ in got} == oracle_threshold_pairs(m, tau)
                assert got == sorted(got)
                cos = m @ m.T
                for i, j, c in got:
                    assert c == pytest.approx(cos[i, j], abs=1e-9)


def test_component_labels_match_dfs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        n_edges = int(rng.integers(0, 2 * n))
        pairs = [
            (int(rng.integers(0, n)), int(rng.integers(0, n)))
            for _ in range(n_edges)
        ]
        pairs = [(a, b) for a, b in pairs if a != b]
        labels = kernels.component_labels(n, pairs)
        got = {}
        for i, lab in enumerate(labels):
            got.setdefault(lab, set()).add(i)
        assert set(map(frozenset, got.values())) == set(dfs_components(n, [(a, b) for a, b in pairs]))
        # canonical labels: each label is its component's smallest member
        for lab, members in got.items():
            assert lab == min(members)


def test_impossible_tau_yields_no_links():
    m = random_unit_rows(3, n=12)
    assert kernels.threshold_links(m, 1.0 + 1e-6) == []


def test_tiny_inputs():
    assert kernels.threshold_links(np.zeros((0, 4)), 0.5) == []
    assert kernels.threshold_links(np.ones((1, 4)) / 2.0, 0.5) == []
    assert kernels.component_labels(0, []) == []
    assert kernels.component_labels(3, []) == [0, 1, 2]
