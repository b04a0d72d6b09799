"""Shared helpers for the test suite, including independent oracles."""

import numpy as np
import pytest


def gaussian_rank(mat, tol: float = 1e-9) -> int:
    """Rank by row reduction with partial pivoting; independent of the SVD path."""
    a = np.array(mat, dtype=np.complex128)
    if a.size == 0:
        return 0
    scale = np.max(np.abs(a))
    if scale == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol * scale:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] = a[r] - a[r, col] * a[rank]
        rank += 1
    return rank


def contains_oracle(s1, s2, pol) -> bool:
    """The residual rule of linalg.contains, without its dimension short-cut:
    every basis column b of s1 has norm((I - P_s2) b) <= tau_sub."""
    if s1.dim == 0:
        return True
    residual = s1.basis - s2.basis @ (s2.basis.conj().T @ s1.basis)
    return bool(np.all(np.linalg.norm(residual, axis=0) <= pol.tau_sub))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
