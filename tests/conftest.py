"""Shared helpers for the test suite, including independent oracles."""

import math

import numpy as np
import pytest

from woldkit.linalg import (
    DEFAULT_POLICY,
    Subspace,
    add,
    contains,
    null_space,
    range_space,
    subspaces_equal,
)
from woldkit.model import budget_horizon, iterate_lower, iterate_map
from woldkit.structure import is_regular, lift_subspace


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


def minimal_scale_factor_oracle(q, g) -> float:
    """Smallest d >= 0 with d G - Q >= 0 for a dense Hermitian G, through
    the eigenvectors of G, with both tolerance scales from full SVDs: the
    dense form of growth.minimal_scale_factor."""
    tau = DEFAULT_POLICY.tau_psd
    q = (q + q.conj().T) / 2.0
    g = (g + g.conj().T) / 2.0
    w, u = np.linalg.eigh(g)
    keep = w > tau * max(1.0, np.linalg.norm(g, 2))
    kernel = u[:, ~keep]
    if kernel.shape[1]:
        q_kernel = kernel.conj().T @ q @ kernel
        q_kernel = (q_kernel + q_kernel.conj().T) / 2.0
        if np.linalg.eigvalsh(q_kernel)[-1] > tau * max(1.0, np.linalg.norm(q, 2)):
            return math.inf
    if not np.any(keep):
        return 0.0
    r = u[:, keep] / np.sqrt(w[keep])
    t = r.conj().T @ q @ r
    return max(0.0, float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[-1]))


def kernel_join_oracle(rep, pol=DEFAULT_POLICY):
    """The join of the kernels of the iterated pseudoinverse V+^(n) for
    n <= min(max(budget_horizon, 1), m + 2), each from a full SVD of the
    tall iterate with the cutoff anchored at ||V+||^n: the loop that
    duality_check ran before it read the range chain of the dual."""
    vd = rep.pseudo_inverse(pol)
    nd = 1.0 / rep.min_modulus(pol)  # ||V+||_2; 0 for the zero map
    joined = Subspace.zero(rep.dim_h)
    for n in range(1, min(max(budget_horizon(rep), 1), rep.dim_h + 2) + 1):
        kernel_n = null_space(iterate_lower(vd, rep.dim_e, n), pol, scale=nd**n)
        joined = add(joined, kernel_n, pol)
    return joined


def kernel_span_oracle(rep, n, pol=DEFAULT_POLICY):
    """kernel_span_check from dense iterates: the kernel of V+^(n) from a
    full SVD of the tall iterate, the join of range_space(V_i (I (x) W))
    for i < n, and ker V_n against the lifted images of ker V, each cutoff
    anchored at the norm of its product; the body of kernel_span_check
    before it read the dual's SVD walk and the forward translates of W."""
    d, m = rep.dim_e, rep.dim_h
    nv = rep.norm()
    nd = 1.0 / rep.min_modulus(pol)  # ||V+||_2; 0 for the zero map
    w, wd = rep.cokernel(pol), rep.kernel(pol)
    lowered = [np.eye(m, dtype=np.complex128)]
    lowered += [iterate_lower(rep.pseudo_inverse(pol), d, k) for k in range(1, n + 1)]

    ker1 = null_space(lowered[n], pol, scale=nd**n)
    join1 = Subspace.zero(m)
    for i in range(n):
        translated = iterate_map(rep, i) @ lift_subspace(i, w, d).basis
        join1 = add(join1, range_space(translated, pol, scale=nv**i), pol)
    first = contains(ker1, join1, pol)

    if not is_regular(rep, pol).strict:
        return first, None
    ker_n = null_space(iterate_map(rep, n), pol, scale=nv**n)
    join2 = Subspace.zero(d**n * m)
    for i, vdi in enumerate(lowered[:n]):
        left = np.kron(np.eye(d ** (n - i)), vdi)
        arg = np.kron(np.eye(d ** (n - i - 1)), wd.basis)
        join2 = add(join2, range_space(left @ arg, pol, scale=nd**i), pol)
    return first, subspaces_equal(ker_n, join2, pol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
