"""Shared helpers for the test suite, including independent oracles."""

import itertools
import math

import numpy as np
import pytest

from woldkit.errors import BudgetExceeded, IdentityViolated
from woldkit.generate import (
    bilateral_spec,
    block_wold_rep,
    coisometry_rep,
    concave_rep,
    expansive_rep,
    generic_rep,
    left_invertible_rep,
    rand_complex,
    rand_unitary,
    rank_deficient_rep,
    truncated_shift_rep,
    unilateral_spec,
    weighted_truncated_shift,
)
from woldkit.linalg import (
    DEFAULT_POLICY,
    Subspace,
    _subspace,
    add,
    contains,
    intersect,
    null_space,
    project,
    range_space,
    spectral_norm,
    subspaces_equal,
)
from woldkit.model import (
    Representation,
    _times_ampliation,
    budget_horizon,
    iterate_map,
    size_budget,
)
from woldkit.shifts import build_bilateral_shift, build_unilateral_shift
from woldkit.structure import (
    RegularityReport,
    _reverse_order_law,
    _translates,
    algebraic_core,
    is_regular,
    range_chain,
)
from woldkit.wold import generated_subspace


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


def lift_subspace(k: int, s, d: int) -> Subspace:
    """E^(x)k (x) S as a subspace of E^(x)k (x) ambient, with the basis
    kron(I_{d^k}, B) formed densely: the lift that the containment and
    intersection oracles test against."""
    return _subspace(d**k * s.ambient_dim, np.kron(np.eye(d**k, dtype=np.complex128), s.basis))


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


def lowering_oracle(s, d: int, n: int) -> np.ndarray:
    """The lowering iterate S^(n) = (I_{d^(n-1)} (x) S) ... (I_d (x) S) S of
    S: H -> E (x) H, of shape d^n m x m, with every lift formed by np.kron:
    the dense form of model._lower_levels."""
    s = np.asarray(s, dtype=np.complex128)
    out = s
    for k in range(1, n):
        out = np.kron(np.eye(d**k, dtype=np.complex128), s) @ out
    return out


def iterated_pinv_oracle(rep, n: int, pol=DEFAULT_POLICY) -> np.ndarray:
    """V+^(n), the dense lowering iterate of the Moore-Penrose inverse."""
    return lowering_oracle(rep.pseudo_inverse(pol), rep.dim_e, n)


def wandering_oracle(rep, s, horizon: int = 8, pol=DEFAULT_POLICY) -> bool:
    """Whether S is orthogonal to V_n(E^(x)n (x) S) for n = 1..horizon, each
    translate the range of the dense iterate times the kron-lifted basis of
    S, and orthogonality judged by the 2-norm of the cross-Gram at tau_sub."""
    for n in range(1, horizon + 1):
        translate = range_space(iterate_map(rep, n) @ lift_subspace(n, s, rep.dim_e).basis, pol)
        if s.dim and translate.dim and np.linalg.norm(s.basis.conj().T @ translate.basis, 2) > pol.tau_sub:
            return False
    return True


def kernel_join_oracle(rep, pol=DEFAULT_POLICY):
    """The join of the kernels of the iterated pseudoinverse V+^(n) for
    n <= min(max(budget_horizon, 1), m + 2), each from a full SVD of the
    tall iterate with the cutoff anchored at ||V+||^n: the loop that
    duality_check ran before it read the range chain of the dual."""
    vd = rep.pseudo_inverse(pol)
    nd = 1.0 / rep.min_modulus(pol)  # ||V+||_2; 0 for the zero map
    joined = Subspace.zero(rep.dim_h)
    for n in range(1, min(max(budget_horizon(rep), 1), rep.dim_h + 2) + 1):
        kernel_n = null_space(lowering_oracle(vd, rep.dim_e, n), pol, scale=nd**n)
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
    lowered += [iterated_pinv_oracle(rep, k, pol) for k in range(1, n + 1)]

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


def two_tie_chain_oracle(spaces, pol=DEFAULT_POLICY):
    """The stopping rule that confirmed a tie by one more read: consume a
    chain until two consecutive pairs are equal, and return (the members
    read, the 1-based index of the first member of the confirmed tie).  A
    chain from {0} or H is ([first] * 3, 1), read no further."""
    chain = []
    ties = 0  # consecutive equal pairs at the end of the chain
    for space in spaces:
        if not chain and space.dim in (0, space.ambient_dim):
            return [space] * 3, 1
        ties = ties + 1 if chain and subspaces_equal(chain[-1], space, pol) else 0
        chain.append(space)
        if ties == 2:
            return chain, len(chain) - 2
        if len(chain) >= space.ambient_dim + 8:
            break
    raise IdentityViolated("subspace chain failed to stabilize; numerical pathology")


def range_translates(rep, pol=DEFAULT_POLICY):
    """R(V), V(E (x) R(V)), ...: the walk that range_chain stops."""
    first = _subspace(rep.dim_h, rep.svd()[0][:, : rep._svd_rank(pol)])
    return _translates(rep, first, pol)


def regularity_oracle(rep, horizon=None, pol=DEFAULT_POLICY) -> RegularityReport:
    """is_regular on the range chain of the two-tie rule: level m is judged
    on the m-th member read (a confirming member too), and every level past
    them on the limit."""
    chain, stable = two_tie_chain_oracle(range_translates(rep, pol), pol)
    limit, kernel = chain[stable - 1], rep.kernel(pol)
    if horizon is None:
        horizon = max(8, stable + 4)

    def verdict(space):
        return contains(kernel, lift_subspace(1, space, rep.dim_e), pol)

    strict = verdict(limit)
    per_m = {m: verdict(chain[m - 1] if m <= len(chain) else limit) for m in range(1, horizon + 1)}
    anomaly = strict != all(per_m.values()) and horizon >= stable
    return RegularityReport(kernel.dim, strict, per_m, stable, horizon, anomaly)


def lifted_regularity_oracle(rep, horizon, pol=DEFAULT_POLICY):
    """(strict, per_m) of is_regular with every member of range_chain
    lifted by the Kronecker basis of lift_subspace, and the kernel tested
    against it by the residual rule alone."""
    chain, kernel = range_chain(rep, pol), rep.kernel(pol)

    def verdict(space):
        return contains_oracle(kernel, lift_subspace(1, space, rep.dim_e), pol)

    per_m = {m: verdict(chain[min(m, len(chain)) - 1]) for m in range(1, horizon + 1)}
    return verdict(chain[-1]), per_m


def wold_restriction_oracle(rep, pol=DEFAULT_POLICY) -> dict:
    """The four restriction flags of wold_diagnostics with E (x) R_inf
    formed densely: the Kronecker lift of R_inf, R(V*) from the leading
    right singular vectors of V, the domain of the unitary restriction as
    their intersect in E (x) H, and exact 2-norms at the flag tolerance."""
    d, m = rep.dim_e, rep.dim_h
    v = rep.matrix
    rinf = algebraic_core(rep, pol)
    lifted = lift_subspace(1, rinf, d)
    coimage = _subspace(d * m, rep.svd()[2][: rep._svd_rank(pol)].conj().T)
    if rinf.dim == m:
        backward = coimage
    else:
        backward = range_space(v.conj().T @ rinf.basis, pol, scale=rep.norm())

    def small(a):
        return spectral_norm(a) <= 1e-8

    dom = intersect(lifted, coimage, pol)
    b = rinf.basis.conj().T @ v @ dom.basis
    t = v @ lifted.basis
    b_full = rinf.basis.conj().T @ t
    return {
        "reduces": contains(backward, lifted, pol),
        "unitary_restriction": small(b.conj().T @ b - np.eye(dom.dim))
        and small(b @ b.conj().T - np.eye(rinf.dim)),
        "isometric_restriction": small(t - project(rinf) @ t)
        and small(t.conj().T @ t - np.eye(lifted.dim)),
        "fully_coisometric_restriction": small(b_full @ b_full.conj().T - np.eye(rinf.dim)),
    }


def split_residuals_oracle(s1, s2) -> tuple[float, float]:
    """(||P1 + P2 - I||_2, ||P1 P2||_2) from the two m x m projectors, the
    product taken as 0.0 when either space is {0}."""
    p1, p2 = project(s1), project(s2)
    sum_res = float(np.linalg.norm(p1 + p2 - np.eye(s1.ambient_dim), 2))
    prod_res = float(np.linalg.norm(p1 @ p2, 2)) if s1.dim and s2.dim else 0.0
    return sum_res, prod_res


def wold_split_oracle(rep, pol=DEFAULT_POLICY) -> dict:
    """The split diagnostics of wold_diagnostics with m x m projectors and
    V+ - V* formed densely: the residuals of split_residuals_oracle on [W]
    and R_inf, the orthogonal flag from the product, spans_H from the add
    join, and dagger_equals_adjoint from the column norms of
    (V+ - V*) R_inf, all flags judged at 1e-8."""
    bracket = generated_subspace(rep, rep.cokernel(pol), pol)
    rinf = algebraic_core(rep, pol)
    sum_res, prod_res = split_residuals_oracle(bracket, rinf)
    gap = np.linalg.norm((rep.pseudo_inverse(pol) - rep.matrix.conj().T) @ rinf.basis, axis=0)
    return {
        "flags": {
            "orthogonal": prod_res <= 1e-8,
            "spans_H": add(bracket, rinf, pol).dim == rep.dim_h,
            "dagger_equals_adjoint": bool(np.all(gap <= 1e-8)),
        },
        "residuals": {"projector_sum": sum_res, "projector_product": prod_res},
    }


def block_ranges_orthogonal_oracle(rep, pol=DEFAULT_POLICY) -> bool:
    """The column blocks of V have pairwise orthogonal ranges, by a range
    SVD of each block and the 2-norm of each cross-Gram against tau_sub."""
    m = rep.dim_h
    blocks = [range_space(rep.matrix[:, i * m : (i + 1) * m], pol) for i in range(rep.dim_e)]
    return all(
        spectral_norm(a.basis.conj().T @ b.basis) <= pol.tau_sub
        for a, b in itertools.combinations(blocks, 2)
    )


def mixed_corpus(count: int, seed: int = 5) -> list[Representation]:
    """Seeded maps cycling through six kinds: generic and rank-deficient
    maps (d <= 3, m <= 5), block-Wold sums, coisometries, bilateral shifts
    (n <= 3, M <= 5) and unilateral shifts (d <= 2, L <= 3)."""
    rng = np.random.default_rng(seed)
    reps = []
    for i in range(count):
        d, m = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        kind = i % 6
        if kind == 0:
            rep = generic_rep(rng, d, m)
        elif kind == 1:
            rep = rank_deficient_rep(rng, d, m, int(rng.integers(0, m)))
        elif kind == 2:
            rep = block_wold_rep(rng, int(rng.integers(1, 3)), int(rng.integers(0, 3)))[0]
        elif kind == 3:
            rep = coisometry_rep(rng, d, m)
        elif kind == 4:
            spec = bilateral_spec(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            rep = build_bilateral_shift(spec)[0]
        else:
            spec = unilateral_spec(rng, d=int(rng.integers(1, 3)), L=int(rng.integers(1, 4)))
            rep = build_unilateral_shift(spec)[0]
        reps.append(rep)
    return reps


def svd_levels_oracle(rep):
    """The walk of model._svd_levels with one thin SVD per core at every
    level: (u, s) of level n from the SVD of the core V (I_E (x) u diag(s))
    of level n - 1, formed by the same _times_ampliation, with no fixed
    point; the budget is checked before each level."""
    d, m = rep.dim_e, rep.dim_h
    u, s, _ = rep.svd()
    s = s[:m]
    for n in itertools.count(1):
        if d**n * m > size_budget():
            raise BudgetExceeded(f"columns of V_{n}: {d**n * m} exceeds the size budget {size_budget()}")
        if n > 1:
            u, s, _ = np.linalg.svd(_times_ampliation(rep.matrix, u * s), full_matrices=False)
        yield u, s


def fixed_point_corpus(seed: int = 29) -> list[Representation]:
    """Seeded maps whose SVD walks reach a fixed point, late, early or
    never: bilateral shifts for n in {1, 2, 3} and M in 2..12, unilateral
    shifts (d <= 2, L <= 3), the zero map, and the maps of mixed_corpus and
    ill_conditioned_corpus."""
    rng = np.random.default_rng(seed)
    reps = [build_bilateral_shift(bilateral_spec(rng, n, big_m))[0] for n in (1, 2, 3) for big_m in range(2, 13)]
    reps += [build_unilateral_shift(unilateral_spec(rng, d=d, L=big_l))[0] for d in (1, 2) for big_l in (1, 2, 3)]
    reps.append(Representation(2, 3, np.zeros((3, 6))))
    return reps + mixed_corpus(24) + ill_conditioned_corpus(40)


def hyper_dagger_walk_oracle(rep, horizon, pol=DEFAULT_POLICY) -> bool:
    """is_hyper_dagger by the plain walk of svd_levels_oracle alone: every
    level from 2 to the clamped horizon decided from the one before by the
    reverse-order law, with no certificate for invertible d = 1 maps and no
    reuse of a level already read.  Unlike the dense gap of
    n_dagger_oracle, it does not grow with cond(V)^n on invertible maps."""
    top = min(horizon, budget_horizon(rep))
    levels = itertools.pairwise(itertools.islice(svd_levels_oracle(rep), top))
    return all(
        _reverse_order_law(rep, n, previous, s_n, pol)
        for n, (previous, (_, s_n)) in enumerate(levels, start=2)
    )


def invertible_corpus(seed: int = 19) -> list[Representation]:
    """Seeded invertible maps at dim E = 1, of cond(V) from 1 to about 1e4:
    left-invertible, concave (unitary) and expansive maps, products of two
    Gaussian squares scaled by 1e-3, 1 and 1e3, and geometric spectra of
    cond(V) from 10^0.25 to 10^4 in quarter decades, so that for some
    horizons and tau_rank the level cutoff falls near gamma(V)^n."""
    rng = np.random.default_rng([1, seed])
    reps = []
    for m in (2, 3, 5, 8):
        reps += [left_invertible_rep(rng, m), concave_rep(rng, m), expansive_rep(rng, m)]
        for scale in (1e-3, 1.0, 1e3):
            reps.append(Representation(1, m, scale * rand_complex(rng, m, m) @ rand_complex(rng, m, m)))
        for cond in 10.0 ** np.arange(0.25, 4.01, 0.25):
            s = np.geomspace(1.0, 1.0 / cond, m)
            reps.append(Representation(1, m, (rand_unitary(rng, m) * s) @ rand_unitary(rng, m)))
    return reps


def graded_rep(rng, d: int, sizes, core: int = 0) -> Representation:
    """A map that sends E (x) H_k into H_{k+1} for the blocks H_0, H_1, ...
    of the given sizes, by Gaussian blocks, and E (x) U onto U for a
    block U of dimension core, seen in a random unitary basis of H: its
    range chain falls by one block per level to a limit of dimension core."""
    m = sum(sizes) + core
    starts = np.cumsum([0, *sizes])
    v = np.zeros((m, d * m), dtype=np.complex128)
    for i in range(d):
        for k in range(len(sizes) - 1):
            rows, cols = slice(starts[k + 1], starts[k + 2]), slice(starts[k], starts[k + 1])
            v[rows, i * m + cols.start : i * m + cols.stop] = rand_complex(rng, sizes[k + 1], sizes[k])
        v[m - core :, i * m + m - core : (i + 1) * m] = rand_complex(rng, core, core)
    q = rand_unitary(rng, m)
    return Representation(d, m, q @ v @ np.kron(np.eye(d), q.conj().T))


def chain_corpus(d: int, seed: int = 17) -> list[Representation]:
    """Seeded maps at dim E = d whose subspace chains differ in length and
    limit: dense, rank-deficient (the zero map among them) and graded
    maps, the same with some columns scaled by 1e-6 (two-scale maps), and
    unilateral shifts; at d = 1 also truncated and weighted shifts,
    block-Wold sums and an invertible map."""
    rng = np.random.default_rng([d, seed])
    reps = []
    for m in (2, 3, 4) if d < 3 else (2, 3):
        reps += [generic_rep(rng, d, m), *(rank_deficient_rep(rng, d, m, r) for r in range(m))]
    for sizes, core in (((1, 1), 0), ((2, 1, 1), 1), ((1, 2, 1), 2), ((2, 2, 1, 1), 0)):
        reps.append(graded_rep(rng, d, sizes, core))
    for rep in list(reps):
        v = rep.matrix.copy()
        v[:, rng.permutation(v.shape[1])[: max(1, v.shape[1] // 3)]] *= 1e-6
        reps.append(Representation(d, rep.dim_h, v))
    if d == 1:
        reps += [truncated_shift_rep(n) for n in (1, 3, 5)]
        reps.append(weighted_truncated_shift(rng.uniform(1.0, 1.6, size=4)))
        reps += [block_wold_rep(rng, n_shift=1 + i % 2, n_unitary=i // 2)[0] for i in range(4)]
        reps.append(left_invertible_rep(rng, 4))
    else:
        reps.append(build_unilateral_shift(unilateral_spec(rng, d=d, L=2))[0])
    return reps


def ill_conditioned_corpus(count: int = 100, seed: int = 23) -> list[Representation]:
    """Seeded maps at d in {1, 2, 3} and m in 2..8 whose singular values
    fall geometrically from a scale in 1e-3..1e3 down to a relative
    1e-12..1, where chains of translates with separately computed bases
    drifted apart at round-off: they did not tie, or grew.  Even items are
    U diag(s) W* of rank k <= m (U and W the first k columns of random
    unitaries).  Odd items send E (x) B_j into B_{j+1} for two to four
    blocks B_j of H, and the last block into itself or to 0, by Gaussian
    blocks whose rows are scaled by the spectrum, seen in a random unitary
    basis of H: their range chains fall block by block."""
    rng = np.random.default_rng(seed)

    def spectrum(k):
        return np.geomspace(1.0, 10.0 ** rng.uniform(-12, 0), k) * 10.0 ** rng.uniform(-3, 3)

    reps = []
    for i in range(count):
        d, m = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        if i % 2 == 0:
            k = int(rng.integers(1, m + 1))
            v = (rand_unitary(rng, m)[:, :k] * spectrum(k)) @ rand_unitary(rng, d * m)[:k]
        else:
            cuts = rng.choice(np.arange(1, m), size=min(m - 1, int(rng.integers(1, 4))), replace=False)
            starts = [0, *sorted(cuts), m]
            blocks = list(zip(starts, starts[1:]))
            maps = list(zip(blocks, blocks[1:])) + [(blocks[-1], blocks[-1])] * int(rng.integers(2))
            g = np.zeros((m, d, m), dtype=np.complex128)
            for (c0, c1), (r0, r1) in maps:
                g[r0:r1, :, c0:c1] = rand_complex(rng, r1 - r0, d * (c1 - c0)).reshape(r1 - r0, d, c1 - c0)
            q = rand_unitary(rng, m)
            v = q @ (spectrum(m)[:, None] * g.reshape(m, d * m)) @ np.kron(np.eye(d), q.conj().T)
        reps.append(Representation(d, m, v))
    return reps


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
