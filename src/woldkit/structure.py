"""Generalized range, algebraic core, regularity, and generalized inverses.

The decreasing range chain R(V_1) >= R(V_2) >= ... stabilizes in finite
dimensions; its limit is the generalized range.  Regularity asks that the
kernel of the map sits inside E (x) (that limit).  Because the strict
condition is destroyed by hard truncation of an otherwise regular
operator (the truncation boundary injects kernel vectors the untruncated
operator does not have), every consumer that needs regularity can also
evaluate it "at a horizon": kernel contained in E (x) R(V_m) for all m up
to the horizon.  Reports carry both verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, IdentityViolated, NotRegular
from .linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    _dims_exclude,
    _norm2_at_most,
    _pinv_and_norm,
    _subspace,
    complement,
    contains,
    intersect,
    null_space,
    pinv,  # noqa: F401  kept as structure.pinv, which perfbench/tests rebinds and checks
    range_space,
    spectral_norm,
    subspaces_equal,
)
from .model import (
    Representation,
    _lift,
    budget_horizon,
    derived,
    iterate_lower,
    iterate_map,
    size_budget,
)

__all__ = [
    "range_chain",
    "generalized_range",
    "stabilization_index",
    "algebraic_core",
    "default_horizon",
    "RegularityReport",
    "is_regular",
    "require_regular",
    "lift_subspace",
    "GenInverse",
    "make_generalized_inverse",
    "iterate_inverse",
    "BiRegularityReport",
    "is_biregular",
    "iterated_pinv",
    "is_n_dagger",
    "is_hyper_dagger",
    "fixed_point_range_check",
    "inverse_invariance_check",
    "hat_map_check",
    "kernel_intersection_identity",
]


def lift_subspace(k: int, s: Subspace, d: int) -> Subspace:
    """E^(x)k (x) S as a subspace of E^(x)k (x) ambient."""
    if k == 0 or d == 1:
        return s
    return _subspace(d**k * s.ambient_dim, _lift(k, s.basis, d))


def _forward_translate(rep: Representation, s: Subspace, pol: TolerancePolicy) -> Subspace:
    """V(E (x) S) as a subspace of H."""
    return range_space(rep.matrix @ lift_subspace(1, s, rep.dim_e).basis, pol, scale=rep.norm())


def _stabilized_chain(
    spaces_iter, pol: TolerancePolicy, max_steps: int
) -> tuple[list[Subspace], int]:
    """Consume a chain until two consecutive mutual containments confirm.

    Returns (all computed subspaces, 1-based index of the stabilized one).
    """
    chain: list[Subspace] = []
    stable_from: int | None = None
    for step, space in enumerate(spaces_iter, start=1):
        chain.append(space)
        if len(chain) >= 2 and subspaces_equal(chain[-2], chain[-1], pol):
            if stable_from is None:
                stable_from = len(chain) - 1
            elif len(chain) - stable_from >= 2:
                # tie at stable_from confirmed by one extra step
                return chain, stable_from
        else:
            stable_from = None
        if step >= max_steps:
            break
    raise IdentityViolated("subspace chain failed to stabilize; numerical pathology")


@derived
def range_chain(
    rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[tuple[Subspace, ...], int]:
    """Ranges R(V_n) for n = 1, 2, ... until stabilization, via subspace iteration.

    Uses R(V_{n+1}) = V(E (x) R(V_n)), which never grows past d*m columns,
    so no size budget applies.  R(V_n) is constant from the returned index on.
    R(V) is read off the SVD of V; when it is all of H, every V(E (x) R(V_n))
    is H again, and the chain is (R(V), R(V), R(V)) stable from 1, as the
    iteration would confirm it.  Memoized on the representation per policy.
    """
    first = _subspace(rep.dim_h, rep.svd()[0][:, : rep._svd_rank(pol)])
    if first.dim == rep.dim_h:
        return (first, first, first), 1

    def spaces():
        current = first
        while True:
            yield current
            current = _forward_translate(rep, current, pol)

    # A strictly decreasing chain in C^m ties within dim_h steps.
    chain, stable = _stabilized_chain(spaces(), pol, max_steps=rep.dim_h + 8)
    return tuple(chain), stable


def stabilization_index(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    return range_chain(rep, pol)[1]


def generalized_range(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Intersection of all iterated ranges, computed from explicit iterates.

    Forms V_n matrices for n = 1, 2, ... and stops once two consecutive
    ranges are mutually contained (plus one confirming step); raises
    BudgetExceeded if the chain does not stabilize within the size budget.
    """
    budget = size_budget()
    nv = rep.norm()

    def spaces():
        n = 1
        while rep.dim_e**n * rep.dim_h <= budget:
            yield range_space(iterate_map(rep, n), pol, scale=nv**n)
            n += 1
        raise BudgetExceeded(
            f"range chain not stabilized before budget {budget} (reached n={n})"
        )

    chain, stable = _stabilized_chain(spaces(), pol, max_steps=rep.dim_h + 8)
    return chain[stable - 1]


def algebraic_core(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Greatest subspace K with V(E (x) K) = K, by greatest-fixed-point iteration.

    The iteration K_0 = H, K_{j+1} = V(E (x) K_j) is the range chain from
    K_1 = R(V) on; range_chain stops only after V(E (x) K) tested equal to K.
    The core equals generalized_range; the range-structure suite checks it.
    """
    chain, stable = range_chain(rep, pol)
    return chain[stable - 1]


def default_horizon(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """max(8, stabilization index + 4), the 'for all n' check horizon."""
    return max(8, stabilization_index(rep, pol) + 4)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the kernel-inclusion analysis.

    strict:     kernel(V) inside E (x) R_infinity (the stabilized limit).
    per_m:      kernel(V) inside E (x) R(V_m), for each m up to the horizon.
    anomaly:    strict and per-m verdicts disagree although the horizon
                reaches stabilization -- a tolerance problem, not math.
    """

    kernel_dim: int
    strict: bool
    per_m: dict[int, bool]
    stabilization: int
    horizon: int
    anomaly: bool

    @property
    def holds_at_horizon(self) -> bool:
        return all(self.per_m.values())


def _in_lifted_ranges(rep: Representation, s: Subspace, horizon: int, pol: TolerancePolicy):
    """Yield, for m = 1..horizon, whether S lies in E (x) R(V_m).

    R(V_m) is the limit of range_chain for every m past the end of the
    chain, so those levels share one verdict.
    """
    chain, stable = range_chain(rep, pol)
    for rm in chain[:horizon]:
        yield contains(s, lift_subspace(1, rm, rep.dim_e), pol)
    if horizon > len(chain):
        limit = contains(s, lift_subspace(1, chain[stable - 1], rep.dim_e), pol)
        yield from itertools.repeat(limit, horizon - len(chain))


def is_regular(
    rep: Representation,
    pol: TolerancePolicy = DEFAULT_POLICY,
    horizon: int | None = None,
) -> RegularityReport:
    """Kernel-inclusion regularity check with per-horizon witnesses."""
    chain, stable = range_chain(rep, pol)
    if horizon is None:
        horizon = max(8, stable + 4)
    kernel = rep.kernel(pol)
    strict = contains(kernel, lift_subspace(1, chain[stable - 1], rep.dim_e), pol)
    per_m = dict(zip(range(1, horizon + 1), _in_lifted_ranges(rep, kernel, horizon, pol)))
    all_m = all(per_m.values())
    anomaly = (strict != all_m) and horizon >= stable
    return RegularityReport(
        kernel_dim=kernel.dim,
        strict=strict,
        per_m=per_m,
        stabilization=stable,
        horizon=horizon,
        anomaly=anomaly,
    )


def require_regular(
    rep: Representation,
    pol: TolerancePolicy = DEFAULT_POLICY,
    horizon: int | None = None,
) -> RegularityReport:
    """Raise NotRegular unless the kernel inclusion holds up to the horizon."""
    report = is_regular(rep, pol, horizon)
    if not report.holds_at_horizon:
        raise NotRegular(
            f"kernel not contained in E (x) R(V_m) for all m <= {report.horizon}"
        )
    return report


# ---------------------------------------------------------------------------
# Generalized inverses S with V S V = V and S V S = S.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenInverse:
    """A generalized inverse S of a representation map: V S V = V, S V S = S."""

    rep: Representation
    matrix: np.ndarray


def make_generalized_inverse(
    rep: Representation,
    y,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> GenInverse:
    """Build S = V+ + (I - V+V) Y V V+, a generalized inverse for every Y.

    Both identities hold by construction (V S V = V up to what the rank
    cutoff of V+ drops); the generalized-inverse suite and the tests check
    them.  Y = 0 gives V+ itself; a Y of the wrong shape raises
    IdentityViolated.
    """
    v = rep.matrix
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (rep.ambient_domain, rep.dim_h):
        raise IdentityViolated(
            f"parameter Y must be {(rep.ambient_domain, rep.dim_h)}, got {y.shape}"
        )
    vd = rep.pseudo_inverse(pol)
    s = vd + (np.eye(rep.ambient_domain, dtype=np.complex128) - vd @ v) @ y @ (v @ vd)
    return GenInverse(rep=rep, matrix=s)


def iterate_inverse(gi: GenInverse, n: int) -> np.ndarray:
    """S^(n): the n-fold lowering iterate of shape (d^n * m) x m."""
    return iterate_lower(gi.matrix, gi.rep.dim_e, n)


@dataclass(frozen=True)
class BiRegularityReport:
    horizon: int
    per_m: dict[int, bool]

    @property
    def holds(self) -> bool:
        return all(self.per_m.values())


def is_biregular(
    rep: Representation,
    gi: GenInverse,
    horizon: int = 3,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> BiRegularityReport:
    """Check N(I_{E^(x)m} (x) S) inside R(S^(m)) for m up to the horizon.

    Defined for regular representations (NotRegular otherwise, judged at
    the same horizon).  The verdict is recorded per generalized inverse;
    it is not aggregated across different S.
    """
    require_regular(rep, pol, horizon)
    levels = _biregular_levels(rep, gi, horizon, pol)
    return BiRegularityReport(horizon=horizon, per_m=dict(zip(range(1, horizon + 1), levels)))


def _biregular_levels(rep: Representation, gi: GenInverse, top: int, pol: TolerancePolicy):
    """Yield, for m = 1..top, whether N(I_{E^(x)m} (x) S) lies in R(S^(m)).

    No regularity gate; levels are computed only as they are consumed.
    The lifted kernel has dimension d^m * dim N(S) and R(S^(m)) at most
    dim H, so a trivial kernel or the dimension rule of contains decides a
    level without building S^(m).
    """
    ker_s = null_space(gi.matrix, pol)
    ns = spectral_norm(gi.matrix) if ker_s.dim else 0.0
    for m in range(1, top + 1):
        lifted_dim = rep.dim_e**m * ker_s.dim
        if lifted_dim == 0 or _dims_exclude(lifted_dim, rep.dim_h, pol):
            yield lifted_dim == 0  # decided by the dimensions alone
        else:
            ker_lifted = lift_subspace(m, ker_s, rep.dim_e)
            yield contains(ker_lifted, range_space(iterate_inverse(gi, m), pol, scale=ns**m), pol)


def iterated_pinv(rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """The n-fold lowering iterate built from the Moore-Penrose inverse."""
    return iterate_lower(rep.pseudo_inverse(pol), rep.dim_e, n)


def is_n_dagger(rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the iterated pseudoinverse equals the pseudoinverse of the
    iterate: ||V+^(n) - (V_n)+||_2 <= 1e-8 max(1, ||(V_n)+||_2)."""
    if n == 1:
        return True
    lowered = iterated_pinv(rep, n, pol)
    direct, direct_norm = _pinv_and_norm(iterate_map(rep, n), pol, scale=rep.norm() ** n)
    return _norm2_at_most(lowered - direct, 1e-8 * max(1.0, direct_norm))


def is_hyper_dagger(
    rep: Representation, horizon: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """n-dagger for every n up to the horizon (clamped to the size budget)."""
    top = min(horizon, budget_horizon(rep))
    return all(is_n_dagger(rep, n, pol) for n in range(2, top + 1))


def fixed_point_range_check(
    rep: Representation,
    gi: GenInverse,
    horizon: int = 4,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> bool:
    """Verify the fixed-point description of the generalized range.

    Both directions: every basis vector h of R_infinity satisfies
    V_n S^(n) h = h for n up to the gate horizon (to tau_sub times the
    round-off scale max(1, |V_n| |S^(n)|)), and the intersection of the
    fixed-point kernels (deep enough for the range chain to stabilize)
    equals R_infinity as a subspace.
    """
    require_regular(rep, pol, horizon)
    chain, stable = range_chain(rep, pol)
    rinf = chain[stable - 1]
    m_dim = rep.dim_h
    eye = np.eye(m_dim, dtype=np.complex128)
    stacked = []
    noise_scale = 1.0
    depth = min(budget_horizon(rep), max(horizon, stable + 1, 1))
    for n in range(1, depth + 1):
        vn = iterate_map(rep, n)
        sn = iterate_inverse(gi, n)
        vn_sn = vn @ sn
        scale = max(1.0, spectral_norm(vn) * spectral_norm(sn))
        noise_scale = max(noise_scale, scale)
        if n <= horizon and rinf.dim:
            gap = vn_sn @ rinf.basis - rinf.basis
            if float(np.max(np.linalg.norm(gap, axis=0))) > pol.tau_sub * scale:
                return False
        stacked.append(eye - vn_sn)
    fixed = null_space(np.vstack(stacked), pol, scale=noise_scale)
    return subspaces_equal(fixed, rinf, pol)


def inverse_invariance_check(
    rep: Representation, gi: GenInverse, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """S maps the generalized range into E (x) (generalized range)."""
    chain, stable = range_chain(rep, pol)
    rinf = chain[stable - 1]
    if rinf.dim == 0:
        return True
    image = range_space(gi.matrix @ rinf.basis, pol)
    return contains(image, lift_subspace(1, rinf, rep.dim_e), pol)


def hat_map_check(
    rep: Representation, n_max: int = 3, pol: TolerancePolicy = DEFAULT_POLICY
) -> dict[int, bool]:
    """Invertibility of the compressions P_{R(V_n) meet R(V_{n+1})-perp} V_n
    restricted to E^(x)n (x) R(V)-perp, for n up to n_max.

    These maps are invertible exactly for regular representations; the
    per-n dict records where invertibility (including the dimension
    match) holds.
    """
    d = rep.dim_e
    nv = rep.norm()
    w = rep.cokernel(pol)  # R(V)^perp
    results: dict[int, bool] = {}
    for n in range(1, n_max + 1):
        vn = iterate_map(rep, n)
        rn = range_space(vn, pol, scale=nv**n)
        rn1 = range_space(iterate_map(rep, n + 1), pol, scale=nv ** (n + 1))
        target = intersect(rn, complement(rn1, pol), pol)
        domain = lift_subspace(n, w, d)
        if target.dim != domain.dim:
            results[n] = False
            continue
        if target.dim == 0:
            results[n] = True
            continue
        compressed = target.basis.conj().T @ vn @ domain.basis
        smin = float(np.linalg.svd(compressed, compute_uv=False)[-1])
        results[n] = smin > pol.tau_sub
    return results


def kernel_intersection_identity(
    rep: Representation, m: int, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Subspace identity relating lifted kernels and ranges:

    (I_{E^(x)n} (x) V_m) N(V_{m+n}) = N(V_n) meet (I_{E^(x)n} (x) V_m)(E^(x)(m+n) (x) H)

    Holds for every representation; failures indicate tolerance bugs.
    """
    d = rep.dim_e
    nv = rep.norm()
    vm = iterate_map(rep, m)
    lifted_vm = _lift(n, vm, d)
    ker_mn = null_space(iterate_map(rep, m + n), pol, scale=nv ** (m + n))
    lhs = range_space(lifted_vm @ ker_mn.basis, pol, scale=nv**m) if ker_mn.dim else Subspace.zero(
        d**n * rep.dim_h
    )
    ker_n = null_space(iterate_map(rep, n), pol, scale=nv**n)
    rhs = intersect(ker_n, range_space(lifted_vm, pol, scale=nv**m), pol)
    return subspaces_equal(lhs, rhs, pol)
