"""Generalized range, algebraic core, regularity, and generalized inverses.

The decreasing range chain R(V_1) >= R(V_2) >= ... stabilizes in finite
dimensions; its limit R_infinity is the generalized range, and
range_chain returns R(V_1), ..., R_infinity: its length is the
stabilization index; it steps each member inside the one before
(_nested_ranges).  The chain is the one rank decision for every range of
a level: algebraic_core is its limit, and readers of R(V_n) for a dual or
an adjoint read the chain of that representation.  Every other chain of
forward translates is the one walk _translates, and every subspace chain
stops by the one rule of _stabilized_chain, at its first repeated
dimension.  Regularity asks that the kernel of the map sits inside
E (x) R_infinity, which
linalg._in_ampliation tests block by block, without the lift.  Because
the strict condition is destroyed by hard truncation of an otherwise regular
operator (the truncation boundary injects kernel vectors the untruncated
operator does not have), every consumer that needs regularity can also
evaluate it "at a horizon": kernel contained in E (x) R(V_m) for all m up
to the horizon.  Reports carry both verdicts.

Two level properties, the hyper-dagger property (V+^(n) = (V_n)+) and
biregularity (E^(x)n (x) N(S) inside R(S^(n))), are decided level by
level, and neither builds a level.  Level n of V is one factor times the
ampliation of level n - 1, so, given that level n - 1 holds, the
hyper-dagger level is a test on E (x) H that reads u and s of the SVD
walk (Greville's reverse-order law), and asks that the rank rule of
level n keeps the rank that its factors give.  An invertible d = 1 map is hyper-dagger without the
walk when gamma(V)^n clears the rank cutoff of its last level
(s_min(V^n) >= gamma(V)^n).  A biregularity level is a dimension
identity on the range chain of the representation A whose matrix is S*:
level m holds iff dim R(A_m) - dim R(A_(m+1)) = d^m dim N(S).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolated, NotRegular
from .linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    _in_ampliation,
    _rank,
    _subspace,
    intersect,
    null_space,
    pinv,  # noqa: F401 -- kept bound here for perfbench's tracer test
    range_space,
    spectral_norm,
    subspaces_equal,
)
from .model import (
    Representation,
    _level_rank,
    _lift,
    _lower_levels,
    _map_levels,
    _svd_levels,
    _times_ampliation,
    budget_horizon,
    derived,
)

__all__ = [
    "range_chain",
    "stabilization_index",
    "algebraic_core",
    "default_horizon",
    "RegularityReport",
    "is_regular",
    "require_regular",
    "GenInverse",
    "make_generalized_inverse",
    "BiRegularityReport",
    "is_biregular",
    "is_hyper_dagger",
    "fixed_point_range_check",
    "inverse_invariance_check",
    "kernel_intersection_identity",
]


def _forward_translate(rep: Representation, s: Subspace, pol: TolerancePolicy) -> Subspace:
    """V(E (x) S) as a subspace of H."""
    return range_space(_times_ampliation(rep.matrix, s.basis), pol, scale=rep.norm())


def _translates(rep: Representation, s: Subspace, pol: TolerancePolicy):
    """Yield S, V(E (x) S), V(E (x) V(E (x) S)), ...: the forward translates
    of S, each from the one before.  The n-th is V_n(E^(x)n (x) S)."""
    while True:
        yield s
        s = _forward_translate(rep, s, pol)


def _stabilized_chain(spaces) -> list[Subspace]:
    """Consume a chain up to its limit: the member before the first member
    of equal dimension, or the first member {0} or H.

    Each chain here is nested, and nested subspaces of equal dimension are
    equal.  Each member is a function of the one before (R(V_{n+1}) =
    V(E (x) R(V_n)), and J_{n+1} = S + V(E (x) J_n) for the joins of
    translates), so the chain is constant from there on, and from a member
    {0} or H, which ends it without a further read.  A chain in C^n
    changes dimension at most n times, so it ends.
    """
    chain: list[Subspace] = []
    for space in spaces:
        if chain and space.dim == chain[-1].dim:
            return chain
        chain.append(space)
        if space.dim in (0, space.ambient_dim):
            return chain


def _nested_ranges(rep: Representation, pol: TolerancePolicy):
    """Yield R(V), R(V_2), ...: R(V_{n+1}) = Q R(Q* V (I_E (x) Q)) for an
    orthonormal basis Q of R(V_n), which contains it.  Each member is read
    off the SVD of the r x dr core with the rank rule of the m x dr
    translate of _forward_translate, so it lies in the one before."""
    q = rep.svd()[0][:, : rep._svd_rank(pol)]
    while True:
        yield _subspace(rep.dim_h, q)
        core = q.conj().T @ _times_ampliation(rep.matrix, q)
        u, s, _ = np.linalg.svd(core, full_matrices=False)
        q = q @ u[:, : _rank(s, (rep.dim_h, core.shape[1]), pol, scale=rep.norm())]


@derived
def range_chain(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[Subspace, ...]:
    """The ranges R(V_1), ..., R_infinity of _nested_ranges, whose cores
    never grow past m x dm, so no size budget applies.  The last member is
    the limit R_infinity: R(V_n) equals it for every n from the length of
    the chain on.  Memoized on the representation per policy.
    """
    return tuple(_stabilized_chain(_nested_ranges(rep, pol)))


def stabilization_index(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    return len(range_chain(rep, pol))


def algebraic_core(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Greatest subspace K with V(E (x) K) = K, by greatest-fixed-point iteration.

    The iteration K_0 = H, K_{j+1} = V(E (x) K_j) is the range chain from
    K_1 = R(V) on; range_chain ends only where V(E (x) K) = K: at a member
    whose next one has its dimension, or at a member {0} or H.  The core is
    the generalized range, the intersection of all R(V_n); the
    range-structure suite checks it against the range of the dense iterate
    one level past the chain.
    """
    return range_chain(rep, pol)[-1]


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


def _in_lifted_ranges(
    rep: Representation,
    s: Subspace,
    horizon: int,
    pol: TolerancePolicy,
    at_limit: bool | None = None,
):
    """Yield, for m = 1..horizon, whether S lies in E (x) R(V_m).

    One _in_ampliation per member of range_chain before its limit; every
    level from the stabilization index on shares the limit's verdict:
    at_limit when the caller has it, else computed once here.
    """
    *before, limit = range_chain(rep, pol)
    for space in before[:horizon]:
        yield _in_ampliation(s, space, rep.dim_e, pol)
    if horizon > len(before):
        if at_limit is None:
            at_limit = _in_ampliation(s, limit, rep.dim_e, pol)
        yield from itertools.repeat(at_limit, horizon - len(before))


def is_regular(
    rep: Representation,
    pol: TolerancePolicy = DEFAULT_POLICY,
    horizon: int | None = None,
) -> RegularityReport:
    """Kernel-inclusion regularity check with per-horizon witnesses."""
    chain = range_chain(rep, pol)
    stable = len(chain)
    if horizon is None:
        horizon = default_horizon(rep, pol)
    kernel = rep.kernel(pol)
    strict = _in_ampliation(kernel, chain[-1], rep.dim_e, pol)
    levels = _in_lifted_ranges(rep, kernel, horizon, pol, at_limit=strict)
    per_m = dict(zip(range(1, horizon + 1), levels))
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
    return GenInverse(matrix=s)


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
    the same horizon).  per_m holds prefix verdicts: per_m is False from
    the first failing level on, and holds is the verdict for all levels up
    to the horizon.  The levels are read off the range chain of the
    representation whose matrix is S* (see _biregular_levels).  The
    verdict is recorded per generalized inverse; it is not aggregated
    across different S.
    """
    require_regular(rep, pol, horizon)
    adjoint = Representation(rep.dim_e, rep.dim_h, gi.matrix.conj().T)
    levels = _biregular_levels(range_chain(adjoint, pol), rep.dim_e, horizon)
    return BiRegularityReport(horizon=horizon, per_m=dict(zip(range(1, horizon + 1), levels)))


def _biregular_levels(chain: tuple[Subspace, ...], d: int, top: int):
    """Iterate, for m = 1..top, whether E^(x)k (x) N(S) lies in R(S^(k)) for
    every k <= m, where chain is the range chain of the representation A
    whose matrix is S*, and d = dim E.

    S^(m) = A_m*, so R(S^(m)) = N(A_m)^perp, and level m holds iff N(A_m)
    lies in X = E^(x)m (x) R(A), whose codimension is d^m dim N(S).  For a
    map T and a subspace X, rank T - rank T|_X = codim X - (dim N(T) -
    dim (N(T) meet X)), which equals codim X iff N(T) lies in X.  With T =
    A_m, R(T|_X) = A_m (E^(x)m (x) R(A)) = R(A_(m+1)), so level m holds iff
    dim R(A_m) - dim R(A_(m+1)) = d^m dim N(S): two members of the range
    chain of A, which is R(A_n) from its length on.  No regularity gate.
    """
    dims = [space.dim for space in chain]
    kernel = chain[0].ambient_dim - dims[0]  # dim N(S)
    ranks = dims + [dims[-1]] * top  # dim R(A_n) at n - 1: the limit past the chain
    levels = (ranks[m - 1] - ranks[m] == d**m * kernel for m in range(1, top + 1))
    return itertools.accumulate(levels, min)  # prefix verdicts


def _reverse_order_law(
    rep: Representation, n: int, previous: tuple, s_n: np.ndarray, pol: TolerancePolicy
) -> bool:
    """Level n of is_hyper_dagger, given that level n - 1 holds.

    Then V+^(n) = (I_E (x) V_{n-1})+ V+, and V_n = V (I_E (x) V_{n-1}), so
    the level holds iff (AB)+ = B+ A+ for A = V and B = I_E (x) V_{n-1}.
    By Greville's reverse-order law that is R(A*AB) in R(B) and R(BB*A*)
    in R(A*), and the rank rule of level n must keep the rank of AB.
    With (u, s) of level n - 1, U = u[:, :r], r its rank, and the SVD
    V = u_V diag(s_V) vh, Q = vh[:r_V]* spanning R(V*), all three are read
    off T = (I_E (x) u*) vh*, the unitary change between the splittings
    E (x) (R(U) + R(U)-perp) and R(V*) + N(V) of E (x) H:
      (a) V*V (E (x) R(U)) in E (x) R(U): the block of
          (I (x) U-perp*) V*V (I (x) U), Frobenius norm at most
          1e-8 max(1, ||V||^2); void when r = m;
      (b) (I (x) U s^2 U*) R(V*) in R(V*): the block of
          N(V)* (I (x) U s^2 U*) Q, at most 1e-8 max(1, s_0^2); void when
          r_V = dm;
      (c) the rank of level n is that of AB: the number of singular values
          above tau_sub of the dr x r_V block (I (x) U*) Q, or
          min(r_V, dr) when U or Q spans its whole space.
    Everything here is dm x dm; the rank of level n is taken first, so
    each level read raises the RankWarning of its rule.
    """
    d, m = rep.dim_e, rep.dim_h
    rank = _level_rank(rep, n, s_n, pol)
    u, s = previous
    r, r_v = _level_rank(rep, n - 1, s, pol, warn=False), rep._svd_rank(pol)
    spanning = r in (0, m) or r_v in (0, d * m)  # U or Q spans {0} or its whole space
    if spanning and rank != min(r_v, d * r):
        return False
    if not r or not r_v or (r, r_v) == (m, d * m):
        return True  # (a) and (b) are void
    _, s_v, vh = rep.svd()
    t = u.conj().T @ vh.conj().T.reshape(d, m, d * m)
    on_u, off_u = t[:, :r].reshape(d * r, d * m), t[:, r:].reshape(d * (m - r), d * m)
    gap_a = (off_u[:, :r_v] * s_v[:r_v] ** 2) @ on_u[:, :r_v].conj().T
    gap_b = on_u[:, r_v:].conj().T @ (np.tile(s[:r] ** 2, d)[:, None] * on_u[:, :r_v])
    if np.linalg.norm(gap_a) > 1e-8 * max(1.0, rep.norm() ** 2):
        return False
    if np.linalg.norm(gap_b) > 1e-8 * max(1.0, float(s[0]) ** 2):
        return False
    if spanning:
        return True  # the rank was checked above
    cosines = np.linalg.svd(on_u[:, :r_v], compute_uv=False)
    return rank == int(np.count_nonzero(cosines > pol.tau_sub))


def _powers_keep_full_rank(rep: Representation, top: int, pol: TolerancePolicy) -> bool:
    """True when every level 2..top of an invertible d = 1 map is sure to
    hold, from gamma = gamma(V) and ||V|| alone; False leaves it to the walk.

    At d = 1 with V invertible, r_V = dm, so (a) and (b) of
    _reverse_order_law are void at every level, and level n holds iff the
    rank rule of V^n keeps m.  Its cutoff is tau_rank ||V||^n m, and every
    singular value of V^n is at least gamma^n (s_min(V^n) = 1/||V^-n||).
    The walk reads them to within about n m eps ||V||^n (one backward
    stable core SVD per level), so (gamma / ||V||)^n >
    100 (tau_rank + n eps) m puts every value read above ten times the
    cutoff: rank m and no RankWarning at level n.  The ratio is at most 1,
    so level top decides every level below it.
    """
    if rep.dim_e != 1 or rep._svd_rank(pol) != rep.dim_h:
        return False
    ratio = rep.min_modulus(pol) / rep.norm()
    return ratio**top > 100.0 * (pol.tau_rank + top * np.finfo(float).eps) * rep.dim_h


def is_hyper_dagger(
    rep: Representation, horizon: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """n-dagger for every n up to min(horizon, budget_horizon(rep)).

    The Wold stage reads its top level off its horizon plan
    (wold.horizon_plan) and calls _hyper_dagger_up_to with it.
    """
    return _hyper_dagger_up_to(rep, min(horizon, budget_horizon(rep)), pol)


def _hyper_dagger_up_to(rep: Representation, top: int, pol: TolerancePolicy) -> bool:
    """n-dagger for every n up to top.

    Level 1 always holds, and each later level is decided given the one
    before by _reverse_order_law, from (u, s) of two consecutive levels of
    _svd_levels; no d^n m x m matrix is built.  An invertible d = 1 map
    whose gamma(V)^top clears the rank cutoff of level top is decided
    without the walk (_powers_keep_full_rank), and takes no SVD past the
    one of V.

    Level n depends on n only through the rank rules of levels n - 1 and
    n.  Past its fixed point the walk yields one pair object at every
    level, so a level whose two pairs are the objects of the last level
    read, and whose two ranks are the same, holds without a read.  The
    rules are still applied at every level, since their cutoffs move with
    n; a level not read still raises the RankWarning of its rule.
    """
    if top > 1 and _powers_keep_full_rank(rep, top, pol):
        return True

    def ranks(k, previous, s_k):
        """The rank rules of levels k - 1 and k: level k depends on k only through them."""
        return (
            _level_rank(rep, k - 1, previous[1], pol, warn=False),
            _level_rank(rep, k, s_k, pol, warn=False),
        )

    read = None  # n and the two pairs of the last level read
    for n, (previous, current) in enumerate(
        itertools.pairwise(itertools.islice(_svd_levels(rep), top)), start=2
    ):
        s_n = current[1]
        if read and read[1] is previous and read[2] is current:
            if ranks(read[0], previous, s_n) == ranks(n, previous, s_n):
                _level_rank(rep, n, s_n, pol)  # the RankWarning of the level
                continue
        if not _reverse_order_law(rep, n, previous, s_n, pol):
            return False
        read = (n, previous, current)
    return True


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
    chain = range_chain(rep, pol)
    rinf, stable = chain[-1], len(chain)
    m_dim = rep.dim_h
    eye = np.eye(m_dim, dtype=np.complex128)
    stacked = []
    noise_scale = 1.0
    depth = min(budget_horizon(rep), max(horizon, stable + 1, 1))
    levels = zip(range(1, depth + 1), _map_levels(rep), _lower_levels(gi.matrix, rep.dim_e))
    for n, vn, sn in levels:
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
    rinf = algebraic_core(rep, pol)
    if rinf.dim == 0:
        return True
    image = range_space(gi.matrix @ rinf.basis, pol)
    return _in_ampliation(image, rinf, rep.dim_e, pol)


def kernel_intersection_identity(
    rep: Representation, m: int, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """Subspace identity relating lifted kernels and ranges:

    (I_{E^(x)n} (x) V_m) N(V_{m+n}) = N(V_n) meet (I_{E^(x)n} (x) V_m)(E^(x)(m+n) (x) H)

    Holds for every representation; failures indicate tolerance bugs.
    """
    d = rep.dim_e
    nv = rep.norm()
    levels = {k: vk for k, vk in zip(range(1, m + n + 1), _map_levels(rep)) if k in (m, n, m + n)}
    lifted_vm = _lift(n, levels[m], d)
    ker_mn = null_space(levels[m + n], pol, scale=nv ** (m + n))
    lhs = range_space(lifted_vm @ ker_mn.basis, pol, scale=nv**m)
    ker_n = null_space(levels[n], pol, scale=nv**n)
    rhs = intersect(ker_n, range_space(lifted_vm, pol, scale=nv**m), pol)
    return subspaces_equal(lhs, rhs, pol)
