"""Reduced minimum modulus, defect operator, and growth-condition checks.

Every "for all vectors" inequality here is decided as a Hermitian operator
inequality through a minimum eigenvalue, never by sampling, at the PSD
tolerance of linalg.psd_margin.  The per-level growth inequality compares
the m-fold iterate against a weighted defect plus a projection term.

This module owns that pencil.  A question about it is a _Level: diagonal
A and P and the rows z of a factor of the iterate's Gram matrix zz*.
_pencil gives both answers for a _Level: the minimal weight, which
minimal_scale_factor reads off the factored pencil (z, G = A - P, P)
(Rayleigh quotient on the complement of the kernel of the diagonal G,
with kernel directions deciding feasibility by sign), and the psd_margin
pair for a supplied weight.  It has two readers: check_growth, on the
compression _level of a representation, and the unilateral weight
condition of shifts, whose weight inequality is the same pencil with
P = I.

No level operator is formed.  At level k, with N = d^k m, the operators
A = I (x) V*V, P = I (x) V+V and G = A - P are diagonal in the basis
I (x) U, U the right singular vectors of V: their values s^2, p and
s^2 - p repeat on the d^(k-1) coordinates of each column of U, and p takes
the values 0 and 1 by the rank rule of pinv.  In that basis
V_k*V_k = ZZ* with Z = (I (x) U)* V_k*, which vanishes on the columns of U
past m and is built from V_(k-1) by one matrix product.  Every question is
then about x A + y P + c I - ZZ*, and _level compresses it exactly: the
rows of Z on a column of U taller than m are cut to the R of their QR,
and the orthogonal complement of their span, like the columns past m,
is kept as one coordinate.  A, P and ZZ* are multiples of the identity
on each such space, so the compression loses only multiplicities, which
neither the PSD rule nor minimal_scale_factor reads.  It has at most
m min(d^(k-1), m) + m + 1 coordinates, and z has m columns.

The minimal weight needs no eigenproblem of that size.  With no more
kept coordinates than columns it is one eigvalsh of the kept rows; past
that it is the root of h(d) = lambda_max(z* diag(1/(d g + p)) z) = 1
(_schur_root), each evaluation one product of size rows m^2 and one
m x m eigh.  So a level costs O(N m^2) time for its products and QRs,
plus O(N m^2) and an m x m eigh per evaluation of h, and O(N m) memory;
the supplied-weight readers still take a dense eigvalsh of the
compression.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotRegular
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _frozen,
    _psd_tolerance,
    as_matrix,
    is_psd,
    psd_margin,
    psd_sqrt,
    spectral_norm,
)
from .model import (
    Representation,
    _level_rank,
    _lift,
    _lower_levels,
    _map_levels,
    _svd_levels,
    derived,
    iterate_map,
)
from .structure import is_regular

__all__ = [
    "gamma",
    "gamma_at_least_one",
    "DefectOperator",
    "defect_operator",
    "GrowthEntry",
    "GrowthReport",
    "minimal_scale_factor",
    "check_growth",
    "minimal_growth_sequence",
    "check_concave",
    "check_expansive",
    "gamma_power_bound_check",
    "growth_forms_agree",
    "concave_chain_check",
    "norm_partition_residual",
    "telescoping_residuals",
]


def gamma(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Reduced minimum modulus of the representation map (inf for the zero map)."""
    return rep.min_modulus(pol)


def gamma_at_least_one(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    return gamma(rep, pol) >= 1.0 - 1e-10


@dataclass(frozen=True)
class DefectOperator:
    """PSD square root of V*V - V+V; measures failure to be a partial isometry."""

    matrix: np.ndarray


@derived
def defect_operator(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> DefectOperator:
    """sqrt(V*V - V+V), memoized on rep per policy, with a read-only matrix.
    NotPSD propagates when gamma < 1 (difference indefinite)."""
    v = rep.matrix
    diff = v.conj().T @ v - rep.pseudo_inverse(pol) @ v
    return DefectOperator(matrix=_frozen(psd_sqrt(diff, pol)))


@dataclass(frozen=True)
class GrowthEntry:
    m: int
    feasible: bool
    minimal_d: float  # math.inf marks infeasibility
    psd_residual: float  # min eigenvalue of the checked operator (supplied d)


@dataclass(frozen=True)
class GrowthReport:
    horizon: int
    entries: list[GrowthEntry]
    supplied_d: list[float] | None
    divergence_note: str

    @property
    def all_feasible(self) -> bool:
        return all(e.feasible for e in self.entries)

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "per_m": [
                {
                    "m": e.m,
                    "feasible": e.feasible,
                    "minimal_d": None if math.isinf(e.minimal_d) else e.minimal_d,
                    "psd_residual": e.psd_residual,
                }
                for e in self.entries
            ],
            "supplied_d": self.supplied_d,
            "divergence_note": self.divergence_note,
        }


def minimal_scale_factor(z, g, p, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Smallest d >= 0 with d diag(g) + diag(p) - zz* >= 0, for p >= 0.

    The pencil is factored: row j of z, g[j] and p[j] belong to coordinate
    j, and Q = zz* - diag(p).  The kernel of diag(g) is the set of
    coordinates where g is at most the psd_margin tolerance of diag(g).  If
    Q is strictly positive on that kernel (its principal submatrix there has
    an eigenvalue above the psd_margin tolerance of Q), the problem is
    infeasible and the answer is inf.  On the other coordinates the answer
    is the largest generalized Rayleigh quotient of Q against diag(g): the
    top eigenvalue of Q[keep, keep] scaled by g^(-1/2) on both sides, or 0
    if that is negative.  With no more kept rows than columns of z that
    eigenvalue is computed as it reads; past that it is the root of the
    m x m Schur function of _schur_root, and no rows x rows matrix is formed.
    """
    z = as_matrix(z)
    g, p = np.asarray(g, dtype=np.float64), np.asarray(p, dtype=np.float64)
    if g.shape != (z.shape[0],) or p.shape != g.shape:
        raise ValueError("z must have one row per entry of g and of p")
    if g.size == 0:
        return 0.0
    keep = g > _psd_tolerance(np.sort(g), pol)
    if not keep.all() and _kernel_positive(z, p, ~keep, pol):
        return math.inf
    if not keep.any():
        return 0.0
    z, g, p = z[keep], g[keep], p[keep]
    if z.shape[0] > z.shape[1]:
        return _schur_root(z, g, p)
    inv_sqrt = 1.0 / np.sqrt(g)
    t = (z @ z.conj().T - np.diag(p)) * inv_sqrt[:, None] * inv_sqrt[None, :]
    return max(0.0, float(np.linalg.eigvalsh(t)[-1]))


def _kernel_positive(z, p, kernel, pol: TolerancePolicy) -> bool:
    """Whether Q = zz* - diag(p) has an eigenvalue above the psd_margin
    tolerance tol(Q) on its principal submatrix Q_K of the kernel rows.

    Rows of z that vanish there carry an eigenvalue -p <= 0 of Q_K and
    are dropped.  The top of the rest exceeds a threshold t > 0 iff
    z_K* diag(1/(p_K + t)) z_K, a matrix of the size of the columns, has an
    eigenvalue above 1.  tau_psd <= tol(Q) <= tau_psd max(1, max p,
    ||z||_F^2), so the eigenvalues of Q are computed only when neither
    bound decides.
    """
    zk, pk = z[kernel], p[kernel]
    nonzero = zk.any(axis=1)
    zk, pk = zk[nonzero], pk[nonzero]
    if not zk.shape[0]:
        return False

    def above(t: float) -> bool:
        return float(np.linalg.eigvalsh((zk.conj().T / (pk + t)) @ zk)[-1]) > 1.0

    tau = pol.tau_psd
    if not above(tau):
        return False
    if above(tau * max(1.0, float(p.max()), float(np.vdot(z, z).real))):
        return True
    q = z @ z.conj().T - np.diag(p)
    return above(_psd_tolerance(np.linalg.eigvalsh(q), pol))


_SCHUR_STEPS = 60  # far above what the safeguarded iteration needs
_EPS = float(np.finfo(np.float64).eps)


def _schur_root(z, g, p) -> float:
    """max(0, top eigenvalue of diag(g)^(-1/2) (zz* - diag(p)) diag(g)^(-1/2))
    for g > 0 and p >= 0, from m x m matrices, m the columns of z.

    Zero rows of z only add eigenvalues -p/g <= 0 and are dropped.  For
    d > 0, d diag(g) + diag(p) - zz* >= 0 iff
    h(d) = lambda_max(z* diag(1/(d g + p)) z) <= 1, and h is convex and
    decreasing, so 1/h is concave and increasing: Newton steps on
    1/h(d) = 1 from a point left of the root stay left of it and converge
    to it, each step one rows m^2 product and one m x m eigh, with h' read
    off the top eigenvector.  The iteration starts at the largest of 0,
    the diagonal quotients (|z_j|^2 - p_j)/g_j and u - max(p/g), where
    u = ||diag(g)^(-1/2) z||_2^2 is the top eigenvalue without the p term,
    and d = 0 is tested first when it is that start (then p > 0 on every
    row).  u bounds the root above; a step that would reach it bisects.
    """
    nonzero = z.any(axis=1)
    z, g, p = z[nonzero], g[nonzero], p[nonzero]
    if not z.shape[0]:
        return 0.0
    zh = z.conj().T

    def h(d: float) -> tuple[float, float]:
        """h(d) and its derivative along the top eigenvector."""
        w = 1.0 / (d * g + p)
        lam, vec = np.linalg.eigh((zh * w) @ z)
        y = z @ vec[:, -1]
        return float(lam[-1]), -float(np.sum(g * (w * np.abs(y)) ** 2))

    upper = float(np.linalg.eigvalsh((zh / g) @ z)[-1])
    lo = max(
        0.0,
        float(np.max(((np.abs(z) ** 2).sum(axis=1) - p) / g)),
        upper - float(np.max(p / g)),
    )
    hi = upper
    h_lo, slope = h(lo)
    if h_lo <= 1.0:
        return lo
    for _ in range(_SCHUR_STEPS):
        step = h_lo * (h_lo - 1.0) / -slope if slope < 0.0 else math.inf
        d = lo + step
        bisect = not d < hi
        if bisect:
            d = 0.5 * (lo + hi)
        if d - lo <= 4.0 * _EPS * d:
            return d
        value, d_slope = h(d)
        if value > 1.0:
            lo, h_lo, slope = d, value, d_slope
        elif bisect:
            hi = d
        else:
            return d  # a Newton step from the left reached the root
    return hi


@derived
def _singular_factors(rep: Representation, pol: TolerancePolicy):
    """(s, p, L) of V = L diag(s) Vh, read off rep.svd(): the singular
    values, p = 1 on the rank that the pseudoinverse keeps and 0 past it,
    and the left singular vectors."""
    left, s, _ = rep.svd()
    p = np.zeros(s.shape)
    p[: rep._svd_rank(pol)] = 1.0
    return s, p, left


@dataclass(frozen=True)
class _Level:
    """One question about the pencil, in a basis where A and P are diagonal.

    Coordinate j carries the values a[j] of A and p[j] of P, and z[j] is
    its row of Z, so that zz* is the Gram matrix of the question: V_k*V_k
    on the exact compression of a growth level, Y*Y for a pair of the
    unilateral weight condition.
    """

    a: np.ndarray
    p: np.ndarray
    z: np.ndarray


def _level(rep: Representation, prev: np.ndarray, pol: TolerancePolicy) -> _Level:
    """The _Level of growth level k, from prev = V_(k-1)."""
    s, p, left = _singular_factors(rep, pol)
    d, m = rep.dim_e, rep.dim_h
    rows = prev.shape[1] // m  # d^(k-1)
    # V_k* = (I (x) V*) V_(k-1)* and U*V* = [diag(s); 0] L*, so on column i
    # of U the rows of Z are s_i (L* B_j)[i], B_j the j-th m x m row block
    # of V_(k-1)*.  z holds their complex conjugates: conjugation changes
    # no spectrum.
    z = (prev.reshape(m * rows, m) @ left).reshape(m, rows, m).transpose(2, 1, 0)
    if rows > m:
        # Z_i = Q_i R_i: the complement of range(Q_i) in the rows of
        # column i is an eigenspace of every question, kept as one
        # coordinate with a zero row.
        z = np.concatenate([np.linalg.qr(z, mode="r"), np.zeros((m, 1, m), z.dtype)], axis=1)
    z = z * s[:, None, None]
    height = z.shape[1]
    a, p, z = np.repeat(s * s, height), np.repeat(p, height), z.reshape(-1, m)
    if d > 1:
        # The (d-1) m columns of U past m, where A, P and Z vanish.
        a, p = np.append(a, 0.0), np.append(p, 0.0)
        z = np.vstack([z, np.zeros((1, m), z.dtype)])
    return _Level(a, p, z)


def _affine(lv: _Level, x: float, y: float, c: float) -> np.ndarray:
    """x A + y P + c I - V_k*V_k on the compression of the level."""
    return np.diag(x * lv.a + y * lv.p + c) - lv.z @ lv.z.conj().T


def _pencil(
    lv: _Level, d: float | None, pol: TolerancePolicy
) -> tuple[float, tuple[float, bool] | None]:
    """Both answers of the growth inequality d (A - P) + P - zz* >= 0.

    The minimal weight d (inf if none is feasible), and for a supplied d
    the psd_margin pair (least eigenvalue, PSD verdict) of the operator;
    None when d is None.
    """
    minimal = minimal_scale_factor(lv.z, lv.a - lv.p, lv.p, pol)
    return minimal, None if d is None else psd_margin(_affine(lv, d, 1.0 - d, 0.0), pol)


def check_growth(
    rep: Representation,
    d_seq: list[float] | None,
    m_max: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> GrowthReport:
    """Per-level feasibility of the growth operator inequality.

    For each m the Hermitian operator d_m*(A - P) + P - V_m*V_m
    must be PSD, with A = I (x) V*V and P = I (x) V+V; that single operator
    inequality is exactly the universal vector quantifier.  With d_seq
    None, feasibility means the minimal d at that level is finite.
    """
    entries: list[GrowthEntry] = []
    # Level m reads V_(m-1): the identity, then the walk of the iterates.
    prevs = itertools.chain([iterate_map(rep, 0)], _map_levels(rep))
    for m, prev in zip(range(1, m_max + 1), prevs):
        d_m = d_seq[m - 1] if d_seq is not None and m <= len(d_seq) else None
        minimal, margin = _pencil(_level(rep, prev, pol), d_m, pol)
        if margin is None:
            entries.append(GrowthEntry(m, math.isfinite(minimal), minimal, 0.0))
        else:
            entries.append(GrowthEntry(m, margin[1], minimal, margin[0]))
    note = _divergence_note([e.minimal_d for e in entries], d_seq)
    return GrowthReport(
        horizon=m_max,
        entries=entries,
        supplied_d=list(d_seq) if d_seq is not None else None,
        divergence_note=note,
    )


def minimal_growth_sequence(
    rep: Representation, m_max: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> list[float]:
    """Smallest feasible weight per level; inf marks an infeasible level."""
    return [e.minimal_d for e in check_growth(rep, None, m_max, pol).entries]


def _divergence_note(minimal: list[float], supplied: list[float] | None) -> str:
    seq = supplied if supplied is not None else minimal
    usable = [d for d in seq[1:] if d is not None and math.isfinite(d) and d > 0]
    partial = sum(1.0 / d for d in usable)
    if any(not math.isfinite(d) for d in seq):
        pattern = "some levels infeasible"
    elif len(usable) >= 2:
        ratios = [b / a for a, b in zip(usable, usable[1:]) if a > 0]
        med = sorted(ratios)[len(ratios) // 2] if ratios else 1.0
        pattern = (
            "roughly geometric growth; tail of the reciprocal sum likely converges"
            if med > 1.5
            else "slow growth; reciprocal partial sums keep increasing"
        )
    else:
        pattern = "too few levels to classify"
    return (
        f"partial sum of 1/d_m over 2<=m<={len(seq)} is {partial:.6g}; {pattern}. "
        "Divergence of the full series is reported as data only, never certified."
    )


def check_concave(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """2 (I (x) V*V) - V_2*V_2 - I >= 0 as a Hermitian operator.

    This is the chain inequality at level 2.
    """
    return concave_chain_check(rep, 2, pol)


def check_expansive(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """V*V - I >= 0: the map increases every norm."""
    v = rep.matrix
    op = v.conj().T @ v - np.eye(v.shape[1], dtype=np.complex128)
    return is_psd(op, pol)


def gamma_power_bound_check(
    rep: Representation, n_max: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> bool:
    """gamma(V_n) >= gamma(V)^n - 1e-8 for n up to n_max.

    Ampliations reproduce singular values with multiplicity, so the
    product bound collapses to a power bound.  Requires regularity.
    """
    if not is_regular(rep, pol).strict:
        raise NotRegular("gamma power bound is stated for regular representations")
    g1 = gamma(rep, pol)
    for n, (_, s) in zip(range(1, n_max + 1), _svd_levels(rep)):
        r = _level_rank(rep, n, s, pol, warn=False)
        gn = float(s[r - 1]) if r else math.inf  # gamma(V_n)
        if gn < g1**n - 1e-8:
            return False
    return True


def growth_forms_agree(
    rep: Representation,
    k: int,
    d_k: float,
    d_const: float,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[bool, bool]:
    """Feasibility verdicts of the defect form and the restricted form.

    The full form bounds V_k by the lifted defect plus a weighted
    projection over all of E^(x)k (x) H; the restricted form bounds it by
    lifted-map growth over E^(x)(k-1) (x) N(V)^perp.  For gamma >= 1 the
    two verdicts coincide for identical (d_k, d_const).
    """
    lv = _level(rep, iterate_map(rep, k - 1), pol)
    full = _affine(lv, d_k, d_const - d_k, 0.0)
    on = lv.p == 1.0
    restricted = _affine(lv, d_k, 0.0, d_const - d_k)[np.ix_(on, on)]
    return is_psd(full, pol), is_psd(restricted, pol)


def concave_chain_check(rep: Representation, k: int, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Chain inequality implied by concavity, with multiplier k at level k:

    ||V_k xi||^2 <= ||xi||^2 + k (||(I (x) V) xi||^2 - ||xi||^2).
    """
    return is_psd(_affine(_level(rep, iterate_map(rep, k - 1), pol), k, 0.0, 1.0 - k), pol)


def norm_partition_residual(
    rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """Worst relative error in the norm partition identity over a basis of H.

    ||h||^2 = sum_i ||(I (x) P_W) V+^(i) h||^2 + ||V+^(n) h||^2
            + sum_i ||(I (x) D) V+^(i) h||^2

    with P_W = I - V V+ and D the defect operator.  Needs gamma >= 1 so
    the defect square root exists.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d, m = rep.dim_e, rep.dim_h
    v = rep.matrix
    vd = rep.pseudo_inverse(pol)
    p_w = np.eye(m, dtype=np.complex128) - v @ vd
    defect = defect_operator(rep, pol).matrix
    # One column per basis vector h; V+^(0) = I, so the i = 0 term is P_W.
    total = np.linalg.norm(p_w, axis=0) ** 2
    for i, vdi in zip(range(1, n + 1), _lower_levels(vd, d)):
        if i < n:
            total += np.linalg.norm(_lift(i, p_w, d) @ vdi, axis=0) ** 2
        total += np.linalg.norm(_lift(i - 1, defect, d) @ vdi, axis=0) ** 2
    total += np.linalg.norm(vdi, axis=0) ** 2  # V+^(n)
    return float(np.max(np.abs(total - 1.0)))


def telescoping_residuals(
    rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> tuple[float, float]:
    """Residual norms of the two telescoping matrix identities at depth n.

    (1)  I - V_n V+^(n)  =  sum_i V_i (I (x) P_W) V+^(i)
    (2)  I - V+^(n) V_n  =  sum_i (I (x) V+^(i)) (I (x) P_Wd) (I (x) V_i)

    with P_W = I - V V+ on H and P_Wd = I - V+ V on E (x) H.
    """
    d, m = rep.dim_e, rep.dim_h
    v = rep.matrix
    vd = rep.pseudo_inverse(pol)
    p_w = np.eye(m, dtype=np.complex128) - v @ vd
    p_wd = np.eye(d * m, dtype=np.complex128) - vd @ v
    eye = np.eye(m, dtype=np.complex128)
    # (V_i, V+^(i)) for i = 0..n; level 0 is the identity pair.
    levels = [(eye, eye), *itertools.islice(zip(_map_levels(rep), _lower_levels(vd, d)), n)]
    vn, vdn = levels[n]

    lhs1 = np.eye(m, dtype=np.complex128) - vn @ vdn
    rhs1 = np.zeros_like(lhs1)
    for i, (vi, vdi) in enumerate(levels[:n]):
        rhs1 = rhs1 + vi @ _lift(i, p_w, d) @ vdi
    res1 = spectral_norm(lhs1 - rhs1) / max(1.0, spectral_norm(lhs1))

    dim_n = d**n * m
    lhs2 = np.eye(dim_n, dtype=np.complex128) - vdn @ vn
    rhs2 = np.zeros_like(lhs2)
    for i, (vi, vdi) in enumerate(levels[:n]):
        left = _lift(n - i, vdi, d)
        mid = _lift(n - i - 1, p_wd, d)
        right = _lift(n - i, vi, d)
        rhs2 = rhs2 + left @ mid @ right
    res2 = spectral_norm(lhs2 - rhs2) / max(1.0, spectral_norm(lhs2))
    return res1, res2
