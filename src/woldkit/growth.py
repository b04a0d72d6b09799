"""Reduced minimum modulus, defect operator, and growth-condition checks.

Every "for all vectors" inequality here is decided as a Hermitian operator
inequality through a minimum eigenvalue, never by sampling, at the PSD
tolerance of linalg.psd_margin.  The per-level growth inequality compares
the m-fold iterate against a weighted defect plus a projection term;
minimal weights come from the singular generalized eigenproblem (Rayleigh
quotient on the complement of the pencil's kernel, with kernel directions
deciding feasibility by sign), solved by minimal_scale_factor.

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
m min(d^(k-1), m) + m + 1 coordinates, so a level costs O(N m^2) time for
its products and QRs, plus dense eigenproblems that no longer grow with N
once d^(k-1) >= m, and O(N m) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotRegular
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _psd_tolerance,
    as_matrix,
    hermitian_part,
    is_psd,
    psd_margin,
    psd_sqrt,
    reduced_min_modulus,
)
from .model import Representation, _lift, derived, iterate_map
from .structure import is_regular, iterated_pinv

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


def defect_operator(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY) -> DefectOperator:
    """sqrt(V*V - V+V).  NotPSD propagates when gamma < 1 (difference indefinite)."""
    v = rep.matrix
    diff = v.conj().T @ v - rep.pseudo_inverse(pol) @ v
    return DefectOperator(matrix=psd_sqrt(diff, pol))


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


def minimal_scale_factor(q, g, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Smallest d >= 0 with d*G - Q >= 0, for Hermitian Q and PSD-ish G.

    Directions in ker(G) where Q is strictly positive make the problem
    infeasible (returns inf).  On the complement the answer is the largest
    generalized Rayleigh quotient of Q against G.  Both kernel decisions
    use the psd_margin tolerance, from the spectra of Q and of G.
    """
    q = hermitian_part(as_matrix(q))
    g = hermitian_part(as_matrix(g))
    if q.shape != g.shape:
        raise ValueError("Q and G must have identical shapes")
    n = q.shape[0]
    if n == 0:
        return 0.0
    tol_q = _psd_tolerance(np.linalg.eigvalsh(q), pol)
    w, u = np.linalg.eigh(g)
    keep = w > _psd_tolerance(w, pol)
    kernel = u[:, ~keep]
    if kernel.shape[1]:
        q_kernel = hermitian_part(kernel.conj().T @ q @ kernel)
        if q_kernel.shape[0] and float(np.linalg.eigvalsh(q_kernel)[-1]) > tol_q:
            return math.inf
    if not np.any(keep):
        return 0.0
    r = u[:, keep]
    inv_sqrt = 1.0 / np.sqrt(w[keep])
    t = hermitian_part((r * inv_sqrt).conj().T @ q @ (r * inv_sqrt))
    top = float(np.linalg.eigvalsh(t)[-1])
    return max(0.0, top)


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
    """The level-k pencil, compressed exactly.

    Coordinate j carries the values a[j] of A and p[j] of P, and z[j] is
    its row of Z, so that V_k*V_k = zz* on the compression.
    """

    a: np.ndarray
    p: np.ndarray
    z: np.ndarray


def _level(rep: Representation, k: int, pol: TolerancePolicy) -> _Level:
    s, p, left = _singular_factors(rep, pol)
    d, m = rep.dim_e, rep.dim_h
    rows = d ** (k - 1)
    # V_k* = (I (x) V*) V_(k-1)* and U*V* = [diag(s); 0] L*, so on column i
    # of U the rows of Z are s_i (L* B_j)[i], B_j the j-th m x m row block
    # of V_(k-1)*.  z holds their complex conjugates: conjugation changes
    # no spectrum.  iterate_map checks V_(k-1) against the budget.
    prev = iterate_map(rep, k - 1)
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
    for m in range(1, m_max + 1):
        lv = _level(rep, m, pol)
        minimal = minimal_scale_factor(-_affine(lv, 0.0, 1.0, 0.0), np.diag(lv.a - lv.p), pol)
        if d_seq is not None and m <= len(d_seq):
            d_m = d_seq[m - 1]
            lam, feasible = psd_margin(_affine(lv, d_m, 1.0 - d_m, 0.0), pol)
            entries.append(GrowthEntry(m, feasible, minimal, lam))
        else:
            entries.append(GrowthEntry(m, math.isfinite(minimal), minimal, 0.0))
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
    for n in range(1, n_max + 1):
        gn = reduced_min_modulus(iterate_map(rep, n), pol)
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
    lv = _level(rep, k, pol)
    full = _affine(lv, d_k, d_const - d_k, 0.0)
    on = lv.p == 1.0
    restricted = _affine(lv, d_k, 0.0, d_const - d_k)[np.ix_(on, on)]
    return is_psd(full, pol), is_psd(restricted, pol)


def concave_chain_check(rep: Representation, k: int, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Chain inequality implied by concavity, with multiplier k at level k:

    ||V_k xi||^2 <= ||xi||^2 + k (||(I (x) V) xi||^2 - ||xi||^2).
    """
    return is_psd(_affine(_level(rep, k, pol), k, 0.0, 1.0 - k), pol)


def norm_partition_residual(
    rep: Representation, n: int, pol: TolerancePolicy = DEFAULT_POLICY
) -> float:
    """Worst relative error in the norm partition identity over a basis of H.

    ||h||^2 = sum_i ||(I (x) P_W) V+^(i) h||^2 + ||V+^(n) h||^2
            + sum_i ||(I (x) D) V+^(i) h||^2

    with P_W = I - V V+ and D the defect operator.  Needs gamma >= 1 so
    the defect square root exists.
    """
    d, m = rep.dim_e, rep.dim_h
    v = rep.matrix
    vd = rep.pseudo_inverse(pol)
    p_w = np.eye(m, dtype=np.complex128) - v @ vd
    defect = defect_operator(rep, pol).matrix
    # One column per basis vector h; V+^(0) = I, so the i = 0 term is P_W.
    total = np.linalg.norm(p_w, axis=0) ** 2
    for i in range(1, n + 1):
        vdi = iterated_pinv(rep, i, pol)
        if i < n:
            total += np.linalg.norm(_lift(i, p_w, d) @ vdi, axis=0) ** 2
        total += np.linalg.norm(_lift(i - 1, defect, d) @ vdi, axis=0) ** 2
    total += np.linalg.norm(iterated_pinv(rep, n, pol), axis=0) ** 2
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

    lhs1 = np.eye(m, dtype=np.complex128) - iterate_map(rep, n) @ iterated_pinv(rep, n, pol)
    rhs1 = np.zeros_like(lhs1)
    for i in range(0, n):
        vi = iterate_map(rep, i)
        vdi = np.eye(m, dtype=np.complex128) if i == 0 else iterated_pinv(rep, i, pol)
        rhs1 = rhs1 + vi @ _lift(i, p_w, d) @ vdi
    res1 = float(np.linalg.norm(lhs1 - rhs1, 2)) / max(1.0, float(np.linalg.norm(lhs1, 2)))

    dim_n = d**n * m
    lhs2 = np.eye(dim_n, dtype=np.complex128) - iterated_pinv(rep, n, pol) @ iterate_map(rep, n)
    rhs2 = np.zeros_like(lhs2)
    for i in range(0, n):
        vi = iterate_map(rep, i)
        vdi = np.eye(m, dtype=np.complex128) if i == 0 else iterated_pinv(rep, i, pol)
        left = _lift(n - i, vdi, d)
        mid = _lift(n - i - 1, p_wd, d)
        right = _lift(n - i, vi, d)
        rhs2 = rhs2 + left @ mid @ right
    res2 = float(np.linalg.norm(lhs2 - rhs2, 2)) / max(1.0, float(np.linalg.norm(lhs2, 2)))
    return res1, res2
