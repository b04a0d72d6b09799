"""Dense complex linear algebra and tolerance-aware subspace arithmetic.

Every higher-level module works through the primitives here: a relative
rank cutoff shared by all rank-revealing decompositions, a Moore-Penrose
inverse, the reduced minimum modulus, PSD decisions and Hermitian PSD
square roots, and a small lattice of orthonormal-basis subspaces (range,
kernel, complement, intersection, sum, containment, projection).

Containment is one residual rule, _in_ampliation: whether S lies in
C^d (x) K, asked block by block, so a subspace of E (x) H is tested
against K without forming I_d (x) K; contains is its d = 1 case.

spectral_norm is the one 2-norm kernel, the largest singular value.  A
check that only compares a 2-norm with a threshold goes through
_norm2_at_most (a fixed threshold) or _norm2_within (a threshold relative
to another 2-norm), which decide from Frobenius norms when they can and
give the verdict of the exact norms.

Subspace(n, B) checks a caller's basis for orthonormality; the bases the
package builds are orthonormal by construction, skip that check through
_subspace, and are checked by the tests.

A Hermitian matrix H counts as PSD iff its least eigenvalue is at least
-tau_psd * max(1, ||H||_2), with ||H||_2 read off the same spectrum.
psd_margin, psd_sqrt and _psd_tolerance are the only places that know
this rule.

All values are immutable after construction and all operations are pure
functions, so everything in this module is safe to call concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPSD

__all__ = [
    "TolerancePolicy",
    "RankWarning",
    "DEFAULT_POLICY",
    "as_matrix",
    "pinv",
    "reduced_min_modulus",
    "psd_sqrt",
    "spectral_norm",
    "hermitian_part",
    "psd_margin",
    "is_psd",
    "Subspace",
    "range_space",
    "null_space",
    "complement",
    "intersect",
    "add",
    "contains",
    "project",
    "subspaces_equal",
]


class RankWarning(UserWarning):
    """Singular values sit within a factor of ten of the rank cutoff.

    Rank decisions near the cutoff are fragile; the warning surfaces
    borderline cases without changing behavior.
    """


@dataclass(frozen=True)
class TolerancePolicy:
    """Numerical tolerances used by every rank/PSD/subspace decision.

    tau_rank is relative: a singular value survives iff it exceeds
    tau_rank * sigma_max * max(rows, cols).
    """

    tau_rank: float = 1e-10
    tau_orth: float = 1e-10
    tau_psd: float = 1e-9
    tau_sub: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("tau_rank", "tau_orth", "tau_psd", "tau_sub"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and strictly positive")

    def as_dict(self) -> dict:
        return {
            "tau_rank": self.tau_rank,
            "tau_orth": self.tau_orth,
            "tau_psd": self.tau_psd,
            "tau_sub": self.tau_sub,
        }


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array and require finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


def _rank_cutoff(
    s: np.ndarray, shape: tuple[int, int], pol: TolerancePolicy, scale: float | None = None
) -> float:
    if s.size == 0:
        return 0.0
    return pol.tau_rank * max(float(s[0]), scale or 0.0) * max(shape)


def _rank(
    s: np.ndarray,
    shape: tuple[int, int],
    pol: TolerancePolicy,
    *,
    warn: bool = True,
    scale: float | None = None,
) -> int:
    cut = _rank_cutoff(s, shape, pol, scale)
    rank = int(np.count_nonzero(s > cut))
    if warn and cut > 0:
        borderline = np.count_nonzero((s > cut / 10.0) & (s <= cut * 10.0))
        if borderline:
            warnings.warn(
                f"{borderline} singular value(s) within a factor of 10 of the rank cutoff "
                f"{cut:.3e}; rank decision is borderline",
                RankWarning,
                stacklevel=3,
            )
    return rank


def _pinv_from_svd(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """Moore-Penrose inverse kept to the leading r singular triplets of
    a = u diag(s) vh; r = 0 gives the zero matrix of transposed shape."""
    return (vh[:r].conj().T * (1.0 / s[:r])) @ u[:, :r].conj().T


def pinv(a, pol: TolerancePolicy = DEFAULT_POLICY, scale: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse with the policy's relative rank cutoff.

    The zero matrix maps to the zero matrix of transposed shape.  The
    result satisfies the four defining identities to ~1e-9 * norm(a).
    `scale` anchors the rank cutoff as in range_space.
    """
    a = as_matrix(a)
    if a.size == 0 or not a.any():
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return _pinv_from_svd(u, s, vh, _rank(s, a.shape, pol, scale=scale))


def reduced_min_modulus(a, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Smallest singular value above the rank cutoff; inf for the zero map.

    Equals 1 / norm(pinv(a)) whenever a is nonzero.
    """
    a = as_matrix(a)
    if a.size == 0 or not a.any():
        return math.inf
    s = np.linalg.svd(a, compute_uv=False)
    r = _rank(s, a.shape, pol, warn=False)
    if r == 0:
        return math.inf
    return float(s[r - 1])


def spectral_norm(a) -> float:
    """Matrix 2-norm that treats empty matrices as zero: the largest
    singular value, from the LAPACK call np.linalg.norm(a, 2) makes, so
    the bits are those of np.linalg.norm."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _norm2_at_most(a: np.ndarray, tol: float) -> bool:
    """spectral_norm(a) <= tol, deciding from the Frobenius norm when it can.

    ||a||_2 <= ||a||_F <= sqrt(min(shape)) ||a||_2, so the Frobenius norm
    settles every case but those between the two bounds, which take the
    exact 2-norm.  Each bound is widened by a relative 1e-10, far above
    the round-off of either norm, so a tie at tol takes the exact 2-norm.
    """
    frob = float(np.linalg.norm(a))
    if frob <= tol * (1.0 - 1e-10):
        return True
    if frob > tol * math.sqrt(min(a.shape)) * (1.0 + 1e-10):
        return False
    return spectral_norm(a) <= tol


def _norm2_within(r: np.ndarray, a: np.ndarray, rel: float, floor: float = 0.0) -> bool:
    """spectral_norm(r) <= rel * max(floor, spectral_norm(a)), deciding from
    the Frobenius norms of r and a when they can.

    ||a||_F / sqrt(min(shape)) <= ||a||_2 <= ||a||_F brackets the
    threshold, so r is decided by the screen of _norm2_at_most against the
    low end of the bracket when it passes and against the high end when it
    fails, each widened by a relative 1e-10.  Only between them is ||a||_2
    taken, and r is left to _norm2_at_most against the exact threshold.
    """
    frob_r = float(np.linalg.norm(r))
    frob_a = float(np.linalg.norm(a))
    if frob_r <= rel * max(floor, frob_a / math.sqrt(max(1, min(a.shape)))) * (1.0 - 1e-10):
        return True
    if frob_r > rel * max(floor, frob_a) * math.sqrt(min(r.shape)) * (1.0 + 1e-10):
        return False
    return _norm2_at_most(r, rel * max(floor, spectral_norm(a)))


def hermitian_part(a) -> np.ndarray:
    """(A + A*)/2 -- removes round-off asymmetry before eigendecomposition."""
    a = as_matrix(a)
    h = a + a.conj().T
    h /= 2.0  # in place, to save one full-size temporary
    return h


def _psd_tolerance(w: np.ndarray, pol: TolerancePolicy) -> float:
    """tau_psd * max(1, ||H||_2) from the ascending eigenvalues w of H."""
    return pol.tau_psd * max(1.0, -float(w[0]), float(w[-1]))


def psd_margin(a, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, bool]:
    """Least eigenvalue of the Hermitian part h of a, and whether h is PSD.

    h is PSD iff that eigenvalue is at least -tau_psd * max(1, ||h||_2);
    the norm is max(-lambda_min, lambda_max) of the same eigvalsh call.
    An empty matrix gives (0.0, True).
    """
    h = hermitian_part(a)
    if h.shape[0] == 0:
        return 0.0, True
    w = np.linalg.eigvalsh(h)
    lam = float(w[0])
    return lam, lam >= -_psd_tolerance(w, pol)


def is_psd(a, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the Hermitian part of a is PSD by the psd_margin rule."""
    return psd_margin(a, pol)[1]


def psd_sqrt(a, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues within the psd_margin tolerance
    of zero are clamped.

    Raises NotPSD when a is not Hermitian to tau_orth, or when a genuinely
    negative eigenvalue is present.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("psd_sqrt requires a square matrix")
    if a.shape[0] == 0:
        return a.copy()
    w, u = np.linalg.eigh(hermitian_part(a))
    if not _norm2_at_most(a - a.conj().T, pol.tau_orth * max(1.0, -w[0], w[-1]) * 10.0):
        raise NotPSD("matrix is not Hermitian to tolerance")
    if w[0] < -_psd_tolerance(w, pol):
        raise NotPSD(f"min eigenvalue {w[0]:.3e} below -tau_psd*scale")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


@dataclass(frozen=True)
class Subspace:
    """Closed subspace of C^ambient_dim given by an orthonormal column basis.

    The empty subspace is a basis with zero columns; every lattice
    operation accepts it.  Subspace(n, B) raises ValueError when
    ||B*B - I||_2 > 1e-7; _subspace skips the checks.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        b = as_matrix(self.basis, name="basis")
        if b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis rows {b.shape[0]} != ambient dimension {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if not _norm2_at_most(gram - np.eye(b.shape[1]), 1e-7):
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", _frozen(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return _subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _subspace(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


def _subspace(ambient_dim: int, basis: np.ndarray) -> Subspace:
    """Unchecked Subspace for a complex128 basis orthonormal by construction."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "ambient_dim", ambient_dim)
    object.__setattr__(s, "basis", _frozen(basis))
    return s


def _coordinate_subspace(ambient_dim: int, cols: list[int]) -> Subspace:
    """Span of the standard basis vectors e_c, c in cols, in that order."""
    return _subspace(ambient_dim, np.eye(ambient_dim, dtype=np.complex128)[:, cols])


def range_space(
    a, pol: TolerancePolicy = DEFAULT_POLICY, scale: float | None = None
) -> Subspace:
    """Column space of a, via SVD with the relative rank cutoff.

    `scale` anchors the cutoff for matrices built as products: roundoff
    in a product lives at eps * (product of factor norms), so passing
    that product keeps a mathematically-zero result from being read as
    full-rank noise.  When the SVD of a does not converge, u is read off
    the SVD of a*.
    """
    a = as_matrix(a)
    if a.shape[1] == 0 or not a.any():
        return Subspace.zero(a.shape[0])
    try:
        u, s, _ = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:  # LAPACK's divide and conquer failed; a* has the same SVD
        _, s, vh = np.linalg.svd(a.conj().T, full_matrices=False)
        u = vh.conj().T
    r = _rank(s, a.shape, pol, scale=scale)
    return _subspace(a.shape[0], u[:, :r])


def null_space(
    a, pol: TolerancePolicy = DEFAULT_POLICY, scale: float | None = None
) -> Subspace:
    """Kernel of a, via the trailing right singular vectors.

    The right factor is square for tall input from the thin SVD, so only a
    wide a takes the full one.  `scale` plays the same role as in
    range_space.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if n == 0:
        return Subspace.zero(0)
    if not a.any():
        return Subspace.full(n)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    r = _rank(s, a.shape, pol, scale=scale)
    return _subspace(n, vh[r:].conj().T)


def complement(s: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Orthogonal complement within the ambient space."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim)
    if s.dim == s.ambient_dim:
        return Subspace.zero(s.ambient_dim)
    # Vectors orthogonal to the basis = kernel of basis*.
    return null_space(s.basis.conj().T, pol)


def project(s: Subspace) -> np.ndarray:
    """Orthogonal projector basis @ basis*."""
    return s.basis @ s.basis.conj().T


def _check_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def intersect(s1: Subspace, s2: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Intersection, via the kernel of the stacked complementary projectors.

    A zero operand gives {0} and a whole operand gives the other operand
    itself, with no SVD.  Otherwise the cutoff is anchored at scale 1, the
    norm of the stack.
    """
    _check_ambient(s1, s2)
    n = s1.ambient_dim
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(n)
    if s1.dim == n:
        return s2
    if s2.dim == n:
        return s1
    eye = np.eye(n, dtype=np.complex128)
    stacked = np.vstack([eye - project(s1), eye - project(s2)])
    return null_space(stacked, pol, scale=1.0)


def add(s1: Subspace, s2: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> Subspace:
    """Closed span of the union, by re-orthonormalizing concatenated bases.

    A zero operand gives the other operand itself, with no SVD.
    """
    _check_ambient(s1, s2)
    if s1.dim == 0:
        return s2
    if s2.dim == 0:
        return s1
    return range_space(np.hstack([s1.basis, s2.basis]), pol)


def _dims_exclude(dim1: int, dim2: int, pol: TolerancePolicy) -> bool:
    """True when contains(s1, s2) must fail for dim s1 = dim1, dim s2 = dim2:
    the dim1 squared column residuals sum to at least dim1 - dim2, so one is
    at least 1/sqrt(dim1), above tau_sub when tau_sub*sqrt(dim1) < 1."""
    return dim1 > dim2 and pol.tau_sub * math.sqrt(dim1) < 1.0


def _in_ampliation(s1: Subspace, s2: Subspace, d: int, pol: TolerancePolicy) -> bool:
    """True iff s1, in C^d (x) C^n, lies in C^d (x) s2, columnwise at tau_sub.

    Checks norm((I_d (x) (I - P_{s2})) b) <= tau_sub for every basis column
    b of s1: b is cut into its d blocks of length n, each projected on s2,
    so the lift of s2 is never formed.  d = 1 is contains.
    """
    if s1.dim == 0:
        return True
    if _dims_exclude(s1.dim, d * s2.dim, pol):
        return False
    q = s2.basis
    blocks = s1.basis.reshape(d, s2.ambient_dim, s1.dim)
    residual = (blocks - q @ (q.conj().T @ blocks)).reshape(s1.ambient_dim, s1.dim)
    return bool(np.all(np.linalg.norm(residual, axis=0) <= pol.tau_sub))


def contains(s1: Subspace, s2: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff s1 is contained in s2, columnwise at tau_sub.

    Checks norm((I - P_{s2}) b) <= tau_sub for every basis column b of s1,
    by the rule of _in_ampliation at d = 1.
    """
    _check_ambient(s1, s2)
    return _in_ampliation(s1, s2, 1, pol)


def subspaces_equal(s1: Subspace, s2: Subspace, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Mutual containment at tau_sub."""
    return contains(s1, s2, pol) and contains(s2, s1, pol)
