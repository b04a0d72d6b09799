"""Deterministic seeded generators for representations and shift specs.

Everything is driven by a numpy Generator so identical seeds give
byte-identical serialized output.  Finite dimension collapses some of the
classes the generators target: an injective representation map forces
dim E = 1 and is then invertible, and the concave class consists exactly
of the unitaries, so the concave generator perturbs a unitary and
re-projects onto the feasible cone through the polar factor.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams
from .linalg import spectral_norm
from .model import Representation
from .shifts import BilateralSpec, UnilateralSpec

__all__ = [
    "rand_complex",
    "rand_unitary",
    "generic_rep",
    "rank_deficient_rep",
    "left_invertible_rep",
    "expansive_rep",
    "concave_rep",
    "coisometry_rep",
    "truncated_shift_rep",
    "weighted_truncated_shift",
    "block_wold_rep",
    "shift_polynomial_pair",
    "unilateral_spec",
    "bilateral_spec",
    "generate_named",
]


def rand_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR with phase-normalized diagonal."""
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def generic_rep(rng: np.random.Generator, d: int, m: int) -> Representation:
    """Dense Gaussian map; surjective (hence regular) almost surely."""
    return Representation(d, m, rand_complex(rng, m, d * m))


def rank_deficient_rep(rng: np.random.Generator, d: int, m: int, rank: int) -> Representation:
    if not 0 <= rank <= m:
        raise InvalidParams(f"rank must lie in 0..{m}")
    v = rand_complex(rng, m, rank) @ rand_complex(rng, rank, d * m) if rank else np.zeros(
        (m, d * m), dtype=np.complex128
    )
    return Representation(d, m, v)


def _with_singular_values(rng: np.random.Generator, m: int, lo: float, hi: float) -> np.ndarray:
    u = rand_unitary(rng, m)
    w = rand_unitary(rng, m)
    s = rng.uniform(lo, hi, size=m)
    return (u * s) @ w.conj().T


def left_invertible_rep(
    rng: np.random.Generator, m: int, gamma_lo: float = 1.05, gamma_hi: float = 2.0
) -> Representation:
    """Injective map (dim E = 1) with reduced minimum modulus in [lo, hi]."""
    if not 1.0 < gamma_lo <= gamma_hi:
        raise InvalidParams("need 1 < gamma_lo <= gamma_hi")
    return Representation(1, m, _with_singular_values(rng, m, gamma_lo, gamma_hi))


def expansive_rep(
    rng: np.random.Generator, m: int, top: float = 1.8, floor: float = 1.0 + 1e-6
) -> Representation:
    """All singular values at least one: the map increases every norm."""
    if not floor <= top:
        raise InvalidParams(f"need top >= {floor}")
    return Representation(1, m, _with_singular_values(rng, m, floor, top))


def concave_rep(rng: np.random.Generator, m: int, perturbation: float = 0.2) -> Representation:
    """Perturb a unitary, then re-project to the feasible cone (polar factor).

    The concave inequality at finite dimension admits only unitaries, so
    the PSD re-projection of the perturbed matrix is its polar unitary.
    """
    u = rand_unitary(rng, m)
    perturbed = u + perturbation * rand_complex(rng, m, m)
    uu, _, vh = np.linalg.svd(perturbed)
    return Representation(1, m, uu @ vh)


def coisometry_rep(rng: np.random.Generator, d: int, m: int) -> Representation:
    """Full-row-rank partial isometry: V V* = I on H."""
    q, _ = np.linalg.qr(rand_complex(rng, d * m, m))
    return Representation(d, m, q.conj().T)


def truncated_shift_rep(length: int) -> Representation:
    """Basis shift e_i -> e_{i+1} with the top basis vector mapped to zero."""
    v = np.zeros((length, length), dtype=np.complex128)
    for i in range(length - 1):
        v[i + 1, i] = 1.0
    return Representation(1, length, v)


def weighted_truncated_shift(weights) -> Representation:
    """e_i -> w_i e_{i+1}; a truncated shift composed with a diagonal scaling."""
    w = np.asarray(weights, dtype=np.complex128).ravel()
    length = w.size + 1
    v = np.zeros((length, length), dtype=np.complex128)
    for i, wi in enumerate(w):
        v[i + 1, i] = wi
    return Representation(1, length, v)


def block_wold_rep(
    rng: np.random.Generator,
    n_shift: int = 1,
    n_unitary: int = 1,
    shift_len: tuple[int, int] = (4, 6),
    unitary_dim: tuple[int, int] = (2, 3),
    expansive_weights: bool = True,
) -> tuple[Representation, list[tuple[str, int]]]:
    """Block-diagonal sum of truncated shifts (optionally scaled by an
    expansive diagonal) and unitaries; returns the block layout.

    Shift blocks contribute the wandering-generated part, unitary blocks
    the stable range.  Weights are either all one or strictly above one
    so the minimal growth weights stay finite.
    """
    blocks: list[np.ndarray] = []
    layout: list[tuple[str, int]] = []
    for _ in range(n_shift):
        length = int(rng.integers(shift_len[0], shift_len[1] + 1))
        if expansive_weights and rng.uniform() < 0.5:
            w = rng.uniform(1.05, 1.6, size=length - 1)
        else:
            w = np.ones(length - 1)
        blocks.append(weighted_truncated_shift(w).matrix)
        layout.append(("shift", length))
    for _ in range(n_unitary):
        dim = int(rng.integers(unitary_dim[0], unitary_dim[1] + 1))
        blocks.append(rand_unitary(rng, dim))
        layout.append(("unitary", dim))
    total = sum(b.shape[0] for b in blocks)
    v = np.zeros((total, total), dtype=np.complex128)
    at = 0
    for b in blocks:
        k = b.shape[0]
        v[at : at + k, at : at + k] = b
        at += k
    return Representation(1, total, v), layout


def shift_polynomial_pair(
    rng: np.random.Generator, length: tuple[int, int] = (4, 8)
) -> tuple[Representation, np.ndarray]:
    """A truncated shift together with a contraction polynomial in it.

    The polynomial commutes with the shift, hence intertwines the
    representation; scaling puts the operator norm at or below one.
    Occasionally emits a pure phase of the identity so that both purity
    verdicts are exercised.
    """
    m = int(rng.integers(length[0], length[1] + 1))
    rep = truncated_shift_rep(m)
    if rng.uniform() < 0.2:
        theta = rng.uniform(0, 2 * np.pi)
        return rep, np.exp(1j * theta) * np.eye(m, dtype=np.complex128)
    degree = int(rng.integers(1, m))
    coeffs = rand_complex(rng, degree + 1, 1).ravel()
    a = np.zeros((m, m), dtype=np.complex128)
    power = np.eye(m, dtype=np.complex128)
    for c in coeffs:
        a = a + c * power
        power = rep.matrix @ power
    norm = spectral_norm(a)
    if norm > 0:
        scale = rng.choice([1.0, 0.9, 0.5])
        a = a * (scale * (1.0 - 1e-12) / norm)
    return rep, a


def unilateral_spec(
    rng: np.random.Generator,
    d: int = 2,
    L: int = 3,
    p: int = 1,
    sigma_lo: float = 1.0,
    sigma_hi: float = 1.5,
) -> UnilateralSpec:
    """Invertible expansive weights with singular values in [lo, hi]."""
    if sigma_lo < 1.0:
        raise InvalidParams("weights must have singular values at least one")
    if sigma_hi < sigma_lo:
        raise InvalidParams("need sigma_lo <= sigma_hi")
    mats = []
    for k in range(1, L + 1):
        n = d**k
        u, w = rand_unitary(rng, n), rand_unitary(rng, n)
        s = rng.uniform(sigma_lo, sigma_hi, size=n)
        mats.append((u * s) @ w.conj().T)
    return UnilateralSpec(d=d, L=L, p=p, Z=tuple(mats))


def bilateral_spec(
    rng: np.random.Generator, n: int = 1, M: int = 3, w_hi: float = 1.5
) -> BilateralSpec:
    """Weight table following the sign pattern: 1 below zero, 0 at zero,
    at least 1 above zero."""
    if w_hi < 1.0:
        raise InvalidParams("need w_hi >= 1")
    w = np.ones((n, 2 * M + 1), dtype=np.complex128)
    w[:, M] = 0.0
    w[:, M + 1 :] = rng.uniform(1.0, w_hi, size=(n, M))
    return BilateralSpec(n=n, M=M, w=w)


_KINDS = ("generic", "left-invertible", "expansive", "concave", "unilateral", "bilateral")


def generate_named(kind: str, seed: int, params: dict[str, float]):
    """CLI entry: produce a Representation or shift spec for a named kind."""
    rng = np.random.default_rng(seed)
    p = dict(params)

    def geti(key: str, default: int) -> int:
        """A size parameter: every one of them is at least 1."""
        val = p.pop(key, default)
        try:
            size = int(val)
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"parameter {key} must be an integer, got {val!r}") from exc
        if size < 1:
            raise InvalidParams(f"parameter {key} must be at least 1, got {size}")
        return size

    def getf(key: str, default: float) -> float:
        """A float parameter: every one of them is finite."""
        val = p.pop(key, default)
        try:
            num = float(val)
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"parameter {key} must be a number, got {val!r}") from exc
        if not math.isfinite(num):
            raise InvalidParams(f"parameter {key} must be finite, got {val!r}")
        return num

    if kind == "generic":
        out = generic_rep(rng, geti("d", 2), geti("m", 3))
    elif kind == "left-invertible":
        out = left_invertible_rep(rng, geti("m", 4), getf("gamma_lo", 1.05), getf("gamma_hi", 2.0))
    elif kind == "expansive":
        out = expansive_rep(rng, geti("m", 4), getf("top", 1.8))
    elif kind == "concave":
        out = concave_rep(rng, geti("m", 4), getf("perturbation", 0.2))
    elif kind == "unilateral":
        out = unilateral_spec(
            rng, geti("d", 2), geti("L", 3), geti("p", 1), getf("sigma_lo", 1.0), getf("sigma_hi", 1.5)
        )
    elif kind == "bilateral":
        out = bilateral_spec(rng, geti("n", 1), geti("M", 3), getf("w_hi", 1.5))
    else:
        raise InvalidParams(f"unknown kind {kind!r}; choose one of {', '.join(_KINDS)}")
    if p:
        raise InvalidParams(f"unused parameters for kind {kind!r}: {sorted(p)}")
    return out
