"""Representation data model, Kronecker ampliation, iterated maps, and file I/O.

A representation is stored as the single matrix of the map E (x) H -> H,
of shape m x (d*m) with d = dim E and m = dim H.  Tensor indices follow a
fixed left-to-right Kronecker ordering: index(xi (x) h) = index(xi) * m +
index(h), so I_{E^(x)k} (x) A is realized exactly as kron(I_{d^k}, A).
_lift is the one place that forms this ampliation; every module lifts
through it.  The iterates never form it: iterate_lower applies I (x) S
blockwise, as S times each of the d^k row blocks of the iterate, and
iterate_map applies I (x) V_{n-1} as each m x m column block of V times
V_{n-1}.

The coefficient algebra is the scalars; optional labeled generator images
exist only so the covariance identity is an executable check.

A Representation is immutable, but it memoizes the small objects derived
from its matrix V.  One full SVD of V, made once and needing no policy,
gives them all: the 2-norm s[0], and, with the rank r decided once per
TolerancePolicy by the rank rule of linalg, the pseudoinverse, the reduced
minimum modulus s[r-1], ker V (the trailing right singular vectors),
ker V* (the trailing left ones), the first space R(V) of the range chain
and the factors of the growth pencil.  Iterates and lifts are never
memoized, since caching them would raise peak memory.  Concurrent first use
may build a value twice, with the same result, and a RankWarning fires on
the first build only.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ParseError, ShapeError
from .linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    _frozen,
    _pinv_from_svd,
    _rank,
    _subspace,
    as_matrix,
)

__all__ = [
    "DEFAULT_SIZE_BUDGET",
    "size_budget",
    "budget_horizon",
    "Representation",
    "tensor_lift",
    "iterate_map",
    "iterate_lower",
    "check_covariance",
    "save_representation",
    "load_representation",
    "canonical_json",
]

DEFAULT_SIZE_BUDGET = 20_000


def size_budget() -> int:
    """Column budget for ampliations; WOLDKIT_BUDGET overrides the default."""
    raw = os.environ.get("WOLDKIT_BUDGET")
    if raw is None:
        return DEFAULT_SIZE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"WOLDKIT_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("WOLDKIT_BUDGET must be positive")
    return value


def derived(fn):
    """Memoize fn(rep, pol) on rep, once per function and TolerancePolicy."""

    @functools.wraps(fn)
    def build_once(rep: Representation, pol: TolerancePolicy = DEFAULT_POLICY):
        key = (fn, pol)
        if key not in rep._derived:
            rep._derived[key] = fn(rep, pol)
        return rep._derived[key]

    return build_once


@dataclass(frozen=True)
class Representation:
    """Pair (dim E, dim H) plus the m x (d*m) matrix of the covariant map.

    sigma and phi optionally carry labeled generator images (m x m and
    d x d respectively) used by check_covariance.
    """

    dim_e: int
    dim_h: int
    matrix: np.ndarray
    sigma: dict[str, np.ndarray] = field(default_factory=dict)
    phi: dict[str, np.ndarray] = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim_e < 1 or self.dim_h < 1:
            raise ShapeError("dim_E and dim_H must both be at least 1")
        m = as_matrix(self.matrix, name="representation matrix")
        if m.shape != (self.dim_h, self.dim_e * self.dim_h):
            raise ShapeError(
                f"matrix shape {m.shape} != ({self.dim_h}, {self.dim_e * self.dim_h})"
            )
        object.__setattr__(self, "matrix", _frozen(m))
        for attr, size in (("sigma", self.dim_h), ("phi", self.dim_e)):
            images = {}
            for label, mat in getattr(self, attr).items():
                g = as_matrix(mat, name=f"{attr}[{label}]")
                if g.shape != (size, size):
                    raise ShapeError(f"{attr}[{label}] must be {size}x{size}, got {g.shape}")
                images[str(label)] = _frozen(g)
            object.__setattr__(self, attr, images)
        if set(self.sigma) != set(self.phi):
            raise ShapeError("sigma and phi must carry the same generator labels")

    @property
    def ambient_domain(self) -> int:
        """Dimension of E (x) H."""
        return self.dim_e * self.dim_h

    @derived
    def svd(self, pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full SVD (u, s, vh) of the matrix, read-only.  It needs no
        tolerance: callers pass no policy.  The zero map gets identity
        factors, so its kernel and cokernel are spanned by the standard basis."""
        v = self.matrix
        if not v.any():
            factors = (
                np.eye(self.dim_h, dtype=np.complex128),
                np.zeros(self.dim_h),
                np.eye(self.ambient_domain, dtype=np.complex128),
            )
        else:
            factors = np.linalg.svd(v, full_matrices=True)
        return tuple(_frozen(f) for f in factors)

    @derived
    def _svd_rank(self, pol: TolerancePolicy) -> int:
        """Numerical rank of the matrix by the rank rule of linalg."""
        return _rank(self.svd()[1], self.matrix.shape, pol)

    @derived
    def pseudo_inverse(self, pol: TolerancePolicy) -> np.ndarray:
        """Moore-Penrose inverse of the matrix (read-only)."""
        return _frozen(_pinv_from_svd(*self.svd(), self._svd_rank(pol)))

    @derived
    def min_modulus(self, pol: TolerancePolicy) -> float:
        """Reduced minimum modulus of the matrix; inf for the zero map."""
        r = self._svd_rank(pol)
        return float(self.svd()[1][r - 1]) if r else math.inf

    @derived
    def norm(self, pol: TolerancePolicy) -> float:
        """2-norm of the matrix.  It needs no tolerance: callers pass no policy."""
        return float(self.svd()[1][0])

    @derived
    def kernel(self, pol: TolerancePolicy) -> Subspace:
        """ker V inside E (x) H."""
        return _subspace(self.ambient_domain, self.svd()[2][self._svd_rank(pol):].conj().T)

    @derived
    def cokernel(self, pol: TolerancePolicy) -> Subspace:
        """ker V* = R(V)^perp inside H."""
        return _subspace(self.dim_h, self.svd()[0][:, self._svd_rank(pol):])


def tensor_lift(k: int, a, d: int) -> np.ndarray:
    """kron(I_{d^k}, A): the ampliation of A by k tensor factors of E.

    k = 0 returns A unchanged.  Raises BudgetExceeded when the lifted
    size d^k * max(rows, cols) passes the configured budget.
    """
    if k < 0:
        raise ValueError("tensor exponent k must be nonnegative")
    if d < 1:
        raise ValueError("d must be at least 1")
    a = as_matrix(a)
    if k == 0 or d == 1:
        return a
    budget = size_budget()
    if d**k * max(a.shape) > budget:
        raise BudgetExceeded(
            f"tensor_lift size d^k*max(shape) = {d**k * max(a.shape)} exceeds budget {budget}"
        )
    return _lift(k, a, d)


def _lift(k: int, a: np.ndarray, d: int) -> np.ndarray:
    """kron(I_{d^k}, A) without validation or budget check; A itself if k = 0 or d = 1."""
    if k == 0 or d == 1:
        return a
    return np.kron(np.eye(d**k, dtype=np.complex128), a)


def budget_horizon(rep: Representation, cap: int = 64) -> int:
    """Largest n with d^n * m within the size budget (capped)."""
    budget = size_budget()
    if rep.dim_e == 1:
        return cap
    n = 0
    size = rep.dim_h
    while n < cap and size * rep.dim_e <= budget:
        size *= rep.dim_e
        n += 1
    return n


def iterate_map(rep: Representation, n: int) -> np.ndarray:
    """n-fold iterated map E^(x)n (x) H -> H, of shape m x (d^n * m).

    Built by the recursion V_n = V (I_E (x) V_{n-1}) blockwise, as
    V_n = [V_1 V_{n-1} | ... | V_d V_{n-1}] with V_j the j-th m x m column
    block of V, so no lift is formed and each product is written straight
    into its place in the output.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d, m = rep.dim_e, rep.dim_h
    budget = size_budget()
    if d**n * m > budget:
        raise BudgetExceeded(f"iterate_map needs {d**n * m} columns, budget is {budget}")
    if n == 0:
        return np.eye(m, dtype=np.complex128)
    blocks = rep.matrix.reshape(m, d, m).transpose(1, 0, 2)
    vn = rep.matrix
    for _ in range(n - 1):
        out = np.empty((m, d, vn.shape[1]), dtype=np.complex128)
        np.matmul(blocks, vn, out=out.transpose(1, 0, 2))
        vn = out.reshape(m, d * vn.shape[1])
    return vn


def iterate_lower(s, d: int, n: int) -> np.ndarray:
    """n-fold lowering iterate of a map S: H -> E (x) H.

    S^(n) = (I_{E^(x)n-1} (x) S) ... (I_E (x) S) S, of shape (d^n * m) x m.
    Each factor I_{E^(x)k} (x) S is applied blockwise, as S times each of
    the d^k row blocks of height m, so no lift is formed and the largest
    array is the output itself.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s = as_matrix(s)
    m = s.shape[1]
    budget = size_budget()
    if d**n * m > budget:
        raise BudgetExceeded(f"iterate_lower needs {d**n * m} rows, budget is {budget}")
    out = s
    for k in range(1, n):
        out = (s @ out.reshape(d**k, m, m)).reshape(d ** (k + 1) * m, m)
    return out


def check_covariance(rep: Representation, tol: float = 1e-9) -> tuple[bool, dict[str, float]]:
    """Verify V (phi(a) (x) I_H) = sigma(a) V for every listed generator.

    Returns (holds, residuals-by-label); vacuously true for empty lists.
    """
    v = rep.matrix
    scale = max(1.0, rep.norm())
    residuals: dict[str, float] = {}
    ok = True
    eye_h = np.eye(rep.dim_h, dtype=np.complex128)
    for label in sorted(rep.sigma):
        lifted = np.kron(rep.phi[label], eye_h)
        res = float(np.linalg.norm(v @ lifted - rep.sigma[label] @ v, 2))
        residuals[label] = res
        ok = ok and res <= tol * scale
    return ok, residuals


# ---------------------------------------------------------------------------
# Serialization.  Numbers are IEEE-754 doubles; NaN/Inf tokens are rejected.
# ---------------------------------------------------------------------------


def _encode_complex_list(a: np.ndarray) -> list[list[float]]:
    flat = np.asarray(a, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


_JSON_NUMBERS = (int, float)


def _decode_complex_list(entries, rows: int, cols: int, *, name: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ShapeError(f"{name} must hold {rows * cols} [re, im] pairs, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    if all(
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) in _JSON_NUMBERS
        and type(pair[1]) in _JSON_NUMBERS
        for pair in entries
    ):
        # Plain JSON numbers: one array conversion gives the bits of
        # complex(re, im).  Overflow and non-finite values take the loop,
        # which names the offending entry.
        try:
            pairs = np.array(entries, dtype=np.float64)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            return pairs.view(np.complex128).reshape(rows, cols)
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise ParseError(f"{name}[{i}] is not an [re, im] number pair")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"{name}[{i}] has a non-finite entry")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for every file this package writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _reject_constant(token: str):
    raise ParseError(f"non-finite JSON token {token!r} is not accepted")


def parse_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    return data


def representation_to_dict(rep: Representation) -> dict:
    doc = {
        "dim_E": rep.dim_e,
        "dim_H": rep.dim_h,
        "V": _encode_complex_list(rep.matrix),
    }
    if rep.sigma:
        doc["sigma"] = {k: _encode_complex_list(v) for k, v in rep.sigma.items()}
        doc["phi"] = {k: _encode_complex_list(v) for k, v in rep.phi.items()}
    return doc


def representation_from_dict(data: dict, *, source: str = "<memory>") -> Representation:
    for key in ("dim_E", "dim_H", "V"):
        if key not in data:
            raise ParseError(f"{source}: missing field {key!r}")
    dim_e, dim_h = data["dim_E"], data["dim_H"]
    if not isinstance(dim_e, int) or not isinstance(dim_h, int) or dim_e < 1 or dim_h < 1:
        raise ShapeError(f"{source}: dim_E and dim_H must be positive integers")
    v = _decode_complex_list(data["V"], dim_h, dim_e * dim_h, name="V")
    gens: dict[str, dict[str, np.ndarray]] = {"sigma": {}, "phi": {}}
    for attr, size in (("sigma", dim_h), ("phi", dim_e)):
        block = data.get(attr)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ParseError(f"{source}: field {attr!r} must be an object")
        for label, entries in block.items():
            gens[attr][label] = _decode_complex_list(entries, size, size, name=f"{attr}[{label}]")
    return Representation(dim_e, dim_h, v, sigma=gens["sigma"], phi=gens["phi"])


def save_representation(rep: Representation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(representation_to_dict(rep)))


def load_representation(path) -> Representation:
    return representation_from_dict(parse_json_file(path), source=str(path))
