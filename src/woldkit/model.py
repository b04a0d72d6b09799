"""Representation data model, Kronecker ampliation, iterated maps, and file I/O.

A representation is stored as the single matrix of the map E (x) H -> H,
of shape m x (d*m) with d = dim E and m = dim H.  Tensor indices follow a
fixed left-to-right Kronecker ordering: index(xi (x) h) = index(xi) * m +
index(h), so I_{E^(x)k} (x) A is realized exactly as kron(I_{d^k}, A).
Products never form that lift.  _times_ampliation is the one step
a (I_D (x) x): each column block of a times x.  The level walks, z_product,
the weight products of the unilateral weight condition, the forward
translate V(E (x) S) and check_intertwiner take it.  _lift, the one place
that forms the ampliation, is left for the check functions that need the
lifted operator itself: kernel_intersection_identity, kernel_span_check,
norm_partition_residual and telescoping_residuals.  A subspace of
E (x) H is never lifted: linalg._in_ampliation tests it block by block.

This module is the one place a level is built and budgeted.  Three walks
build each level one step from the one before: _map_levels (V_1, V_2,
...), _lower_levels (S^(1), S^(2), ...) and _svd_levels, the left
singular vectors u and singular values s of V_1, V_2, ..., each read off
the thin SVD of an m x dm core, so that no level is decomposed whole and
the walk holds nothing larger than the core; _level_rank is the rank rule
of a level.  (u, s) gives R(V_n), ker V_n* and V_n V_n* = u diag(s)^2 u*,
which is all the level tests read: structure.is_hyper_dagger decides
level n from level n - 1 on E (x) H.  _svd_levels can also start from a
given first level F, walking V_{n-1} (I (x) F) with the same core.  A
lowering iterate S^(n) is the adjoint of level n of the representation
whose matrix is S*, so the kernels and norms of S^(n) are read off
_svd_levels of that representation, and the biregularity levels read
only s of two walks of it.  Every loop over levels consumes a walk, and
iterate_map and iterate_lower are the n-th level of one.  _fits_budget is
the one budget rule, asked before a level (its d^n m columns, or rows of
S^(n)) or a shift's matrix is built.

The coefficient algebra is the scalars; optional labeled generator images
exist only so the covariance identity is an executable check.

A Representation is immutable, but it memoizes the small objects derived
from its matrix V.  One full SVD of V, made once and needing no policy,
gives them all: the 2-norm s[0], and, with the rank r decided once per
TolerancePolicy by the rank rule of linalg, the pseudoinverse, the reduced
minimum modulus s[r-1], ker V (the trailing right singular vectors),
ker V* (the trailing left ones), the first space R(V) of the range chain,
the factors of the growth pencil and the first level of _svd_levels.
The same SVD, permuted, is the SVD of the Moore-Penrose dual (V+)*:
wold.mp_cauchy_dual sets it through _with_svd, which with derived is the
only writer of the memo.  Iterates, lifts and the dual are never
memoized, since caching them would raise peak memory.  Concurrent first
use may build a value twice, with the same result, and a RankWarning
fires on the first build only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, InvalidParams, ParseError, ShapeError
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
    "iterate_map",
    "iterate_lower",
    "check_covariance",
    "save_representation",
    "load_representation",
    "canonical_json",
]

DEFAULT_SIZE_BUDGET = 20_000


def size_budget() -> int:
    """Column budget of a level; WOLDKIT_BUDGET overrides the default.
    Raises InvalidParams unless WOLDKIT_BUDGET is a positive integer."""
    raw = os.environ.get("WOLDKIT_BUDGET")
    if raw is None:
        return DEFAULT_SIZE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise InvalidParams(f"WOLDKIT_BUDGET must be a positive integer, got {raw!r}")
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


def _with_svd(rep: Representation, factors) -> Representation:
    """rep with its svd() memo set to factors (u, s, vh), a full SVD of
    rep.matrix that is known without decomposing it; returns rep."""
    rep._derived[(Representation.svd.__wrapped__, DEFAULT_POLICY)] = tuple(
        _frozen(f) for f in factors
    )
    return rep


def _lift(k: int, a: np.ndarray, d: int) -> np.ndarray:
    """kron(I_{d^k}, A) without validation or budget check; A itself if k = 0 or d = 1."""
    if k == 0 or d == 1:
        return a
    return np.kron(np.eye(d**k, dtype=np.complex128), a)


def _fits_budget(size: int) -> bool:
    """Whether a level (or a shift's matrix) of this many columns fits the
    size budget; for a lowering iterate the count is its rows."""
    return size <= size_budget()


def _require_budget(size: int, what: str) -> None:
    """Raise BudgetExceeded unless _fits_budget(size)."""
    if not _fits_budget(size):
        raise BudgetExceeded(f"{what}: {size} exceeds the size budget {size_budget()}")


def budget_horizon(rep: Representation) -> int:
    """Largest n <= 64 whose level V_n fits the size budget."""
    if rep.dim_e == 1:  # every level has dim_h columns
        return 64 if _fits_budget(rep.dim_h) else 0
    n = 0
    while n < 64 and _fits_budget(rep.dim_e ** (n + 1) * rep.dim_h):
        n += 1
    return n


def _map_levels(rep: Representation):
    """Yield V_1, V_2, ...: V_n = V (I_E (x) V_{n-1}) by one _times_ampliation
    step; the budget is checked before each level is built."""
    d, m = rep.dim_e, rep.dim_h
    vn = rep.matrix
    for n in itertools.count(1):
        _require_budget(d**n * m, f"columns of V_{n}")
        if n > 1:
            vn = _times_ampliation(rep.matrix, vn)
        yield vn


def _svd_levels(rep: Representation, first: np.ndarray | None = None):
    """Yield (u, s) with V_n V_n* = u diag(s)^2 u* for n = 1, 2, ...: u is
    m x m unitary and s the m singular values of V_n in descending order,
    so that V_n = u diag(s) w* for an isometry w that is never formed.

    Level 1 is read off rep.svd().  Since V_n = V (I_E (x) V_{n-1}) and
    V_{n-1} = u_{n-1} diag(s_{n-1}) w_{n-1}*, the m x dm core
    C = V (I_E (x) u_{n-1} diag(s_{n-1})) has C C* = V_n V_n*, so one thin
    SVD of C gives u and s of level n, and no array grows with the level.
    The budget is checked before each level, as for the level itself.

    Given an m x k matrix F in first, the walk is that of
    F_n = V_{n-1} (I (x) F) instead: level 1 is the thin SVD of F, and each
    later level the thin SVD of the same core, so s holds the min(m, width)
    singular values of the core or of F (structure._biregular_levels walks
    F = V (I_E (x) Q), where F_n = V_n (I (x) Q)).
    """
    d, m = rep.dim_e, rep.dim_h
    u, s, _ = rep.svd() if first is None else np.linalg.svd(first, full_matrices=False)
    s = s[:m]
    for n in itertools.count(1):
        _require_budget(d**n * m, f"columns of V_{n}")
        if n > 1:
            u, s, _ = np.linalg.svd(_times_ampliation(rep.matrix, u * s), full_matrices=False)
        yield u, s


def _level_rank(
    rep: Representation, n: int, s: np.ndarray, pol: TolerancePolicy, *, warn: bool = True
) -> int:
    """Rank of V_n from its singular values s: the rank rule of linalg on
    the m x d^n m iterate, with the cutoff anchored at ||V||^n, the scale
    of the round-off of a product of n factors V."""
    return _rank(s, (rep.dim_h, rep.dim_e**n * rep.dim_h), pol, warn=warn, scale=rep.norm() ** n)


def _lower_levels(s, d: int):
    """Yield S^(1), S^(2), ... of S: H -> E (x) H: S^(n) = (I (x) S) S^(n-1)
    is S times each of the d^(n-1) row blocks of S^(n-1), with no lift; the
    budget is checked before each level is built."""
    s = as_matrix(s)
    m = s.shape[1]
    out = s
    for n in itertools.count(1):
        _require_budget(d**n * m, f"rows of S^({n})")
        if n > 1:
            out = (s @ out.reshape(d ** (n - 1), m, m)).reshape(d**n * m, m)
        yield out


def iterate_map(rep: Representation, n: int) -> np.ndarray:
    """n-fold iterated map E^(x)n (x) H -> H, of shape m x (d^n * m).

    The n-th level of _map_levels; V_0 is the identity of H.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return np.eye(rep.dim_h, dtype=np.complex128)
    return next(itertools.islice(_map_levels(rep), n - 1, None))


def _times_ampliation(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a (I_D (x) x) with D = a.shape[1] / x.shape[0], without the lift.

    The product is [a_1 x | ... | a_D x], a_j the j-th column block of a of
    width x.shape[0]; the D products are written straight into their place
    in the output.  A zero-width x gives a zero-width product.
    """
    rows, (inner, width) = a.shape[0], x.shape
    blocks = a.shape[1] // inner
    out = np.empty((rows, blocks, width), dtype=np.result_type(a, x))
    np.matmul(a.reshape(rows, blocks, inner).transpose(1, 0, 2), x, out=out.transpose(1, 0, 2))
    return out.reshape(rows, blocks * width)


def iterate_lower(s, d: int, n: int) -> np.ndarray:
    """n-fold lowering iterate of a map S: H -> E (x) H.

    S^(n) = (I_{E^(x)n-1} (x) S) ... (I_E (x) S) S, of shape (d^n * m) x m:
    the n-th level of _lower_levels.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return next(itertools.islice(_lower_levels(s, d), n - 1, None))


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


def _is_pair(pair) -> bool:
    """An [re, im] list of two numbers; a bool is not a number."""
    return isinstance(pair, list) and len(pair) == 2 and all(
        isinstance(x, _JSON_NUMBERS) and not isinstance(x, bool) for x in pair
    )


def _is_positive_int(x) -> bool:
    """A JSON integer of at least 1; a bool is not an integer."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _decode_complex_list(entries, rows: int, cols: int, *, name: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ShapeError(f"{name} must hold {rows * cols} [re, im] pairs, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    for i, pair in enumerate(entries):
        # Plain JSON pairs pass on their exact types; the others take _is_pair.
        if not (
            type(pair) is list and len(pair) == 2
            and type(pair[0]) in _JSON_NUMBERS and type(pair[1]) in _JSON_NUMBERS
            or _is_pair(pair)
        ):
            raise ParseError(f"{name}[{i}] is not an [re, im] number pair")
    # One array conversion gives the bits of complex(float(re), float(im)).
    try:
        pairs = np.array(entries, dtype=np.float64)
    except OverflowError:
        pairs = None
    if pairs is None or not np.isfinite(pairs).all():
        for i, pair in enumerate(entries):  # name the first pair that is not finite
            try:
                finite = all(math.isfinite(float(x)) for x in pair)
            except OverflowError:
                raise ParseError(f"{name}[{i}] has an integer too large for a double") from None
            if not finite:
                raise ParseError(f"{name}[{i}] has a non-finite entry")
    return pairs.view(np.complex128).reshape(rows, cols)


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
    if not (_is_positive_int(dim_e) and _is_positive_int(dim_h)):
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
