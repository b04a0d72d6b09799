"""Weighted unilateral and bilateral shifts on finite truncations.

The unilateral shift lives on a truncated graded sum of tensor powers
(levels 0..L, each tensored with an auxiliary factor of dimension p); the
weight at level k is an arbitrary d^k x d^k matrix.  The bilateral shift
acts on a symmetric index window |m| <= M by e_m -> w_{i,m} e_{i+n*m}.

Hard truncation: the top level and out-of-window targets map to zero.
That necessarily breaks injectivity at the edge, so pipeline verdicts are
evaluated away from the boundary (depths <= L for the graded shift,
<= M for the window) and labeled "boundary" in reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditionIViolated,
    NotInvertible,
    ParseError,
    ShapeError,
)
from .growth import GrowthReport, _Level, _pencil, gamma
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _coordinate_subspace,
    _frozen,
    _rank,
    as_matrix,
)
from .model import (
    Representation,
    _decode_complex_list,
    _encode_complex_list,
    _fits_budget,
    _is_positive_int,
    _require_budget,
    _times_ampliation,
    canonical_json,
    parse_json_file,
)
from .structure import _in_lifted_ranges
from .wold import WoldResult, _growth_report, _regularity_report, _wold_result, horizon_plan

__all__ = [
    "UnilateralSpec",
    "BilateralSpec",
    "build_unilateral_shift",
    "z_product",
    "UnilateralConditionReport",
    "check_unilateral_weight_condition",
    "build_bilateral_shift",
    "BilateralConditionReport",
    "check_bilateral_weight_condition",
    "ShiftPipelineReport",
    "shift_pipeline",
    "shift_spec_to_dict",
    "shift_spec_from_dict",
    "save_shift_spec",
    "load_shift_spec",
]


@dataclass(frozen=True)
class UnilateralSpec:
    """Truncated graded shift data: weights Z_1..Z_L, level k has dim d^k * p."""

    d: int
    L: int
    p: int
    Z: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.d < 1 or self.L < 1 or self.p < 1:
            raise ShapeError("d, L and p must all be at least 1")
        mats = []
        for k, z in enumerate(self.Z, start=1):
            z = as_matrix(z, name=f"Z_{k}")
            want = self.d**k
            if z.shape != (want, want):
                raise ShapeError(f"Z_{k} must be {want}x{want}, got {z.shape}")
            mats.append(_frozen(z))
        if len(mats) != self.L:
            raise ShapeError(f"need exactly L={self.L} weight matrices, got {len(mats)}")
        object.__setattr__(self, "Z", tuple(mats))


@dataclass(frozen=True)
class BilateralSpec:
    """Windowed bilateral shift data: weights w[i, m] for 1<=i<=n, |m|<=M."""

    n: int
    M: int
    w: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1 or self.M < 1:
            raise ShapeError("n and M must be at least 1")
        w = as_matrix(self.w, name="weight table")
        if w.shape != (self.n, 2 * self.M + 1):
            raise ShapeError(f"weight table must be {self.n}x{2 * self.M + 1}, got {w.shape}")
        object.__setattr__(self, "w", _frozen(w))

    def weight(self, i: int, m: int) -> complex:
        return complex(self.w[i - 1, m + self.M])


def build_unilateral_shift(spec: UnilateralSpec) -> tuple[Representation, dict]:
    """Assemble the truncated shift matrix; level L maps to zero.

    Returns the representation together with deterministic block layout
    info (level offsets and dimensions).
    """
    d, p, L = spec.d, spec.p, spec.L
    dims = [d**k * p for k in range(L + 1)]
    offsets = [sum(dims[:k]) for k in range(L + 1)]
    total = sum(dims)
    _require_budget(d * total, "columns of the unilateral shift")
    v = np.zeros((total, d * total), dtype=np.complex128)
    eye_p = np.eye(p, dtype=np.complex128)
    for k in range(L):
        block = np.kron(spec.Z[k], eye_p)  # maps E (x) level k -> level k+1
        for a in range(d):
            cols = slice(a * total + offsets[k], a * total + offsets[k] + dims[k])
            rows = slice(offsets[k + 1], offsets[k + 1] + dims[k + 1])
            v[rows, cols] = block[:, a * dims[k] : (a + 1) * dims[k]]
    info = {"levels": L + 1, "level_dims": dims, "level_offsets": offsets}
    return Representation(d, total, v), info


def z_product(spec: UnilateralSpec, n: int) -> np.ndarray:
    """Ordered weight product Z_n (I (x) Z_{n-1}) ... (I^(n-1) (x) Z_1)."""
    if n < 0 or n > spec.L:
        raise ShapeError(f"product depth must lie in 0..L={spec.L}")
    if n == 0:
        return np.eye(1, dtype=np.complex128)
    out = np.array(spec.Z[n - 1])
    for j in range(1, n):
        out = _times_ampliation(out, spec.Z[n - j - 1])
    return out


@dataclass(frozen=True)
class UnilateralConditionReport:
    k_max: int
    n_max: int
    gamma_by_level: dict[int, float]
    gamma_hypothesis_ok: bool
    pairs: dict[tuple[int, int], dict]
    minimal_per_k: dict[int, float]
    skipped_pairs: list[tuple[int, int]]
    supplied_d: list[float] | None

    @property
    def holds(self) -> bool:
        if self.supplied_d is None:
            return all(math.isfinite(v) for v in self.minimal_per_k.values())
        return all(p.get("holds", True) for p in self.pairs.values())

    def as_dict(self) -> dict:
        return {
            "k_max": self.k_max,
            "n_max": self.n_max,
            "gamma_by_level": self.gamma_by_level,
            "gamma_hypothesis_ok": self.gamma_hypothesis_ok,
            "pairs": {
                f"{k},{n}": dict(v) for (k, n), v in sorted(self.pairs.items())
            },
            "minimal_per_k": {
                str(k): (None if math.isinf(v) else v) for k, v in self.minimal_per_k.items()
            },
            "skipped_pairs": [list(p) for p in self.skipped_pairs],
            "holds": self.holds,
        }


def check_unilateral_weight_condition(
    spec: UnilateralSpec,
    d_seq: list[float] | None,
    k_max: int,
    n_max: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> UnilateralConditionReport:
    """Operator inequality on weight products, per pair (k, n).

    With Z^(m) = z_product(spec, m), the weight product of the pair is
    Y = Z^(k+n) (I (x) Z^(n))^{-1}, and the checked inequality is
    Y*Y - I <= d_k (I^(k-1) (x) (Y_1*Y_1) - I), Y_1 the k = 1 product.

    Y needs no inverse: Z^(k+n) = Y_{k,n} (I_{d^k} (x) Z^(n)) with
    Y_{k,n} = Z_{n+k} (I (x) Z_{n+k-1}) ... (I^(k-1) (x) Z_{n+1}), so
    Y = Y_{k,n} and Y_1 = Z_{n+1}.  With Z_{n+1} = U diag(s) W*, the
    inequality is the growth pencil (see growth) in the basis I (x) W,
    with A = I (x) diag(s^2), P = I and the Gram matrix Y*Y, which is
    Y~*Y~ in that basis for Y~ = Y (I (x) W).  Y~ is built one blockwise
    step per k:
    Y~_{1,n} = U diag(s) and Y~_{k,n} = Z_{n+k} (I (x) Y~_{k-1,n}).

    All weights must still be invertible; the per-level modulus hypothesis
    gamma(Z_k) >= 1 is recorded, not enforced.  Pairs with k + n beyond
    the truncation or d^(k+n) beyond the size budget are skipped and
    reported as coverage.
    """
    d = spec.d
    gammas: dict[int, float] = {}
    factors: list[tuple[np.ndarray, np.ndarray]] = []  # (U diag(s), s^2) per weight
    for k, z in enumerate(spec.Z, start=1):
        u, s, _ = np.linalg.svd(z)
        if _rank(s, z.shape, pol, warn=False) < s.size:
            raise NotInvertible(f"weight Z_{k} is not invertible")
        gammas[k] = float(s[-1])
        factors.append((u * s, s * s))
    gamma_ok = all(g >= 1.0 - 1e-10 for g in gammas.values())

    pairs: dict[tuple[int, int], dict] = {}
    skipped: list[tuple[int, int]] = []
    minimal_per_k: dict[int, float] = {}
    y: dict[int, np.ndarray] = {}  # Y~_{k,n} per n, one step deeper per k
    for k in range(1, k_max + 1):
        d_k = d_seq[k - 1] if d_seq is not None and k <= len(d_seq) else None
        worst = 0.0
        seen = False
        for n in range(0, n_max + 1):
            if k + n > spec.L or not _fits_budget(d ** (k + n)):
                skipped.append((k, n))
                continue
            us, s2 = factors[n]
            y[n] = us if k == 1 else _times_ampliation(spec.Z[n + k - 1], y[n])
            level = _Level(np.tile(s2, d ** (k - 1)), np.ones(d ** (k + n)), y[n].conj().T)
            minimal, margin = _pencil(level, d_k, pol)
            entry: dict = {"minimal_d": None if math.isinf(minimal) else minimal}
            if margin is not None:
                entry["residual"], entry["holds"] = margin
            pairs[(k, n)] = entry
            worst = max(worst, minimal)
            seen = True
        if seen:
            minimal_per_k[k] = worst
    return UnilateralConditionReport(
        k_max=k_max,
        n_max=n_max,
        gamma_by_level=gammas,
        gamma_hypothesis_ok=gamma_ok,
        pairs=pairs,
        minimal_per_k=minimal_per_k,
        skipped_pairs=skipped,
        supplied_d=list(d_seq) if d_seq is not None else None,
    )


def build_bilateral_shift(spec: BilateralSpec) -> tuple[Representation, dict]:
    """Assemble the windowed bilateral shift; out-of-window targets give zero columns.

    Returns the representation and a build report with the index map
    g(i, m) = i + n*m and its in-window domain.
    """
    n, M = spec.n, spec.M
    dim_h = 2 * M + 1
    _require_budget(n * dim_h, "columns of the bilateral shift")
    v = np.zeros((dim_h, n * dim_h), dtype=np.complex128)
    index_map: dict[str, int | None] = {}
    for i in range(1, n + 1):
        for m in range(-M, M + 1):
            target = i + n * m
            col = (i - 1) * dim_h + (m + M)
            if abs(target) <= M:
                v[target + M, col] = spec.weight(i, m)
                index_map[f"{i},{m}"] = target
            else:
                index_map[f"{i},{m}"] = None
    info = {
        "dim_H": dim_h,
        "index_map": index_map,
        "in_window_columns": sum(1 for t in index_map.values() if t is not None),
    }
    return Representation(n, dim_h, v), info


def _validate_condition_i(spec: BilateralSpec, tol: float = 1e-12) -> None:
    for i in range(1, spec.n + 1):
        for m in range(-spec.M, spec.M + 1):
            w = spec.weight(i, m)
            if abs(w.imag) > tol:
                raise ConditionIViolated(f"weight ({i},{m}) is not real")
            if m < 0 and abs(w - 1.0) > tol:
                raise ConditionIViolated(f"weight ({i},{m}) must equal 1 for negative index")
            if m == 0 and abs(w) > tol:
                raise ConditionIViolated(f"weight ({i},0) must vanish")
            if m > 0 and w.real < 1.0 - tol:
                raise ConditionIViolated(f"weight ({i},{m}) must be at least 1")


@dataclass(frozen=True)
class BilateralConditionReport:
    k_max: int
    per_k: dict[int, dict]
    supplied_d: list[float] | None

    @property
    def holds(self) -> bool:
        if self.supplied_d is None:
            return not any(e["infeasible"] for e in self.per_k.values())
        return not any(e["violations"] for e in self.per_k.values())

    def as_dict(self) -> dict:
        per_k = {}
        for k, v in sorted(self.per_k.items()):
            entry = dict(v)
            if math.isinf(entry["minimal_d"]):
                entry["minimal_d"] = None
            per_k[str(k)] = entry
        return {"k_max": self.k_max, "per_k": per_k, "holds": self.holds}


def check_bilateral_weight_condition(
    spec: BilateralSpec,
    d_seq: list[float] | None,
    k_max: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> BilateralConditionReport:
    """Scalar weight-product inequality per index tuple, exhaustively.

    Condition (i) on the table is validated first.  For each tuple
    (i_1..i_k, m) whose intermediate indices stay inside the window, the
    checked inequality is

        w_{i_k,m}^2 * prod_q w^2  -  1  <=  d_k (w_{i_k,m}^2 - 1)

    with the product following the index chain m -> i + n*m.  Tuples with
    out-of-window intermediates are skipped and counted as coverage.
    """
    _validate_condition_i(spec)
    n, M = spec.n, spec.M
    per_k: dict[int, dict] = {}
    for k in range(1, k_max + 1):
        minimal = 0.0
        infeasible = False
        evaluated = 0
        skipped = 0
        violations: list[dict] = []
        for tup in itertools.product(range(1, n + 1), repeat=k):
            for m in range(-M, M + 1):
                if m == 0:
                    continue
                cur = m
                product_sq = 1.0
                in_window = True
                for q in range(k):
                    if abs(cur) > M:
                        in_window = False
                        break
                    product_sq *= abs(spec.weight(tup[k - 1 - q], cur)) ** 2
                    cur = tup[k - 1 - q] + n * cur
                if not in_window:
                    skipped += 1
                    continue
                evaluated += 1
                anchor_sq = abs(spec.weight(tup[k - 1], m)) ** 2
                lhs = anchor_sq * product_sq - 1.0
                coeff = anchor_sq - 1.0
                if coeff > 1e-12:
                    minimal = max(minimal, lhs / coeff)
                elif lhs > 1e-12:
                    infeasible = True
                if d_seq is not None and k <= len(d_seq):
                    if lhs > d_seq[k - 1] * coeff + 1e-9:
                        violations.append({"indices": list(tup), "m": m, "lhs": lhs, "coeff": coeff})
        per_k[k] = {
            "minimal_d": math.inf if infeasible else minimal,
            "infeasible": infeasible,
            "evaluated": evaluated,
            "skipped": skipped,
            "violations": violations,
        }
    return BilateralConditionReport(
        k_max=k_max,
        per_k=per_k,
        supplied_d=list(d_seq) if d_seq is not None else None,
    )


@dataclass(frozen=True)
class ShiftPipelineReport:
    kind: str
    build_info: dict
    gamma: float
    regular_strict: bool
    regular_boundary: bool
    boundary_horizon: int
    growth: GrowthReport
    weight_report: UnilateralConditionReport | BilateralConditionReport | None
    weight_error: str | None
    wold: WoldResult
    assertions: dict[str, bool]
    notes: list[str] = field(default_factory=list)

    @property
    def assertions_hold(self) -> bool:
        return all(self.assertions.values())

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "build": self.build_info,
            "gamma": None if math.isinf(self.gamma) else self.gamma,
            "regularity": {
                "strict": self.regular_strict,
                "boundary_aware": self.regular_boundary,
                "label": "boundary",
                "horizon": self.boundary_horizon,
            },
            "growth": self.growth.as_dict(),
            "weight_condition": None if self.weight_report is None else self.weight_report.as_dict(),
            "weight_condition_error": self.weight_error,
            "wold": self.wold.as_dict(),
            "assertions": dict(self.assertions),
            "notes": list(self.notes),
        }


def _block_ranges_orthogonal(rep: Representation) -> bool:
    """The column blocks V (e_i (x) .) have pairwise orthogonal ranges.

    A bilateral shift is monomial, so each block's range is spanned by the
    coordinates of its nonzero rows, and two ranges are orthogonal iff no
    row of V has nonzeros in both blocks.
    """
    m = rep.dim_h
    rows_hit = rep.matrix.reshape(m, rep.dim_e, m).any(axis=2)  # row x block
    return bool(np.all(rows_hit.sum(axis=1) <= 1))


def _structural_kernel_regular(
    spec: BilateralSpec, rep: Representation, horizon: int, pol: TolerancePolicy
) -> bool:
    """Structural kernel inside E (x) R(V_m) for every m up to the horizon.

    The structural kernel is spanned by the in-window columns killed by a
    zero weight, as opposed to columns zeroed only because their target
    falls outside the window.
    """
    dim_h = rep.dim_h
    structural_cols = []
    for i in range(1, spec.n + 1):
        for m in range(-spec.M, spec.M + 1):
            if abs(i + spec.n * m) <= spec.M and abs(spec.weight(i, m)) <= pol.tau_rank:
                structural_cols.append((i - 1) * dim_h + (m + spec.M))
    structural_kernel = _coordinate_subspace(rep.ambient_domain, structural_cols)
    return all(_in_lifted_ranges(rep, structural_kernel, horizon, pol))


def shift_pipeline(
    spec: UnilateralSpec | BilateralSpec,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> ShiftPipelineReport:
    """Build the shift, run regularity/modulus/growth analysis and the
    decomposition diagnostics, and evaluate the structural assertions away
    from the truncation boundary.  Boundary-affected verdicts are labeled.
    """
    weight_report: UnilateralConditionReport | BilateralConditionReport | None
    weight_error = None
    if isinstance(spec, UnilateralSpec):
        rep, info = build_unilateral_shift(spec)
        horizon = spec.L
        try:
            weight_report = check_unilateral_weight_condition(
                spec, None, k_max=min(3, spec.L), n_max=min(2, spec.L - 1), pol=pol
            )
        except NotInvertible as exc:
            weight_report, weight_error = None, str(exc)
    elif isinstance(spec, BilateralSpec):
        rep, info = build_bilateral_shift(spec)
        horizon = spec.M
        try:
            weight_report = check_bilateral_weight_condition(
                spec, None, k_max=min(3, spec.M), pol=pol
            )
        except ConditionIViolated as exc:
            weight_report, weight_error = None, str(exc)
    else:
        raise TypeError(f"unsupported spec type {type(spec).__name__}")

    plan = horizon_plan(rep, pol, horizon, "shift")
    reg = _regularity_report(rep, pol, plan.regularity)
    growth = _growth_report(rep, pol, plan.growth, None)
    wold = _wold_result(rep, pol, plan, growth.all_feasible)
    weight_holds = weight_report is not None and weight_report.holds

    if isinstance(spec, UnilateralSpec):
        kind = "unilateral"
        regular_boundary = reg.holds_at_horizon
        assertions: dict[str, bool] = {}
        if weight_holds:
            assertions["analytic_below_truncation [boundary]"] = (
                wold.generalized_range.dim == 0
            )
            assertions["wandering_space_generates [boundary]"] = (
                wold.generated.dim == rep.dim_h
            )
        note = "verdicts evaluated on depths within the truncation; the top level maps to zero"
    else:
        kind = "bilateral"
        regular_boundary = _structural_kernel_regular(spec, rep, plan.regularity, pol)
        assertions = {
            "structural_kernel_in_lifted_stable_ranges [boundary]": regular_boundary,
            "component_ranges_orthogonal": _block_ranges_orthogonal(rep),
        }
        if weight_holds:
            assertions["stable_range_reduces [boundary]"] = wold.reduces
            assertions["unitary_restriction [boundary]"] = wold.unitary_restriction
        note = (
            "kernel columns split into weight-zero (structural) and out-of-window "
            "(boundary) parts"
        )
    return ShiftPipelineReport(
        kind=kind,
        build_info=info,
        gamma=gamma(rep, pol),
        regular_strict=reg.strict,
        regular_boundary=regular_boundary,
        boundary_horizon=plan.regularity,
        growth=growth,
        weight_report=weight_report,
        weight_error=weight_error,
        wold=wold,
        assertions=assertions,
        notes=[note],
    )


# ---------------------------------------------------------------------------
# Spec files: {"kind": "unilateral", ...} / {"kind": "bilateral", ...}
# ---------------------------------------------------------------------------


def shift_spec_to_dict(spec: UnilateralSpec | BilateralSpec) -> dict:
    if isinstance(spec, UnilateralSpec):
        return {
            "kind": "unilateral",
            "d": spec.d,
            "L": spec.L,
            "p": spec.p,
            "Z": [_encode_complex_list(z) for z in spec.Z],
        }
    if isinstance(spec, BilateralSpec):
        return {
            "kind": "bilateral",
            "n": spec.n,
            "M": spec.M,
            "w": [_encode_complex_list(spec.w[i : i + 1, :]) for i in range(spec.n)],
        }
    raise TypeError(f"unsupported spec type {type(spec).__name__}")


def shift_spec_from_dict(data: dict, *, source: str = "<memory>") -> UnilateralSpec | BilateralSpec:
    kind = data.get("kind")
    if kind == "unilateral":
        for key in ("d", "L", "p", "Z"):
            if key not in data:
                raise ParseError(f"{source}: missing field {key!r}")
        d, big_l, p = data["d"], data["L"], data["p"]
        if not all(_is_positive_int(x) for x in (d, big_l, p)):
            raise ShapeError(f"{source}: d, L, p must be positive integers")
        z_raw = data["Z"]
        if not isinstance(z_raw, list) or len(z_raw) != big_l:
            raise ShapeError(f"{source}: Z must list exactly L={big_l} matrices")
        mats = [_decode_complex_list(entries, d**k, d**k, name=f"Z_{k}")
                for k, entries in enumerate(z_raw, start=1)]
        return UnilateralSpec(d=d, L=big_l, p=p, Z=tuple(mats))
    if kind == "bilateral":
        for key in ("n", "M", "w"):
            if key not in data:
                raise ParseError(f"{source}: missing field {key!r}")
        n, big_m = data["n"], data["M"]
        if not all(_is_positive_int(x) for x in (n, big_m)):
            raise ShapeError(f"{source}: n and M must be positive integers")
        w_raw = data["w"]
        if not isinstance(w_raw, list) or len(w_raw) != n:
            raise ShapeError(f"{source}: w must list one weight row per index")
        rows = [_decode_complex_list(row, 1, 2 * big_m + 1, name=f"w[{i}]")
                for i, row in enumerate(w_raw)]
        return BilateralSpec(n=n, M=big_m, w=np.vstack(rows))
    raise ParseError(f"{source}: unknown or missing shift kind {kind!r}")


def save_shift_spec(spec: UnilateralSpec | BilateralSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(shift_spec_to_dict(spec)))


def load_shift_spec(path) -> UnilateralSpec | BilateralSpec:
    return shift_spec_from_dict(parse_json_file(path), source=str(path))
