"""Seeded property suites behind `woldkit verify` and the acceptance tests.

Each suite draws `count` deterministic instances, checks one family of
structural claims, and reports per-instance failures together with the
serialized instance so any failure can be reproduced offline.  Suites
never sample vector quantifiers: operator inequalities are decided by
eigenvalues, subspace claims by containment at tolerance.  A norm bound
||R||_2 <= rel * max(floor, ||A||_2) is decided by the Frobenius screen of
linalg._norm2_within, and only a bound that fails takes the exact 2-norm,
for its message.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import generate as gen
from .errors import PreconditionFailed
from .growth import (
    check_concave,
    check_expansive,
    concave_chain_check,
    gamma_power_bound_check,
    growth_forms_agree,
    minimal_growth_sequence,
    norm_partition_residual,
    telescoping_residuals,
)
from .linalg import (
    DEFAULT_POLICY,
    Subspace,
    TolerancePolicy,
    _coordinate_subspace,
    _norm2_within,
    pinv,
    reduced_min_modulus,
    spectral_norm,
    subspaces_equal,
)
from .model import Representation, _lower_levels, _map_levels, canonical_json, representation_to_dict
from .shifts import (
    UnilateralSpec,
    build_bilateral_shift,
    check_unilateral_weight_condition,
    shift_pipeline,
    shift_spec_to_dict,
)
from .structure import (
    algebraic_core,
    fixed_point_range_check,
    generalized_range,
    inverse_invariance_check,
    is_biregular,
    is_regular,
    kernel_intersection_identity,
    make_generalized_inverse,
)
from .wold import (
    check_purity_transfer,
    duality_check,
    kernel_span_check,
    wold_decompose,
)

__all__ = ["SuiteResult", "SUITES", "run_suite"]


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    passed: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, message: str = "", instance: dict | None = None) -> None:
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(
                {
                    "index": self.total - 1,
                    "message": message,
                    "instance": canonical_json(instance).strip() if instance else None,
                }
            )

    def skip(self) -> None:
        self.total += 1
        self.skipped += 1


def _penrose_residuals(a: np.ndarray, a_dag: np.ndarray) -> list[np.ndarray]:
    """The residual matrices of the four Moore-Penrose identities."""
    p = a @ a_dag
    q = a_dag @ a
    return [a @ a_dag @ a - a, a_dag @ a @ a_dag - a_dag, p - p.conj().T, q - q.conj().T]


def suite_penrose(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Pseudoinverse identities plus the modulus/norm reciprocity."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("penrose")
    for i in range(count):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 21))
        if i % 3 == 2 and min(rows, cols) > 1:
            r = int(rng.integers(1, min(rows, cols)))
            a = gen.rand_complex(rng, rows, r) @ gen.rand_complex(rng, r, cols)
        else:
            a = gen.rand_complex(rng, rows, cols)
        a_dag = pinv(a, pol)
        residuals = _penrose_residuals(a, a_dag)
        ok = all(_norm2_within(r, a, 1e-9, 1.0) for r in residuals)
        msg = ""
        if not ok:
            worst = max(spectral_norm(r) for r in residuals)
            msg = f"penrose residual {worst:.3e} > 1e-9*{max(1.0, spectral_norm(a)):.3e}"
        g = reduced_min_modulus(a, pol)
        if ok and math.isfinite(g):
            gap = abs(g * spectral_norm(a_dag) - 1.0)
            ok = gap <= 1e-8
            msg = f"gamma * |pinv| - 1 = {gap:.3e} > 1e-8"
        res.record(ok, msg)
    return res


def _mixed_rep(rng: np.random.Generator, d_max: int = 3, m_max: int = 4) -> Representation:
    d = int(rng.integers(1, d_max + 1))
    m = int(rng.integers(1, m_max + 1))
    if rng.uniform() < 0.3 and m > 1:
        return gen.rank_deficient_rep(rng, d, m, int(rng.integers(1, m)))
    return gen.generic_rep(rng, d, m)


def suite_kernel_lattice(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Lifted-kernel intersection identity and regularity-check consistency."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("kernel-lattice")
    for _ in range(count):
        rep = _mixed_rep(rng)
        doc = representation_to_dict(rep)
        ok, msg = True, ""
        for m, n in ((1, 1), (1, 2), (2, 1)):
            if not kernel_intersection_identity(rep, m, n, pol):
                ok, msg = False, f"kernel intersection identity failed at (m,n)=({m},{n})"
                break
        if ok:
            report = is_regular(rep, pol)
            if report.anomaly:
                ok, msg = False, "strict and per-depth regularity verdicts disagree"
        res.record(ok, msg, doc)
    return res


def suite_generalized_inverse(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Iterated generalized-inverse identities on regular instances.

    In finite dimensions strict regularity is surjectivity: with
    K = R_infinity-perp, ker V in E (x) R_infinity makes V injective on
    E (x) K with an image that meets R_infinity = V(E (x) R_infinity) only
    in 0, so d dim K + dim R_infinity <= dim H.  That forces K = 0 for
    d >= 2 and R(V) = H for d = 1; conversely R(V) = H makes the range
    chain constant at H.  So every instance kept here has V V+ = I (the
    factor V V+ of S changes none of them), and no strictly regular map
    that is neither surjective nor injective exists to draw.
    """
    rng = np.random.default_rng(seed)
    res = SuiteResult("generalized-inverse")
    for i in range(count):
        if i % 4 == 3:
            rep = gen.left_invertible_rep(rng, int(rng.integers(2, 4)))
        else:
            rep = gen.generic_rep(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        doc = representation_to_dict(rep)
        if not is_regular(rep, pol).strict:
            res.skip()
            continue
        ok, msg = True, ""
        maps = list(itertools.islice(_map_levels(rep), 3))  # V_1, V_2, V_3
        for _ in range(5):
            y = gen.rand_complex(rng, rep.ambient_domain, rep.dim_h)
            gi = make_generalized_inverse(rep, y, pol)
            s = gi.matrix
            r = s @ rep.matrix @ s - s
            if not _norm2_within(r, s, 1e-9, 1.0):
                ok, msg = False, f"S V S = S identity failed: {spectral_norm(r):.3e}"
                break
            levels = list(zip(range(1, 4), maps, _lower_levels(s, rep.dim_e)))
            for n, vn, sn in levels:
                r = vn @ sn @ vn - vn
                if not _norm2_within(r, vn, 1e-8):
                    ok, msg = False, (
                        f"V_n S^(n) V_n identity failed at n={n}: {spectral_norm(r):.3e}"
                    )
                    break
            if ok and is_biregular(rep, gi, 3, pol).holds:
                for n, vn, sn in levels:
                    r = sn @ vn @ sn - sn
                    if not _norm2_within(r, sn, 1e-8):
                        ok, msg = False, (
                            f"S^(n) V_n S^(n) identity failed at n={n}: {spectral_norm(r):.3e}"
                        )
                        break
            if not ok:
                break
        res.record(ok, msg, doc)
    return res


def suite_telescoping(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Norm partition and telescoping identities on injective expansive maps."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("telescoping")
    for _ in range(count):
        rep = gen.left_invertible_rep(rng, int(rng.integers(3, 7)))
        doc = representation_to_dict(rep)
        ok, msg = True, ""
        for n in range(1, 5):
            worst = norm_partition_residual(rep, n, pol)
            if worst > 1e-7:
                ok, msg = False, f"norm partition residual {worst:.3e} at n={n}"
                break
            r1, r2 = telescoping_residuals(rep, n, pol)
            if max(r1, r2) > 1e-8:
                ok, msg = False, f"telescoping residuals ({r1:.3e}, {r2:.3e}) at n={n}"
                break
        res.record(ok, msg, doc)
    return res


def _expected_block_spans(layout: list[tuple[str, int]]) -> tuple[Subspace, Subspace]:
    total = sum(dim for _, dim in layout)
    shift_cols, unitary_cols = [], []
    at = 0
    for kind, dim in layout:
        (shift_cols if kind == "shift" else unitary_cols).extend(range(at, at + dim))
        at += dim
    return _coordinate_subspace(total, shift_cols), _coordinate_subspace(total, unitary_cols)


def suite_wold(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Decomposition diagnostics and block recovery on constructed sums."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("wold")
    for i in range(count):
        rep, layout = gen.block_wold_rep(
            rng, n_shift=1 + i % 2, n_unitary=1 + (i // 2) % 2
        )
        doc = representation_to_dict(rep)
        try:
            result = wold_decompose(rep, horizon=3, pol=pol)
        except PreconditionFailed as exc:
            res.record(False, f"preconditions unexpectedly failed: {exc}", doc)
            continue
        checks = {
            "projector sum": result.proj_sum_residual <= 1e-8,
            "projector product": result.proj_product_residual <= 1e-8,
            "orthogonal": result.orthogonal,
            "spans H": result.spans_h,
            "reduces": result.reduces,
            "dagger equals adjoint": result.dagger_equals_adjoint,
            "unitary restriction": result.unitary_restriction,
            "biregular": result.biregular,
            "hyper dagger": result.hyper_dagger,
        }
        expected_shift, expected_unitary = _expected_block_spans(layout)
        checks["generated part recovers shift blocks"] = subspaces_equal(
            result.generated, expected_shift, pol
        )
        checks["stable part recovers unitary blocks"] = subspaces_equal(
            result.generalized_range, expected_unitary, pol
        )
        checks["duality"] = duality_check(rep, horizon=3, pol=pol)
        bad = [k for k, v in checks.items() if not v]
        res.record(not bad, f"failed: {', '.join(bad)}" if bad else "", doc)
    return res


def suite_concave(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Concave instances: expansivity and the isometric/co-isometric split."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("concave")
    for _ in range(count):
        rep = gen.concave_rep(rng, int(rng.integers(2, 6)))
        doc = representation_to_dict(rep)
        checks = {
            "concave": check_concave(rep, pol),
            "expansive": check_expansive(rep, pol),
            "chain inequality": all(concave_chain_check(rep, k, pol) for k in (1, 2, 3)),
        }
        try:
            result = wold_decompose(rep, horizon=4, pol=pol)
            checks["isometric restriction"] = result.isometric_restriction
            checks["fully coisometric restriction"] = result.fully_coisometric_restriction
            checks["orthogonal"] = result.orthogonal
            checks["spans H"] = result.spans_h
        except PreconditionFailed as exc:
            checks[f"decomposition ({exc})"] = False
        bad = [k for k, v in checks.items() if not v]
        res.record(not bad, f"failed: {', '.join(bad)}" if bad else "", doc)
    return res


def suite_growth_forms(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Defect-form and restricted-form growth verdicts agree; power bound holds."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("growth-forms")
    for i in range(count):
        if i % 2:
            rep = gen.expansive_rep(rng, int(rng.integers(2, 5)))
        else:
            rep = gen.coisometry_rep(rng, int(rng.integers(1, 3)), int(rng.integers(2, 4)))
        doc = representation_to_dict(rep)
        ok, msg = True, ""
        for k in (1, 2, 3):
            d_k = float(rng.uniform(0.0, 6.0))
            d_const = float(rng.choice([1.0, 1.0, 2.0]))
            full, restricted = growth_forms_agree(rep, k, d_k, d_const, pol)
            if full != restricted:
                ok, msg = False, f"verdicts split at k={k}, d_k={d_k:.3f}, d={d_const}"
                break
        if ok and not gamma_power_bound_check(rep, 4, pol):
            ok, msg = False, "modulus power bound failed"
        res.record(ok, msg, doc)
    return res


def suite_range_structure(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Core/range agreement, fixed-point description, inverse invariance,
    and kernel-span containments."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("range-structure")
    for i in range(count):
        if i % 3 == 2:
            rep = gen.truncated_shift_rep(int(rng.integers(3, 6)))
        else:
            rep = _mixed_rep(rng, d_max=2, m_max=4)
        doc = representation_to_dict(rep)
        ok, msg = True, ""
        core = algebraic_core(rep, pol)
        rinf = generalized_range(rep, pol)
        if not subspaces_equal(core, rinf, pol):
            ok, msg = False, "algebraic core differs from generalized range"
        if ok:
            first, second = kernel_span_check(rep, 2, pol)
            if not first or second is False:
                ok, msg = False, f"kernel span containment failed ({first}, {second})"
        if ok and is_regular(rep, pol).strict:
            gi = make_generalized_inverse(
                rep, gen.rand_complex(rng, rep.ambient_domain, rep.dim_h), pol
            )
            if not fixed_point_range_check(rep, gi, 4, pol):
                ok, msg = False, "fixed-point description of the stable range failed"
            elif not inverse_invariance_check(rep, gi, pol):
                ok, msg = False, "generalized inverse does not preserve the stable range"
        res.record(ok, msg, doc)
    return res


def suite_intertwiner_purity(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Purity transfers between an intertwiner and its wandering compression.

    Fails on any decided disagreement or when fewer than 80% of the pairs
    decide both verdicts.
    """
    rng = np.random.default_rng(seed)
    res = SuiteResult("intertwiner-purity")
    decided = 0
    for _ in range(count):
        rep, a = gen.shift_polynomial_pair(rng)
        doc = representation_to_dict(rep)
        try:
            report = check_purity_transfer(rep, a, pol=pol)
        except PreconditionFailed as exc:
            res.record(False, f"preconditions failed: {exc}", doc)
            continue
        if report.decided:
            decided += 1
        res.record(
            not report.violation,
            f"decided disagreement: full={report.verdict_full}, "
            f"compressed={report.verdict_compressed}",
            doc,
        )
    if count and decided / count < 0.8:
        res.failures.append(
            {
                "index": -1,
                "message": f"only {decided}/{count} pairs decided (< 80%)",
                "instance": None,
            }
        )
    return res


def suite_shift_growth(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Scalar closed forms for minimal growth weights.

    A doubling one-dimensional map needs weight (4^m - 1)/3 at level m; a
    constant scalar weight c per level needs (c^(2k) - 1)/(c^2 - 1), and so
    does c times a coisometry (V V* = I), checked at d = 2, 3 for c = 1.1, 2.
    """
    rng = np.random.default_rng(seed)
    res = SuiteResult("shift-growth")

    rep = Representation(1, 1, np.array([[2.0]], dtype=np.complex128))
    seq = minimal_growth_sequence(rep, 3, pol)
    expected = [(4.0**m - 1.0) / 3.0 for m in (1, 2, 3)]
    gaps = [abs(a - b) for a, b in zip(seq, expected)]
    res.record(max(gaps) <= 1e-9, f"doubling-map minimal weights off by {max(gaps):.3e}",
               representation_to_dict(rep))

    cs = [1.1, 2.0] + [float(rng.uniform(1.05, 2.0)) for _ in range(max(0, count - 2))]
    for i, c in enumerate(cs):
        spec = UnilateralSpec(
            d=1, L=6, p=1, Z=tuple(np.array([[c]], dtype=np.complex128) for _ in range(6))
        )
        report = check_unilateral_weight_condition(spec, None, k_max=4, n_max=2, pol=pol)
        want = [(c ** (2 * k) - 1.0) / (c**2 - 1.0) for k in range(1, 5)]
        worst = max(abs(report.minimal_per_k[k] - w) for k, w in enumerate(want, start=1))
        ok, doc = worst <= 1e-9, shift_spec_to_dict(spec)
        msg = f"constant-weight c={c:.4f} minimal d off by {worst:.3e}"
        # The fixed records also check c times a coisometry at d = 2, 3, drawn after cs.
        for d in (2, 3) if i < 2 else ():
            rep = Representation(d, 3, c * gen.coisometry_rep(rng, d, 3).matrix)
            seq = minimal_growth_sequence(rep, 4, pol)
            if ok and not all(abs(a - w) <= 1e-9 * max(1.0, w) for a, w in zip(seq, want)):
                ok, doc = False, representation_to_dict(rep)
                msg = f"scaled coisometry d={d} c={c:.4f} minimal weights {seq}"
        res.record(ok, msg, doc)
    return res


def suite_bilateral_structure(count: int, seed: int, pol: TolerancePolicy) -> SuiteResult:
    """Windowed bilateral shifts: kernel layout, boundary regularity,
    orthogonal component ranges, and a completed pipeline."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("bilateral-structure")
    specs = [gen.bilateral_spec(rng, n=1, M=3), gen.bilateral_spec(rng, n=2, M=3)]
    for _ in range(max(0, count - 2)):
        specs.append(
            gen.bilateral_spec(rng, n=int(rng.integers(1, 3)), M=3, w_hi=float(rng.uniform(1.0, 2.0)))
        )
    for spec in specs:
        doc = shift_spec_to_dict(spec)
        rep, _ = build_bilateral_shift(spec)
        dim_h = rep.dim_h
        checks = {}
        zero_cols = {
            (i, m)
            for i in range(1, spec.n + 1)
            for m in range(-spec.M, spec.M + 1)
            if abs(i + spec.n * m) <= spec.M
            and not rep.matrix[:, (i - 1) * dim_h + (m + spec.M)].any()
        }
        checks["in-window kernel is exactly the zero-weight columns"] = zero_cols == {
            (i, 0) for i in range(1, spec.n + 1)
        }
        report = shift_pipeline(spec, pol)
        checks["boundary regularity"] = report.regular_boundary
        checks["component ranges orthogonal"] = report.assertions[
            "component_ranges_orthogonal"
        ]
        checks["pipeline assertions"] = report.assertions_hold
        checks["boundary labels present"] = any(
            "[boundary]" in key for key in report.assertions
        ) and report.as_dict()["regularity"]["label"] == "boundary"
        bad = [k for k, v in checks.items() if not v]
        res.record(not bad, f"failed: {', '.join(bad)}" if bad else "", doc)
    return res


SUITES = {
    "penrose": suite_penrose,
    "kernel-lattice": suite_kernel_lattice,
    "generalized-inverse": suite_generalized_inverse,
    "telescoping": suite_telescoping,
    "wold": suite_wold,
    "concave": suite_concave,
    "growth-forms": suite_growth_forms,
    "range-structure": suite_range_structure,
    "intertwiner-purity": suite_intertwiner_purity,
    "shift-growth": suite_shift_growth,
    "bilateral-structure": suite_bilateral_structure,
}


def run_suite(
    name: str, count: int = 25, seed: int = 1, pol: TolerancePolicy = DEFAULT_POLICY
) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}")
    return SUITES[name](count, seed, pol)
