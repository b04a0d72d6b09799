import math

import numpy as np
import pytest

from woldkit.errors import NotPSD, NotRegular
from woldkit.generate import (
    coisometry_rep,
    concave_rep,
    expansive_rep,
    generic_rep,
    left_invertible_rep,
    weighted_truncated_shift,
)
from woldkit.growth import (
    _growth_operators,
    _level_operators,
    check_concave,
    check_expansive,
    check_growth,
    concave_chain_check,
    defect_operator,
    gamma,
    gamma_at_least_one,
    gamma_power_bound_check,
    growth_forms_agree,
    minimal_growth_sequence,
    minimal_scale_factor,
    norm_partition_residual,
    telescoping_residuals,
)
from woldkit.linalg import DEFAULT_POLICY, complement
from woldkit.model import Representation, iterate_map
from woldkit.structure import iterated_pinv


def scalar_rep(value: float) -> Representation:
    return Representation(1, 1, np.array([[value]], dtype=complex))


def norm_partition_oracle(rep: Representation, n: int) -> float:
    """norm_partition_residual one basis vector at a time, with explicit lifts."""
    d, m = rep.dim_e, rep.dim_h
    p_w = np.eye(m) - rep.matrix @ rep.pseudo_inverse()
    defect = defect_operator(rep).matrix
    worst = 0.0
    for j in range(m):
        h = np.zeros(m, dtype=np.complex128)
        h[j] = 1.0
        total = 0.0
        for i in range(0, n):
            vdi_h = h if i == 0 else iterated_pinv(rep, i) @ h
            total += float(np.linalg.norm(np.kron(np.eye(d**i), p_w) @ vdi_h) ** 2)
        total += float(np.linalg.norm(iterated_pinv(rep, n) @ h) ** 2)
        for i in range(1, n + 1):
            vdi_h = iterated_pinv(rep, i) @ h
            total += float(np.linalg.norm(np.kron(np.eye(d ** (i - 1)), defect) @ vdi_h) ** 2)
        worst = max(worst, abs(total - 1.0))
    return worst


def dense_psd(op) -> bool:
    """The PSD rule with its tolerance scale taken from a full SVD."""
    h = (op + op.conj().T) / 2.0
    tol = DEFAULT_POLICY.tau_psd * max(1.0, np.linalg.norm(h, 2))
    return bool(np.linalg.eigvalsh(h)[0] >= -tol)


def dense_lifted_gram(rep: Representation, k: int) -> np.ndarray:
    """(I (x) V)*(I (x) V) at level k, with the lift of V formed explicitly."""
    a = np.kron(np.eye(rep.dim_e ** (k - 1)), rep.matrix)
    return a.conj().T @ a


def concave_chain_oracle(rep: Representation, k: int) -> bool:
    vk = iterate_map(rep, k)
    a = dense_lifted_gram(rep, k)
    eye = np.eye(a.shape[0])
    return dense_psd(eye + k * (a - eye) - vk.conj().T @ vk)


def growth_forms_oracle(rep: Representation, k: int, d_k: float, d_const: float):
    """Both forms of growth_forms_agree, with dense lifts and SVD-scaled rules."""
    d, v = rep.dim_e, rep.matrix
    vd = rep.pseudo_inverse()
    lift = np.eye(d ** (k - 1))
    vk = iterate_map(rep, k)
    full = (
        d_k * np.kron(lift, v.conj().T @ v - vd @ v)
        + d_const * np.kron(lift, vd @ v)
        - vk.conj().T @ vk
    )
    basis = np.kron(lift, complement(rep.kernel()).basis)  # E^(x)(k-1) (x) N(V)^perp
    a = dense_lifted_gram(rep, k)
    eye = np.eye(a.shape[0])
    inner = d_k * (a - eye) + d_const * eye - vk.conj().T @ vk
    return dense_psd(full), dense_psd(basis.conj().T @ inner @ basis)


def minimal_scale_factor_oracle(q, g) -> float:
    """minimal_scale_factor with both tolerance scales from full SVDs."""
    tau = DEFAULT_POLICY.tau_psd
    q = (q + q.conj().T) / 2.0
    g = (g + g.conj().T) / 2.0
    w, u = np.linalg.eigh(g)
    keep = w > tau * max(1.0, np.linalg.norm(g, 2))
    kernel = u[:, ~keep]
    if kernel.shape[1]:
        q_kernel = kernel.conj().T @ q @ kernel
        q_kernel = (q_kernel + q_kernel.conj().T) / 2.0
        if np.linalg.eigvalsh(q_kernel)[-1] > tau * max(1.0, np.linalg.norm(q, 2)):
            return math.inf
    if not np.any(keep):
        return 0.0
    r = u[:, keep] / np.sqrt(w[keep])
    t = r.conj().T @ q @ r
    return max(0.0, float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[-1]))


def level_operator_reps(rng):
    return [concave_rep(rng, 3), expansive_rep(rng, 3), coisometry_rep(rng, 2, 2)]


class TestGamma:
    def test_partial_isometry(self, rng):
        rep = coisometry_rep(rng, 2, 2)
        assert gamma(rep) == pytest.approx(1.0)
        assert gamma_at_least_one(rep)

    def test_doubling(self):
        rep = scalar_rep(2.0)
        assert gamma(rep) == pytest.approx(2.0)
        assert gamma_at_least_one(rep)

    def test_contraction(self):
        rep = scalar_rep(0.5)
        assert gamma(rep) == pytest.approx(0.5)
        assert not gamma_at_least_one(rep)


class TestDefectOperator:
    def test_partial_isometry_has_no_defect(self, rng):
        # The square root maps roundoff-level eigenvalues to ~sqrt(eps).
        rep = coisometry_rep(rng, 2, 2)
        assert np.linalg.norm(defect_operator(rep).matrix, 2) <= 1e-7

    def test_scalar(self):
        assert defect_operator(scalar_rep(2.0)).matrix[0, 0] == pytest.approx(math.sqrt(3.0))

    def test_square_identity(self, rng):
        rep = expansive_rep(rng, 4)
        v = rep.matrix
        d = defect_operator(rep).matrix
        from woldkit.linalg import pinv

        lhs = d @ d + pinv(v) @ v
        assert np.linalg.norm(lhs - v.conj().T @ v, 2) <= 1e-9 * np.linalg.norm(v, 2) ** 2

    def test_contraction_rejected(self):
        with pytest.raises(NotPSD):
            defect_operator(scalar_rep(0.5))


class TestCheckGrowth:
    def test_partial_isometry_feasible_at_zero(self, rng):
        rep = coisometry_rep(rng, 2, 2)
        report = check_growth(rep, [0.0, 0.0, 0.0], 3)
        assert report.all_feasible
        assert all(e.minimal_d == pytest.approx(0.0, abs=1e-9) for e in report.entries)

    def test_doubling_scalar_threshold(self):
        rep = scalar_rep(2.0)
        good = check_growth(rep, [1.0, 5.0, 21.0], 3)
        assert good.all_feasible
        bad = check_growth(rep, [1.0, 4.9, 21.0], 3)
        assert not bad.entries[1].feasible
        assert bad.entries[0].feasible and bad.entries[2].feasible

    def test_contraction_reports_per_level(self):
        rep = scalar_rep(0.5)
        # feasible iff d_m <= (1 - 0.25^m) / 0.75
        report = check_growth(rep, [0.5, 10.0], 2)
        assert report.entries[0].feasible
        assert not report.entries[1].feasible

    def test_divergence_note_never_certifies(self):
        report = check_growth(scalar_rep(2.0), None, 3)
        assert "never certified" in report.divergence_note


class TestMinimalGrowthSequence:
    def test_partial_isometry_is_free(self, rng):
        rep = coisometry_rep(rng, 1, 3)
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in minimal_growth_sequence(rep, 3))

    def test_doubling_closed_form(self):
        seq = minimal_growth_sequence(scalar_rep(2.0), 3)
        for m, d in enumerate(seq, start=1):
            assert d == pytest.approx((4.0**m - 1.0) / 3.0, abs=1e-9)

    def test_single_isometric_column_feasible(self):
        # A norm-preserving rank-one map: no growth needed at any level.
        rep = Representation(2, 1, np.array([[1.0, 0.0]]))
        seq = minimal_growth_sequence(rep, 2)
        assert all(math.isfinite(d) and d == pytest.approx(0.0, abs=1e-9) for d in seq)

    def test_kernel_direction_violation_is_infeasible(self):
        # e1 -> e2 (weight 1) -> 2 e3: the first direction has zero defect
        # but doubles after two steps, so no finite weight works at m = 2.
        rep = weighted_truncated_shift([1.0, 2.0])
        seq = minimal_growth_sequence(rep, 2)
        assert math.isfinite(seq[0])
        assert math.isinf(seq[1])


class TestMinimalScaleFactor:
    def test_scalar_pencil(self):
        assert minimal_scale_factor(np.array([[6.0]]), np.array([[3.0]])) == pytest.approx(2.0)

    def test_zero_pencil(self):
        assert minimal_scale_factor(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_infeasible_kernel(self):
        q = np.diag([1.0, 0.0])
        g = np.diag([0.0, 1.0])
        assert math.isinf(minimal_scale_factor(q, g))

    def test_matches_svd_scaled_oracle(self, rng):
        reps = level_operator_reps(rng) + [
            generic_rep(rng, 1, 3),  # infeasible from level 2 on
            generic_rep(rng, 2, 3),
            left_invertible_rep(rng, 4),
        ]
        results = []
        for rep in reps:
            for m in (1, 2, 3):
                g, q = _growth_operators(rep, m, DEFAULT_POLICY)
                got, want = minimal_scale_factor(q, g), minimal_scale_factor_oracle(q, g)
                assert got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))
                results.append(got)
        assert math.inf in results and 0.0 in results


class TestLevelOperators:
    def test_gram_matches_dense_lift(self, rng):
        for d in (1, 2, 3):
            rep = generic_rep(rng, d, 2)
            for k in (1, 2, 3):
                a, p, vkvk = _level_operators(rep, k, DEFAULT_POLICY)
                dense = dense_lifted_gram(rep, k)
                assert a.shape == p.shape == vkvk.shape == dense.shape
                assert np.linalg.norm(a - dense, 2) <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))

    def test_concave_chain_matches_dense(self, rng):
        verdicts = set()
        for rep in level_operator_reps(rng):
            for k in (1, 2, 3):
                verdict = concave_chain_check(rep, k)
                assert verdict == concave_chain_oracle(rep, k)
                verdicts.add(verdict)
            assert check_concave(rep) == concave_chain_check(rep, 2)
        assert verdicts == {True, False}

    def test_growth_forms_match_dense(self, rng):
        for rep in level_operator_reps(rng):
            for k in (1, 2, 3):
                for d_k in (0.5, 1.0, 3.0):
                    assert growth_forms_agree(rep, k, d_k, 1.0) == growth_forms_oracle(
                        rep, k, d_k, 1.0
                    )


class TestConcavityExpansivity:
    def test_unitary_is_concave_and_expansive(self, rng):
        rep = concave_rep(rng, 3)
        assert check_concave(rep)
        assert check_expansive(rep)

    def test_contraction_not_expansive(self):
        assert not check_expansive(scalar_rep(0.5))

    def test_generated_concave_instances_are_expansive(self, rng):
        for _ in range(10):
            rep = concave_rep(rng, int(rng.integers(2, 5)))
            assert check_concave(rep)
            assert check_expansive(rep)

    def test_chain_inequality(self, rng):
        rep = concave_rep(rng, 3)
        for k in (1, 2, 3):
            assert concave_chain_check(rep, k)

    def test_strictly_expansive_scalar_not_concave(self):
        assert not check_concave(scalar_rep(2.0))


class TestGammaPowerBound:
    def test_partial_isometry(self, rng):
        assert gamma_power_bound_check(coisometry_rep(rng, 2, 2), 3)

    def test_scalar_equality(self):
        assert gamma_power_bound_check(scalar_rep(2.0), 4)

    def test_random_regular_expansive(self, rng):
        assert gamma_power_bound_check(expansive_rep(rng, 3), 4)

    def test_not_regular_raises(self):
        rep = Representation(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotRegular):
            gamma_power_bound_check(rep, 2)


class TestGrowthFormEquivalence:
    def test_verdicts_agree(self, rng):
        for _ in range(5):
            rep = expansive_rep(rng, 3)
            for k in (1, 2, 3):
                d_k = float(rng.uniform(0, 5))
                full, restricted = growth_forms_agree(rep, k, d_k, 1.0)
                assert full == restricted

    def test_verdicts_agree_with_kernel(self, rng):
        rep = coisometry_rep(rng, 2, 2)
        for k in (1, 2):
            full, restricted = growth_forms_agree(rep, k, 1.0, 1.0)
            assert full == restricted


class TestNormIdentities:
    def test_norm_partition(self, rng):
        rep = left_invertible_rep(rng, 4)
        for n in (1, 2, 3, 4):
            assert norm_partition_residual(rep, n) <= 1e-7

    def test_norm_partition_matches_per_vector_oracle(self, rng):
        generic = generic_rep(rng, 2, 3)
        reps = [
            left_invertible_rep(rng, 4),
            coisometry_rep(rng, 2, 2),
            # gamma = 1 after rescaling, so the defect exists and is nonzero
            Representation(2, 3, generic.matrix / gamma(generic)),
        ]
        for rep in reps:
            for n in (1, 2, 3, 4):
                assert abs(norm_partition_residual(rep, n) - norm_partition_oracle(rep, n)) <= 1e-12

    def test_telescoping(self, rng):
        rep = left_invertible_rep(rng, 4)
        for n in (1, 2, 3, 4):
            r1, r2 = telescoping_residuals(rep, n)
            assert r1 <= 1e-8 and r2 <= 1e-8

    def test_telescoping_also_holds_with_kernel(self, rng):
        # The identities only need a closed range, not injectivity.
        rep = coisometry_rep(rng, 2, 2)
        r1, r2 = telescoping_residuals(rep, 3)
        assert r1 <= 1e-8 and r2 <= 1e-8
