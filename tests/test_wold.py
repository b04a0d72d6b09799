import numpy as np
import pytest

from woldkit.errors import (
    NotContraction,
    NotInvariant,
    NotLeftInvertible,
    PreconditionFailed,
)
from woldkit.generate import (
    block_wold_rep,
    coisometry_rep,
    concave_rep,
    expansive_rep,
    generic_rep,
    left_invertible_rep,
    shift_polynomial_pair,
    truncated_shift_rep,
    weighted_truncated_shift,
)
from woldkit.linalg import Subspace, subspaces_equal
from woldkit.model import Representation
from woldkit.structure import GenInverse, is_biregular
from woldkit.wold import (
    cauchy_dual,
    check_intertwiner,
    check_purity_transfer,
    duality_check,
    generated_subspace,
    invariant_to_wandering,
    is_pure_contraction,
    is_wandering,
    kernel_span_check,
    reflection_witness,
    wandering_space,
    wold_decompose,
    wold_diagnostics,
)


def coord_space(total, cols):
    basis = np.zeros((total, len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        basis[c, j] = 1.0
    return Subspace(total, basis)


class TestWanderingSpace:
    def test_surjective_map_has_none(self, rng):
        assert wandering_space(generic_rep(rng, 2, 3)).dim == 0

    def test_truncated_shift(self):
        w = wandering_space(truncated_shift_rep(5))
        assert w.dim == 1
        assert abs(w.basis[0, 0]) == pytest.approx(1.0)

    def test_bilateral_window_matches_range_complement(self, rng):
        from woldkit.generate import bilateral_spec
        from woldkit.linalg import complement, range_space
        from woldkit.shifts import build_bilateral_shift

        spec = bilateral_spec(rng, n=2, M=3)
        rep, _ = build_bilateral_shift(spec)
        w = wandering_space(rep)
        assert subspaces_equal(w, complement(range_space(rep.matrix)))


class TestIsWandering:
    def test_zero_subspace(self, rng):
        rep = generic_rep(rng, 2, 3)
        assert is_wandering(rep, Subspace.zero(3))

    def test_kernel_of_adjoint_for_shift(self):
        rep = truncated_shift_rep(5)
        assert is_wandering(rep, wandering_space(rep))

    def test_full_space_fails_for_nonzero_map(self, rng):
        rep = generic_rep(rng, 1, 3)
        assert not is_wandering(rep, Subspace.full(3))


class TestGeneratedSubspace:
    def test_zero_generates_zero(self, rng):
        rep = generic_rep(rng, 2, 3)
        assert generated_subspace(rep, Subspace.zero(3)).dim == 0

    def test_shift_start_generates_everything(self):
        rep = truncated_shift_rep(5)
        assert generated_subspace(rep, coord_space(5, [0])).dim == 5

    def test_block_wandering_generates_exactly_its_block(self, rng):
        rep, layout = block_wold_rep(rng, n_shift=1, n_unitary=1)
        shift_len = layout[0][1]
        w = wandering_space(rep)
        assert subspaces_equal(
            generated_subspace(rep, w), coord_space(rep.dim_h, range(shift_len))
        )


class TestWoldDecompose:
    def test_truncated_shift(self):
        res = wold_decompose(truncated_shift_rep(4), horizon=3)
        assert res.generated.dim == 4
        assert res.generalized_range.dim == 0
        assert res.orthogonal and res.spans_h and res.reduces
        assert res.unitary_restriction and res.dagger_equals_adjoint
        assert res.hyper_dagger

    def test_block_sum_recovers_blocks(self, rng):
        rep, layout = block_wold_rep(rng, n_shift=1, n_unitary=1)
        shift_len = layout[0][1]
        res = wold_decompose(rep, horizon=3)
        assert subspaces_equal(res.generated, coord_space(rep.dim_h, range(shift_len)))
        assert subspaces_equal(
            res.generalized_range, coord_space(rep.dim_h, range(shift_len, rep.dim_h))
        )
        assert res.proj_sum_residual <= 1e-8
        assert res.proj_product_residual <= 1e-8
        assert res.reduces and res.unitary_restriction and res.dagger_equals_adjoint
        assert res.biregular

    def test_biregular_flag_matches_is_biregular(self, rng):
        reps = [generic_rep(rng, d, m) for d, m in ((1, 3), (2, 2), (2, 3), (3, 2))]
        reps += [coisometry_rep(rng, 2, 2), left_invertible_rep(rng, 4)]
        for rep in reps:
            for horizon in (1, 3):
                gi = GenInverse(rep, rep.pseudo_inverse())
                flag = wold_diagnostics(rep, horizon).biregular
                assert flag == is_biregular(rep, gi, horizon).holds

    def test_coisometry_everything_stable(self, rng):
        rep = coisometry_rep(rng, 2, 3)
        res = wold_decompose(rep)
        assert res.generalized_range.dim == 3 and res.generated.dim == 0
        assert res.spans_h and res.unitary_restriction
        assert res.fully_coisometric_restriction

    def test_precondition_named_for_small_modulus(self):
        rep = Representation(1, 1, np.array([[0.5]], dtype=complex))
        with pytest.raises(PreconditionFailed) as err:
            wold_decompose(rep)
        assert "modulus" in str(err.value)

    def test_precondition_named_for_regularity(self):
        rep = Representation(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(PreconditionFailed) as err:
            wold_decompose(rep)
        assert "regularity" in str(err.value)

    def test_uniqueness_note_follows_hyper_dagger(self):
        res = wold_decompose(truncated_shift_rep(4), horizon=3)
        assert "unique" in res.uniqueness_note


class TestDuality:
    def test_nilpotent_shift_both_sides_full(self):
        assert duality_check(truncated_shift_rep(4), horizon=3)

    def test_unitary_both_sides_trivial(self, rng):
        assert duality_check(concave_rep(rng, 3), horizon=4)

    def test_random_expansive(self, rng):
        assert duality_check(expansive_rep(rng, 4), horizon=4)

    def test_block_instances(self, rng):
        rep, _ = block_wold_rep(rng)
        assert duality_check(rep, horizon=3)


class TestKernelSpanCheck:
    def test_depth_one_trivial(self, rng):
        rep = generic_rep(rng, 2, 2)
        first, second = kernel_span_check(rep, 1)
        assert first and second

    def test_truncated_shift_containment(self):
        first, second = kernel_span_check(truncated_shift_rep(4), 2)
        assert first
        assert second is None  # strict regularity fails under truncation

    def test_regular_random_equality(self, rng):
        for _ in range(5):
            rep = generic_rep(rng, 2, 2)
            first, second = kernel_span_check(rep, 2)
            assert first and second


class TestInvariantToWandering:
    def test_full_space_gives_wandering_space(self):
        rep = truncated_shift_rep(4)
        w = invariant_to_wandering(rep, Subspace.full(4))
        assert subspaces_equal(w, wandering_space(rep))
        assert subspaces_equal(generated_subspace(rep, w), Subspace.full(4))

    def test_zero_space(self, rng):
        rep = generic_rep(rng, 1, 3)
        assert invariant_to_wandering(rep, Subspace.zero(3)).dim == 0

    def test_tail_invariant_subspace(self):
        rep = truncated_shift_rep(4)
        k = coord_space(4, [2, 3])
        w_k = invariant_to_wandering(rep, k)
        assert subspaces_equal(w_k, coord_space(4, [2]))
        assert subspaces_equal(generated_subspace(rep, w_k), k)

    def test_non_invariant_rejected(self):
        rep = truncated_shift_rep(4)
        with pytest.raises(NotInvariant):
            invariant_to_wandering(rep, coord_space(4, [1]))


class TestCauchyDual:
    def test_unitary_is_self_dual(self, rng):
        rep = concave_rep(rng, 3)
        assert np.allclose(cauchy_dual(rep).matrix, rep.matrix)

    def test_scalar(self):
        rep = Representation(1, 1, np.array([[2.0]], dtype=complex))
        assert cauchy_dual(rep).matrix[0, 0] == pytest.approx(0.5)

    def test_double_dual_returns(self, rng):
        rep = left_invertible_rep(rng, 4)
        again = cauchy_dual(cauchy_dual(rep))
        assert np.allclose(again.matrix, rep.matrix, atol=1e-9)

    def test_kernel_rejected(self):
        with pytest.raises(NotLeftInvertible):
            cauchy_dual(truncated_shift_rep(3))

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_matches_gram_inverse_formula(self, rng, m):
        reps = [left_invertible_rep(rng, m), expansive_rep(rng, m), concave_rep(rng, m)]
        g = rng.standard_normal((m, m))
        reps.append(Representation(1, m, reps[0].matrix, sigma={"g": g}, phi={"g": np.eye(1)}))
        for rep in reps:
            v = rep.matrix
            oracle = v @ np.linalg.inv(v.conj().T @ v)
            dual = cauchy_dual(rep)
            assert np.linalg.norm(dual.matrix - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2)
            assert (dual.dim_e, dual.dim_h) == (rep.dim_e, rep.dim_h)
            assert dual.sigma.keys() == rep.sigma.keys() == dual.phi.keys()
            for label in rep.sigma:
                assert np.array_equal(dual.sigma[label], rep.sigma[label])
                assert np.array_equal(dual.phi[label], rep.phi[label])


class TestIntertwiner:
    def test_identity(self, rng):
        rep = generic_rep(rng, 2, 3)
        assert check_intertwiner(rep, np.eye(3))

    def test_polynomial_in_shift(self, rng):
        rep, a = shift_polynomial_pair(rng)
        assert check_intertwiner(rep, a)

    def test_generic_diagonal_fails(self):
        rep = truncated_shift_rep(4)
        assert not check_intertwiner(rep, np.diag([1.0, 2.0, 3.0, 4.0]))


def purity_oracle(a, horizon=50, tol=1e-8):
    """is_pure_contraction with the norm of every product A^n A*^n taken."""
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[0] == 0:
        return "pure"
    rho = float(np.max(np.abs(np.linalg.eigvals(a)))) if a.any() else 0.0
    if rho < 1.0 - tol:
        return "pure"
    current = np.eye(a.shape[0], dtype=np.complex128)
    prev_norm = 1.0
    cur_norm, last_drop = 1.0, 1.0
    for _ in range(max(1, horizon)):
        current = a @ current @ a.conj().T
        cur_norm = float(np.linalg.norm(current, 2))
        prev_norm, last_drop = cur_norm, prev_norm - cur_norm
    if cur_norm <= tol:
        return "pure"
    if last_drop <= tol:
        return "not_pure"
    return "undecided"


class TestPureContraction:
    def test_zero_is_pure(self):
        assert is_pure_contraction(np.zeros((3, 3))) == "pure"

    def test_identity_is_not_pure(self):
        assert is_pure_contraction(np.eye(3)) == "not_pure"

    def test_scaled_nilpotent_is_pure(self):
        s = truncated_shift_rep(5).matrix
        assert is_pure_contraction(0.9 * s) == "pure"

    def test_expansion_rejected(self):
        with pytest.raises(NotContraction):
            is_pure_contraction(2.0 * np.eye(2))

    def test_phase_is_not_pure(self):
        assert is_pure_contraction(np.exp(0.7j) * np.eye(2)) == "not_pure"

    def test_matches_loop_that_keeps_every_norm(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        ops = [
            np.zeros((2, 2)),
            np.eye(3),
            np.exp(0.7j) * np.eye(2),
            np.diag([1.0, 0.5, 0.0]),
            q,
            (1.0 - 5e-9) * q,
            (1.0 - 5e-9) * np.eye(2),
            (1.0 - 9e-9) * np.eye(2),  # each step drops the norm by about 1.8e-8 > tol
            np.diag([1.0 - 5e-9, 0.3]),
            np.block([[np.eye(1), np.zeros((1, 2))],
                      [np.zeros((2, 1)), 0.9 * truncated_shift_rep(2).matrix]]),
        ]
        verdicts = set()
        for a in ops:
            for horizon in (0, 1, 2, 50):
                got = is_pure_contraction(a, horizon)
                assert got == purity_oracle(a, horizon)
                verdicts.add(got)
        assert verdicts == {"pure", "not_pure", "undecided"}


class TestReflectionWitness:
    def test_truncated_shift_tail(self):
        rep = truncated_shift_rep(4)
        k = coord_space(4, [2, 3])
        h1 = reflection_witness(rep, k)
        # h1 in K, and the adjoint image stays inside E (x) K-perp
        assert np.linalg.norm(h1[:2]) <= 1e-8
        image = rep.matrix.conj().T @ h1
        p_kperp = coord_space(4, [0, 1])
        residual = image - p_kperp.basis @ (p_kperp.basis.conj().T @ image)
        assert np.linalg.norm(residual) <= 1e-8

    def test_requires_wandering_orthogonal_to_k(self):
        rep = truncated_shift_rep(4)
        with pytest.raises(PreconditionFailed):
            reflection_witness(rep, coord_space(4, [0, 1]))


class TestPurityTransfer:
    def test_zero_operator(self):
        rep = truncated_shift_rep(4)
        report = check_purity_transfer(rep, np.zeros((4, 4)))
        assert report.verdict_full == report.verdict_compressed == "pure"
        assert not report.violation

    def test_identity_operator(self):
        rep = truncated_shift_rep(4)
        report = check_purity_transfer(rep, np.eye(4))
        assert report.verdict_full == report.verdict_compressed == "not_pure"
        assert not report.violation

    def test_generated_family_agrees(self, rng):
        decided = 0
        for _ in range(20):
            rep, a = shift_polynomial_pair(rng)
            report = check_purity_transfer(rep, a)
            assert not report.violation
            decided += report.decided
        assert decided >= 16

    def test_non_intertwiner_rejected(self):
        rep = truncated_shift_rep(4)
        with pytest.raises(PreconditionFailed):
            check_purity_transfer(rep, np.diag([1.0, 0.5, 0.25, 0.125]))

    def test_trivial_wandering_space_rejected(self, rng):
        rep = concave_rep(rng, 3)
        with pytest.raises(PreconditionFailed):
            check_purity_transfer(rep, np.zeros((3, 3)))


class TestAnalyticGeneration:
    def test_analytic_blocks_generate_everything(self, rng):
        # When the stable range is trivial, the wandering space generates H.
        rep = weighted_truncated_shift([1.3, 1.1, 1.7])
        res = wold_decompose(rep, horizon=3)
        assert res.generalized_range.dim == 0
        assert res.generated.dim == rep.dim_h
