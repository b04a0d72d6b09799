import numpy as np
import pytest

from woldkit.errors import NotRegular
from woldkit.generate import (
    coisometry_rep,
    concave_rep,
    generic_rep,
    left_invertible_rep,
    rand_complex,
    rank_deficient_rep,
    truncated_shift_rep,
)
from woldkit.linalg import DEFAULT_POLICY, null_space, pinv, range_space, subspaces_equal
from woldkit.model import Representation, iterate_map, representation_from_dict
from woldkit.structure import (
    GenInverse,
    _biregular_levels,
    algebraic_core,
    fixed_point_range_check,
    generalized_range,
    hat_map_check,
    inverse_invariance_check,
    is_biregular,
    is_hyper_dagger,
    is_n_dagger,
    is_regular,
    iterate_inverse,
    iterated_pinv,
    kernel_intersection_identity,
    lift_subspace,
    make_generalized_inverse,
    range_chain,
)

from conftest import contains_oracle


# Instance 18 of `woldkit verify range-structure --count 25 --seed 2800`
# (d=1, m=4, cond V ~ 361).  At n=4 the round-off in V_4 S^(4) h - h is
# about 1e-6, far above tau_sub but only ~2e-16 of |V_4| |S^(4)|.
ILL_CONDITIONED_DOC = {
    "dim_E": 1,
    "dim_H": 4,
    "V": [
        [-0.7203348275651226, -0.6091230515827469], [-0.11165888833789503, 1.0142072839237233],
        [1.1435650771060786, -0.7939745819611076], [0.572217755231707, -0.6618602784267684],
        [-0.7042854460193237, -0.46443169635315423], [-1.3833685414114012, 0.2252962766952768],
        [-1.1046534381292787, 0.10513639733275526], [-0.5014664072348923, 0.39840218882691997],
        [0.47228436362156545, 0.9515944915314055], [-0.13282583508325604, 0.1641716456827723],
        [0.2014210524609828, -1.0498582127457867], [-0.18506756384303732, 0.5676899323932385],
        [-1.028309609026032, -0.3795260845774896], [-0.14063584365203752, 0.627206732589275],
        [-0.040764481706809824, -0.2909094778745166], [-0.09586990240828035, -0.5013040794091773],
    ],
}


class TestGeneralizedRange:
    def test_nilpotent_shift_collapses(self):
        assert generalized_range(truncated_shift_rep(4)).dim == 0

    def test_invertible_map_keeps_everything(self, rng):
        rep = left_invertible_rep(rng, 4)
        rinf = generalized_range(rep)
        assert rinf.dim == 4

    def test_decreasing_chain(self, rng):
        from woldkit.structure import range_chain
        from woldkit.linalg import contains

        rep = generic_rep(rng, 2, 3)
        chain, stable = range_chain(rep)
        for earlier, later in zip(chain, chain[1:]):
            assert contains(later, earlier)
        assert subspaces_equal(chain[stable - 1], generalized_range(rep))


class TestAlgebraicCore:
    def test_nilpotent_shift(self):
        assert algebraic_core(truncated_shift_rep(4)).dim == 0

    def test_unitary(self, rng):
        rep = concave_rep(rng, 3)
        assert algebraic_core(rep).dim == 3

    def test_matches_generalized_range(self, rng):
        for _ in range(5):
            rep = generic_rep(rng, 2, 3)
            assert subspaces_equal(algebraic_core(rep), generalized_range(rep))

    def test_is_range_chain_limit_and_fixed_point(self, rng):
        reps = [
            generic_rep(rng, 2, 3),
            generic_rep(rng, 1, 4),
            rank_deficient_rep(rng, 2, 4, 2),
            rank_deficient_rep(rng, 1, 4, 3),
            truncated_shift_rep(4),
            concave_rep(rng, 3),
            representation_from_dict(ILL_CONDITIONED_DOC),
        ]
        for rep in reps:
            core = algebraic_core(rep)
            chain, stable = range_chain(rep)
            assert core is chain[stable - 1]
            translate = rep.matrix @ np.kron(np.eye(rep.dim_e), core.basis)
            image = range_space(translate, scale=np.linalg.norm(rep.matrix, 2))
            assert subspaces_equal(image, core)


class TestRegularity:
    def test_injective_map_is_regular(self, rng):
        report = is_regular(left_invertible_rep(rng, 3))
        assert report.strict and report.holds_at_horizon
        assert report.kernel_dim == 0

    def test_backward_jordan_cell_not_regular(self):
        rep = Representation(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        report = is_regular(rep)
        kernel = null_space(rep.matrix)
        assert kernel.dim == 1 and abs(kernel.basis[0, 0]) == pytest.approx(1.0)
        assert not report.strict
        assert not report.anomaly

    def test_truncated_shift_regular_only_below_truncation(self):
        rep = truncated_shift_rep(4)
        assert not is_regular(rep).strict
        assert is_regular(rep, horizon=3).holds_at_horizon
        assert not is_regular(rep, horizon=4).holds_at_horizon

    def test_per_level_verdicts_match_eager_loop(self, rng):
        reps = [
            generic_rep(rng, 2, 3),
            rank_deficient_rep(rng, 2, 4, 2),
            rank_deficient_rep(rng, 1, 4, 3),
            truncated_shift_rep(4),
            Representation(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]])),
        ]
        for rep in reps:
            chain, stable = range_chain(rep)
            kernel = rep.kernel(DEFAULT_POLICY)
            for horizon in range(1, len(chain) + 4):
                expected = {}
                for m in range(1, horizon + 1):
                    rm = chain[m - 1] if m <= len(chain) else chain[stable - 1]
                    lifted = lift_subspace(1, rm, rep.dim_e)
                    expected[m] = contains_oracle(kernel, lifted, DEFAULT_POLICY)
                assert is_regular(rep, horizon=horizon).per_m == expected

    def test_condition_verdicts_consistent(self, rng):
        for _ in range(10):
            rep = generic_rep(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            assert not is_regular(rep).anomaly


class TestKernelIntersectionIdentity:
    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
    def test_on_random_reps(self, rng, m, n):
        for _ in range(5):
            rep = generic_rep(rng, 2, 2)
            assert kernel_intersection_identity(rep, m, n)

    def test_on_rank_deficient(self, rng):
        from woldkit.generate import rank_deficient_rep

        rep = rank_deficient_rep(rng, 2, 3, 2)
        for m, n in ((1, 1), (1, 2), (2, 1)):
            assert kernel_intersection_identity(rep, m, n)


class TestGeneralizedInverse:
    def test_zero_parameter_gives_pinv(self, rng):
        rep = generic_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, np.zeros((4, 2)))
        assert np.allclose(gi.matrix, pinv(rep.matrix))

    def test_unitary_ignores_parameter(self, rng):
        rep = concave_rep(rng, 3)
        y = rand_complex(rng, 3, 3)
        gi = make_generalized_inverse(rep, y)
        assert np.allclose(gi.matrix, rep.matrix.conj().T, atol=1e-10)

    def test_both_identities_for_random_parameters(self, rng):
        reps = [
            generic_rep(rng, 2, 3),
            rank_deficient_rep(rng, 2, 3, 2),
            rank_deficient_rep(rng, 1, 4, 1),
            left_invertible_rep(rng, 4),
        ]
        for rep in reps:
            v = rep.matrix
            for _ in range(5):
                gi = make_generalized_inverse(rep, rand_complex(rng, rep.ambient_domain, rep.dim_h))
                s = gi.matrix
                bound_v = 1e-9 * max(1.0, np.linalg.norm(v, 2))
                assert np.linalg.norm(v @ s @ v - v, 2) <= bound_v
                assert np.linalg.norm(s @ v @ s - s, 2) <= 1e-9 * max(1.0, np.linalg.norm(s, 2))

    def test_iterate_base_case(self, rng):
        rep = generic_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, rand_complex(rng, 4, 2))
        assert np.allclose(iterate_inverse(gi, 1), gi.matrix)

    def test_scalar_iterates(self):
        rep = Representation(1, 1, np.array([[2.0]]))
        gi = make_generalized_inverse(rep, np.zeros((1, 1)))
        for n in (1, 2, 3):
            assert iterate_inverse(gi, n)[0, 0] == pytest.approx(2.0**-n)

    def test_composition_identity(self, rng):
        rep = generic_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, rand_complex(rng, 4, 2))
        n = 3
        out = iterate_inverse(gi, n)
        for split in range(1, n):
            lhs = np.kron(np.eye(2**split), iterate_inverse(gi, n - split)) @ iterate_inverse(gi, split)
            assert np.linalg.norm(lhs - out, 2) <= 1e-9 * max(1.0, np.linalg.norm(out, 2))


class TestBiRegularity:
    def test_coisometry_biregular(self, rng):
        rep = coisometry_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, np.zeros((4, 2)))
        assert is_biregular(rep, gi, 3).holds

    def test_surjective_with_random_inverse(self, rng):
        rep = generic_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, rand_complex(rng, 4, 2))
        assert is_biregular(rep, gi, 3).holds

    def test_not_regular_raises(self):
        rep = Representation(1, 2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        gi = make_generalized_inverse(rep, np.zeros((2, 2)))
        with pytest.raises(NotRegular):
            is_biregular(rep, gi, 3)

    def test_levels_match_eager_oracle(self, rng):
        from woldkit.generate import bilateral_spec
        from woldkit.shifts import build_bilateral_shift

        reps = [
            generic_rep(rng, 2, 3),
            rank_deficient_rep(rng, 2, 3, 2),
            rank_deficient_rep(rng, 1, 4, 2),
            truncated_shift_rep(4),
            build_bilateral_shift(bilateral_spec(rng, n=2, M=3))[0],
            build_bilateral_shift(bilateral_spec(rng, n=1, M=3))[0],
        ]
        seen = set()
        for rep in reps:
            for y in (np.zeros((rep.ambient_domain, rep.dim_h)),
                      rand_complex(rng, rep.ambient_domain, rep.dim_h)):
                gi = make_generalized_inverse(rep, y)
                got = list(_biregular_levels(rep, gi, 4, DEFAULT_POLICY))
                assert got == biregular_levels_oracle(rep, gi, 4)
                seen.update(got)
        assert seen == {True, False}


def biregular_levels_oracle(rep, gi, top, pol=DEFAULT_POLICY):
    """Every level built and tested by residuals, as before the dimension rule."""
    ker_s = null_space(gi.matrix, pol)
    ns = np.linalg.norm(gi.matrix, 2)
    out = []
    for m in range(1, top + 1):
        ker_lifted = lift_subspace(m, ker_s, rep.dim_e)
        rng_m = range_space(iterate_inverse(gi, m), pol, scale=ns**m)
        out.append(contains_oracle(ker_lifted, rng_m, pol))
    return out


def n_dagger_oracle(rep, n, pol=DEFAULT_POLICY):
    """is_n_dagger by dense 2-norms of the gap and of (V_n)+."""
    if n == 1:
        return True
    lowered = iterated_pinv(rep, n, pol)
    direct = pinv(iterate_map(rep, n), pol, scale=rep.norm() ** n)
    gap = float(np.linalg.norm(lowered - direct, 2))
    return gap <= 1e-8 * max(1.0, float(np.linalg.norm(direct, 2)))


class TestDagger:
    def test_first_level_always(self, rng):
        assert is_n_dagger(generic_rep(rng, 2, 2), 1)

    def test_coisometry_hyper_dagger(self, rng):
        rep = coisometry_rep(rng, 2, 2)
        assert is_hyper_dagger(rep, 3)

    def test_invertible_scalar_case_hyper_dagger(self, rng):
        rep = left_invertible_rep(rng, 3)
        assert is_hyper_dagger(rep, 3)

    def test_known_failure_instance(self):
        # Rank-one idempotent-like map: the lowered pseudoinverse squares
        # to a quarter of the direct pseudoinverse of the iterate.
        rep = Representation(1, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert not is_n_dagger(rep, 2)

    def test_matches_dense_norm_formula(self, rng):
        reps = [generic_rep(rng, 2, 2), generic_rep(rng, 1, 4), coisometry_rep(rng, 2, 3)]
        reps += [rank_deficient_rep(rng, 2, 3, r) for r in (1, 2)]
        reps += [left_invertible_rep(rng, 4), truncated_shift_rep(4), truncated_shift_rep(6)]
        reps += [Representation(1, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))]
        # ||(V_n)+|| = 1e5^n scales the round-off of the gap and the threshold.
        reps += [Representation(1, 3, 1e-5 * left_invertible_rep(rng, 3).matrix)]
        verdicts = []
        for rep in reps:
            for n in range(1, 5):
                verdicts.append(is_n_dagger(rep, n))
                assert verdicts[-1] == n_dagger_oracle(rep, n)
        assert True in verdicts[1::4] and False in verdicts[1::4]

    def test_randomized_search_finds_failure(self, rng):
        found = False
        for _ in range(20):
            rep = generic_rep(rng, 2, 2)
            if not is_n_dagger(rep, 2):
                found = True
                break
        assert found


class TestFixedPointAndInvariance:
    def test_nilpotent_shift(self):
        rep = truncated_shift_rep(4)
        gi = make_generalized_inverse(rep, np.zeros((4, 4)))
        assert fixed_point_range_check(rep, gi, horizon=3)

    def test_unitary_everything_fixed(self, rng):
        rep = concave_rep(rng, 3)
        gi = make_generalized_inverse(rep, rand_complex(rng, 3, 3))
        assert fixed_point_range_check(rep, gi, horizon=4)

    def test_random_regular(self, rng):
        rep = generic_rep(rng, 2, 2)
        gi = make_generalized_inverse(rep, rand_complex(rng, 4, 2))
        assert fixed_point_range_check(rep, gi, horizon=4)

    def test_ill_conditioned_round_off_is_relative(self, rng):
        rep = representation_from_dict(ILL_CONDITIONED_DOC)
        for y in (np.zeros((4, 4)), rand_complex(rng, 4, 4)):
            gi = make_generalized_inverse(rep, y)
            assert fixed_point_range_check(rep, gi, horizon=4)

    def test_rejects_map_that_is_not_a_generalized_inverse(self, rng):
        for rep in (generic_rep(rng, 2, 2), representation_from_dict(ILL_CONDITIONED_DOC)):
            s = rand_complex(rng, rep.ambient_domain, rep.dim_h)
            assert not fixed_point_range_check(rep, GenInverse(rep=rep, matrix=s), horizon=4)

    def test_inverse_invariance(self, rng):
        for _ in range(5):
            rep = generic_rep(rng, 2, 2)
            gi = make_generalized_inverse(rep, rand_complex(rng, 4, 2))
            assert inverse_invariance_check(rep, gi)

    def test_inverse_invariance_vacuous_for_trivial_range(self):
        rep = truncated_shift_rep(3)
        gi = make_generalized_inverse(rep, np.zeros((3, 3)))
        assert inverse_invariance_check(rep, gi)


class TestHatMap:
    def test_regular_instances_pass(self, rng):
        rep = generic_rep(rng, 2, 2)
        assert all(hat_map_check(rep, 3).values())

    def test_truncation_detected(self):
        rep = truncated_shift_rep(3)
        results = hat_map_check(rep, 4)
        assert not all(results.values())

    def test_pinned_verdicts(self):
        regular = [
            generic_rep(np.random.default_rng(0), 1, 3),
            generic_rep(np.random.default_rng(0), 2, 3),
            left_invertible_rep(np.random.default_rng(0), 4),
        ]
        for rep in regular:
            assert hat_map_check(rep) == {1: True, 2: True, 3: True}
        not_regular = rank_deficient_rep(np.random.default_rng(0), 2, 4, 2)
        assert hat_map_check(not_regular) == {1: False, 2: False, 3: False}

    def test_dimension_identity_for_regular(self, rng):
        from woldkit.linalg import complement, intersect, range_space

        rep = generic_rep(rng, 2, 2)
        w = null_space(rep.matrix.conj().T)
        for n in (1, 2):
            rn = range_space(iterate_map(rep, n))
            rn1 = range_space(iterate_map(rep, n + 1))
            target = intersect(rn, complement(rn1))
            assert target.dim == (2**n) * w.dim


class TestIteratedPinv:
    def test_matches_manual_lowering(self, rng):
        rep = generic_rep(rng, 2, 2)
        vd = pinv(rep.matrix)
        manual = np.kron(np.eye(2), vd) @ vd
        assert np.allclose(iterated_pinv(rep, 2), manual)
