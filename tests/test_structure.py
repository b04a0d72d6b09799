import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from woldkit import growth
from woldkit.errors import BudgetExceeded, NotRegular
from woldkit.generate import (
    bilateral_spec,
    coisometry_rep,
    concave_rep,
    generate_named,
    generic_rep,
    left_invertible_rep,
    rand_complex,
    rand_unitary,
    rank_deficient_rep,
    truncated_shift_rep,
    unilateral_spec,
)
from woldkit.growth import gamma_power_bound_check
from woldkit.linalg import (
    DEFAULT_POLICY,
    RankWarning,
    Subspace,
    TolerancePolicy,
    _rank_cutoff,
    add,
    complement,
    contains,
    intersect,
    null_space,
    pinv,
    range_space,
    spectral_norm,
    subspaces_equal,
)
from woldkit.model import (
    Representation,
    _level_rank,
    _svd_levels,
    budget_horizon,
    iterate_map,
    representation_from_dict,
)
from woldkit.shifts import build_bilateral_shift, build_unilateral_shift
from woldkit import structure
from woldkit.structure import (
    GenInverse,
    _biregular_levels,
    _stabilized_chain,
    _translates,
    algebraic_core,
    fixed_point_range_check,
    inverse_invariance_check,
    is_biregular,
    is_hyper_dagger,
    is_regular,
    kernel_intersection_identity,
    make_generalized_inverse,
    range_chain,
)
from woldkit.wold import generated_subspace, mp_cauchy_dual

from conftest import (
    chain_corpus,
    contains_oracle,
    fixed_point_corpus,
    hyper_dagger_walk_oracle,
    ill_conditioned_corpus,
    invertible_corpus,
    iterated_pinv_oracle,
    lift_subspace,
    lifted_regularity_oracle,
    lowering_oracle,
    mixed_corpus,
    range_translates,
    regularity_oracle,
    svd_levels_oracle,
    two_tie_chain_oracle,
)


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
        assert algebraic_core(truncated_shift_rep(4)).dim == 0

    def test_invertible_map_keeps_everything(self, rng):
        rep = left_invertible_rep(rng, 4)
        rinf = algebraic_core(rep)
        assert rinf.dim == 4

    def test_decreasing_chain(self, rng):
        from woldkit.structure import range_chain
        from woldkit.linalg import contains

        rep = generic_rep(rng, 2, 3)
        chain = range_chain(rep)
        for earlier, later in zip(chain, chain[1:]):
            assert contains(later, earlier)
        assert subspaces_equal(chain[-1], algebraic_core(rep))

    def test_is_the_algebraic_core_and_the_limit_of_the_range_chain(self, rng):
        # One rank decision per range: no level walk of its own, so the
        # generalized range is the same object as the core, on
        # ill-conditioned maps too, where a rule on the dense levels differed.
        reps = [generic_rep(rng, 2, 3), truncated_shift_rep(4)]
        reps += [representation_from_dict(ILL_CONDITIONED_DOC), *ill_conditioned_corpus(300)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for rep in reps:
                assert algebraic_core(rep) is range_chain(rep)[-1]


class TestSubspaceChains:
    """_translates is the one walk of forward translates, and
    _stabilized_chain the one stopping rule of every chain."""

    @staticmethod
    def chain_from(first, *rest):
        yield first
        yield from rest
        raise AssertionError("the chain was read past its given spaces")

    def test_chain_from_zero_or_whole_space_reads_nothing_further(self):
        for first in (Subspace.zero(4), Subspace.full(4)):
            chain = _stabilized_chain(self.chain_from(first))
            assert len(chain) == 1 and chain[0] is first

    def test_other_chains_stop_at_the_first_tie(self, monkeypatch):
        # The limit is the member before the first member of equal dimension;
        # that member is read, not kept, and no two members are compared.
        eye = np.eye(4)
        wider, proper, same = (range_space(eye[:, cols]) for cols in ([0, 1, 2], [0, 1], [1, 0]))

        def compared(*args):
            raise AssertionError("a chain compared two of its members")

        monkeypatch.setattr(structure, "subspaces_equal", compared)
        chain = _stabilized_chain(self.chain_from(wider, proper, same))
        assert len(chain) == 2 and chain[0] is wider and chain[1] is proper

    def test_a_zero_member_ends_the_chain(self):
        proper, zero = range_space(np.eye(4)[:, :2]), Subspace.zero(4)
        chain = _stabilized_chain(self.chain_from(proper, zero))
        assert len(chain) == 2 and chain[0] is proper and chain[1] is zero

    def test_chains_from_zero_or_whole_space_keep_the_first_basis(self, rng):
        zero = Representation(2, 3, np.zeros((3, 6)))
        for rep in (zero, generic_rep(rng, 2, 3), coisometry_rep(rng, 3, 2)):
            first_basis = rep.svd()[0][:, : rep._svd_rank(DEFAULT_POLICY)]
            chain = range_chain(rep)
            assert len(chain) == 1
            assert np.array_equal(chain[0].basis, first_basis)
            assert np.array_equal(algebraic_core(rep).basis, first_basis)
            for s in (Subspace.zero(rep.dim_h), Subspace.full(rep.dim_h)):
                assert generated_subspace(rep, s) is s

    def test_generalized_range_of_a_surjective_map_needs_no_budget(self, monkeypatch):
        # Level n of this map has 2^n * 3 columns: only level 1 fits.
        monkeypatch.setenv("WOLDKIT_BUDGET", "12")
        rep = coisometry_rep(np.random.default_rng(5), 2, 3)
        assert algebraic_core(rep).dim == 3

    def test_generalized_range_reads_no_level_past_its_limit(self, monkeypatch):
        # The ranges of this shift reach {0} at level 3; a level n has
        # 2^n * 7 columns, so the budget admits levels up to 3 only.
        rep = build_unilateral_shift(unilateral_spec(np.random.default_rng(5), d=2, L=2))[0]
        assert [space.dim for space in range_chain(rep)] == [6, 4, 0]
        monkeypatch.setenv("WOLDKIT_BUDGET", str(2**3 * 7))
        assert algebraic_core(rep).dim == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_item_n_of_the_walk_is_the_translate_by_v_n(self, rng, d):
        reps = [generic_rep(rng, d, 4), rank_deficient_rep(rng, d, 4, 3)]
        for rep in reps:
            s = range_space(rand_complex(rng, 4, 2))
            for n, item in enumerate(itertools.islice(_translates(rep, s, DEFAULT_POLICY), 5)):
                want = range_space(iterate_map(rep, n) @ lift_subspace(n, s, d).basis)
                assert item.dim == want.dim and subspaces_equal(item, want)
        assert item.dim < 4  # the rank-deficient map shrinks the translates


class TestAlgebraicCore:
    def test_nilpotent_shift(self):
        assert algebraic_core(truncated_shift_rep(4)).dim == 0

    def test_unitary(self, rng):
        rep = concave_rep(rng, 3)
        assert algebraic_core(rep).dim == 3

    def test_matches_generalized_range(self, rng):
        # The generalized range, the intersection of all R(V_n), is reached
        # by the nested ranges at n = m + 1: the range of that dense level.
        reps = [generic_rep(rng, 2, 3), rank_deficient_rep(rng, 2, 3, 2), rank_deficient_rep(rng, 1, 4, 2)]
        reps += [truncated_shift_rep(4), concave_rep(rng, 3)]
        for rep in reps:
            n = rep.dim_h + 1
            dense = range_space(iterate_map(rep, n), scale=rep.norm() ** n)
            assert subspaces_equal(algebraic_core(rep), dense)

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
            assert core is range_chain(rep)[-1]
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
            for horizon in range(1, len(range_chain(rep)) + 4):
                expected = lifted_regularity_oracle(rep, horizon)[1]
                assert is_regular(rep, horizon=horizon).per_m == expected

    def test_constant_chain_is_lifted_once(self, monkeypatch):
        # The chain of a surjective map is H alone: one containment in
        # E (x) H serves the strict verdict and all eight levels, and it is
        # asked block by block, with no Kronecker lift.
        rep = generic_rep(np.random.default_rng(1), 2, 3)
        assert len(range_chain(rep)) == 1
        kron, calls = np.kron, []
        monkeypatch.setattr(np, "kron", lambda *args: calls.append(args) or kron(*args))
        report = is_regular(rep, horizon=8)
        assert calls == []
        assert report.strict and report.per_m == dict.fromkeys(range(1, 9), True)

    def test_shared_limit_verdict_matches_the_per_space_loop(self, monkeypatch):
        """Seeded maps whose range chains end below H: the per-level
        verdicts equal the loop that lifted every chain member and the
        limit once more, while only the members before the limit get a
        containment test of their own."""

        def per_space_loop(rep, s, horizon):
            chain = range_chain(rep)
            spaces = [*chain[:horizon], *[chain[-1]] * (horizon - len(chain))]
            return [contains(s, lift_subspace(1, rm, rep.dim_e)) for rm in spaces]

        reps = [truncated_shift_rep(4), truncated_shift_rep(6)]
        for seed in range(6):
            rng = np.random.default_rng([seed, 20240811])
            d, m = int(rng.integers(1, 3)), int(rng.integers(3, 6))
            reps.append(rank_deficient_rep(rng, d, m, int(rng.integers(1, m))))
        verdicts = set()
        for rep in reps:
            chain = range_chain(rep)
            kernel = rep.kernel(DEFAULT_POLICY)
            for horizon in range(1, len(chain) + 4):
                want = per_space_loop(rep, kernel, horizon)
                tests, in_ampliation = [], structure._in_ampliation
                monkeypatch.setattr(
                    structure, "_in_ampliation", lambda *a: tests.append(a) or in_ampliation(*a)
                )
                report = is_regular(rep, horizon=horizon)
                shared = list(structure._in_lifted_ranges(rep, kernel, horizon, DEFAULT_POLICY))
                monkeypatch.undo()
                assert list(report.per_m.values()) == shared == want
                # is_regular tests the limit for its strict verdict; the
                # generator alone tests it only for a level that needs it.
                own = len(chain[:-1][:horizon])
                assert len(tests) == (1 + own) + own + (own < horizon)
                verdicts.update(want)
        assert verdicts == {True, False}

    def test_condition_verdicts_consistent(self, rng):
        for _ in range(10):
            rep = generic_rep(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            assert not is_regular(rep).anomaly

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_strict_regularity_is_surjectivity(self, d):
        # ker V in E (x) R_inf makes V injective on E (x) R_inf-perp with an
        # image that meets R_inf only in 0, so d dim R_inf-perp + dim R_inf
        # <= dim H: R_inf = H for d >= 2, and R(V) = H for d = 1.
        verdicts = [(is_regular(rep).strict, rep.cokernel().dim == 0) for rep in chain_corpus(d)]
        assert all(strict == onto for strict, onto in verdicts)
        assert {strict for strict, _ in verdicts} == {True, False}


class TestFirstTieAgainstTheTwoTieRule:
    """Every chain stops at its first repeated dimension.  The rule that
    confirmed a tie by one more read (conftest) is the oracle, on the walk
    of fresh translates for the range chain: the members span its members
    up to its stable index, bit-equal ones for the joins, algebraic_core
    is the limit of the range chain, and the regularity reports are equal."""

    @staticmethod
    def limit_of_same_members(members, spaces, bitwise=True):
        old, stable = two_tie_chain_oracle(spaces)
        assert len(members) == stable
        for new, want in zip(members, old):
            if bitwise:
                assert np.array_equal(new.basis, want.basis)
            else:
                assert new.dim == want.dim and subspaces_equal(new, want)
        return old[stable - 1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_members_and_reports_match(self, d):
        pol = DEFAULT_POLICY
        lengths = set()
        for rep in chain_corpus(d):
            for r in (rep, mp_cauchy_dual(rep)):
                self.limit_of_same_members(range_chain(r), range_translates(r), bitwise=False)
            w = rep.cokernel()

            def joins():
                return itertools.accumulate(_translates(rep, w, pol), functools.partial(add, pol=pol))

            limit = self.limit_of_same_members(_stabilized_chain(joins()), joins())
            assert np.array_equal(generated_subspace(rep, w).basis, limit.basis)
            assert algebraic_core(rep) is range_chain(rep)[-1]
            for horizon in (1, 2, 3, None):
                assert is_regular(rep, horizon=horizon) == regularity_oracle(rep, horizon)
            lengths.add(len(range_chain(rep)))
        assert len(lengths) >= 4


class TestIllConditionedChains:
    """On maps of geometric spectra down to 1e-12 relative, every chain
    ends, and the range chain falls strictly, each member inside the one
    before, to a numerical range of the dense level at its stabilization
    index: of the same rank, and missing no part of the level above the
    cutoff of its rank rule.  Where that rule determines the range to
    tau_sub (the cutoff is at most tau_sub times the least singular value
    kept), the two ranges are equal; elsewhere a part of the level below
    the cutoff is dropped differently by the two rules."""

    def test_chains_end_and_range_chains_fall_strictly_to_the_dense_limit(self):
        pol = DEFAULT_POLICY
        compared = determined = 0
        for rep in ill_conditioned_corpus():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RankWarning)
                chain = range_chain(rep)
                n = len(chain)
                level = iterate_map(rep, n)
                dense = range_space(level, scale=rep.norm() ** n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankWarning)
                generated_subspace(rep, rep.cokernel())
                algebraic_core(rep)
            limit, dims = chain[-1], [space.dim for space in chain]
            assert all(earlier > later for earlier, later in zip(dims, dims[1:]))
            assert all(contains(later, earlier) for earlier, later in zip(chain, chain[1:]))
            if any(issubclass(w.category, RankWarning) for w in caught):
                continue
            s = np.linalg.svd(level, compute_uv=False)
            cut = _rank_cutoff(s, level.shape, pol, scale=rep.norm() ** n)
            assert limit.dim == dense.dim
            assert spectral_norm(level - limit.basis @ (limit.basis.conj().T @ level)) <= cut
            if limit.dim == 0 or cut <= pol.tau_sub * s[limit.dim - 1]:
                assert subspaces_equal(limit, dense)
                determined += 1
            compared += 1
        assert compared >= 80 and determined >= 40


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

    @staticmethod
    def assert_levels_match_the_oracle(s, d, top):
        """_biregular_levels on the representation of S* against the prefix
        verdicts of the dense oracle; returns the verdicts and how many levels
        the dimensions left undecided."""
        got = chain_levels(s, d, top)
        assert got == list(itertools.accumulate(biregular_levels_oracle(s, d, top), min))
        k, m = null_space(s).dim, s.shape[1]
        undecided = sum(1 for n in range(1, top + 1) if 0 < d**n * k <= m)
        return got, undecided

    def test_levels_match_eager_oracle(self, rng):
        reps = [
            generic_rep(rng, 2, 3),
            rank_deficient_rep(rng, 2, 3, 2),
            rank_deficient_rep(rng, 1, 4, 2),
            rank_deficient_rep(rng, 3, 5, 4),
            truncated_shift_rep(4),
            left_invertible_rep(rng, 3),
            Representation(2, 2, np.zeros((2, 4))),
            build_bilateral_shift(bilateral_spec(rng, n=2, M=3))[0],
            build_bilateral_shift(bilateral_spec(rng, n=1, M=3))[0],
        ]
        seen, undecided = set(), 0
        for rep in reps:
            for y in (np.zeros((rep.ambient_domain, rep.dim_h)),
                      rand_complex(rng, rep.ambient_domain, rep.dim_h)):
                gi = make_generalized_inverse(rep, y)
                got, read = self.assert_levels_match_the_oracle(gi.matrix, rep.dim_e, 4)
                seen.update(got)
                undecided += read
        assert seen == {True, False}
        assert undecided  # some level is not decided by the dimensions alone

    def test_moore_penrose_kernel_and_norm_from_the_svd_of_v(self, rng):
        # For S = V+ the representation of S* is the Moore-Penrose dual, whose
        # SVD is that of V, permuted: its cokernel is N(S) = ker V* and its
        # norm is ||S|| = 1/gamma, with no decomposition of V+.
        reps = [
            generic_rep(rng, 2, 3),
            rank_deficient_rep(rng, 2, 4, 2),
            truncated_shift_rep(4),
            left_invertible_rep(rng, 3),
            Representation(2, 2, np.zeros((2, 4))),
        ]
        for rep in reps:
            s = rep.pseudo_inverse()
            dual = mp_cauchy_dual(rep)
            assert subspaces_equal(dual.cokernel(), null_space(s))
            assert subspaces_equal(dual.cokernel(), rep.cokernel())
            assert dual.norm() == pytest.approx(float(np.linalg.norm(s, 2)), rel=1e-12, abs=0.0)
            got = list(_biregular_levels(range_chain(dual), rep.dim_e, 3))
            assert got == list(itertools.accumulate(biregular_levels_oracle(s, rep.dim_e, 3), min))

    def test_a_weight_below_a_level_cutoff_is_kept_by_the_chain(self):
        # S removes the first letter of a word over d = 2 letters, with weight
        # eps on words of length one, so eps is a singular value of S, S^(2)
        # and S^(3), which maps the words of length 3 onto E^(x)3 (x) N(S):
        # level n holds iff n <= 3.  The chain decides each rank on its
        # r x dr core and keeps eps; the dense oracle anchors its cutoff at
        # 1e-10 * ||S||^n * max(shape), 1.2e-8 for the 120 rows of S^(3),
        # and drops eps there.
        s = word_removal(2, 3, [8e-9, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            assert chain_levels(s, 2, 4) == [True, True, True, False]
            assert biregular_levels_oracle(s, 2, 4) == [True, True, False, False]

    def test_recursion_matches_the_oracle_prefix_on_a_seeded_corpus(self, monkeypatch, rng):
        # Level m compares the ranks of level m of A = S* on all of
        # E^(x)m (x) H and on E^(x)m (x) R(A), which are dim R(A_m) and
        # dim R(A_(m+1)) on the range chain of A; maps of every rank at
        # d = 1, 2, 3, each with S = V+ and a random generalized inverse.
        # No level is built.
        reps = [
            rank_deficient_rep(rng, d, m, r)
            for d in (1, 2, 3)
            for m in (2, 3, 4)
            for r in range(m + 1)
        ]
        reps += [truncated_shift_rep(length) for length in (3, 4, 5)]
        reps += [Representation(1, 3, REVERSE_ORDER_A), Representation(1, 3, REVERSE_ORDER_A.T)]
        reps += [build_bilateral_shift(bilateral_spec(rng, n=2, M=2))[0]]
        forbid_levels(monkeypatch)
        first_failures, undecided = set(), 0
        for rep in reps:
            for y in (np.zeros((rep.ambient_domain, rep.dim_h)),
                      rand_complex(rng, rep.ambient_domain, rep.dim_h)):
                s = make_generalized_inverse(rep, y).matrix
                got, read = self.assert_levels_match_the_oracle(s, rep.dim_e, 4)
                first_failures.add(got.index(False) + 1 if False in got else None)
                undecided += read
        assert first_failures == {None, 1, 2, 3, 4}
        assert undecided

    @pytest.mark.parametrize(
        "eps, dense", [(4e-9, [True, False, False, False]), (2e-8, [True, True, True, False])]
    )
    def test_a_rank_rule_that_disagrees_with_the_factors_is_decided_by_the_chain(
        self, monkeypatch, eps, dense
    ):
        # Word removal with weight eps on the words of length one, next to an
        # injective block with singular values 1, 1, eps: level n holds iff
        # n <= 3.  eps lies between the cutoffs of the dense levels 1 and 2
        # (4e-9) or 2 and 3 (2e-8), so at 4e-9 the rule of level 2 drops a
        # singular value that the product of the kept factors has.  The chain
        # steps one factor at a time and keeps it at both, and no level is
        # built.
        forbid_levels(monkeypatch)
        s = beside_injective_block(eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            got = chain_levels(s, 2, 4)
            assert biregular_levels_oracle(s, 2, 4) == dense
        assert got == [True, True, True, False]

    # The near-cutoff maps on which the chain and the dense oracle differ:
    # word removal, alone and beside_injective_block, with one weight eps at
    # any word length, for these (d, length, eps).  On each the chain gives
    # the exact verdict, level n holds iff n <= length, and the dense rule
    # of a level drops eps one level early.
    CHAIN_EXACT_WHERE_THE_LEVEL_RULE_IS_NOT = {(2, 3, 1e-8), (3, 2, 1e-8), (3, 3, 1e-7)}

    def test_rank_identity_matches_the_oracle_near_every_cutoff(self, monkeypatch, rng):
        # Part 1: word removal with one weight eps at one word length, alone
        # and beside_injective_block, at d = 2 and 3.  Part 2:
        # rank-deficient maps whose nonzero singular values fall geometrically
        # from 1 to 1e-6, each with S = V+ and a random generalized inverse.
        # Both put singular values of S^(n) near the cutoffs of the levels.
        # The oracle decides every map but those pinned above.
        forbid_levels(monkeypatch)
        maps = []
        for d, length in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for at, eps in itertools.product(range(length), np.geomspace(1e-12, 1e-6, 7)):
                words = word_removal(d, length, [eps if k == at else 1.0 for k in range(length)])
                pinned = any(
                    (d, length) == (pd, plength) and np.isclose(eps, peps, rtol=1e-9, atol=0.0)
                    for pd, plength, peps in self.CHAIN_EXACT_WHERE_THE_LEVEL_RULE_IS_NOT
                )
                exact = [n <= length for n in range(1, 5)] if pinned else None
                maps += [(words, d, exact), (beside_injective_block(eps, words, d), d, exact)]
        for d, m in itertools.product((1, 2, 3), (3, 4, 5)):
            for rank in range(1, m):
                spectrum = np.geomspace(1.0, 1e-6, rank)
                v = (rand_unitary(rng, m)[:, :rank] * spectrum) @ rand_unitary(rng, d * m)[:rank]
                rep = Representation(d, m, v)
                for y in (np.zeros((d * m, m)), rand_complex(rng, d * m, m)):
                    maps.append((make_generalized_inverse(rep, y).matrix, d, None))
        verdicts, undecided, pinned = set(), 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for s, d, exact in maps:
                if exact is None:
                    got, read = self.assert_levels_match_the_oracle(s, d, 4)
                    undecided += read
                else:
                    got = chain_levels(s, d, 4)
                    assert got == exact
                    assert list(itertools.accumulate(biregular_levels_oracle(s, d, 4), min)) != got
                    pinned += 1
                verdicts.add(tuple(got))
        assert {got.count(True) for got in verdicts} >= {0, 1, 2, 3}
        assert undecided and pinned == 16 and len(maps) == 194

    def test_chain_identity_matches_the_oracle_on_the_corpora(self, rng):
        # No disagreement away from the cutoffs: every map of mixed_corpus and
        # chain_corpus, with S = V+ and a random generalized inverse.
        reps = mixed_corpus(600) + [rep for d in (1, 2, 3) for rep in chain_corpus(d)]
        verdicts = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for rep in reps:
                for y in (np.zeros((rep.ambient_domain, rep.dim_h)),
                          rand_complex(rng, rep.ambient_domain, rep.dim_h)):
                    s = make_generalized_inverse(rep, y).matrix
                    verdicts.add(tuple(self.assert_levels_match_the_oracle(s, rep.dim_e, 4)[0]))
        assert {got.count(True) for got in verdicts} >= {0, 1, 2, 3, 4}

    @pytest.mark.filterwarnings("ignore::woldkit.linalg.RankWarning")
    @pytest.mark.parametrize("eps", [1e-7, 1e-6])
    def test_word_removal_with_one_small_weight_is_exact(self, eps):
        # Level n of word removal up to length L holds iff n <= L, whatever
        # word length carries the weight eps, alone and beside an injective
        # block.
        for d, length in itertools.product((2, 3), (2, 3)):
            for at in range(length):
                words = word_removal(d, length, [eps if k == at else 1.0 for k in range(length)])
                for s in (words, beside_injective_block(eps, words, d)):
                    assert chain_levels(s, d, 4) == [n <= length for n in range(1, 5)], (d, length, at)

    def test_levels_are_the_chain_dimension_identity(self, monkeypatch, rng):
        # Level m holds iff dim R(A_m) - dim R(A_(m+1)) = d^m dim N(S), with
        # R(A_n) the limit of the chain of A past its length; no SVD walk.
        def no_walk(*_):
            raise AssertionError("an SVD walk was taken")

        monkeypatch.setattr(structure, "_svd_levels", no_walk)
        reps = mixed_corpus(60) + [rep for d in (1, 2, 3) for rep in chain_corpus(d)]
        for rep in reps:
            s = make_generalized_inverse(rep, rand_complex(rng, rep.ambient_domain, rep.dim_h)).matrix
            adjoint = Representation(rep.dim_e, rep.dim_h, s.conj().T)
            chain = range_chain(adjoint)

            def dim(n):
                return chain[min(n, len(chain)) - 1].dim

            holds, want = True, []
            for m in range(1, 7):
                holds = holds and dim(m) - dim(m + 1) == rep.dim_e**m * (rep.dim_h - dim(1))
                want.append(holds)
            assert list(_biregular_levels(chain, rep.dim_e, 6)) == want


def no_level_is_built(*_):
    raise AssertionError("a level was built")


def forbid_levels(monkeypatch):
    """Make the level walks of V and of a lowering iterate fail in structure."""
    for name in ("_map_levels", "_lower_levels"):
        monkeypatch.setattr(structure, name, no_level_is_built)


def chain_levels(s, d, top):
    """The verdicts of _biregular_levels for S: H -> E (x) H at dim E = d."""
    return list(_biregular_levels(range_chain(Representation(d, s.shape[1], s.conj().T)), d, top))


def beside_injective_block(eps, words=None, d=2):
    """The map words (by default word_removal(2, 3, [eps, 1, 1])) on C^k next
    to an injective map C^3 -> E (x) C^3 with singular values 1, 1, eps, as
    one S on H = C^k + C^3."""
    if words is None:
        words = word_removal(2, 3, [eps, 1.0, 1.0])
    k = words.shape[1]
    block = np.zeros((3 * d, 3))
    block[:3] = np.diag([1.0, 1.0, eps])
    s = np.zeros((d * (k + 3), k + 3), dtype=np.complex128)
    for j in range(d):
        s[(k + 3) * j : (k + 3) * j + k, :k] = words[k * j : k * (j + 1)]
        s[(k + 3) * j + k : (k + 3) * (j + 1), k:] = block[3 * j : 3 * (j + 1)]
    return s


def word_removal(d, length, weights):
    """S: H -> E (x) H on the span H of the words of length at most `length`
    over d letters: S(a w) = weights[|w|] e_a (x) w, and S kills the empty word."""
    words = [w for k in range(length + 1) for w in itertools.product(range(d), repeat=k)]
    index = {w: i for i, w in enumerate(words)}
    m = len(words)
    s = np.zeros((d * m, m), dtype=np.complex128)
    for w in words[1:]:
        s[w[0] * m + index[w[1:]], index[w]] = weights[len(w) - 1]
    return s


def biregular_levels_oracle(s, d, top, pol=DEFAULT_POLICY):
    """Every level S^(n) built and tested by residuals, as before the
    dimension rule and the SVD walk."""
    ker_s = null_space(s, pol)
    ns = np.linalg.norm(s, 2)
    out = []
    for n in range(1, top + 1):
        ker_lifted = lift_subspace(n, ker_s, d)
        rng_n = range_space(lowering_oracle(s, d, n), pol, scale=ns**n)
        out.append(contains_oracle(ker_lifted, rng_n, pol))
    return out


def n_dagger_oracle(rep, n, pol=DEFAULT_POLICY):
    """Whether V+^(n) = (V_n)+, by dense 2-norms of the gap and of (V_n)+:
    ||V+^(n) - (V_n)+|| <= 1e-8 max(1, ||(V_n)+||), with the rank rule of
    (V_n)+ anchored at ||V||^n.  On an invertible map the gap is round-off
    of about cond(V)^n eps, so at high levels of an ill-conditioned one it
    can exceed the threshold where the reverse-order law holds exactly."""
    if n == 1:
        return True
    lowered = iterated_pinv_oracle(rep, n, pol)
    direct = pinv(iterate_map(rep, n), pol, scale=rep.norm() ** n)
    gap = float(np.linalg.norm(lowered - direct, 2))
    return gap <= 1e-8 * max(1.0, float(np.linalg.norm(direct, 2)))


class TestDagger:
    def test_first_level_always(self, rng):
        assert is_hyper_dagger(generic_rep(rng, 2, 2), 1)
        assert is_hyper_dagger(Representation(1, 2, np.array([[1.0, 1.0], [0.0, 0.0]])), 1)

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
        assert not n_dagger_oracle(rep, 2)
        assert not is_hyper_dagger(rep, 2)

    def test_matches_dense_norm_formula(self, rng):
        reps = [generic_rep(rng, 2, 2), generic_rep(rng, 1, 4), coisometry_rep(rng, 2, 3)]
        reps += [rank_deficient_rep(rng, 2, 3, r) for r in (1, 2)]
        reps += [left_invertible_rep(rng, 4), truncated_shift_rep(4), truncated_shift_rep(6)]
        reps += [Representation(1, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))]
        # ||(V_n)+|| = 1e5^n scales the round-off of the gap and the threshold.
        reps += [Representation(1, 3, 1e-5 * left_invertible_rep(rng, 3).matrix)]
        reps += [generic_rep(rng, 3, 2), rank_deficient_rep(rng, 3, 3, 2)]
        reps += [build_bilateral_shift(bilateral_spec(rng, n=2, M=2))[0]]
        verdicts = []
        for rep in reps:
            dense = list(itertools.accumulate((n_dagger_oracle(rep, n) for n in range(1, 5)), min))
            assert [is_hyper_dagger(rep, n) for n in range(1, 5)] == dense
            verdicts += dense
        assert True in verdicts[1::4] and False in verdicts[1::4]

    def test_rank_reads_the_level_shape(self):
        # V = [D | 0], D = diag(1, 1e-3): V_3 = [D^3 | 0] is 2 x 16 with
        # sigma_2 = 1e-9, below the cutoff 1e-10 * 16 of the level and
        # above the cutoff 1e-10 * 4 that the 2 x 4 core would give.
        rep = Representation(2, 2, np.hstack([np.diag([1.0, 1e-3]), np.zeros((2, 2))]))
        with pytest.warns(RankWarning):
            assert not n_dagger_oracle(rep, 3)
        with pytest.warns(RankWarning):
            assert not is_hyper_dagger(rep, 3)

    def test_rank_cutoff_is_anchored_at_the_norm_power(self):
        # V = [[e, 1], [0, e]], e = 1e-4: ||V|| ~ 1 but ||V_2|| ~ 2e-4, and
        # sigma_2(V_2) ~ e^3 / 2 lies between the cutoff 1e-10 * 2 ||V||^2
        # and the cutoff 1e-10 * 2 ||V_2|| anchored at the level alone.
        rep = Representation(1, 2, np.array([[1e-4, 1.0], [0.0, 1e-4]]))
        assert not n_dagger_oracle(rep, 2)
        assert not is_hyper_dagger(rep, 2)

    @pytest.mark.parametrize("rank", [0, 1, 3, 5])
    def test_level_pinv_norm_is_one_over_sigma_r(self, rng, rank):
        # ||(V_n)+|| = 1 / s[r-1] and R((V_n)+*) = u[:, :r], with (u, s) read
        # off the walk and r by the rank rule of the level.
        rep = rank_deficient_rep(rng, 2, 5, rank) if rank else Representation(2, 5, np.zeros((5, 10)))
        for n, (u, s) in zip(range(1, 4), _svd_levels(rep)):
            r = _level_rank(rep, n, s, DEFAULT_POLICY)
            want = pinv(iterate_map(rep, n), scale=rep.norm() ** n)
            norm = 1.0 / float(s[r - 1]) if r else 0.0
            assert norm == pytest.approx(spectral_norm(want), rel=1e-10, abs=0.0)
            assert subspaces_equal(range_space(want.conj().T), Subspace(5, u[:, :r]))

    def test_randomized_search_finds_failure(self, rng):
        found = False
        for _ in range(20):
            rep = generic_rep(rng, 2, 2)
            if not is_hyper_dagger(rep, 2):
                found = True
                break
        assert found


def reverse_order_conditions_oracle(rep, n, pol=DEFAULT_POLICY):
    """Conditions (a), (b) and (c) of is_hyper_dagger at level n, on dense
    lifts: V*V maps E (x) R(V_{n-1}) into itself, I (x) V_{n-1}V_{n-1}* maps
    R(V*) into itself, and the rank of V_n is the number of cosines above
    tau_sub between R(V*) and E (x) R(V_{n-1})."""
    d, v, nv = rep.dim_e, rep.matrix, rep.norm()
    prev = iterate_map(rep, n - 1)
    lifted = np.kron(np.eye(d), range_space(prev, pol, scale=nv ** (n - 1)).basis)
    q = range_space(v.conj().T, pol).basis
    x = v.conj().T @ v @ lifted
    a = np.linalg.norm(x - lifted @ (lifted.conj().T @ x)) <= 1e-8 * max(1.0, nv**2)
    y = np.kron(np.eye(d), prev @ prev.conj().T) @ q
    b = np.linalg.norm(y - q @ (q.conj().T @ y)) <= 1e-8 * max(1.0, spectral_norm(prev) ** 2)
    cosines = np.linalg.svd(lifted.conj().T @ q, compute_uv=False) if lifted.size and q.size else []
    rank = range_space(iterate_map(rep, n), pol, scale=nv**n).dim
    return a, b, rank == int(np.count_nonzero(np.asarray(cosines) > pol.tau_sub))


REVERSE_ORDER_A = np.array([[0, 1, 0], [0, 2, 0], [1, 0, 0]], dtype=np.complex128)


class TestReverseOrderLaw:
    """is_hyper_dagger decides each level from the one before on E (x) H;
    the dense n_dagger_oracle of every level up to the horizon is the oracle."""

    @staticmethod
    def corpus(rng):
        reps = [
            rank_deficient_rep(rng, d, m, r)
            for d in (1, 2, 3)
            for m in (2, 3, 4)
            for r in range(m + 1)
        ]
        for d in (1, 2, 3):
            reps += [generic_rep(rng, d, 3), coisometry_rep(rng, d, 3)]
            sparse = rand_complex(rng, 4, 4 * d)
            sparse[rng.uniform(size=sparse.shape) < 0.7] = 0.0
            reps.append(Representation(d, 4, sparse))
        reps += [truncated_shift_rep(4), left_invertible_rep(rng, 3)]
        reps += [build_bilateral_shift(bilateral_spec(rng, n=2, M=2))[0]]
        reps += [Representation(1, 3, REVERSE_ORDER_A), Representation(1, 3, REVERSE_ORDER_A.T)]
        return reps

    def test_prefix_matches_the_dense_levels(self, rng):
        verdicts = set()
        for rep in self.corpus(rng):
            dense = list(itertools.accumulate((n_dagger_oracle(rep, n) for n in range(1, 5)), min))
            got = [is_hyper_dagger(rep, horizon) for horizon in range(1, 5)]
            assert got == dense
            verdicts.update(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "matrix, d, level, failing",
        [
            (REVERSE_ORDER_A, 1, 2, 0),  # V*V moves R(V) out of itself
            (REVERSE_ORDER_A.T, 1, 2, 1),  # V V* moves R(V*) out of itself
            (np.array([[1e-4, 1.0], [0.0, 1e-4]]), 1, 2, 2),  # the cutoff of V_2
            (np.hstack([np.diag([1.0, 1e-3]), np.zeros((2, 2))]), 2, 3, 2),  # the shape of V_3
            # ... with ker V and ker V_2* nonzero, so the cosines give the rank
            (np.hstack([np.diag([1.0, 1e-3, 0.0]), np.zeros((3, 3))]), 2, 3, 2),
        ],
    )
    def test_each_condition_decides_a_false(self, matrix, d, level, failing):
        rep = Representation(d, matrix.shape[0], matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            assert all(all(reverse_order_conditions_oracle(rep, n)) for n in range(2, level))
            conditions = reverse_order_conditions_oracle(rep, level)
            assert [i for i, holds in enumerate(conditions) if not holds] == [failing]
            assert is_hyper_dagger(rep, level - 1)
            assert not is_hyper_dagger(rep, level)
            assert not n_dagger_oracle(rep, level)

    def test_invertible_levels_are_decided_exactly(self, rng):
        # An invertible V is hyper-dagger in exact arithmetic.  At d = 1 the
        # law decides it from ranks alone, while the dense gap of V_5 with
        # cond(V) ~ 70 is round-off of the size of the threshold.
        rep = Representation(1, 3, rand_complex(rng, 3, 3) @ rand_complex(rng, 3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            assert is_hyper_dagger(rep, 5)

    def test_no_level_sized_array(self, rng):
        # Level 6 of an m = 20, d = 3 map has 3^6 * 20 columns; the test holds
        # only dm x dm arrays.
        rep = coisometry_rep(rng, 3, 20)
        rep.pseudo_inverse()
        tracemalloc.start()
        try:
            assert is_hyper_dagger(rep, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (3 * 20) ** 2 * 16


def _verdict_and_warnings(decide, rep, horizon, pol):
    """decide(rep, horizon, pol) on a fresh copy of rep, whose memoized rank
    warns anew, with the set of RankWarning messages it raised."""
    fresh = Representation(rep.dim_e, rep.dim_h, rep.matrix)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always", RankWarning)
        verdict = decide(fresh, horizon, pol)
    return verdict, {str(r.message) for r in records if issubclass(r.category, RankWarning)}


class TestInvertibleCertificate:
    """An invertible d = 1 map whose gamma(V)^top clears the rank cutoff of
    level top is hyper-dagger without the walk; the walk is the oracle."""

    def test_matches_the_walk(self):
        certified = set()
        for rep in invertible_corpus():
            for horizon, tau_rank in itertools.product((2, 4, 8, 12), (1e-6, 1e-10, 1e-14, 1e-16)):
                pol = TolerancePolicy(tau_rank=tau_rank)
                got = _verdict_and_warnings(is_hyper_dagger, rep, horizon, pol)
                assert got == _verdict_and_warnings(hyper_dagger_walk_oracle, rep, horizon, pol)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RankWarning)
                    certified.add(structure._powers_keep_full_rank(rep, horizon, pol))
        assert certified == {True, False}

    def test_a_certified_map_takes_no_svd(self, rng, monkeypatch):
        rep = left_invertible_rep(rng, 20)
        rep.svd()

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        # structure and model both call it as np.linalg.svd.
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert is_hyper_dagger(rep, 8)


def _outcome_and_warnings(decide, rep, pol):
    """decide(fresh copy of rep, pol), as plain data, with the set of
    RankWarning messages it raised: a Subspace as its basis bits, an
    exception as its type and message."""
    fresh = Representation(rep.dim_e, rep.dim_h, rep.matrix)
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always", RankWarning)
        try:
            out = decide(fresh, pol)
        except (BudgetExceeded, NotRegular) as exc:
            out = (type(exc).__name__, str(exc))
    if isinstance(out, Subspace):
        out = (out.dim, out.basis.shape, out.basis.tobytes())
    return out, {str(r.message) for r in records if issubclass(r.category, RankWarning)}


class TestWalkFixedPoint:
    """Every reader of _svd_levels gives what it gives on the plain walk of
    svd_levels_oracle, which never reuses a level, with the same RankWarning
    messages.  The level cutoffs grow with (d ||V||)^n, so at the larger
    tau_rank a walk past its fixed point has levels whose rank rule warns
    or drops the rank.  The algebraic core and the biregular levels read
    the range chain and no walk, so neither moves with it."""

    READERS = {
        "is_hyper_dagger": lambda rep, pol: is_hyper_dagger(rep, 10, pol),
        "biregular_levels": lambda rep, pol: list(
            _biregular_levels(
                range_chain(Representation(rep.dim_e, rep.dim_h, rep.pseudo_inverse(pol).conj().T), pol),
                rep.dim_e,
                min(8, budget_horizon(rep)),
            )
        ),
        "generalized_range": algebraic_core,
        "gamma_power_bound_check": lambda rep, pol: gamma_power_bound_check(rep, 10, pol),
    }

    @pytest.mark.parametrize("tau_rank", [1e-10, 1e-6, 1e-4, 1e-3])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_readers_match_the_plain_walk(self, monkeypatch, reader, tau_rank):
        decide, pol = self.READERS[reader], TolerancePolicy(tau_rank=tau_rank)
        got = [_outcome_and_warnings(decide, rep, pol) for rep in fixed_point_corpus()]
        for module in (structure, growth):
            monkeypatch.setattr(module, "_svd_levels", svd_levels_oracle)
        want = [_outcome_and_warnings(decide, rep, pol) for rep in fixed_point_corpus()]
        assert got == want

    @pytest.mark.filterwarnings("ignore::woldkit.linalg.RankWarning")
    def test_hyper_dagger_matches_its_walk_oracle(self):
        for rep in fixed_point_corpus():
            if not structure._powers_keep_full_rank(rep, min(10, budget_horizon(rep)), DEFAULT_POLICY):
                assert _verdict_and_warnings(is_hyper_dagger, rep, 10, DEFAULT_POLICY) == (
                    _verdict_and_warnings(hyper_dagger_walk_oracle, rep, 10, DEFAULT_POLICY)
                )

    def test_a_bilateral_window_reads_three_levels(self, monkeypatch):
        # Levels 3 to 8 of the n = 2, M = 8 window hold the same bits, so
        # levels 5 to 8 repeat level 4's pair of levels and its ranks.
        rep = build_bilateral_shift(generate_named("bilateral", 1, {"n": "2", "M": "8"}))[0]
        rep.svd()
        calls = {"svd": 0, "law": 0}
        svd, law = np.linalg.svd, structure._reverse_order_law

        def counted(key, fn):
            def call(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(structure, "_reverse_order_law", counted("law", law))
        assert is_hyper_dagger(rep, 8)
        assert calls == {"svd": 6, "law": 3}


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
            assert not fixed_point_range_check(rep, GenInverse(matrix=s), horizon=4)

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
        # V+^(n) is the adjoint of level n of the dual (V+)*, which the
        # readers of the iterates read instead of building it.
        assert np.allclose(iterate_map(mp_cauchy_dual(rep), 2).conj().T, manual)
