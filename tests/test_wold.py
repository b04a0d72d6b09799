import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from woldkit import model, structure, verify, wold
from woldkit.cli import main
from woldkit.errors import NotContraction, PreconditionFailed
from woldkit.generate import (
    bilateral_spec,
    generate_named,
    block_wold_rep,
    coisometry_rep,
    concave_rep,
    expansive_rep,
    generic_rep,
    left_invertible_rep,
    rand_unitary,
    rank_deficient_rep,
    shift_polynomial_pair,
    truncated_shift_rep,
    unilateral_spec,
    weighted_truncated_shift,
)
from woldkit.linalg import (
    DEFAULT_POLICY,
    RankWarning,
    Subspace,
    TolerancePolicy,
    _subspace,
    complement,
    contains,
    intersect,
    range_space,
    subspaces_equal,
)
from woldkit.model import Representation, budget_horizon
from woldkit.shifts import build_bilateral_shift, build_unilateral_shift
from woldkit.structure import GenInverse, default_horizon, is_biregular, is_regular, range_chain
from woldkit.wold import (
    HorizonPlan,
    check_intertwiner,
    check_purity_transfer,
    duality_check,
    generated_subspace,
    horizon_plan,
    is_pure_contraction,
    kernel_span_check,
    mp_cauchy_dual,
    wandering_space,
    wold_decompose,
    wold_diagnostics,
)

from conftest import (
    ill_conditioned_corpus,
    kernel_join_oracle,
    kernel_span_oracle,
    lift_subspace,
    lifted_regularity_oracle,
    mixed_corpus,
    split_residuals_oracle,
    wandering_oracle,
    wold_restriction_oracle,
    wold_split_oracle,
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
    """ker V* is wandering: orthogonal to its forward translates, by the
    dense conftest.wandering_oracle."""

    def test_zero_subspace(self, rng):
        rep = generic_rep(rng, 2, 3)
        assert wandering_oracle(rep, Subspace.zero(3))

    def test_kernel_of_adjoint_for_shift(self, rng):
        reps = [truncated_shift_rep(5), weighted_truncated_shift([1.5, 2.0, 1.2])]
        reps += [block_wold_rep(rng, n_shift=1 + i % 2, n_unitary=i // 2)[0] for i in range(4)]
        reps += [build_unilateral_shift(unilateral_spec(rng, d=2, L=2))[0]]
        reps += [rank_deficient_rep(rng, d, 3, 2) for d in (1, 2)] + mixed_corpus(20)
        for rep in reps:
            assert wandering_oracle(rep, wandering_space(rep), horizon=4)

    def test_full_space_fails_for_nonzero_map(self, rng):
        rep = generic_rep(rng, 1, 3)
        assert not wandering_oracle(rep, Subspace.full(3))


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
                gi = GenInverse(rep.pseudo_inverse())
                flag = wold_diagnostics(rep, horizon).biregular
                assert flag == is_biregular(rep, gi, horizon).holds

    def test_biregular_and_hyper_dagger_read_the_same_top_level(self, monkeypatch, rng):
        # This shift is biregular up to level 3 with dim ker V* = 1, and
        # level 4 fails (2^4 > 15 = dim H).  A budget of 4 * 15 columns
        # clamps both flags to level 2: the biregular flag reads levels 1
        # and 2 off the range chain of the dual, and the one SVD walk, that
        # of the hyper_dagger flag, stops at level 2.
        rep = build_unilateral_shift(unilateral_spec(rng, d=2, L=3))[0]
        assert not wold_diagnostics(rep, 4).biregular
        monkeypatch.setenv("WOLDKIT_BUDGET", str(4 * 15))
        deepest = []
        walk = structure._svd_levels

        def counted(r):
            deepest.append(0)
            for level in walk(r):
                deepest[-1] += 1
                yield level

        monkeypatch.setattr(structure, "_svd_levels", counted)
        assert wold_diagnostics(rep, 4).biregular  # raises no BudgetExceeded
        assert deepest == [2]

    def test_flags_build_no_level_sized_array(self, monkeypatch, rng):
        # Unilateral d = 2, L = 6: dim H = 127 and both flags read levels up
        # to 7, of 2^7 * 127 columns.  Deciding them on E (x) H keeps each
        # below 16 MB; the dense levels peaked at 133 and 51 MB.
        rep = build_unilateral_shift(unilateral_spec(rng, d=2, L=6))[0]
        peaks = {}

        def traced(name, fn):
            def run(*args):
                tracemalloc.start()
                try:
                    out = fn(*args)
                    out = out if isinstance(out, bool) else iter(list(out))
                    peaks[name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                return out

            return run

        monkeypatch.setattr(wold, "_hyper_dagger_up_to", traced("hyper_dagger", wold._hyper_dagger_up_to))
        monkeypatch.setattr(wold, "_biregular_levels", traced("biregular", wold._biregular_levels))
        res = wold_diagnostics(rep, default_horizon(rep))
        assert res.hyper_dagger and res.horizon > budget_horizon(rep) == 7
        assert peaks.keys() == {"hyper_dagger", "biregular"}
        assert max(peaks.values()) < 16e6

    def test_biregular_reads_level_one_when_no_level_fits(self, monkeypatch, rng):
        # d * m = 6 columns exceed the budget, so budget_horizon is 0; the
        # flag still reads level 1, E (x) N(S) inside R(S) for S = V+, off
        # the range chain of the dual, which needs no budget.
        rep = rank_deficient_rep(rng, 2, 3, 2)
        level_one = contains(lift_subspace(1, rep.cokernel(), 2), range_space(rep.pseudo_inverse()))
        monkeypatch.setenv("WOLDKIT_BUDGET", "5")
        assert budget_horizon(rep) == 0
        assert wold_diagnostics(rep, 4).biregular == level_one  # raises no BudgetExceeded
        assert not level_one  # dim E (x) N(S) = 2 = dim R(S), and R(S) is generic
        assert wold_diagnostics(coisometry_rep(rng, 2, 3), 4).biregular  # N(S) = 0

    def test_coimage_is_read_off_the_svd_of_v(self, monkeypatch, rng):
        # The domain of the restriction is E (x) R_inf met with R(V*): the
        # coordinates y of (I (x) R_inf) y in the kernel of K* (I (x) R_inf),
        # K* the trailing rows of vh, equal the dense intersection.
        seen, kernel = [], wold.null_space

        def recorded(*args, **kwargs):
            seen.append(kernel(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(wold, "null_space", recorded)
        for d in (1, 2, 3):
            reps = [generic_rep(rng, d, 3), rank_deficient_rep(rng, d, 3, 2)]
            reps += [rank_deficient_rep(rng, d, 4, 1), Representation(d, 3, np.zeros((3, 3 * d)))]
            for rep in reps:
                seen.clear()
                rinf = wold_diagnostics(rep, 2).generalized_range
                (y,) = seen
                lifted = lift_subspace(1, rinf, d)
                dom = Subspace(rep.ambient_domain, lifted.basis @ y.basis)
                assert subspaces_equal(dom, intersect(lifted, complement(rep.kernel())))

    def test_verdicts_match_the_dense_lift(self):
        """The restriction flags of wold_diagnostics and the regularity
        verdicts equal the formulas that formed E (x) R_inf by a Kronecker
        basis and met it with R(V*) in E (x) H, on ill-conditioned and
        structured maps."""
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for rep in ill_conditioned_corpus(1500) + mixed_corpus(600):
                flags = wold_diagnostics(rep, 4).as_dict()["flags"]
                want = wold_restriction_oracle(rep)
                assert {name: flags[name] for name in want} == want
                report = is_regular(rep, horizon=6)
                assert (report.strict, report.per_m) == lifted_regularity_oracle(rep, 6)
                seen.update((name, value) for name, value in want.items())
                seen.add(("regular", report.strict))
        assert len(seen) == 10  # every verdict is seen both ways

    def test_split_matches_the_dense_projectors(self):
        """Both residuals and the orthogonal, spans_H and dagger_equals_adjoint
        flags equal the formulas that formed the m x m projectors of [W] and
        R_inf and V+ - V*, and so do the column norms of (V+ - V*) X, on
        structured and ill-conditioned maps and block-Wold sums."""
        rng = np.random.default_rng(11)
        reps = mixed_corpus(600) + ill_conditioned_corpus(300)
        for _ in range(100):
            reps.append(block_wold_rep(rng, int(rng.integers(1, 4)), int(rng.integers(0, 4)))[0])
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for rep in reps:
                res = wold_diagnostics(rep, 4)
                report, want = res.as_dict(), wold_split_oracle(rep)
                assert {name: report["flags"][name] for name in want["flags"]} == want["flags"]
                for name, value in want["residuals"].items():
                    assert report["residuals"][name] == pytest.approx(value, rel=0, abs=1e-12)
                dense = rep.pseudo_inverse() - rep.matrix.conj().T
                scale = rep.norm() + 1.0 / rep.min_modulus()  # ||V*|| + ||V+||
                for x in (res.generalized_range.basis, np.eye(rep.dim_h)):  # R_inf, then all of H
                    gap = wold._adjoint_gap(rep, x, DEFAULT_POLICY)
                    want_gap = np.linalg.norm(dense @ x, axis=0)
                    np.testing.assert_allclose(gap, want_gap, rtol=1e-12, atol=1e-13 * scale)
                seen.update(want["flags"].items())
        # Both gated flags are seen both ways; H = [W] + R_inf holds exactly
        # in finite dimension, so no map of these corpora fails spans_H.
        gated = {(flag, value) for flag in ("orthogonal", "dagger_equals_adjoint") for value in (True, False)}
        assert seen == gated | {("spans_H", True)}

    def test_adjoint_gap_keeps_the_singular_values_past_the_rank(self, rng):
        # V+ vanishes on a singular direction below the rank cutoff and V*
        # does not, so (V+ - V*) u_i has norm s_i there, and 1/s_i - s_i
        # above the cutoff.
        u, w = rand_unitary(rng, 3), rand_unitary(rng, 3)
        rep = Representation(1, 3, (u * [2.0, 1.0, 1e-11]) @ w)
        assert rep._svd_rank(DEFAULT_POLICY) == 2
        gap = wold._adjoint_gap(rep, u, DEFAULT_POLICY)
        dense = np.linalg.norm((rep.pseudo_inverse() - rep.matrix.conj().T) @ u, axis=0)
        np.testing.assert_allclose(gap, [1.5, 0.0, 1e-11], rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(gap, dense, rtol=1e-9, atol=1e-14)

    def test_unitary_map_restricts_to_a_unitary(self, rng):
        u = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        res = wold_diagnostics(Representation(1, 5, u), 4)
        assert res.generalized_range.dim == 5
        assert res.unitary_restriction and res.fully_coisometric_restriction

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


class TestSplitResiduals:
    """wold._split_residuals on synthetic pairs: no corpus map reaches
    dim [W] + dim R_inf < m, since H = [W] + R_inf holds exactly in finite
    dimension and only a rank decision can break it."""

    @staticmethod
    def pairs(rng):
        for m in (2, 3, 5, 8):
            q = rand_unitary(rng, m)

            def span(*cols):
                return _subspace(m, q[:, list(cols)])

            for s in (Subspace.zero(m), Subspace.full(m), span(*range(m // 2))):
                yield Subspace.zero(m), s
                yield Subspace.full(m), s
            for b in range(1, m):
                yield span(*range(b)), span(*range(b, m))  # orthogonal, b + r = m
                yield span(*range(b)), span(*range(b + 1, m))  # orthogonal, b + r < m
                yield span(*range(b)), span(*range(b - 1, m))  # sharing q_(b-1), b + r > m
                if b + 2 < m:
                    yield span(*range(b)), span(b - 1, b)  # sharing q_(b-1), b + r < m
                for r in range(1, m):  # in general position: sharing b + r - m directions
                    yield (
                        _subspace(m, rand_unitary(rng, m)[:, :b]),
                        _subspace(m, rand_unitary(rng, m)[:, :r]),
                    )

    def test_matches_the_projector_formulas(self, rng):
        kinds = set()
        for s1, s2 in self.pairs(rng):
            got, want = wold._split_residuals(s1, s2), split_residuals_oracle(s1, s2)
            assert got == pytest.approx(want, rel=0, abs=1e-12)
            product = "0" if want[1] <= 1e-12 else "1" if want[1] >= 1 - 1e-12 else "between"
            kinds.add((int(np.sign(s1.dim + s2.dim - s1.ambient_dim)), product))
        # b + r < m orthogonal, generic and sharing; b + r = m orthogonal
        # and generic; b + r > m, where the two spaces always share
        assert len(kinds) == 6

    def test_zero_and_whole_space_split_exactly(self):
        for m in (1, 4):
            assert wold._split_residuals(Subspace.zero(m), Subspace.full(m)) == (0.0, 0.0)
            assert wold._split_residuals(Subspace.full(m), Subspace.zero(m)) == (0.0, 0.0)
            assert wold._split_residuals(Subspace.zero(m), Subspace.zero(m)) == (1.0, 0.0)


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

    def test_kernel_join_is_the_complement_of_the_dual_range(self, rng):
        reps = [truncated_shift_rep(n) for n in (1, 2, 4, 6)]
        reps += [block_wold_rep(rng, n_shift=1 + i % 2, n_unitary=i // 2)[0] for i in range(6)]
        reps += [rank_deficient_rep(rng, d, m, r) for d, m, r in ((1, 4, 2), (2, 4, 3), (3, 3, 1))]
        reps += [concave_rep(rng, m) for m in (2, 4)]
        reps.append(build_unilateral_shift(unilateral_spec(rng, d=2, L=2))[0])
        dims = set()
        for rep in reps:
            joined = complement(range_chain(mp_cauchy_dual(rep))[-1])
            assert subspaces_equal(joined, kernel_join_oracle(rep))
            dims.add(joined.dim / rep.dim_h)
        assert 0.0 in dims and 1.0 in dims and len(dims) > 2

    def test_budget_below_the_tie_depth_of_the_dual_is_no_bound(self, monkeypatch, rng):
        # The ranges of the dual of this shift tie at level 4; a level n has
        # 2^n * 15 columns, so the budget admits levels up to 3 only.
        rep = build_unilateral_shift(unilateral_spec(rng, d=2, L=3))[0]
        monkeypatch.setenv("WOLDKIT_BUDGET", str(2**3 * 15))
        assert duality_check(rep, horizon=3)
        # A coisometry's dual is surjective; a level n has 2^n * 3 columns.
        monkeypatch.setenv("WOLDKIT_BUDGET", "12")
        assert duality_check(coisometry_rep(np.random.default_rng(5), 2, 3))


class TestMemoizedStages:
    """wold_decompose and duality_check share [W] and the growth verdict of
    the preconditions, memoized on the representation."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        real = getattr(wold, name)
        monkeypatch.setattr(wold, name, lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_decompose_then_duality_builds_each_once(self, rng, monkeypatch):
        rep, _ = block_wold_rep(rng, n_shift=2, n_unitary=1)
        growth = self.counted(monkeypatch, "check_growth")
        joins = self.counted(monkeypatch, "generated_subspace")
        result = wold_decompose(rep, horizon=3)
        assert duality_check(rep, horizon=3)
        assert len(growth) == 1 and len(joins) == 1
        assert result.generated is wold._generated_wandering(rep, DEFAULT_POLICY)
        assert subspaces_equal(result.generated, generated_subspace(rep, wandering_space(rep)))

    def test_purity_transfer_reads_the_same_join(self, rng, monkeypatch):
        rep, a = shift_polynomial_pair(rng)
        joins = self.counted(monkeypatch, "generated_subspace")
        check_purity_transfer(rep, a)
        check_purity_transfer(rep, a)
        # [W] of rep once, then the join under each call's own dual.
        assert [call[0] is rep for call in joins] == [True, False, False]

    def test_another_key_builds_the_growth_verdict_again(self, rng, monkeypatch):
        # For a coisometry A = P, so every weight sequence is feasible; the
        # levels have 2^n * 3 columns.
        rep = coisometry_rep(rng, 2, 3)
        growth = self.counted(monkeypatch, "check_growth")

        def builds(**kwargs):
            before = len(growth)
            wold_decompose(rep, **kwargs)
            return len(growth) - before

        assert builds(horizon=3) == 1
        assert builds(horizon=3) == 0
        assert builds(horizon=2) == 1
        assert builds(horizon=3, d_seq=[1.0, 1.0, 1.0]) == 1
        assert builds(horizon=3, d_seq=[1.0, 1.0, 1.0]) == 0
        assert builds(horizon=3, d_seq=[2.0, 2.0, 2.0]) == 1
        assert builds(horizon=3, pol=TolerancePolicy(tau_rank=1e-9)) == 1
        monkeypatch.setenv("WOLDKIT_BUDGET", "6")  # budget_horizon 1: the growth horizon moves
        assert builds(horizon=3) == 1
        assert [call[2] for call in growth] == [3, 2, 3, 3, 3, 1]

    def test_an_infeasible_growth_verdict_raises_on_every_call(self, monkeypatch):
        # V = 2 on C needs d_1 >= 1; the report is built once and read twice.
        rep = Representation(1, 1, np.array([[2.0]]))
        growth = self.counted(monkeypatch, "check_growth")
        for _ in range(2):
            with pytest.raises(PreconditionFailed, match="growth"):
                wold_decompose(rep, d_seq=[0.0, 0.0], horizon=2)
        assert len(growth) == 1


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every woldkit module that binds it."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("woldkit"):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestHorizonPlan:
    """horizon_plan decides every stage horizon of analyze, the shift
    pipeline and wold_decompose, once per representation."""

    @staticmethod
    def nine_expressions(rep, requested, entry):
        """The stage horizons as the entry points decided them before the plan."""
        if entry == "shift":
            h = requested  # spec.L or spec.M
            growth = min(h, 4, budget_horizon(rep))
        else:  # --horizon or the wold_decompose argument, else the default
            h = default_horizon(rep) if requested is None else requested
            growth = min(h, budget_horizon(rep), 6) if entry == "analyze" else min(h, budget_horizon(rep))
        return HorizonPlan(
            regularity=h,
            growth=growth,
            biregular=min(h, max(budget_horizon(rep), 1)),
            hyper_dagger=min(h, budget_horizon(rep)),
        )

    def test_matches_the_nine_expressions(self, monkeypatch):
        # (representation, entry, requested horizon); a shift spec requests
        # its own L or M.
        cases = [(rep, entry, requested) for rep in mixed_corpus(60)
                 for entry in ("analyze", "wold") for requested in (None, 1, 3, 12)]
        for kind in ("generic", "left-invertible", "expansive", "concave", "unilateral", "bilateral"):
            for seed in (1, 2, 3):
                out = generate_named(kind, seed, {})
                if kind == "unilateral":
                    cases += [(build_unilateral_shift(out)[0], "shift", h) for h in (out.L, 1, 3, 12)]
                elif kind == "bilateral":
                    cases += [(build_bilateral_shift(out)[0], "shift", h) for h in (out.M, 1, 3, 12)]
                else:
                    cases += [(out, entry, h) for entry in ("analyze", "wold") for h in (None, 1, 3, 12)]
        clamped = {"growth": set(), "biregular": set(), "hyper_dagger": set()}
        for budget in (None, "200", "40", "15"):
            if budget is None:
                monkeypatch.delenv("WOLDKIT_BUDGET", raising=False)
            else:
                monkeypatch.setenv("WOLDKIT_BUDGET", budget)
            for rep, entry, requested in cases:
                plan = horizon_plan(rep, DEFAULT_POLICY, requested, entry)
                assert plan == self.nine_expressions(rep, requested, entry)
                for stage, seen in clamped.items():
                    seen.add(getattr(plan, stage) < plan.regularity)
        assert all(seen == {True, False} for seen in clamped.values())

    @pytest.fixture
    def counts(self, monkeypatch):
        return {
            "default_horizon": count_calls(monkeypatch, structure, "default_horizon"),
            "budget_horizon": count_calls(monkeypatch, model, "budget_horizon"),
            "is_regular": count_calls(monkeypatch, structure, "is_regular"),
            "chains": count_calls(monkeypatch, structure, "_nested_ranges"),
        }

    @pytest.mark.parametrize("kind, params", [
        ("generic", {"d": "2", "m": "4"}),
        ("concave", {}),
        ("unilateral", {}),
        ("bilateral", {"n": "2", "M": "3"}),
    ])
    def test_one_call_of_each_rule_per_analyze(self, tmp_path, capsys, counts, kind, params):
        instance = tmp_path / "instance.json"
        assert main(["generate", kind, "--seed", "1", "--params", *(f"{k}={v}" for k, v in params.items()),
                     "--out", str(instance)]) == 0
        for horizon in ([], ["--horizon", "5"]):
            for calls in counts.values():
                calls.clear()
            assert main(["analyze", str(instance), *horizon]) in (0, 2)
            assert len(counts["default_horizon"]) <= 1 and len(counts["budget_horizon"]) == 1
            assert len(counts["is_regular"]) == 1
            capsys.readouterr()

    def test_one_call_of_each_rule_per_wold_decompose(self, rng, counts):
        wold_decompose(coisometry_rep(rng, 2, 3))
        assert [len(counts[k]) for k in ("default_horizon", "budget_horizon", "is_regular")] == [1, 1, 1]

    def test_a_verify_wold_record_builds_each_stage_once(self, counts):
        # Each record runs wold_decompose and duality_check at horizon 3:
        # one plan, one regularity report, and the range chains of V and of
        # its Moore-Penrose dual.
        assert verify.run_suite("wold", count=6, seed=7).ok
        assert {k: len(v) for k, v in counts.items()} == {
            "default_horizon": 0, "budget_horizon": 6, "is_regular": 6, "chains": 12,
        }

    def test_the_dual_chain_is_built_once_for_its_three_readers(self, rng, counts):
        rep, _ = block_wold_rep(rng, n_shift=1, n_unitary=1)
        wold_diagnostics(rep, 3)
        chain = wold._dual_range_chain(rep, DEFAULT_POLICY)
        assert duality_check(rep, horizon=3)
        kernel_span_check(rep, 2)
        assert len(counts["chains"]) == 2  # V's and the dual's
        assert wold._dual_range_chain(rep, DEFAULT_POLICY) is chain
        assert [space.dim for space in chain] == [space.dim for space in range_chain(mp_cauchy_dual(rep))]


class TestMoorePenroseDual:
    """mp_cauchy_dual sets its svd() from that of V; the dense SVD of (V+)*
    is the oracle."""

    @staticmethod
    def dual_reps(rng):
        reps = [Representation(d, 3, rng.standard_normal((3, 3 * d))) for d in (1, 2, 3)]
        reps += [rank_deficient_rep(rng, d, 4, 2) for d in (1, 2, 3)]
        reps += [Representation(2, 3, np.zeros((3, 6))), truncated_shift_rep(4)]
        reps.append(build_bilateral_shift(bilateral_spec(rng, n=2, M=2))[0])  # zero weights
        return reps

    def test_factors_are_an_svd_of_the_dual(self, rng):
        for rep in self.dual_reps(rng):
            dual = mp_cauchy_dual(rep)
            u, s, vh = dual.svd()
            m, dm = rep.dim_h, rep.ambient_domain
            assert u.shape == (m, m) and s.shape == (m,) and vh.shape == (dm, dm)
            want = np.linalg.svd(dual.matrix, compute_uv=False)
            assert np.all(np.diff(s) <= 0.0)
            assert np.max(np.abs(s - want)) <= 1e-12 * want[0]
            scale = max(1.0, float(np.linalg.norm(rep.pseudo_inverse(), 2)))
            assert np.linalg.norm((u * s) @ vh[:m] - dual.matrix) <= 1e-13 * scale
            assert np.linalg.norm(u.conj().T @ u - np.eye(m)) <= 1e-13
            assert np.linalg.norm(vh @ vh.conj().T - np.eye(dm)) <= 1e-13

    def test_zero_map_keeps_its_identity_factors(self):
        u, s, vh = mp_cauchy_dual(Representation(2, 3, np.zeros((3, 6)))).svd()
        assert np.array_equal(u, np.eye(3)) and not s.any() and np.array_equal(vh, np.eye(6))

    def test_the_dual_is_not_decomposed(self, monkeypatch, rng):
        reps = self.dual_reps(rng) + [left_invertible_rep(rng, 3)]
        for rep in reps:
            rep.pseudo_inverse()  # the one SVD of V
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        for rep in reps:
            dual = mp_cauchy_dual(rep)
            dual.svd(), dual.norm(), dual.cokernel()
        assert calls == []
        assert mp_cauchy_dual(reps[0]) is not mp_cauchy_dual(reps[0])  # not memoized on rep


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

    def test_verdicts_agree_with_the_dense_oracle(self, rng):
        reps = [truncated_shift_rep(k) for k in (1, 3, 5)]
        reps += [weighted_truncated_shift([1.5, 2.0, 1.2])]
        for d in (1, 2, 3):
            reps += [generic_rep(rng, d, 2), rank_deficient_rep(rng, d, 3, 2)]
            reps.append(Representation(d, 3, np.zeros((3, 3 * d))))
        reps += [block_wold_rep(rng, n_shift=1 + i % 2, n_unitary=i // 2)[0] for i in range(4)]
        seconds = set()
        for rep in reps:
            for n in (1, 2, 3):
                verdicts = kernel_span_check(rep, n)
                assert verdicts == kernel_span_oracle(rep, n), (rep.dim_e, rep.dim_h, n)
                seconds.add(verdicts[1])
        assert seconds == {None, True}

    def test_depth_below_one_rejected(self, rng):
        with pytest.raises(ValueError):
            kernel_span_check(generic_rep(rng, 2, 2), 0)

    def test_first_containment_holds_on_ill_conditioned_maps(self):
        # ker V+^(n) = R(V'_n)^perp, the complement of member n of the range
        # chain of the dual V', lies in the join of the first n translates
        # of W: a theorem, read True on every map of the corpus.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for i, rep in enumerate(ill_conditioned_corpus(300)):
                for n in (1, 2, 3):
                    assert kernel_span_check(rep, n)[0], (i, n)


class TestCauchyDual:
    """On injective maps mp_cauchy_dual is the Cauchy dual V (V*V)^{-1}."""

    def test_unitary_is_self_dual(self, rng):
        rep = concave_rep(rng, 3)
        assert np.allclose(mp_cauchy_dual(rep).matrix, rep.matrix)

    def test_scalar(self):
        rep = Representation(1, 1, np.array([[2.0]], dtype=complex))
        assert mp_cauchy_dual(rep).matrix[0, 0] == pytest.approx(0.5)

    def test_double_dual_returns(self, rng):
        for rep in (left_invertible_rep(rng, 4), generic_rep(rng, 2, 3), rank_deficient_rep(rng, 2, 3, 2)):
            again = mp_cauchy_dual(mp_cauchy_dual(rep))
            assert np.allclose(again.matrix, rep.matrix, atol=1e-9)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_matches_gram_inverse_formula(self, rng, m):
        reps = [left_invertible_rep(rng, m), expansive_rep(rng, m), concave_rep(rng, m)]
        for rep in reps:
            v = rep.matrix
            oracle = v @ np.linalg.inv(v.conj().T @ v)
            dual = mp_cauchy_dual(rep)
            assert np.linalg.norm(dual.matrix - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2)
            assert (dual.dim_e, dual.dim_h) == (rep.dim_e, rep.dim_h)


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
