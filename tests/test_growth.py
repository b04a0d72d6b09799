import math
import tracemalloc

import numpy as np
import pytest

from woldkit.errors import NotPSD, NotRegular
from woldkit.generate import (
    block_wold_rep,
    coisometry_rep,
    concave_rep,
    expansive_rep,
    generic_rep,
    left_invertible_rep,
    rand_unitary,
    rank_deficient_rep,
    weighted_truncated_shift,
)
from woldkit.growth import (
    _affine,
    _level,
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
from woldkit.linalg import DEFAULT_POLICY, complement, psd_margin
from woldkit.model import Representation, iterate_map

from conftest import iterated_pinv_oracle, minimal_scale_factor_oracle


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
            vdi_h = h if i == 0 else iterated_pinv_oracle(rep, i) @ h
            total += float(np.linalg.norm(np.kron(np.eye(d**i), p_w) @ vdi_h) ** 2)
        total += float(np.linalg.norm(iterated_pinv_oracle(rep, n) @ h) ** 2)
        for i in range(1, n + 1):
            vdi_h = iterated_pinv_oracle(rep, i) @ h
            total += float(np.linalg.norm(np.kron(np.eye(d ** (i - 1)), defect) @ vdi_h) ** 2)
        worst = max(worst, abs(total - 1.0))
    return worst


def dense_psd(op) -> bool:
    """The PSD rule with its tolerance scale taken from a full SVD."""
    h = (op + op.conj().T) / 2.0
    tol = DEFAULT_POLICY.tau_psd * max(1.0, np.linalg.norm(h, 2))
    return bool(np.linalg.eigvalsh(h)[0] >= -tol)


def level_operators_oracle(rep: Representation, k: int):
    """A = I (x) V*V, P = I (x) V+V and V_k*V_k at level k, each of size
    d^k m, with the lifts formed by np.kron: the dense growth operators."""
    d, v = rep.dim_e, rep.matrix
    lift = np.eye(d ** (k - 1))
    vk = iterate_map(rep, k)
    a = np.kron(lift, v.conj().T @ v)
    p = np.kron(lift, rep.pseudo_inverse() @ v)
    return a, p, vk.conj().T @ vk


def dense_lifted_gram(rep: Representation, k: int) -> np.ndarray:
    """(I (x) V)*(I (x) V) at level k, with the lift of V formed explicitly."""
    a = np.kron(np.eye(rep.dim_e ** (k - 1)), rep.matrix)
    return a.conj().T @ a


def concave_chain_oracle(rep: Representation, k: int) -> bool:
    a, _, vkvk = level_operators_oracle(rep, k)
    eye = np.eye(a.shape[0])
    return dense_psd(eye + k * (a - eye) - vkvk)


def growth_forms_oracle(rep: Representation, k: int, d_k: float, d_const: float):
    """Both forms of growth_forms_agree, with dense lifts and SVD-scaled rules."""
    a, p, vkvk = level_operators_oracle(rep, k)
    full = d_k * (a - p) + d_const * p - vkvk
    basis = np.kron(np.eye(rep.dim_e ** (k - 1)), complement(rep.kernel()).basis)
    eye = np.eye(a.shape[0])
    inner = d_k * (a - eye) + d_const * eye - vkvk
    return dense_psd(full), dense_psd(basis.conj().T @ inner @ basis)


def level_operator_reps(rng):
    return [concave_rep(rng, 3), expansive_rep(rng, 3), coisometry_rep(rng, 2, 2)]


def agrees(got: float, want: float) -> bool:
    """Infinite exactly where want is, and otherwise within 1e-9 relative."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def embedded(d: int, block: np.ndarray) -> Representation:
    """The map [B, 0, ..., 0] on E (x) H with dim E = d: B on the first block."""
    return Representation(d, block.shape[0], np.hstack([block] + [0 * block] * (d - 1)))


SWEEP_KINDS = ("generic", "rank-deficient", "graded", "coisometry", "scaled", "block-wold", "shift")


def sweep_rep(kind: str, d: int, m: int, seed: int) -> Representation:
    """Generic and rank-deficient maps, a singular value of 1e-5 relative
    (kept by the rank rule of pinv, but below the PSD tolerance of V*V),
    s = 1 (coisometries and Wold blocks, where G has a kernel on which
    P = I), scaled coisometries, and non-regular shifts, infeasible from
    level 2 on."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        return generic_rep(rng, d, m)
    if kind == "rank-deficient":
        return rank_deficient_rep(rng, d, m, m - 1)
    if kind == "graded":
        left, s, vh = np.linalg.svd(generic_rep(rng, d, m).matrix, full_matrices=False)
        s[-1] = 1e-5 * s[0]
        return Representation(d, m, (left * s) @ vh)
    if kind == "coisometry":
        return coisometry_rep(rng, d, m)
    if kind == "scaled":
        return Representation(d, m, 1.3 * coisometry_rep(rng, d, m).matrix)
    if kind == "block-wold":
        rep, _ = block_wold_rep(rng, shift_len=(2, 3), unitary_dim=(1, 2))
        return embedded(d, rep.matrix)
    return embedded(d, weighted_truncated_shift([1.0] + [2.0] * (m - 1)).matrix)


def assert_matches_dense(rep: Representation, k: int, weight: float, d_const: float):
    """Structured level k against the dense operators; returns the outcomes."""
    a, p, vkvk = level_operators_oracle(rep, k)
    g, q = a - p, vkvk - p
    want = minimal_scale_factor_oracle(q, g)
    entry = check_growth(rep, [weight] * k, k).entries[-1]
    assert agrees(entry.minimal_d, want)
    h = weight * g - q
    lam, feasible = psd_margin(h)
    assert entry.feasible == feasible
    # The tolerance scale max(1, ||h||) comes from both ends of the spectrum.
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    lv = _level(rep, iterate_map(rep, k - 1), DEFAULT_POLICY)
    got = np.linalg.eigvalsh(_affine(lv, weight, 1.0 - weight, 0.0))
    scale = 1e-9 * max(1.0, -w[0], w[-1])
    assert abs(entry.psd_residual - lam) <= scale and abs(got[-1] - w[-1]) <= scale
    chain = concave_chain_check(rep, k)
    assert chain == concave_chain_oracle(rep, k)
    forms = growth_forms_agree(rep, k, weight, d_const)
    assert forms == growth_forms_oracle(rep, k, weight, d_const)
    return want, feasible, chain, forms


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


def pencil_oracle(z, g, p) -> float:
    """minimal_scale_factor_oracle on Q = zz* - diag(p) and G = diag(g)."""
    return minimal_scale_factor_oracle(z @ z.conj().T - np.diag(p), np.diag(g))


def factored_pencil(rng, case: str, rows: int, cols: int):
    """(z, g, p) with rows x cols z, g >= 0 and p in {0, 1}, coordinates shuffled.

    definite: g > 0 and zz* - diag(p) positive somewhere; feasible- and
    infeasible-kernel: g = 0 on two rows where Q = zz* - diag(p) is
    negative (rows of norm 1/4, p = 1) or not (norm 2); all-kernel: g = 0
    and Q negative; zero: everything 0.
    """
    z = 2.0 * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    g = rng.uniform(0.5, 2.0, rows)
    p = rng.integers(0, 2, rows).astype(float)
    if case in ("feasible-kernel", "infeasible-kernel"):
        g[:2], p[:2] = 0.0, 1.0
        norm = 2.0 if case == "infeasible-kernel" else 0.25
        z[:2] *= norm / np.linalg.norm(z[:2], axis=1, keepdims=True)
    elif case == "all-kernel":
        g[:], p[:] = 0.0, 1.0
        z *= 0.5 / np.linalg.norm(z, 2)
    elif case == "zero":
        z, g, p = 0 * z, 0 * g, 0 * p
    order = rng.permutation(rows)  # kernel coordinates anywhere, g unsorted
    return z[order], g[order], p[order]


PENCIL_CASES = ["definite", "feasible-kernel", "infeasible-kernel", "all-kernel", "zero"]


class TestMinimalScaleFactor:
    def test_scalar_pencil(self):
        z, g, p = np.array([[math.sqrt(7.0)]]), np.array([3.0]), np.array([1.0])
        got = minimal_scale_factor(z, g, p)
        assert got == pytest.approx(2.0) and agrees(got, pencil_oracle(z, g, p))

    def test_zero_pencil(self):
        assert minimal_scale_factor(np.zeros((2, 1)), np.zeros(2), np.zeros(2)) == 0.0

    def test_infeasible_kernel(self):
        # Q = diag(1, 0) against G = diag(0, 1).
        z, g, p = np.array([[1.0], [0.0]]), np.array([0.0, 1.0]), np.zeros(2)
        assert math.isinf(minimal_scale_factor(z, g, p))
        assert math.isinf(pencil_oracle(z, g, p))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minimal_scale_factor(np.eye(2), np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            minimal_scale_factor(np.eye(2), np.ones(2), np.ones(3))

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_invariant_under_change_of_basis(self, rng, case):
        """minimal_scale_factor(z, g, p) is the dense oracle on U Q U* and
        U diag(g) U*, Q = zz* - diag(p), for a random unitary U; 6 rows
        against 2 columns take the Schur root, against 8 the direct branch."""
        n = 6
        for cols in (2, 8):
            z, g, p = factored_pencil(rng, case, n, cols)
            u = rand_unitary(rng, n)
            q = z @ z.conj().T - np.diag(p)
            got = minimal_scale_factor(z, g, p)
            want = minimal_scale_factor_oracle(u @ q @ u.conj().T, (u * g) @ u.conj().T)
            assert agrees(got, want)
            if case == "infeasible-kernel":
                assert math.isinf(got)
            elif case in ("all-kernel", "zero"):
                assert got == 0.0
            else:
                assert 0.0 < got < math.inf

    @pytest.mark.parametrize("case", PENCIL_CASES)
    def test_both_branches_match_oracle(self, case):
        """Kept rows above, at and below the column count, p = 0 on rows of
        a rank-deficient z (so the Schur root cannot start at d = 0), and
        exact zero rows."""
        kept_past_columns = set()
        for seed in range(40):
            rng = np.random.default_rng([seed, 20240811])
            rows, cols = int(rng.integers(3, 13)), int(rng.integers(1, 6))
            z, g, p = factored_pencil(rng, case, rows, cols)
            if seed % 4 == 1:  # rank-deficient rows with p = 0
                z = z[:, :1] @ rng.standard_normal((1, cols))
                p[:] = 0.0
            if seed % 4 == 2:  # an exact zero row that is kept
                z[np.argmax(g)] = 0.0
            assert agrees(minimal_scale_factor(z, g, p), pencil_oracle(z, g, p))
            kept_past_columns.add(int(np.sum(g > 0)) > cols)
        if case in ("definite", "feasible-kernel"):
            assert kept_past_columns == {True, False}

    @pytest.mark.parametrize("kernel_rows", [1, 4])
    @pytest.mark.parametrize("kept", [100.0, 1.0])
    def test_kernel_tolerance_from_the_whole_pencil(self, kernel_rows, kept):
        # Q is 2e-7 on a kernel row, and one kept row of norm `kept` sets
        # ||Q||.  At 100, 2e-7 lies between tau_psd and tau_psd ||z||_F^2,
        # so the exact tolerance 1e-9 ||Q|| = 1e-5 decides: feasible.  At 1
        # the tolerance is about 1e-9 and the pencil is infeasible.  Four
        # kernel rows outnumber the two columns of z.
        z = np.zeros((kernel_rows + 1, 2))
        z[0, 0] = math.sqrt(1.0 + 2e-7)
        z[1:kernel_rows, 1] = 0.3
        z[-1, 1] = kept
        g = np.zeros(kernel_rows + 1)
        g[-1] = 1.0
        p = np.ones(kernel_rows + 1)
        p[-1] = 0.0
        got = minimal_scale_factor(z, g, p)
        assert agrees(got, pencil_oracle(z, g, p))
        assert math.isinf(got) == (kept == 1.0)

    def test_answers_zero_when_d_zero_is_feasible(self, rng):
        # zz* <= diag(p) with p = 1: the answer is 0 on both branches.
        for rows, cols in ((8, 3), (3, 8)):
            z = rng.standard_normal((rows, cols))
            z *= 0.9 / np.linalg.norm(z, 2)
            g, p = rng.uniform(0.5, 2.0, rows), np.ones(rows)
            assert minimal_scale_factor(z, g, p) == 0.0 == pencil_oracle(z, g, p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_growth_levels_of_every_outcome(self, d):
        """The factored levels of check_growth against the dense level
        operators: the zero map, a coisometry (an isometric kernel, answer
        0), its scaling by 1.3 (closed form), a generic map, and a kernel
        direction that doubles after two steps (inf from level 2)."""
        rng = np.random.default_rng(d)
        reps = [
            Representation(d, 3, np.zeros((3, 3 * d))),
            coisometry_rep(rng, d, 3),
            Representation(d, 3, 1.3 * coisometry_rep(rng, d, 3).matrix),
            generic_rep(rng, d, 3),
            embedded(d, weighted_truncated_shift([1.0, 2.0]).matrix),
        ]
        outcomes, branches = set(), set()
        for rep in reps:
            for k in (1, 2, 3):
                lv = _level(rep, iterate_map(rep, k - 1), DEFAULT_POLICY)
                a, p, vkvk = level_operators_oracle(rep, k)
                got = minimal_scale_factor(lv.z, lv.a - lv.p, lv.p)
                assert agrees(got, minimal_scale_factor_oracle(vkvk - p, a - p))
                outcomes.add(0.0 if got == 0.0 else math.inf if math.isinf(got) else 1.0)
                branches.add(int(np.sum(lv.a - lv.p > 1e-9)) > lv.z.shape[1])
        assert outcomes == {0.0, 1.0, math.inf}
        assert branches == ({False} if d == 1 else {True, False})

    def test_result_is_a_python_float(self, rng):
        pencils = [factored_pencil(rng, case, 6, cols) for case in PENCIL_CASES for cols in (2, 8)]
        for z, g, p in pencils:
            assert type(minimal_scale_factor(z, g, p)) is float

    def test_schur_root_takes_few_evaluations(self, monkeypatch):
        # One eigh per evaluation of h, on every level of the seeded sweep.
        counts = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            counts[-1] += 1
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for kind, d, k in SWEEP:
            case = np.random.default_rng([SWEEP.index((kind, d, k)), 20240811])
            m, seed = int(case.integers(2, 4)), int(case.integers(2**32))
            rep = sweep_rep(kind, d, m, seed)
            lv = _level(rep, iterate_map(rep, k - 1), DEFAULT_POLICY)
            counts.append(0)
            minimal_scale_factor(lv.z, lv.a - lv.p, lv.p)
        assert 2 <= max(counts) <= 20

    def test_no_rows_by_rows_matrix_past_the_columns(self, rng, monkeypatch):
        # Generic d = 2, m = 3 at level 3: 13 coordinates against 3 columns.
        shapes = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def recorded(a, *args, real=real, **kwargs):
                shapes.append(np.shape(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        rep = generic_rep(rng, 2, 3)
        lv = _level(rep, iterate_map(rep, 2), DEFAULT_POLICY)
        assert lv.z.shape == (13, 3)
        got = minimal_scale_factor(lv.z, lv.a - lv.p, lv.p)
        monkeypatch.undo()
        a, p, vkvk = level_operators_oracle(rep, 3)
        assert agrees(got, minimal_scale_factor_oracle(vkvk - p, a - p))
        assert shapes and all(shape == (3, 3) for shape in shapes)

    def test_matches_svd_scaled_oracle(self, rng):
        reps = level_operator_reps(rng) + [
            generic_rep(rng, 1, 3),  # infeasible from level 2 on
            generic_rep(rng, 2, 3),
            left_invertible_rep(rng, 4),
        ]
        results = []
        for rep in reps:
            structured = minimal_growth_sequence(rep, 3)
            for m in (1, 2, 3):
                a, p, vmvm = level_operators_oracle(rep, m)
                want = minimal_scale_factor_oracle(vmvm - p, a - p)
                assert agrees(structured[m - 1], want)
                results.append(want)
        assert math.inf in results and 0.0 in results


class TestLevelOperators:
    def test_gram_matches_dense_lift(self, rng):
        for d in (1, 2, 3):
            rep = generic_rep(rng, d, 2)
            for k in (1, 2, 3):
                a, p, vkvk = level_operators_oracle(rep, k)
                dense = dense_lifted_gram(rep, k)
                assert a.shape == p.shape == vkvk.shape == dense.shape
                assert np.linalg.norm(a - dense, 2) <= 1e-12 * max(1.0, np.linalg.norm(dense, 2))

    def test_structured_spectra_match_dense(self, rng):
        # Every eigenvalue of x A + y P + z I - V_k*V_k lies within round-off
        # of the structured spectrum, and every structured value is one of them.
        reps = [generic_rep(rng, 3, 2), rank_deficient_rep(rng, 2, 3, 2)]
        reps += level_operator_reps(rng)
        for rep in reps:
            for k in (1, 2, 3):
                a, p, vkvk = level_operators_oracle(rep, k)
                lv = _level(rep, iterate_map(rep, k - 1), DEFAULT_POLICY)
                for x, y, z in ((0.0, 1.0, 0.0), (2.0, -1.0, 0.5), (1.5, 0.0, -1.0)):
                    dense = np.linalg.eigvalsh(x * a + y * p + z * np.eye(a.shape[0]) - vkvk)
                    got = np.linalg.eigvalsh(_affine(lv, x, y, z))
                    tol = 1e-10 * max(1.0, np.abs(dense).max())
                    assert np.abs(dense[:, None] - got[None, :]).min(axis=1).max() <= tol
                    assert np.abs(got[:, None] - dense[None, :]).min(axis=1).max() <= tol

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


SWEEP = [(kind, d, k) for kind in SWEEP_KINDS for d in (1, 2, 3) for k in (1, 2, 3, 4)]


class TestStructuredAgainstDense:
    @pytest.mark.parametrize("kind, d, k", SWEEP)
    def test_sweep(self, kind, d, k):
        # One seeded draw per case: size, instance, and a weight around the
        # minimal one, so that both supplied-weight verdicts occur.
        case = np.random.default_rng([SWEEP.index((kind, d, k)), 20240811])
        m, seed = int(case.integers(2, 4)), int(case.integers(2**32))
        scale, d_const = float(case.uniform(0.0, 3.0)), float(case.choice([1.0, 2.0]))
        rep = sweep_rep(kind, d, m, seed)
        minimal = minimal_growth_sequence(rep, k)[-1]
        weight = scale * (minimal if math.isfinite(minimal) and minimal > 0 else 1.0)
        assert_matches_dense(rep, k, weight, d_const)

    def test_sweep_families_reach_every_outcome(self):
        minimal, verdicts = set(), set()
        for kind in SWEEP_KINDS:
            for d in (1, 2, 3):
                for k in (1, 2, 3):
                    for weight in (0.5, 3.0):
                        want, *flags = assert_matches_dense(sweep_rep(kind, d, 3, 7), k, weight, 1.0)
                        minimal.add(0.0 if want == 0.0 else math.inf if math.isinf(want) else 1.0)
                        verdicts.update((i, bool(f)) for i, f in enumerate(flags[:2]))
                        verdicts.update((2 + i, f) for i, f in enumerate(flags[2]))
        assert minimal == {0.0, 1.0, math.inf}
        assert verdicts == {(i, f) for i in range(4) for f in (True, False)}

    def test_kernel_tolerance_scales_with_the_whole_level(self):
        # e1 -> e2 -> (1 + 1e-7) e3 beside a weight 100: at level 2, Q is
        # 2e-7 on the kernel direction e1, below tau_psd * ||Q|| = 0.1 but
        # above tau_psd * max(1, ||Q restricted to ker G||) = 1e-9.
        v = np.zeros((4, 4), dtype=complex)
        v[:3, :3] = weighted_truncated_shift([1.0, 1.0 + 1e-7]).matrix
        v[3, 3] = 100.0
        want, *_ = assert_matches_dense(Representation(1, 4, v), 2, 1.0, 1.0)
        assert want == pytest.approx(1e4 + 1.0)


class TestClosedForm:
    """V = cJ with JJ* = I: the minimal weight at level k is
    (c^(2k) - 1)/(c^2 - 1), and 0 at c = 1."""

    @staticmethod
    def closed_form(c: float, k: int) -> float:
        return 0.0 if c == 1.0 else (c ** (2 * k) - 1.0) / (c * c - 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", [1.0, 1.3, 2.0])
    def test_scaled_coisometry(self, rng, d, c):
        rep = Representation(d, 3, c * coisometry_rep(rng, d, 3).matrix)
        for k, got in enumerate(minimal_growth_sequence(rep, 4), start=1):
            assert agrees(got, self.closed_form(c, k))

    @pytest.mark.parametrize("c", [1.0, 1.3, 2.0])
    def test_level_seven_beyond_dense_reach(self, rng, c):
        # N = 3^7 * 4 = 8748: one N x N complex array would take 1.2 GB.
        d, m, k = 3, 4, 7
        n = d**k * m
        rep = Representation(d, m, c * coisometry_rep(rng, d, m).matrix)
        tracemalloc.start()
        try:
            report = check_growth(rep, None, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert agrees(report.entries[-1].minimal_d, self.closed_form(c, k))
        assert peak < 4 * n * m * 16


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
