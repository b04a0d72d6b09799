import math
import warnings

import numpy as np
import pytest

from woldkit.errors import DimensionMismatch, NotPSD
from woldkit.linalg import (
    DEFAULT_POLICY,
    RankWarning,
    Subspace,
    TolerancePolicy,
    _dims_exclude,
    _in_ampliation,
    _norm2_at_most,
    _norm2_within,
    add,
    as_matrix,
    complement,
    contains,
    intersect,
    null_space,
    pinv,
    is_psd,
    project,
    psd_margin,
    psd_sqrt,
    range_space,
    reduced_min_modulus,
    spectral_norm,
    subspaces_equal,
)
from woldkit.structure import range_chain

from conftest import contains_oracle, gaussian_rank, ill_conditioned_corpus, lift_subspace


def rand_c(rng, r, c):
    return (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))) / np.sqrt(2)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(2)), np.eye(2))

    def test_zero_matrix_transposed_shape(self):
        out = pinv(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert not out.any()

    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_four_identities_random(self, rng):
        for _ in range(20):
            a = rand_c(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            ad = pinv(a)
            scale = max(1.0, np.linalg.norm(a, 2))
            assert np.linalg.norm(a @ ad @ a - a, 2) <= 1e-9 * scale
            assert np.linalg.norm(ad @ a @ ad - ad, 2) <= 1e-9 * scale
            assert np.linalg.norm(a @ ad - (a @ ad).conj().T, 2) <= 1e-9 * scale
            assert np.linalg.norm(ad @ a - (ad @ a).conj().T, 2) <= 1e-9 * scale

    def test_rank_warning_on_borderline_singular_value(self):
        # Second singular value sits just above the relative cutoff.
        cutoff_ratio = DEFAULT_POLICY.tau_rank * 2 * 3
        a = np.diag([1.0, cutoff_ratio])
        with pytest.warns(RankWarning):
            pinv(a)


class TestReducedMinModulus:
    def test_zero_matrix_is_infinite(self):
        assert reduced_min_modulus(np.zeros((2, 2))) == np.inf

    def test_diagonal(self):
        assert reduced_min_modulus(np.diag([3.0, 0.0])) == pytest.approx(3.0)

    def test_isometric_column(self):
        assert reduced_min_modulus(np.array([[1.0], [0.0]])) == pytest.approx(1.0)

    def test_reciprocal_of_pinv_norm(self, rng):
        for _ in range(20):
            a = rand_c(rng, 5, 7)
            g = reduced_min_modulus(a)
            assert abs(g * np.linalg.norm(pinv(a), 2) - 1.0) <= 1e-8


class TestPinvAndNorm:
    @pytest.mark.parametrize("rank", [0, 1, 3, 5])
    def test_norm_is_that_of_the_inverse(self, rng, rank):
        # ||pinv(a)||_2 = 1 / sigma_r, the norm the dagger reader reports.
        a = rand_c(rng, 5, rank) @ rand_c(rng, rank, 7)
        s = np.linalg.svd(a, compute_uv=False)
        want = 1.0 / s[rank - 1] if rank else 0.0
        assert spectral_norm(pinv(a)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_scale_anchors_the_cutoff(self):
        a = np.diag([1.0, 1e-7])
        assert np.allclose(pinv(a), np.diag([1.0, 1e7]), rtol=1e-15, atol=0.0)
        assert np.array_equal(pinv(a, scale=1e6), np.diag([1.0, 0.0]))


def test_spectral_norm_has_the_bits_of_numpy_norm(rng):
    for shape in ((1, 1), (4, 4), (3, 7), (7, 3)):
        for a in (rand_c(rng, *shape), rand_c(rng, *shape).real, np.zeros(shape)):
            assert spectral_norm(a) == float(np.linalg.norm(a, 2))
    assert spectral_norm(np.zeros((0, 3))) == 0.0


class TestNorm2AtMost:
    """_norm2_at_most(a, tol) is the verdict spectral_norm(a) <= tol."""

    @staticmethod
    def check(a, tol):
        assert _norm2_at_most(a, tol) == (spectral_norm(a) <= tol)

    @pytest.mark.parametrize("rel", [1 - 1e-6, 1 + 1e-6, 0.5, 2.0])
    def test_rank_one(self, rng, rel):
        # Frobenius norm equals the 2-norm: the first test decides.
        a = np.outer(rand_c(rng, 4, 1), rand_c(rng, 1, 6))
        self.check(a, rel * spectral_norm(a))

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("rel", [1 - 1e-6, 1 + 1e-6])
    def test_identity_like(self, rng, n, rel):
        # Frobenius norm is sqrt(n) times the 2-norm: both ends of the
        # undecided interval, and points inside it, take the exact norm.
        a = 3e-9 * rand_c(rng, 1, 1)[0, 0] * np.eye(n)
        two = spectral_norm(a)
        for tol in (rel * two, rel * two * np.sqrt(n), two * (1 + np.sqrt(n)) / 2):
            self.check(a, tol)

    def test_generic_sweep(self, rng):
        for _ in range(50):
            a = rand_c(rng, 5, 3) * 10.0 ** rng.uniform(-10, 2)
            two = spectral_norm(a)
            for rel in (0.3, 1 - 1e-6, 1 + 1e-6, 1.2, 2.5):
                self.check(a, rel * two)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, shape):
        a = np.zeros(shape, dtype=np.complex128)
        for tol in (0.0, 1e-8):
            self.check(a, tol)
            assert _norm2_at_most(a, tol)


class TestNorm2Within:
    """_norm2_within(r, a, rel, floor) is the verdict
    spectral_norm(r) <= rel * max(floor, spectral_norm(a))."""

    @staticmethod
    def matrices(rng):
        low_rank = rand_c(rng, 5, 2) @ rand_c(rng, 2, 4)
        return {
            "square": rand_c(rng, 4, 4),
            "wide": rand_c(rng, 3, 7),
            "tall": rand_c(rng, 7, 3) * 1e-9,
            "rank-deficient": low_rank,
            "identity-like": 2e-9 * np.eye(5),
            "zero": np.zeros((3, 4), dtype=np.complex128),
            "empty": np.zeros((0, 3), dtype=np.complex128),
        }

    @staticmethod
    def check(r, a, rel, floor):
        want = spectral_norm(r) <= rel * max(floor, spectral_norm(a))
        assert _norm2_within(r, a, rel, floor) == want
        return want

    @pytest.mark.parametrize("factor", [1 - 1e-12, 1 + 1e-12, 1 - 1e-6, 1 + 1e-6])
    def test_threshold_at_the_exact_norm(self, rng, factor):
        # rel is chosen so that the threshold is factor * ||r||_2, with the
        # scale set by ||a||_2 (floor 0 or below it) or by the floor.
        mats = self.matrices(rng)
        verdicts = set()
        for r in mats.values():
            two = spectral_norm(r)
            for a in mats.values():
                na = spectral_norm(a)
                for floor in {0.0, 0.5 * na, 1.0, 2.0 * na + 1.0}:
                    scale = max(floor, na)
                    if scale == 0.0:
                        self.check(r, a, 1.0, floor)
                        continue
                    verdicts.add(self.check(r, a, factor * two / scale, floor))
        assert (False in verdicts) == (factor < 1)  # a zero r passes at rel = 0

    def test_generic_sweep(self, rng):
        for _ in range(60):
            r = rand_c(rng, *rng.integers(1, 6, size=2)) * 10.0 ** rng.uniform(-12, 0)
            a = rand_c(rng, *rng.integers(1, 6, size=2)) * 10.0 ** rng.uniform(-3, 3)
            for rel in (1e-12, 1e-9, 1e-6, 1e-3, 1.0):
                for floor in (0.0, 1.0):
                    self.check(r, a, rel, floor)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, rng, shape):
        empty = np.zeros(shape, dtype=np.complex128)
        for floor in (0.0, 1.0):
            assert self.check(empty, empty, 1e-9, floor)
            assert self.check(empty, rand_c(rng, 3, 3), 1e-9, floor)
            assert self.check(np.zeros((2, 2)), empty, 1e-9, floor)
            assert self.check(rand_c(rng, 2, 2), empty, 1e-9, floor) is False


def psd_oracle(a, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """The PSD rule with its tolerance scale taken from a full SVD of h."""
    h = (a + a.conj().T) / 2.0
    if h.shape[0] == 0:
        return True
    return bool(np.linalg.eigvalsh(h)[0] >= -pol.tau_psd * max(1.0, np.linalg.norm(h, 2)))


class TestPsdMargin:
    def cases(self, rng):
        b = rand_c(rng, 5, 5)
        thin = rand_c(rng, 5, 2)
        u, _ = np.linalg.qr(rand_c(rng, 3, 3))
        tol = DEFAULT_POLICY.tau_psd * 1e3
        hermitian = b + b.conj().T
        return [
            hermitian,
            1e8 * (thin @ thin.conj().T),  # rank-deficient PSD, round-off negatives
            thin @ thin.conj().T,
            -(b @ b.conj().T + np.eye(5)),  # negative definite
            hermitian + 1e-14 * rand_c(rng, 5, 5),  # near-Hermitian
            # least eigenvalue just inside and just outside the scaled tolerance
            (u * [-0.5 * tol, 1.0, 1e3]) @ u.conj().T,
            (u * [-2.0 * tol, 1.0, 1e3]) @ u.conj().T,
            np.zeros((0, 0)),
        ]

    def test_matches_svd_scaled_rule(self, rng):
        verdicts = set()
        for a in self.cases(rng):
            lam, holds = psd_margin(a)
            h = (a + a.conj().T) / 2.0
            assert lam == (float(np.linalg.eigvalsh(h)[0]) if h.size else 0.0)
            assert holds is psd_oracle(a)
            assert is_psd(a) is holds
            verdicts.add(holds)
        assert verdicts == {True, False}

    def test_tight_policy(self, rng):
        pol = TolerancePolicy(tau_psd=1e-15)
        for a in self.cases(rng):
            assert psd_margin(a, pol)[1] is psd_oracle(a, pol)

    def test_empty(self):
        assert psd_margin(np.zeros((0, 0))) == (0.0, True)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_indefinite_raises(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([-1.0, 1.0]))

    def test_non_hermitian_raises(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_square_reproduces(self, rng):
        b = rand_c(rng, 4, 4)
        a = b @ b.conj().T
        root = psd_sqrt(a)
        assert np.linalg.norm(root @ root - a, 2) <= 1e-9 * np.linalg.norm(a, 2)
        assert np.allclose(root, root.conj().T)

    def test_tolerance_scales_with_norm(self):
        tol = DEFAULT_POLICY.tau_psd * 1e3
        assert psd_sqrt(np.diag([-0.5 * tol, 1.0, 1e3]))[0, 0] == 0.0
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([-2.0 * tol, 1.0, 1e3]))

    def test_small_negative_clamped(self):
        a = np.diag([1.0, -1e-12])
        root = psd_sqrt(a)
        assert root[1, 1] == 0.0


class TestSubspaceOps:
    def test_kernel_of_diagonal(self):
        k = null_space(np.diag([1.0, 0.0]))
        assert k.dim == 1
        assert abs(abs(k.basis[1, 0]) - 1.0) < 1e-12

    def test_intersection_of_coordinate_planes(self):
        e = np.eye(3, dtype=complex)
        s1 = Subspace(3, e[:, :2])
        s2 = Subspace(3, e[:, 1:])
        inter = intersect(s1, s2)
        assert inter.dim == 1
        assert abs(abs(inter.basis[1, 0]) - 1.0) < 1e-10

    def test_dimension_formula_against_row_reduction(self, rng):
        # dim S1 + dim S2 = dim(sum) + dim(intersection), oracle by elimination
        for _ in range(10):
            b1 = rand_c(rng, 6, int(rng.integers(1, 5)))
            b2 = rand_c(rng, 6, int(rng.integers(1, 5)))
            s1 = range_space(b1)
            s2 = range_space(b2)
            total = add(s1, s2)
            inter = intersect(s1, s2)
            oracle_sum = gaussian_rank(np.hstack([b1, b2]))
            assert total.dim == oracle_sum
            assert s1.dim + s2.dim == total.dim + inter.dim

    def test_projector_idempotent_hermitian(self, rng):
        s = range_space(rand_c(rng, 5, 3))
        p = project(s)
        assert np.linalg.norm(p @ p - p, 2) <= 1e-10
        assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10

    def test_double_complement(self, rng):
        s = range_space(rand_c(rng, 6, 2))
        assert subspaces_equal(complement(complement(s)), s)

    def test_range_survives_an_svd_that_does_not_converge(self, monkeypatch, rng):
        # LAPACK's divide and conquer can fail on structured input (a 36 x 31
        # union of bases in the biregularity join did); the range is then
        # read off the SVD of a*.
        a = rand_c(rng, 6, 3) @ rand_c(rng, 3, 4)
        want = range_space(a)
        svd = np.linalg.svd
        shapes = []

        def failing(x, *args, **kwargs):
            shapes.append(x.shape)
            if x.shape == a.shape:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        got = range_space(a)
        assert shapes == [(6, 4), (4, 6)]
        assert got.dim == want.dim == 3 and subspaces_equal(got, want)
        assert np.linalg.norm(got.basis.conj().T @ got.basis - np.eye(3)) <= 1e-13

    def test_kernel_is_complement_of_adjoint_range(self, rng):
        a = rand_c(rng, 4, 6)
        assert subspaces_equal(null_space(a), complement(range_space(a.conj().T)))

    @staticmethod
    def full_svd_kernel(a):
        """The kernel from the full SVD of a, with the rank rule of linalg."""
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        cut = DEFAULT_POLICY.tau_rank * s[0] * max(a.shape)
        return Subspace(a.shape[1], vh[int(np.count_nonzero(s > cut)):].conj().T)

    def test_tall_kernel_matches_the_full_svd(self, rng):
        cases = [rand_c(rng, 8, 3), rand_c(rng, 9, 2) @ rand_c(rng, 2, 4), np.zeros((6, 3))]
        cases.append(1e8 * rand_c(rng, 7, 3) @ rand_c(rng, 3, 5))
        cases += [rand_c(rng, 12, r) @ rand_c(rng, r, 6) for r in range(7)]
        for a in cases:
            k = null_space(a)
            want = Subspace.full(a.shape[1]) if not a.any() else self.full_svd_kernel(a)
            assert k.dim == want.dim == a.shape[1] - gaussian_rank(a)
            assert subspaces_equal(k, want)
            assert np.linalg.norm(k.basis.conj().T @ k.basis - np.eye(k.dim)) <= 1e-13
            assert np.linalg.norm(a @ k.basis) <= 1e-13 * max(1.0, np.linalg.norm(a))

    def test_wide_input_keeps_its_whole_kernel(self, rng):
        for a in (rand_c(rng, 3, 7), rand_c(rng, 4, 1) @ rand_c(rng, 1, 6), rand_c(rng, 5, 6)):
            k = null_space(a)
            assert k.dim == a.shape[1] - gaussian_rank(a)
            assert subspaces_equal(k, self.full_svd_kernel(a))
            assert np.linalg.norm(k.basis.conj().T @ k.basis - np.eye(k.dim)) <= 1e-13

    def test_contains_direction(self):
        e = np.eye(3, dtype=complex)
        line = Subspace(3, e[:, :1])
        plane = Subspace(3, e[:, :2])
        assert contains(line, plane)
        assert not contains(plane, line)

    def test_empty_subspace_everywhere(self):
        zero = Subspace.zero(4)
        full = Subspace.full(4)
        assert contains(zero, full) and contains(zero, zero)
        assert subspaces_equal(add(zero, full), full)
        assert intersect(zero, full).dim == 0
        assert complement(zero).dim == 4
        assert project(zero).shape == (4, 4) and not project(zero).any()

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_intersection_of_two_whole_spaces(self, rng, n):
        # Both I - P blocks are round-off when neither basis is the identity;
        # that round-off is not rank.
        u = np.linalg.qr(rand_c(rng, n, n))[0]
        whole = Subspace(n, u)
        assert intersect(whole, Subspace.full(n)).dim == n
        assert intersect(Subspace.full(n), whole).dim == n
        assert intersect(whole, Subspace(n, np.linalg.qr(rand_c(rng, n, n))[0])).dim == n

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(Subspace.zero(3), Subspace.zero(4))
        with pytest.raises(DimensionMismatch):
            add(Subspace.zero(3), Subspace.full(4))

    def test_whole_and_zero_operands_are_returned_themselves(self, rng):
        s = range_space(rand_c(rng, 5, 2))
        whole = Subspace(5, np.linalg.qr(rand_c(rng, 5, 5))[0])
        assert intersect(whole, s) is s and intersect(s, whole) is s
        assert add(Subspace.zero(5), s) is s and add(s, Subspace.zero(5)) is s

    def test_whole_and_zero_operands_match_the_svd_path(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            s = range_space(rand_c(rng, n, int(rng.integers(1, n + 1))))
            whole = Subspace(n, np.linalg.qr(rand_c(rng, n, n))[0])
            eye = np.eye(n)
            stacked = np.vstack([eye - project(whole), eye - project(s)])
            assert subspaces_equal(intersect(whole, s), null_space(stacked, scale=1.0))
            zero = Subspace.zero(n)
            assert subspaces_equal(add(zero, s), range_space(np.hstack([zero.basis, s.basis])))

    def test_scale_hint_kills_product_noise(self, rng):
        # A numerically-zero product must not be read as full rank.
        a = rand_c(rng, 4, 4)
        noise = a - a  # exact zero; add tiny perturbation to mimic roundoff
        noise = noise + 1e-16 * rand_c(rng, 4, 4)
        assert range_space(noise, scale=np.linalg.norm(a, 2)).dim == 0


class TestTolerancePolicy:
    def test_defaults(self):
        pol = TolerancePolicy()
        assert pol.tau_rank == 1e-10
        assert pol.tau_orth == 1e-10
        assert pol.tau_psd == 1e-9
        assert pol.tau_sub == 1e-8

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            TolerancePolicy(tau_rank=0.0)

    @pytest.mark.parametrize("name", ["tau_rank", "tau_orth", "tau_psd", "tau_sub"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_finiteness_enforced(self, name, value):
        # An infinite tolerance would be written to a report as null, and
        # the report would no longer reproduce its verdicts.
        with pytest.raises(ValueError, match="finite"):
            TolerancePolicy(**{name: value})

    def test_subspace_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))


def assert_orthonormal(s: Subspace) -> None:
    b = s.basis
    assert b.dtype == np.complex128 and b.shape == (s.ambient_dim, s.dim)
    assert b.flags.c_contiguous and not b.flags.writeable
    if s.dim:
        assert np.linalg.norm(b.conj().T @ b - np.eye(s.dim), 2) <= 1e-12


class TestBuiltBases:
    """The package's own bases skip the Subspace check; they must be orthonormal."""

    def inputs(self, rng):
        low_rank = rand_c(rng, 6, 2) @ rand_c(rng, 2, 4)
        return {
            "random": rand_c(rng, 6, 4),
            "rank-deficient": low_rank,
            "zero": np.zeros((6, 4), dtype=complex),
            "scaled": 1e8 * rand_c(rng, 6, 4),
            "scaled-rank-deficient": 1e8 * low_rank,
        }

    def test_builders_return_orthonormal_bases(self, rng):
        other = range_space(rand_c(rng, 6, 3))
        for a in self.inputs(rng).values():
            r = range_space(a)
            built = [
                r,
                null_space(a),
                null_space(a.conj().T),
                complement(r),
                intersect(r, other),
                add(r, other),
                add(r, null_space(a.conj().T)),
            ]
            for s in built:
                assert_orthonormal(s)

    def test_zero_full_and_lifts(self, rng):
        for n in (0, 1, 5):
            assert_orthonormal(Subspace.zero(n))
            assert_orthonormal(Subspace.full(n))
        for a in self.inputs(rng).values():
            for s in (range_space(a), null_space(a)):
                for k, d in ((1, 2), (2, 2), (1, 3), (2, 1)):
                    lifted = lift_subspace(k, s, d)
                    assert lifted.ambient_dim == d**k * s.ambient_dim
                    assert lifted.dim == d**k * s.dim
                    assert_orthonormal(lifted)

    def test_caller_basis_is_still_checked(self):
        with pytest.raises(ValueError):
            Subspace(3, np.array([[1.0], [1.0], [0.0]]))
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestContainsDimensionRule:
    def test_matches_residual_rule(self, rng):
        loose = TolerancePolicy(tau_sub=0.9)
        verdicts = set()
        for _ in range(40):
            s2 = range_space(rand_c(rng, 6, int(rng.integers(0, 7))))
            inner = s2.basis @ rand_c(rng, s2.dim, int(rng.integers(0, s2.dim + 1)))
            candidates = [range_space(rand_c(rng, 6, int(rng.integers(0, 7)))), range_space(inner)]
            for s1 in candidates:
                for pol in (DEFAULT_POLICY, loose):
                    got = contains(s1, s2, pol)
                    assert got == contains_oracle(s1, s2, pol)
                    verdicts.add((got, s1.dim > s2.dim))
        assert verdicts >= {(True, False), (False, False), (False, True)}

    def test_rule_does_not_apply_when_tau_sub_sqrt_dim_reaches_one(self):
        # tau_sub * sqrt(2) > 1: a plane can pass the residual test against a line.
        e = np.eye(3, dtype=complex)
        plane = Subspace(3, e[:, :2])
        line = Subspace(3, ((e[:, 0] + e[:, 1]) / np.sqrt(2)).reshape(3, 1))
        loose = TolerancePolicy(tau_sub=0.9)
        assert contains_oracle(plane, line, loose)
        assert contains(plane, line, loose)
        assert not contains(plane, line)


class TestInAmpliation:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_residual_rule_on_the_kronecker_lift(self, d):
        """S inside C^d (x) K, asked block by block, against the residual
        rule on the dense lift of K: S the kernel of V, its complement and
        the lift of each chain member of the maps of ill_conditioned_corpus
        at dim E = d, K each member of the range chain."""
        verdicts, excluded = set(), 0
        reps = [rep for rep in ill_conditioned_corpus(1500) if rep.dim_e == d]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankWarning)
            for rep in reps:
                chain, kernel = range_chain(rep), rep.kernel(DEFAULT_POLICY)
                for s in (kernel, complement(kernel), *(lift_subspace(1, k, d) for k in chain)):
                    for k in chain:
                        got = _in_ampliation(s, k, d, DEFAULT_POLICY)
                        assert got == contains_oracle(s, lift_subspace(1, k, d), DEFAULT_POLICY)
                        verdicts.add(got)
                        excluded += _dims_exclude(s.dim, d * k.dim, DEFAULT_POLICY)
        assert verdicts == {True, False}
        assert excluded  # some verdicts are decided by the dimension rule


class TestAsMatrix:
    @pytest.mark.parametrize(
        "bad",
        [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0),
         complex(0.0, -np.inf), np.nan, -np.inf],
    )
    def test_rejects_non_finite_in_either_part(self, bad):
        with pytest.raises(ValueError, match="M has non-finite entries"):
            as_matrix(np.array([[1.0, 2.0], [3.0, bad]]), name="M")

    def test_accepts_finite_and_empty(self):
        out = as_matrix([[1.0, 2j]])
        assert out.dtype == np.complex128 and out.shape == (1, 2)
        assert as_matrix(np.zeros((0, 3))).shape == (0, 3)
