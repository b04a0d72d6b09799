import math

import numpy as np
import pytest

from woldkit.errors import ConditionIViolated, NotInvertible, ParseError, ShapeError
from woldkit.generate import bilateral_spec, rand_unitary, unilateral_spec
from woldkit.linalg import null_space, psd_margin, range_space, subspaces_equal
from woldkit.shifts import (
    BilateralSpec,
    UnilateralSpec,
    _block_ranges_orthogonal,
    build_bilateral_shift,
    build_unilateral_shift,
    check_bilateral_weight_condition,
    check_unilateral_weight_condition,
    load_shift_spec,
    save_shift_spec,
    shift_pipeline,
)
from woldkit.growth import check_growth
from woldkit.model import Representation, iterate_map
from woldkit.structure import algebraic_core

from conftest import block_ranges_orthogonal_oracle, minimal_scale_factor_oracle


def scalar_weights(c, L):
    return tuple(np.array([[c]], dtype=complex) for _ in range(L))


class TestUnilateralBuild:
    def test_classical_truncated_shift(self):
        spec = UnilateralSpec(d=1, L=3, p=1, Z=scalar_weights(1.0, 3))
        rep, info = build_unilateral_shift(spec)
        expected = np.eye(4, k=-1, dtype=complex)
        assert np.allclose(rep.matrix, expected)
        assert info["level_offsets"] == [0, 1, 2, 3]

    def test_invertible_weights_kernel_is_top_level(self, rng):
        spec = unilateral_spec(rng, d=2, L=2, p=1)
        rep, info = build_unilateral_shift(spec)
        total = rep.dim_h
        top_offset, top_dim = info["level_offsets"][-1], info["level_dims"][-1]
        # Kernel = E (x) top level: columns a*total + (top block)
        kernel = null_space(rep.matrix)
        assert kernel.dim == 2 * top_dim
        expected_cols = [
            a * total + top_offset + t for a in range(2) for t in range(top_dim)
        ]
        basis = np.zeros((2 * total, len(expected_cols)), dtype=complex)
        for j, c in enumerate(expected_cols):
            basis[c, j] = 1.0
        from woldkit.linalg import Subspace

        assert subspaces_equal(kernel, Subspace(2 * total, basis))

    def test_level_zero_weights_read_off(self):
        z1 = np.diag([1.0, 2.0]).astype(complex)
        spec = UnilateralSpec(d=2, L=1, p=1, Z=(z1,))
        rep, info = build_unilateral_shift(spec)
        # H = level0 (dim 1) + level1 (dim 2); E (x) level0 columns are 0 and 3.
        assert rep.matrix[1, 0] == pytest.approx(1.0)
        assert rep.matrix[2, 3] == pytest.approx(2.0)

    def test_block_bijectivity_below_truncation(self, rng):
        # With invertible weights the map is injective on lifts of levels
        # below the top and its range is exactly levels 1..L.
        spec = unilateral_spec(rng, d=2, L=2, p=1)
        rep, info = build_unilateral_shift(spec)
        total = rep.dim_h
        top_offset = info["level_offsets"][-1]
        below_cols = [
            a * total + j for a in range(2) for j in range(top_offset)
        ]
        sub = rep.matrix[:, below_cols]
        assert np.linalg.svd(sub, compute_uv=False)[-1] > 1e-8
        rng_space = range_space(rep.matrix)
        expected = np.zeros((total, total - 1), dtype=complex)
        for j in range(1, total):
            expected[j, j - 1] = 1.0
        from woldkit.linalg import Subspace

        assert subspaces_equal(rng_space, Subspace(total, expected))


def shift_weight_product(spec, n):
    """The block of V_n of the built shift from E^(x)n (x) level 0 to level
    n, with columns in the order of E^(x)n (x) C^p: Z^(n) (x) I_p for the
    weight product Z^(n) = Z_n (I (x) Z_{n-1}) ... (I^(n-1) (x) Z_1)."""
    rep, info = build_unilateral_shift(spec)
    start = info["level_offsets"][n]
    cols = (np.arange(spec.d**n)[:, None] * rep.dim_h + np.arange(spec.p)).ravel()
    return iterate_map(rep, n)[start : start + info["level_dims"][n]][:, cols]


class TestZProduct:
    """The weight products carried by level n of the built shift."""

    def test_identity_weights(self):
        spec = UnilateralSpec(d=2, L=2, p=1, Z=(np.eye(2), np.eye(4)))
        assert np.allclose(shift_weight_product(spec, 2), np.eye(4))

    def test_scalar_weights_multiply(self):
        spec = UnilateralSpec(d=1, L=3, p=1, Z=scalar_weights(2.0, 3))
        assert shift_weight_product(spec, 3)[0, 0] == pytest.approx(8.0)

    def test_two_level_expansion(self, rng):
        z1, z2 = rand_unitary(rng, 2), rand_unitary(rng, 4)
        spec = UnilateralSpec(d=2, L=2, p=1, Z=(z1, z2))
        assert np.allclose(shift_weight_product(spec, 2), z2 @ np.kron(np.eye(2), z1))

    def test_matches_kron_at_d3(self, rng):
        for p in (1, 2):
            spec = unilateral_spec(rng, d=3, L=3, p=p)
            for n in range(4):
                want = np.kron(kron_z_product(spec, n), np.eye(p))
                got = shift_weight_product(spec, n)
                assert got.shape == want.shape == (3**n * p, 3**n * p)
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def kron_z_product(spec, n):
    """The weight product Z^(n) with every lift formed by np.kron."""
    out = np.eye(1, dtype=complex) if n == 0 else spec.Z[n - 1]
    for j in range(1, n):
        out = out @ np.kron(np.eye(spec.d**j), spec.Z[n - j - 1])
    return out


def weight_condition_oracle(spec, d_seq, k_max, n_max, budget):
    """The weight condition by the dense formula: Y = Z^(k+n) inv(I (x) Z^(n)),
    Q = Y*Y - I and G = I (x) (Y_1*Y_1) - I, the minimal weight from the
    dense pencil oracle.  Returns (pairs, minimal_per_k, skipped_pairs)."""
    d = spec.d
    pairs, per_k, skipped = {}, {}, []
    for k in range(1, k_max + 1):
        for n in range(0, n_max + 1):
            if k + n > spec.L or d ** (k + n) > budget:
                skipped.append((k, n))
                continue
            zn = kron_z_product(spec, n)
            y = kron_z_product(spec, k + n) @ np.linalg.inv(np.kron(np.eye(d**k), zn))
            y1 = kron_z_product(spec, 1 + n) @ np.linalg.inv(np.kron(np.eye(d), zn))
            q = y.conj().T @ y - np.eye(d ** (k + n))
            g = np.kron(np.eye(d ** (k - 1)), y1.conj().T @ y1) - np.eye(d ** (k + n))
            entry = {"minimal_d": minimal_scale_factor_oracle(q, g)}
            if d_seq is not None and k <= len(d_seq):
                entry["residual"], entry["holds"] = psd_margin(d_seq[k - 1] * g - q)
            pairs[(k, n)] = entry
            per_k[k] = max(per_k.get(k, 0.0), entry["minimal_d"])
    return pairs, per_k, skipped


def sweep_weights(kind, d, big_l, seed):
    """Weights U diag(s) W* with expansive s, s = 1 on every other direction
    (G has a kernel), s = 1 throughout (unitary, G = 0) or s around 1
    (gamma < 1)."""
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(1, big_l + 1):
        n = d**k
        u, w = rand_unitary(rng, n), rand_unitary(rng, n)
        if kind == "expansive":
            s = rng.uniform(1.0, 1.5, n)
        elif kind == "unit-directions":
            s = rng.uniform(1.1, 1.5, n)
            s[::2] = 1.0
        elif kind == "unitary":
            s = np.ones(n)
        else:
            s = rng.uniform(0.6, 1.4, n)
        mats.append((u * s) @ w.conj().T)
    return UnilateralSpec(d=d, L=big_l, p=1, Z=tuple(mats))


def close(got, want) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))


class TestUnilateralConditionOracle:
    @pytest.mark.parametrize("d, big_l", [(1, 5), (2, 4), (3, 3)])
    def test_matches_dense_formula(self, monkeypatch, d, big_l):
        seen = {"holds": set(), "inf": set()}
        for kind in ("expansive", "unit-directions", "unitary", "contractive"):
            for seed in range(3):
                spec = sweep_weights(kind, d, big_l, 100 * d + seed)
                budget = 10**6 if seed < 2 else d ** (big_l - 1)  # seed 2 skips by budget
                monkeypatch.setenv("WOLDKIT_BUDGET", str(budget))
                for d_seq in (None, [1.5, 3.0, 6.0], [0.5, 20.0]):
                    report = check_unilateral_weight_condition(spec, d_seq, 3, 2)
                    pairs, per_k, skipped = weight_condition_oracle(spec, d_seq, 3, 2, budget)
                    assert report.skipped_pairs == skipped
                    assert set(report.pairs) == set(pairs) and set(report.minimal_per_k) == set(per_k)
                    for key, want in pairs.items():
                        got = report.pairs[key]
                        assert set(got) == set(want)
                        if math.isinf(want["minimal_d"]):
                            assert got["minimal_d"] is None
                        else:
                            assert close(got["minimal_d"], want["minimal_d"])
                        if "residual" in want:
                            assert close(got["residual"], want["residual"])
                            assert got["holds"] == want["holds"]
                            seen["holds"].add(got["holds"])
                    for k, want in per_k.items():
                        got = report.minimal_per_k[k]
                        assert math.isinf(got) == math.isinf(want)
                        assert math.isinf(want) or close(got, want)
                        seen["inf"].add(math.isinf(got))
                    want_holds = (
                        all(math.isfinite(v) for v in per_k.values())
                        if d_seq is None
                        else all(e.get("holds", True) for e in pairs.values())
                    )
                    assert report.holds == want_holds
        assert seen["holds"] == {True, False}
        assert d == 1 or seen["inf"] == {True, False}


    def test_pairs_past_the_first_level(self, monkeypatch):
        """Pairs (k, n) with k >= 2 against the dense formula.  Their
        factored pencils are square, d^(k+n) rows of Y~* against as many
        columns, so the minimal weight comes from the direct eigenvalue."""
        import woldkit.growth as growth

        shapes = []
        solve = growth.minimal_scale_factor
        monkeypatch.setattr(
            growth, "minimal_scale_factor", lambda z, *a: shapes.append(z.shape) or solve(z, *a)
        )
        outcomes = set()
        for d in (2, 3):
            for kind in ("expansive", "unit-directions", "contractive"):
                spec = sweep_weights(kind, d, 3, 7 * d)
                report = check_unilateral_weight_condition(spec, None, 3, 1)
                pairs, _, _ = weight_condition_oracle(spec, None, 3, 1, 10**6)
                for (k, n), want in pairs.items():
                    got = report.pairs[(k, n)]["minimal_d"]
                    if k < 2:
                        continue
                    if math.isinf(want["minimal_d"]):
                        assert got is None
                    else:
                        assert close(got, want["minimal_d"])
                    outcomes.add(got is None)
        assert outcomes == {True, False}
        assert shapes and all(rows == cols for rows, cols in shapes)


class TestWeightConditionIsTheShiftPencil:
    """The unilateral weight condition is the growth pencil of the shift it
    weights: the level-k minimal weight of check_growth on the built shift
    is the largest pair (k, n) minimal weight over n <= L - k."""

    def test_sweep(self):
        seen_inf = set()
        for d, big_l in ((1, 4), (2, 3), (2, 4), (3, 2), (3, 3)):
            for p in (1, 2):
                rng = np.random.default_rng(100 * d + 10 * big_l + p)
                spec = UnilateralSpec(d=d, L=big_l, p=p, Z=tuple(
                    (rand_unitary(rng, d**k) * rng.uniform(0.3, 3.0, d**k)) @ rand_unitary(rng, d**k)
                    for k in range(1, big_l + 1)
                ))
                growth = check_growth(build_unilateral_shift(spec)[0], None, big_l)
                report = check_unilateral_weight_condition(spec, None, big_l, big_l - 1)
                for k in range(1, big_l + 1):
                    pairs = [report.pairs[(k, n)]["minimal_d"] for n in range(big_l - k + 1)]
                    want = math.inf if None in pairs else max(pairs)
                    got = growth.entries[k - 1].minimal_d
                    assert math.isinf(got) == math.isinf(want)
                    assert math.isinf(want) or close(got, want)
                    seen_inf.add(math.isinf(want))
        assert seen_inf == {True, False}


class TestUnilateralCondition:
    def test_identity_weights_hold_for_any_weight(self):
        spec = UnilateralSpec(d=2, L=3, p=1, Z=(np.eye(2), np.eye(4), np.eye(8)))
        report = check_unilateral_weight_condition(spec, [0.0, 0.0, 0.0], 2, 1)
        assert report.holds
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in report.minimal_per_k.values())

    @pytest.mark.parametrize("c", [1.1, 2.0])
    def test_constant_scalar_weights_closed_form(self, c):
        spec = UnilateralSpec(d=1, L=6, p=1, Z=scalar_weights(c, 6))
        report = check_unilateral_weight_condition(spec, None, 4, 2)
        for k in range(1, 5):
            want = (c ** (2 * k) - 1.0) / (c**2 - 1.0)
            assert report.minimal_per_k[k] == pytest.approx(want, abs=1e-9)

    def test_unit_scalar_weights_equality_case(self):
        spec = UnilateralSpec(d=1, L=4, p=1, Z=scalar_weights(1.0, 4))
        report = check_unilateral_weight_condition(spec, [1.0, 1.0, 1.0], 3, 1)
        assert report.holds

    def test_singular_weight_rejected(self):
        spec = UnilateralSpec(d=1, L=2, p=1, Z=(np.array([[1.0]]), np.array([[0.0]])))
        with pytest.raises(NotInvertible) as err:
            check_unilateral_weight_condition(spec, None, 1, 1)
        assert "Z_2" in str(err.value)

    def test_coverage_skips_beyond_truncation(self):
        spec = UnilateralSpec(d=1, L=2, p=1, Z=scalar_weights(1.5, 2))
        report = check_unilateral_weight_condition(spec, None, 3, 2)
        assert report.skipped_pairs  # pairs with k + n > L are reported


class TestBilateralBuild:
    def test_small_window_action(self):
        # n=1, M=2, unit weights except the zero at the origin
        w = np.ones((1, 5), dtype=complex)
        w[0, 2] = 0.0
        spec = BilateralSpec(n=1, M=2, w=w)
        rep, info = build_bilateral_shift(spec)
        v = rep.matrix
        # e_m -> e_{m+1} for m in {-2, -1, 1}; m=0 killed; m=2 out of window
        assert v[1, 0] == 1.0 and v[2, 1] == 1.0 and v[4, 3] == 1.0
        assert not v[:, 2].any() and not v[:, 4].any()
        assert info["index_map"]["1,2"] is None

    def test_kernel_contains_origin_columns(self, rng):
        spec = bilateral_spec(rng, n=2, M=3)
        rep, _ = build_bilateral_shift(spec)
        dim_h = rep.dim_h
        for i in (1, 2):
            col = (i - 1) * dim_h + 3  # m = 0
            assert not rep.matrix[:, col].any()

    def test_component_ranges_orthogonal(self, rng):
        spec = bilateral_spec(rng, n=2, M=1)
        rep, _ = build_bilateral_shift(spec)
        dim_h = rep.dim_h
        r1 = range_space(rep.matrix[:, :dim_h])
        r2 = range_space(rep.matrix[:, dim_h:])
        assert np.linalg.norm(r1.basis.conj().T @ r2.basis, 2) <= 1e-10

    def test_block_ranges_read_off_the_row_support(self, rng):
        # A bilateral shift is monomial, so its column blocks have
        # orthogonal ranges iff no row of V is hit by two blocks: that
        # equals the range-SVD rule on specs with zero and unit weights,
        # and both say False on a map with one nonzero per column whose
        # two blocks share a row.
        for _ in range(60):
            n, M = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            w = rng.choice(np.array([0.0, 1.0, 1.0 + rng.uniform()]), size=(n, 2 * M + 1))
            for spec in (BilateralSpec(n=n, M=M, w=w), bilateral_spec(rng, n, M)):
                rep = build_bilateral_shift(spec)[0]
                assert _block_ranges_orthogonal(rep) == block_ranges_orthogonal_oracle(rep)
                assert _block_ranges_orthogonal(rep)
        v = np.zeros((3, 6), dtype=complex)
        v[0, 0], v[1, 1], v[2, 3 + 1] = 1.0, 2.0, 1.0
        v[0, 3 + 2] = 1.5  # V(e_1 (x) e_2) lies on e_0, as V(e_0 (x) e_0) does
        shared = Representation(2, 3, v)
        assert not _block_ranges_orthogonal(shared) and not block_ranges_orthogonal_oracle(shared)

    def test_stable_range_matches_reachability_oracle(self, rng):
        # Oracle: graph reachability on window indices, independent of SVD.
        spec = bilateral_spec(rng, n=2, M=3)
        rep, _ = build_bilateral_shift(spec)
        n, M = spec.n, spec.M
        reachable = set(range(-M, M + 1))
        while True:
            step = {
                i + n * m
                for m in reachable
                for i in range(1, n + 1)
                if abs(i + n * m) <= M and abs(spec.weight(i, m)) > 0
            }
            if step == reachable:
                break
            reachable = step
        rinf = algebraic_core(rep)
        expected = sorted(t + M for t in reachable)
        basis = np.zeros((rep.dim_h, len(expected)), dtype=complex)
        for j, r in enumerate(expected):
            basis[r, j] = 1.0
        from woldkit.linalg import Subspace

        assert subspaces_equal(rinf, Subspace(rep.dim_h, basis))


class TestBilateralCondition:
    def test_unit_weights_hold(self):
        w = np.ones((1, 7), dtype=complex)
        w[0, 3] = 0.0
        spec = BilateralSpec(n=1, M=3, w=w)
        report = check_bilateral_weight_condition(spec, [0.0, 0.0, 0.0], 3)
        assert report.holds
        assert all(e["minimal_d"] == pytest.approx(0.0) for e in report.per_k.values())

    def test_sqrt_two_weights_minimal_sequence(self):
        w = np.ones((1, 7), dtype=complex)
        w[0, 3] = 0.0
        w[0, 4:] = math.sqrt(2.0)
        spec = BilateralSpec(n=1, M=3, w=w)
        report = check_bilateral_weight_condition(spec, None, 2)
        for k in (1, 2):
            assert report.per_k[k]["minimal_d"] == pytest.approx(2.0 ** (k + 1) - 1.0)

    def test_condition_i_violations(self):
        w = np.ones((1, 7), dtype=complex)
        w[0, 3] = 0.5  # origin weight must vanish
        with pytest.raises(ConditionIViolated):
            check_bilateral_weight_condition(BilateralSpec(n=1, M=3, w=w), None, 1)
        w2 = np.ones((1, 7), dtype=complex)
        w2[0, 3] = 0.0
        w2[0, 1] = 2.0  # negative side must be exactly one
        with pytest.raises(ConditionIViolated):
            check_bilateral_weight_condition(BilateralSpec(n=1, M=3, w=w2), None, 1)

    def test_out_of_window_tuples_counted(self, rng):
        spec = bilateral_spec(rng, n=2, M=3)
        report = check_bilateral_weight_condition(spec, None, 3)
        assert report.per_k[3]["skipped"] > 0

    def test_modulus_at_least_one_under_condition_i(self, rng):
        from woldkit.growth import gamma_at_least_one

        for n in (1, 2):
            spec = bilateral_spec(rng, n=n, M=3, w_hi=1.7)
            rep, _ = build_bilateral_shift(spec)
            assert gamma_at_least_one(rep)

    def test_monotone_in_weight(self, rng):
        spec = bilateral_spec(rng, n=1, M=3, w_hi=1.8)
        base = check_bilateral_weight_condition(spec, None, 3)
        feasible = [base.per_k[k]["minimal_d"] for k in (1, 2, 3)]
        report = check_bilateral_weight_condition(spec, feasible, 3)
        assert report.holds
        bumped = [d + 1.0 for d in feasible]
        assert check_bilateral_weight_condition(spec, bumped, 3).holds


class TestShiftPipeline:
    def test_classical_shift_generates(self):
        spec = UnilateralSpec(d=1, L=3, p=1, Z=scalar_weights(1.0, 3))
        report = shift_pipeline(spec)
        assert report.regular_boundary
        assert report.wold.generated.dim == 4
        assert report.wold.generalized_range.dim == 0
        assert report.assertions_hold

    def test_bilateral_window_complete(self, rng):
        spec = bilateral_spec(rng, n=1, M=3)
        report = shift_pipeline(spec)
        assert report.regular_boundary and not report.regular_strict
        assert report.assertions_hold
        assert any("[boundary]" in key for key in report.assertions)
        # Wandering space read from the explicit range complement
        rep, _ = build_bilateral_shift(spec)
        from woldkit.linalg import complement
        assert subspaces_equal(
            report.wold.wandering, complement(range_space(rep.matrix))
        )

    def test_fock_isometric_shift_wandering_is_level_zero(self):
        spec = UnilateralSpec(d=2, L=2, p=1, Z=(np.eye(2), np.eye(4)))
        report = shift_pipeline(spec)
        w = report.wold.wandering
        assert w.dim == 1
        assert abs(w.basis[0, 0]) == pytest.approx(1.0)
        assert report.assertions_hold


class TestSpecFiles:
    def test_unilateral_round_trip(self, rng, tmp_path):
        spec = unilateral_spec(rng, d=2, L=2, p=1)
        path = tmp_path / "uni.json"
        save_shift_spec(spec, path)
        loaded = load_shift_spec(path)
        assert isinstance(loaded, UnilateralSpec)
        assert loaded.d == spec.d and loaded.L == spec.L and loaded.p == spec.p
        for a, b in zip(loaded.Z, spec.Z):
            assert np.array_equal(a, b)

    def test_bilateral_round_trip(self, rng, tmp_path):
        spec = bilateral_spec(rng, n=2, M=3)
        path = tmp_path / "bil.json"
        save_shift_spec(spec, path)
        loaded = load_shift_spec(path)
        assert isinstance(loaded, BilateralSpec)
        assert np.array_equal(loaded.w, spec.w)

    def test_missing_weights_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "bilateral", "n": 1, "M": 3}')
        with pytest.raises(ParseError):
            load_shift_spec(path)

    def test_wrong_weight_count_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"kind": "unilateral", "d": 1, "L": 2, "p": 1, "Z": [[[1.0, 0.0]]]}')
        with pytest.raises(ShapeError):
            load_shift_spec(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad3.json"
        path.write_text('{"kind": "sideways"}')
        with pytest.raises(ParseError):
            load_shift_spec(path)
