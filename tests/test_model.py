import json
import math

import numpy as np
import pytest

from woldkit.errors import BudgetExceeded, ParseError, ShapeError
from woldkit.generate import generic_rep, truncated_shift_rep
from woldkit.model import (
    Representation,
    check_covariance,
    iterate_lower,
    iterate_map,
    _decode_complex_list,
    load_representation,
    representation_from_dict,
    representation_to_dict,
    save_representation,
    tensor_lift,
)


def rand_c(rng, r, c):
    return (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))) / np.sqrt(2)


class TestRepresentation:
    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            Representation(2, 2, np.zeros((2, 3)))

    def test_matrix_is_frozen(self):
        rep = truncated_shift_rep(3)
        with pytest.raises(ValueError):
            rep.matrix[0, 0] = 1.0

    def test_generator_labels_must_match(self):
        with pytest.raises(ShapeError):
            Representation(1, 1, np.eye(1), sigma={"a": np.eye(1)}, phi={})


class TestTensorLift:
    def test_k_zero_is_identity_on_input(self, rng):
        a = rand_c(rng, 2, 3)
        assert tensor_lift(0, a, 2) is not None
        assert np.array_equal(tensor_lift(0, a, 2), a)

    def test_one_by_one(self):
        out = tensor_lift(1, np.array([[3.0]]), 2)
        assert np.allclose(out, np.diag([3.0, 3.0]))

    def test_block_diagonal_copies(self, rng):
        a = rand_c(rng, 2, 3)
        out = tensor_lift(2, a, 2)
        assert out.shape == (8, 12)
        assert np.allclose(out, np.kron(np.eye(4), a))

    def test_composition(self, rng):
        a = rand_c(rng, 2, 2)
        assert np.allclose(tensor_lift(1, tensor_lift(2, a, 2), 2), tensor_lift(3, a, 2))

    def test_singular_values_with_multiplicity(self, rng):
        a = rand_c(rng, 2, 3)
        s = np.linalg.svd(a, compute_uv=False)
        lifted = np.linalg.svd(tensor_lift(2, a, 2), compute_uv=False)
        assert np.allclose(np.sort(lifted), np.sort(np.tile(s, 4)))

    def test_budget(self, monkeypatch, rng):
        monkeypatch.setenv("WOLDKIT_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            tensor_lift(3, rand_c(rng, 2, 2), 3)


class TestIterateMap:
    def test_first_iterate_is_the_map(self, rng):
        rep = generic_rep(rng, 2, 2)
        assert np.allclose(iterate_map(rep, 1), rep.matrix)

    def test_one_dimensional_collapses_to_powers(self):
        rep = truncated_shift_rep(4)
        s = rep.matrix
        assert np.allclose(iterate_map(rep, 3), np.linalg.matrix_power(s, 3))

    def test_both_factorization_orders_agree(self, rng):
        rep = generic_rep(rng, 2, 2)
        v, n = rep.matrix, 3
        out = iterate_map(rep, n)
        assert out.shape == (2, 16)
        alt = v
        for k in range(1, n):
            alt = alt @ np.kron(np.eye(2**k), v)
        assert np.linalg.norm(out - alt, 2) <= 1e-10 * max(1.0, np.linalg.norm(v, 2) ** n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_kron_recursion(self, rng, d, n):
        m = 3
        rep = Representation(d, m, rand_c(rng, m, d * m))
        dense = rep.matrix
        for _ in range(n - 1):
            dense = rep.matrix @ np.kron(np.eye(d), dense)
        out = iterate_map(rep, n)
        assert out.shape == (m, d**n * m)
        assert np.linalg.norm(out - dense) <= 1e-13 * np.linalg.norm(dense)

    def test_semigroup_identity(self, rng):
        rep = generic_rep(rng, 2, 2)
        lhs = iterate_map(rep, 3)
        rhs = iterate_map(rep, 1) @ tensor_lift(1, iterate_map(rep, 2), 2)
        assert np.allclose(lhs, rhs)

    def test_budget(self, monkeypatch, rng):
        rep = generic_rep(rng, 2, 2)
        monkeypatch.setenv("WOLDKIT_BUDGET", "8")
        with pytest.raises(BudgetExceeded):
            iterate_map(rep, 3)


class TestIterateLower:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_lift(self, rng, d, n):
        m = 3
        s = rand_c(rng, d * m, m)
        dense = s
        for k in range(1, n):
            dense = np.kron(np.eye(d**k), s) @ dense
        out = iterate_lower(s, d, n)
        assert out.shape == (d**n * m, m)
        assert np.linalg.norm(out - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("d", [2, 3])
    def test_budget(self, monkeypatch, rng, d):
        m = 2
        s = rand_c(rng, d * m, m)
        monkeypatch.setenv("WOLDKIT_BUDGET", str(d**3 * m))
        assert iterate_lower(s, d, 3).shape == (d**3 * m, m)
        with pytest.raises(BudgetExceeded):
            iterate_lower(s, d, 4)


class TestCovariance:
    def test_empty_generator_lists(self, rng):
        ok, residuals = check_covariance(generic_rep(rng, 2, 2))
        assert ok and residuals == {}

    def test_identity_generators_always_pass(self, rng):
        rep = Representation(
            2, 2, rand_c(rng, 2, 4), sigma={"a": np.eye(2)}, phi={"a": np.eye(2)}
        )
        ok, residuals = check_covariance(rep)
        assert ok and residuals["a"] <= 1e-12

    def test_scalar_mismatch(self):
        rep = Representation(
            1, 1, np.array([[1.0]]), sigma={"a": np.array([[1.0]])}, phi={"a": np.array([[2.0]])}
        )
        ok, residuals = check_covariance(rep)
        assert not ok
        assert residuals["a"] == pytest.approx(1.0)


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        rep = Representation(
            2,
            3,
            rand_c(rng, 3, 6),
            sigma={"g": rand_c(rng, 3, 3)},
            phi={"g": rand_c(rng, 2, 2)},
        )
        path = tmp_path / "rep.json"
        save_representation(rep, path)
        loaded = load_representation(path)
        assert loaded.dim_e == rep.dim_e and loaded.dim_h == rep.dim_h
        assert np.array_equal(loaded.matrix, rep.matrix)
        assert np.array_equal(loaded.sigma["g"], rep.sigma["g"])
        assert np.array_equal(loaded.phi["g"], rep.phi["g"])

    def test_wrong_entry_count_is_shape_error(self, rng, tmp_path):
        doc = representation_to_dict(generic_rep(rng, 2, 2))
        doc["V"] = doc["V"][:-1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ShapeError):
            load_representation(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dim_E": 1, "dim_H": 1, "V": [[NaN, 0.0]]}')
        with pytest.raises(ParseError):
            load_representation(path)

    def test_overflowing_float_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"dim_E": 1, "dim_H": 1, "V": [[1e999, 0.0]]}')
        with pytest.raises(ParseError):
            load_representation(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"dim_E": 1, "dim_H": 1}')
        with pytest.raises(ParseError):
            load_representation(path)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim_E": 1,\n  "dim_H": ')
        with pytest.raises(ParseError) as err:
            load_representation(path)
        assert "line" in str(err.value)


def decode_loop_oracle(entries, rows, cols):
    """The decoding by complex(re, im), entry by entry."""
    return np.array([complex(float(re), float(im)) for re, im in entries]).reshape(rows, cols)


class TestDecode:
    def test_fast_path_is_bitwise_the_loop(self, rng):
        values = list(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40))
        values += [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 3, -7, 0, 2**70, -(2**60)]
        values = [v if isinstance(v, int) else float(v) for v in values]
        entries = [[values[i], values[-1 - i]] for i in range(len(values))]
        got = _decode_complex_list(entries, 5, 10, name="V")
        want = decode_loop_oracle(entries, 5, 10)
        assert got.shape == (5, 10) and got.dtype == np.complex128
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got.real).tolist() == np.signbit(want.real).tolist()

    def test_numpy_scalars_decode_as_before(self):
        entries = [[np.float64(1.5), np.float64(-0.0)], [2, np.float64(3.25)]]
        got = _decode_complex_list(entries, 1, 2, name="V")
        assert got.tobytes() == decode_loop_oracle(entries, 1, 2).tobytes()

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([True, 0.0], "V[1] is not an [re, im] number pair"),
            (["1", 0.0], "V[1] is not an [re, im] number pair"),
            ([1.0], "V[1] is not an [re, im] number pair"),
            ([1.0, 2.0, 3.0], "V[1] is not an [re, im] number pair"),
            ((1.0, 2.0), "V[1] is not an [re, im] number pair"),
            ([math.nan, 0.0], "V[1] has a non-finite entry"),
            ([0.0, math.inf], "V[1] has a non-finite entry"),
        ],
    )
    def test_bad_entry_names_its_index(self, bad, message):
        entries = [[1.0, 0.0], bad, [0.0, 1.0], [2.0, 2.0]]
        with pytest.raises(ParseError) as err:
            _decode_complex_list(entries, 2, 2, name="V")
        assert str(err.value) == message

    def test_integer_too_large_for_a_float_overflows(self):
        with pytest.raises(OverflowError):
            representation_from_dict({"dim_E": 1, "dim_H": 1, "V": [[10**400, 0]]})
