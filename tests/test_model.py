import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from woldkit import model
from woldkit.errors import BudgetExceeded, InvalidParams, ParseError, ShapeError
from woldkit.generate import bilateral_spec, generate_named, generic_rep, rank_deficient_rep, truncated_shift_rep
from woldkit.model import (
    Representation,
    _lower_levels,
    _map_levels,
    _svd_levels,
    _times_ampliation,
    budget_horizon,
    check_covariance,
    iterate_lower,
    iterate_map,
    _decode_complex_list,
    _encode_complex_list,
    _is_pair,
    canonical_json,
    load_representation,
    representation_from_dict,
    representation_to_dict,
    save_representation,
)
from woldkit.shifts import build_bilateral_shift

from conftest import fixed_point_corpus, svd_levels_oracle


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
        rhs = iterate_map(rep, 1) @ np.kron(np.eye(2), iterate_map(rep, 2))
        assert np.allclose(lhs, rhs)

    def test_budget(self, monkeypatch, rng):
        rep = generic_rep(rng, 2, 2)
        monkeypatch.setenv("WOLDKIT_BUDGET", "8")
        with pytest.raises(BudgetExceeded):
            iterate_map(rep, 3)


class TestTimesAmpliation:
    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("inner, width", [(2, 2), (3, 2), (2, 4), (3, 0)])
    def test_matches_kron(self, rng, blocks, inner, width):
        # Square, tall, wide and zero-width x (the empty basis of a subspace).
        a = rand_c(rng, 4, blocks * inner)
        x = rand_c(rng, inner, width)
        out = _times_ampliation(a, x)
        dense = a @ np.kron(np.eye(blocks), x)
        assert out.shape == dense.shape == (4, blocks * width)
        assert np.linalg.norm(out - dense) <= 1e-14 * max(1.0, np.linalg.norm(dense))


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


class TestWalks:
    """_map_levels and _lower_levels build each level from the one before."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_levels_match_rebuild_and_kron(self, rng, d):
        m = 3
        rep = Representation(d, m, rand_c(rng, m, d * m))
        s = rand_c(rng, d * m, m)
        maps = list(itertools.islice(_map_levels(rep), 5))
        lowered = list(itertools.islice(_lower_levels(s, d), 5))
        dense_v, dense_s = rep.matrix, s
        for n in range(1, 6):
            # Level n rebuilt from scratch by the same steps: bit for bit.
            vn, sn = rep.matrix, s
            for k in range(1, n):
                vn = _times_ampliation(rep.matrix, vn)
                sn = (s @ sn.reshape(d**k, m, m)).reshape(d ** (k + 1) * m, m)
            assert np.array_equal(maps[n - 1], vn) and np.array_equal(lowered[n - 1], sn)
            # The dense Kronecker recursion rounds differently.
            if n > 1:
                dense_v = rep.matrix @ np.kron(np.eye(d), dense_v)
                dense_s = np.kron(np.eye(d ** (n - 1)), s) @ dense_s
            assert np.linalg.norm(maps[n - 1] - dense_v) <= 1e-13 * np.linalg.norm(dense_v)
            assert np.linalg.norm(lowered[n - 1] - dense_s) <= 1e-13 * np.linalg.norm(dense_s)
            assert np.array_equal(iterate_map(rep, n), maps[n - 1])
            assert np.array_equal(iterate_lower(s, d, n), lowered[n - 1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_budget_stops_a_walk_before_the_level(self, monkeypatch, rng, d):
        m = 30
        rep = Representation(d, m, rand_c(rng, m, d * m))
        monkeypatch.setenv("WOLDKIT_BUDGET", str(d**3 * m))
        assert budget_horizon(rep) == 3
        for walk in (_map_levels(rep), _lower_levels(rand_c(rng, d * m, m), d)):
            levels = list(itertools.islice(walk, budget_horizon(rep)))  # never raises
            assert [max(level.shape) for level in levels] == [d * m, d**2 * m, d**3 * m]
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded):
                    next(walk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < d**4 * m * m * 16 / 8  # level 4 holds d^4 m^2 complex entries

    def test_budget_horizon_of_a_one_dimensional_map(self, monkeypatch):
        rep = truncated_shift_rep(5)
        assert budget_horizon(rep) == 64
        monkeypatch.setenv("WOLDKIT_BUDGET", "4")
        assert budget_horizon(rep) == 0
        with pytest.raises(BudgetExceeded):
            next(_map_levels(rep))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 7, 10])
    def test_budget_horizon_reads_the_budget_once(self, monkeypatch, d, m):
        real = model.size_budget

        def per_level_reads(rep):
            """The level loop that read WOLDKIT_BUDGET at every level."""
            if rep.dim_e == 1:
                return 64 if rep.dim_h <= real() else 0
            n = 0
            while n < 64 and rep.dim_e ** (n + 1) * rep.dim_h <= real():
                n += 1
            return n

        reads = []
        monkeypatch.setattr(model, "size_budget", lambda: reads.append(1) or real())
        rep = Representation(d, m, np.zeros((m, d * m)))
        exact = {d**n * m for n in range(1, 64) if d**n * m <= 10**6}
        budgets = set(range(1, 100)) | exact | {b - 1 for b in exact if b > 1} | {b + 1 for b in exact} | {10**6}
        for budget in sorted(budgets):
            monkeypatch.setenv("WOLDKIT_BUDGET", str(budget))
            reads.clear()
            want = per_level_reads(rep)
            assert budget_horizon(rep) == want and len(reads) == 1
            assert budget_horizon(rep, budget) == want and len(reads) == 1
        monkeypatch.setenv("WOLDKIT_BUDGET", "0")
        with pytest.raises(InvalidParams, match="WOLDKIT_BUDGET must be a positive integer"):
            budget_horizon(rep)


class TestSvdLevels:
    """_svd_levels reads u and s of V_n off an m x dm core; the dense SVD of
    iterate_map is the oracle."""

    @staticmethod
    def assert_level_svd(rep, top):
        m = rep.dim_h
        for n, (u, s) in zip(range(1, top + 1), _svd_levels(rep)):
            vn = iterate_map(rep, n)
            assert u.shape == (m, m) and s.shape == (m,)
            want = np.linalg.svd(vn, compute_uv=False)
            assert np.all(np.diff(s) <= 0.0)
            # An exactly zero level may come out as round-off of the product of
            # n factors V, whose scale is ||V||^n.
            scale = want[0] if want[0] else rep.norm() ** n
            assert np.max(np.abs(s - want)) <= 1e-12 * scale
            gram = vn @ vn.conj().T
            assert np.linalg.norm((u * s**2) @ u.conj().T - gram) <= 1e-13 * max(np.linalg.norm(gram), scale**2)
            assert np.linalg.norm(u.conj().T @ u - np.eye(m)) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_dense_svd(self, rng, d):
        self.assert_level_svd(Representation(d, 3, rand_c(rng, 3, d * 3)), 6)
        self.assert_level_svd(rank_deficient_rep(rng, d, 4, 2), 6)

    def test_nilpotent_and_zero_maps(self, rng):
        rep = truncated_shift_rep(4)  # V_n = 0 from n = 4 on
        self.assert_level_svd(rep, 6)
        levels = list(itertools.islice(_svd_levels(rep), 6))
        assert [int(np.count_nonzero(s > 0.5)) for _, s in levels] == [3, 2, 1, 0, 0, 0]
        zero = Representation(2, 3, np.zeros((3, 6)))
        self.assert_level_svd(zero, 6)
        assert all(not s.any() for _, s in itertools.islice(_svd_levels(zero), 6))

    def test_bilateral_shift_with_zero_weights(self, rng):
        rep, _ = build_bilateral_shift(bilateral_spec(rng, n=2, M=2))
        self.assert_level_svd(rep, 5)

    def test_level_one_is_read_off_the_svd_of_v(self, rng):
        rep = Representation(2, 3, rand_c(rng, 3, 6))
        u, s = next(_svd_levels(rep))
        full_u, full_s, _ = rep.svd()
        assert u is full_u and np.array_equal(s, full_s[:3])

    @pytest.mark.parametrize("d", [2, 3])
    def test_budget_stops_the_walk_before_the_level(self, monkeypatch, rng, d):
        m = 30
        rep = Representation(d, m, rand_c(rng, m, d * m))
        monkeypatch.setenv("WOLDKIT_BUDGET", str(d**3 * m))
        walk = _svd_levels(rep)
        levels = list(itertools.islice(walk, budget_horizon(rep)))  # never raises
        assert [(u.shape, s.shape) for u, s in levels] == [((m, m), (m,))] * 3
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                next(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d**4 * m * m * 16 / 8  # level 4 holds d^4 m^2 complex entries

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_no_array_grows_with_the_level(self, rng, d):
        # Level 6 of an m = 20 map has d^6 * 20 columns; the walk to it holds
        # the m x dm core and its factors only.
        m = 20
        rep = Representation(d, m, rand_c(rng, m, d * m))
        rep.svd()
        tracemalloc.start()
        try:
            for _ in itertools.islice(_svd_levels(rep), 6):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * m * m * 16


def walk_levels(walk, top):
    """The first top levels of a walk, and the message of the BudgetExceeded
    that stops it before them (None if none does)."""
    levels = []
    try:
        for level in itertools.islice(walk, top):
            levels.append(level)
    except BudgetExceeded as exc:
        return levels, str(exc)
    return levels, None


def bilateral_window():
    """The bilateral n = 2, M = 8 instance of generate at seed 1."""
    return build_bilateral_shift(generate_named("bilateral", 1, {"n": "2", "M": "8"}))[0]


class TestSvdLevelsFixedPoint:
    """A walk stops decomposing at its first repeated level; the plain walk
    of svd_levels_oracle, one thin SVD per core, is the oracle bit for bit."""

    @pytest.mark.filterwarnings("ignore::woldkit.linalg.RankWarning")
    def test_levels_are_the_plain_walk_bit_for_bit(self):
        fixed = 0
        for rep in fixed_point_corpus():
            levels, stop = walk_levels(_svd_levels(rep), 10)
            want, want_stop = walk_levels(svd_levels_oracle(rep), 10)
            assert len(levels) == len(want) >= 1 and stop == want_stop
            for (u, s), (u_o, s_o) in zip(levels, want):
                assert u.shape == u_o.shape and u.tobytes() == u_o.tobytes()
                assert s.shape == s_o.shape and s.tobytes() == s_o.tobytes()
            fixed += any(a is b for a, b in itertools.pairwise(levels))
        assert fixed >= 40  # the corpus reaches fixed points, not only the plain walk

    def test_no_svd_past_the_first_repeated_level(self, monkeypatch):
        # Levels 3 and 4 of the window hold the same bits: (1 x9, 0 x8).
        rep = bilateral_window()
        rep.svd()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        taken = []
        levels = []
        for level in itertools.islice(_svd_levels(rep), 8):
            levels.append(level)
            taken.append(len(calls))
        assert taken == [0, 1, 2, 3, 3, 3, 3, 3]
        assert np.array_equal(levels[2][1], [1.0] * 9 + [0.0] * 8)
        assert all(level is levels[2] for level in levels[3:])

    @pytest.mark.parametrize("top", [1, 2, 3, 4, 5, 7])
    def test_budget_raises_at_the_same_level(self, monkeypatch, top):
        rep = bilateral_window()
        monkeypatch.setenv("WOLDKIT_BUDGET", str(2**top * 17))
        levels, message = walk_levels(_svd_levels(rep), 12)
        want, want_message = walk_levels(svd_levels_oracle(rep), 12)
        assert len(levels) == len(want) == top
        assert message == want_message == f"columns of V_{top + 1}: {2 ** (top + 1) * 17} exceeds the size budget {2**top * 17}"


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


def decode_pairs_oracle(entries, rows, cols, name="V"):
    """The per-pair decoding: _is_pair on each entry in order, then one
    np.array conversion, and the first overflowing or non-finite pair named."""
    for i, pair in enumerate(entries):
        if not _is_pair(pair):
            raise ParseError(f"{name}[{i}] is not an [re, im] number pair")
    for i, pair in enumerate(entries):
        try:
            finite = all(math.isfinite(float(x)) for x in pair)
        except OverflowError:
            raise ParseError(f"{name}[{i}] has an integer too large for a double") from None
        if not finite:
            raise ParseError(f"{name}[{i}] has a non-finite entry")
    return np.array(entries, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def encode_loop_oracle(a):
    """The encoding [float(re), float(im)] of each entry, one by one."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=np.complex128).reshape(-1)]


class Pair(list):
    """A list subclass: a valid pair that the plain-type checks do not pass."""


def decoded(decode, entries):
    """decode(entries) as its bits, or the message of its ParseError."""
    try:
        return decode(entries, 1, len(entries), name="V").tobytes()
    except ParseError as exc:
        return str(exc)


class TestDecode:
    EXACT = [0, -0.0, 2**53 + 1, 2**63, 2**64 + 1, 10**300]

    @pytest.mark.parametrize("value", EXACT)
    def test_both_paths_convert_the_same_bits(self, value):
        plain = [[1.5, 0.0], [value, value], [-value, 2.0]]
        checked = [Pair(plain[0]), *plain[1:]]  # takes the per-pair checks
        want = np.array([complex(float(re), float(im)) for re, im in plain]).tobytes()
        assert decoded(_decode_complex_list, plain) == decoded(_decode_complex_list, checked) == want
        assert decoded(decode_pairs_oracle, plain) == want

    @pytest.mark.parametrize("make", [list, Pair])
    def test_integer_too_large_on_both_paths(self, make):
        entries = [make([1.0, 0.0]), [0, 10**400]]
        assert decoded(_decode_complex_list, entries) == "V[1] has an integer too large for a double"
        assert decoded(decode_pairs_oracle, entries) == "V[1] has an integer too large for a double"

    @pytest.mark.parametrize("bad", [[True, 1], ["1", 2], [1, 2, 3], [[1, 2]], Pair([1, 2]), Pair([True, 2])])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_both_paths_judge_a_pair_alike(self, bad, at):
        for first in (list, Pair):
            entries = [first([1.0, 0.0]), [2, 3], [0.5, -0.0], [4.0, 5]]
            entries[at] = bad
            assert decoded(_decode_complex_list, entries) == decoded(decode_pairs_oracle, entries)

    def test_encoding_is_the_loop_byte_for_byte(self, rng):
        tiny = np.finfo(float).smallest_subnormal
        matrices = [
            rand_c(rng, 7, 14) * 10.0 ** rng.integers(-300, 300, (7, 14)),
            np.array([[0.0, -0.0, complex(-0.0, 0.0)], [complex(0.0, -0.0), -0.0j, 1.0]]),
            np.array([[tiny, -tiny, complex(tiny, -3 * tiny)], [complex(-0.0, tiny), 2.2250738585072014e-308, 5e-320]]),
        ]
        for a in matrices:
            got = canonical_json(_encode_complex_list(a))
            assert got == canonical_json(encode_loop_oracle(a))
            assert np.array_equal(_decode_complex_list(json.loads(got), *a.shape, name="V"), a)
        rep = Representation(1, 2, matrices[1][:, :2])
        want = {"dim_E": 1, "dim_H": 2, "V": encode_loop_oracle(rep.matrix)}
        assert canonical_json(representation_to_dict(rep)) == canonical_json(want)

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
        # The overflow is a parse error that names the entry, not an OverflowError.
        with pytest.raises(ParseError) as err:
            representation_from_dict({"dim_E": 2, "dim_H": 1, "V": [[0, 1], [10**400, 0]]})
        assert str(err.value) == "V[1] has an integer too large for a double"

    def test_integer_too_large_for_a_float_in_a_shift_spec(self):
        from woldkit.shifts import shift_spec_from_dict

        doc = {"kind": "unilateral", "d": 1, "L": 1, "p": 1, "Z": [[[-(10**400), 0]]]}
        with pytest.raises(ParseError) as err:
            shift_spec_from_dict(doc)
        assert str(err.value) == "Z_1[0] has an integer too large for a double"

    @pytest.mark.parametrize("field", ["dim_E", "dim_H"])
    def test_a_bool_is_not_a_dimension(self, field):
        doc = {"dim_E": 1, "dim_H": 1, "V": [[2.0, 0.0]]}
        doc[field] = True
        with pytest.raises(ShapeError, match="dim_E and dim_H must be positive integers"):
            representation_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "unilateral", "d": 1, "L": 1, "p": 1, "Z": [[[1.0, 0.0]]]}, field)
            for field in ("d", "L", "p")
        ]
        + [({"kind": "bilateral", "n": 1, "M": 1, "w": [[[1, 0], [0, 0], [2, 0]]]}, field) for field in ("n", "M")],
    )
    def test_a_bool_is_not_a_shift_size(self, doc, field):
        from woldkit.shifts import shift_spec_from_dict

        shift_spec_from_dict(doc)  # valid as written
        with pytest.raises(ShapeError, match="must be positive integers"):
            shift_spec_from_dict({**doc, field: True})

    def test_first_bad_entry_is_named(self):
        # A non-finite value before an overflowing integer is the one named.
        entries = [[1.0, 0.0], [0.0, math.inf], [-(10**400), 0], [2.0, 2.0]]
        with pytest.raises(ParseError) as err:
            _decode_complex_list(entries, 2, 2, name="V")
        assert str(err.value) == "V[1] has a non-finite entry"
