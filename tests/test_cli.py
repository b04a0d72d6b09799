import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import woldkit
from woldkit import structure, verify
from woldkit.cli import main
from woldkit.generate import truncated_shift_rep
from woldkit.linalg import DEFAULT_POLICY, pinv
from woldkit.model import (
    Representation,
    _svd_levels,
    budget_horizon,
    load_representation,
    save_representation,
)
from woldkit.shifts import load_shift_spec
from woldkit.structure import GenInverse, is_hyper_dagger, make_generalized_inverse


def run_cli(*argv):
    return main(list(argv))


class TestAnalyze:
    def test_truncated_shift_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "shift.json"
        save_representation(truncated_shift_rep(4), fixture)
        out = tmp_path / "report.json"
        code = run_cli("analyze", str(fixture), "--out", str(out), "--horizon", "3")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["wold"]["dims"]["W"] == 1
        assert report["wold"]["dims"]["Rinf"] == 0
        assert report["tolerances"]["tau_rank"] == 1e-10
        assert "horizon" in report

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim_E": 1, ')
        assert run_cli("analyze", str(bad)) == 1
        assert "error" in capsys.readouterr().err

    def test_integer_too_large_for_a_double_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text('{"dim_E": 1, "dim_H": 1, "V": [[1' + "0" * 400 + ', 0]]}')
        assert run_cli("analyze", str(bad)) == 1
        assert capsys.readouterr().err == "error: V[0] has an integer too large for a double\n"

    def test_small_modulus_exits_two_with_skips(self, tmp_path):
        fixture = tmp_path / "small.json"
        save_representation(
            Representation(1, 2, np.diag([0.5, 0.4]).astype(complex)), fixture
        )
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(fixture), "--out", str(out)) == 2
        report = json.loads(out.read_text())
        assert "skipped" in report["growth"]
        assert "skipped" in report["wold"]

    def test_shift_spec_analysis(self, tmp_path):
        out_spec = tmp_path / "bil.json"
        assert run_cli("generate", "bilateral", "--seed", "3",
                       "--params", "n=2", "M=3", "--out", str(out_spec)) == 0
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(out_spec), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["pipeline"]["regularity"]["label"] == "boundary"

    def test_shift_spec_growth_obeys_the_budget(self, tmp_path, monkeypatch):
        # dim H = 15 and d = 2: only level 1 (30 columns) fits either budget.
        spec = tmp_path / "uni.json"
        assert run_cli("generate", "unilateral", "--seed", "1",
                       "--params", "d=2", "L=3", "--out", str(spec)) == 0
        for budget in ("40", "30"):
            monkeypatch.setenv("WOLDKIT_BUDGET", budget)
            out = tmp_path / f"report-{budget}.json"
            assert run_cli("analyze", str(spec), "--out", str(out)) == 0
            assert json.loads(out.read_text())["pipeline"]["growth"]["horizon"] == 1

    @pytest.mark.parametrize("budget, growth_horizon", [("15", 0), ("25", 1)])
    def test_representation_growth_at_the_budget_edge(self, tmp_path, monkeypatch, budget, growth_horizon):
        # d = 2, m = 10: level 1 has 20 columns, so a budget of 15 admits no
        # level and one of 25 admits level 1.  The biregular flag still
        # reads level 1, and the regularity horizon is not clamped.
        spec = tmp_path / "generic.json"
        assert run_cli("generate", "generic", "--seed", "1", "--params", "d=2", "m=10", "--out", str(spec)) == 0
        monkeypatch.setenv("WOLDKIT_BUDGET", budget)
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(spec), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["horizon"] == report["wold"]["horizon"] == 8
        assert report["growth"]["horizon"] == growth_horizon
        assert {k for k, v in report["wold"]["flags"].items() if v} == {
            "biregular", "growth_feasible", "hyper_dagger", "orthogonal", "reduces",
            "regular_at_horizon", "regular_strict", "spans_H",
        }

    @pytest.mark.parametrize("budget, growth_horizon", [("30", 2), (None, 3)])
    def test_bilateral_growth_at_the_budget_edge(self, tmp_path, monkeypatch, budget, growth_horizon):
        # n = 2, M = 3: dim H = 7, and level n has 2^n * 7 columns, so a
        # budget of 30 admits levels 1 and 2; the shift caps growth at M = 3.
        spec = tmp_path / "bilateral.json"
        assert run_cli("generate", "bilateral", "--seed", "1", "--params", "n=2", "M=3", "--out", str(spec)) == 0
        if budget is None:
            monkeypatch.delenv("WOLDKIT_BUDGET", raising=False)
        else:
            monkeypatch.setenv("WOLDKIT_BUDGET", budget)
        out = tmp_path / "report.json"
        assert run_cli("analyze", str(spec), "--out", str(out)) == 0
        assert json.loads(out.read_text())["pipeline"]["growth"]["horizon"] == growth_horizon


    @pytest.mark.parametrize(
        "doc",
        [
            {"dim_E": True, "dim_H": 1, "V": [[2.0, 0.0]]},
            {"kind": "bilateral", "n": True, "M": 1, "w": [[[1, 0], [0, 0], [2, 0]]]},
            {"kind": "unilateral", "d": True, "L": 1, "p": 1, "Z": [[[1.0, 0.0]]]},
        ],
    )
    def test_a_bool_size_is_one_error_line(self, tmp_path, capsys, doc):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("analyze", str(bad), "--out", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be positive integers" in err
        assert err.count("\n") == 1 and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--tol-rank", "0"),
            ("--tol-sub", "-1"),
            ("--tol-psd", "nan"),
            ("--tol-orth", "abc"),
            ("--tol-rank", "inf"),
            ("--tol-sub", "1e400"),
        ],
    )
    def test_a_bad_tolerance_is_a_usage_error(self, tmp_path, capsys, option, value):
        fixture = tmp_path / "shift.json"
        save_representation(truncated_shift_rep(3), fixture)
        for argv in (["analyze", str(fixture)], ["verify", "penrose", "--count", "1"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv, option, value)
            assert exc.value.code == 2
            assert f"argument {option}: expected a finite positive number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["abc", "0", "-5"])
    def test_a_bad_budget_is_one_error_line(self, tmp_path, capsys, monkeypatch, budget):
        fixture = tmp_path / "shift.json"
        save_representation(truncated_shift_rep(3), fixture)
        monkeypatch.setenv("WOLDKIT_BUDGET", budget)
        for argv in (["analyze", str(fixture)], ["verify", "all", "--count", "1"]):
            assert run_cli(*argv) == 1
            out, err = capsys.readouterr()
            assert out == ""  # verify reads the budget before any suite prints
            assert err == f"error: InvalidParams: WOLDKIT_BUDGET must be a positive integer, got {budget!r}\n"


    def test_reports_form_no_lift(self, tmp_path, capsys, monkeypatch):
        """analyze asks its E (x) H questions block by block: with _lift
        raising in every module that binds it, a representation file, a
        unilateral and a bilateral spec give the exit codes, report bytes
        and summaries of the run without the patch."""
        kinds = {"generic": ["d=2", "m=3"], "unilateral": ["d=2", "L=3"], "bilateral": ["n=2", "M=3"]}
        inputs = []
        for kind, params in kinds.items():
            inputs.append(tmp_path / f"{kind}.json")
            assert run_cli("generate", kind, "--seed", "1", "--params", *params,
                           "--out", str(inputs[-1])) == 0
        capsys.readouterr()

        def analyze_all(tag):
            runs = []
            for path in inputs:
                report = tmp_path / f"{path.stem}.{tag}.report.json"
                code = run_cli("analyze", str(path), "--out", str(report))
                runs.append((code, report.read_bytes(), capsys.readouterr().out))
            return runs

        plain = analyze_all("plain")

        def no_lift(*args):
            raise AssertionError("the ampliation was formed")

        patched = set()
        for name, module in list(sys.modules.items()):
            if name.startswith("woldkit") and hasattr(module, "_lift"):
                monkeypatch.setattr(module, "_lift", no_lift)
                patched.add(name)
        assert patched >= {"woldkit.structure", "woldkit.growth", "woldkit.wold"}
        assert analyze_all("patched") == plain


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("generate", "expansive", "--seed", "7", "--params", "m=3",
                       "--out", str(a)) == 0
        assert run_cli("generate", "expansive", "--seed", "7", "--params", "m=3",
                       "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        other = tmp_path / "c.json"
        assert run_cli("generate", "expansive", "--seed", "8", "--params", "m=3",
                       "--out", str(other)) == 0
        assert a.read_bytes() != other.read_bytes()

    def test_expansive_output_is_expansive(self, tmp_path):
        from woldkit.growth import check_expansive

        path = tmp_path / "exp.json"
        assert run_cli("generate", "expansive", "--seed", "7", "--params", "m=2",
                       "--out", str(path)) == 0
        assert check_expansive(load_representation(path))

    def test_concave_output_is_concave(self, tmp_path):
        from woldkit.growth import check_concave

        path = tmp_path / "con.json"
        assert run_cli("generate", "concave", "--seed", "5", "--params", "m=3",
                       "--out", str(path)) == 0
        assert check_concave(load_representation(path))

    def test_bilateral_matches_library_fixture(self, tmp_path):
        path = tmp_path / "bil.json"
        assert run_cli("generate", "bilateral", "--seed", "11",
                       "--params", "n=1", "M=3", "w_hi=1.0", "--out", str(path)) == 0
        spec = load_shift_spec(path)
        expected = np.ones((1, 7), dtype=complex)
        expected[0, 3] = 0.0
        assert np.array_equal(spec.w, expected)

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        assert run_cli("generate", "mystery", "--out", str(tmp_path / "x.json")) == 1
        assert "unknown kind" in capsys.readouterr().err

    def test_unused_parameter_rejected(self, tmp_path, capsys):
        assert run_cli("generate", "expansive", "--params", "bogus=3",
                       "--out", str(tmp_path / "x.json")) == 1

    @pytest.mark.parametrize("kind, param", [
        ("generic", "d=-1"),
        ("left-invertible", "m=-2"),
        ("expansive", "m=-1"),
        ("concave", "m=-1"),
        ("bilateral", "n=-1"),
        ("bilateral", "M=-1"),
        ("unilateral", "d=-1"),
        ("bilateral", "w_hi=0.5"),
        ("expansive", "top=0.5"),
        ("unilateral", "sigma_hi=0.5"),
        ("concave", "perturbation=nan"),
        ("bilateral", "w_hi=inf"),
        ("unilateral", "sigma_hi=inf"),
        ("left-invertible", "gamma_hi=inf"),
        ("expansive", "top=inf"),
    ])
    def test_out_of_range_parameter_is_one_error_line(self, tmp_path, capsys, kind, param):
        # A negative size, a range whose upper end is below its lower end or
        # a non-finite float exits 1 with one line, and writes nothing.
        out = tmp_path / "x.json"
        assert run_cli("generate", kind, "--params", param, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert run_cli("verify", "penrose", "--count", "5", "--seed", "1") == 0
        assert "PASS penrose" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert run_cli("verify", "nonsense") == 1

    def test_corrupted_tolerance_fails_loudly(self, capsys):
        code = run_cli("verify", "concave", "--count", "3", "--seed", "1",
                       "--tol-psd", "1e-30")
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "instance" in out

    def test_a_failed_penrose_bound_reports_the_exact_residual(self, monkeypatch):
        # A pseudoinverse scaled by 1 + 1e-6 breaks the first two identities.
        drawn = []

        def scaled_pinv(a, pol):
            drawn.append((a, (1.0 + 1e-6) * pinv(a, pol)))
            return drawn[-1][1]

        monkeypatch.setattr(verify, "pinv", scaled_pinv)
        result = verify.run_suite("penrose", count=3, seed=1)
        assert result.failed == 3
        for failure, (a, a_dag) in zip(result.failures, drawn):
            p, q = a @ a_dag, a_dag @ a
            worst = max(
                float(np.linalg.norm(r, 2))
                for r in (p @ a - a, q @ a_dag - a_dag, p - p.conj().T, q - q.conj().T)
            )
            scale = max(1.0, float(np.linalg.norm(a, 2)))
            assert failure["message"] == f"penrose residual {worst:.3e} > 1e-9*{scale:.3e}"

    def test_a_failed_inverse_bound_reports_the_exact_residual(self, monkeypatch):
        # 2 S for a generalized inverse S breaks S V S = S at the first draw.
        drawn = []

        def doubled(rep, y, pol):
            drawn.append((rep, 2.0 * make_generalized_inverse(rep, y, pol).matrix))
            return GenInverse(matrix=drawn[-1][1])

        monkeypatch.setattr(verify, "make_generalized_inverse", doubled)
        result = verify.run_suite("generalized-inverse", count=4, seed=1)
        assert result.failed == len(drawn) > 0
        for failure, (rep, s) in zip(result.failures, drawn):
            r = float(np.linalg.norm(s @ rep.matrix @ s - s, 2))
            assert failure["message"] == f"S V S = S identity failed: {r:.3e}"

    def test_range_structure_catches_a_chain_that_stopped_early(self, monkeypatch):
        # The suite compares the algebraic core with the range of the dense
        # iterate one level past the chain: a chain cut to [R(V)] is caught.
        chain = structure.range_chain

        def first_member(rep, pol=DEFAULT_POLICY):
            return chain(rep, pol)[:1]

        monkeypatch.setattr(structure, "range_chain", first_member)
        monkeypatch.setattr(verify, "range_chain", first_member)
        result = verify.run_suite("range-structure", count=25, seed=1)
        assert result.failed
        assert {f["message"] for f in result.failures} == {"algebraic core differs from the range of V_2"}

    @pytest.mark.parametrize("seed", [1, 7, 10, 2800])
    def test_bilateral_structure_reads_hyper_dagger_past_a_walk_fixed_point(self, monkeypatch, seed):
        # The two fixed records read the hyper-dagger property to level
        # 2 M + 2, and at least one of their SVD walks repeats a level there.
        horizons, repeats = [], []

        def traced(rep, horizon, pol):
            horizons.append(horizon)
            levels = list(itertools.islice(_svd_levels(rep), min(horizon, budget_horizon(rep))))
            repeats.append(any(a is b for a, b in itertools.pairwise(levels)))
            return is_hyper_dagger(rep, horizon, pol)

        monkeypatch.setattr(verify, "is_hyper_dagger", traced)
        assert verify.run_suite("bilateral-structure", count=5, seed=seed).ok
        assert horizons == [8, 8] and any(repeats)

    def test_deterministic_output(self, capsys):
        assert run_cli("verify", "wold", "--count", "4", "--seed", "2") == 0
        first = capsys.readouterr().out
        assert run_cli("verify", "wold", "--count", "4", "--seed", "2") == 0
        second = capsys.readouterr().out
        assert first == second


class TestDeterminism:
    def test_analysis_reports_byte_identical(self, tmp_path):
        fixture = tmp_path / "shift.json"
        save_representation(truncated_shift_rep(4), fixture)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("analyze", str(fixture), "--out", str(out1), "--horizon", "3") == 0
        assert run_cli("analyze", str(fixture), "--out", str(out2), "--horizon", "3") == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_back_to_back_calls_share_one_parser(self, tmp_path, capsys):
        # The parser is built once per process; no option of one call, and
        # no parse error, reaches the next one.
        from woldkit.cli import _build_parser

        assert _build_parser() is _build_parser()
        fixture = tmp_path / "shift.json"
        save_representation(truncated_shift_rep(4), fixture)
        outputs = []
        for i, extra in enumerate((["--horizon", "3"], [], ["--horizon", "3"])):
            out = tmp_path / f"r{i}.json"
            code = run_cli("analyze", str(fixture), "--out", str(out), *extra)
            outputs.append((code, out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[2] and outputs[0][0] == 0
        assert json.loads(outputs[1][1])["horizon"] == 8  # the default, not 3
        for argv in (
            ["analyze"],
            ["analyze", str(fixture), "--horizon", "three"],
            ["analyze", str(fixture), "--horizon", "-3"],
            ["analyze", str(fixture), "--horizon", "0"],
            ["verify", "wold", "--count", "0"],
            ["verify", "wold", "--count", "-1"],
            ["verify", "wold", "--seed", "-1"],
            ["generate", "generic", "--seed", "-1", "--out", str(tmp_path / "x.json")],
            ["nonsense"],
        ):
            errors = []
            for _ in range(2):
                with pytest.raises(SystemExit) as exc:
                    run_cli(*argv)
                errors.append((exc.value.code, capsys.readouterr().err))
            assert errors[0] == errors[1] and errors[0][0] == 2
        assert run_cli("analyze", str(fixture), "--out", str(tmp_path / "r3.json"), "--horizon", "3") == 0
        assert (tmp_path / "r3.json").read_bytes() == outputs[0][1]


def source_pythonpath() -> str:
    """PYTHONPATH that lets a subprocess import the woldkit these tests import."""
    source_dir = str(Path(woldkit.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [source_dir, os.environ.get("PYTHONPATH")]))


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "woldkit", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source_pythonpath()},
        )
        assert proc.returncode == 0
        assert "woldkit" in proc.stdout

    def test_budget_env_var(self, tmp_path):
        fixture = tmp_path / "rep.json"
        out = tmp_path / "report.json"
        save_representation(truncated_shift_rep(4), fixture)
        proc = subprocess.run(
            [sys.executable, "-m", "woldkit", "analyze", str(fixture), "--horizon", "3",
             "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "WOLDKIT_BUDGET": "50000", "PYTHONPATH": source_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["budget"] == 50000
