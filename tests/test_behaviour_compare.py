"""scripts/behaviour_outputs.py --compare: the numerical-equivalence gate."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_outputs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("behaviour_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {"growth": {"per_m": [{"m": 1, "feasible": True, "minimal_d": 44.46}]}, "warnings": []}
OUT = "  growth minimal weights: d_1=1, d_2=44.4612345678\n--- stderr\n--- exit 0\n"


def write_tree(root: Path, report: dict, out: str) -> Path:
    root.mkdir()
    (root / "a.report.json").write_text(json.dumps(report))
    (root / "a.out").write_text(out)
    return root


def compare(script, tmp_path, report=REPORT, out=OUT) -> int:
    old = write_tree(tmp_path / "old", REPORT, OUT)
    new = write_tree(tmp_path / "new", report, out)
    return script.main(["--compare", str(old), str(new)])


def with_minimal(value) -> dict:
    return {**REPORT, "growth": {"per_m": [{**REPORT["growth"]["per_m"][0], "minimal_d": value}]}}


def test_identical_trees_pass(script, tmp_path):
    assert compare(script, tmp_path) == 0


def test_round_off_drift_passes(script, tmp_path):
    drifted = OUT.replace("44.4612345678", repr(44.4612345678 * (1 + 1e-12)))
    assert compare(script, tmp_path, with_minimal(44.46 * (1 + 1e-12)), drifted) == 0


def test_drift_beyond_the_rule_fails_in_reports(script, tmp_path):
    assert compare(script, tmp_path, report=with_minimal(44.46 * (1 + 1e-6))) == 1


def test_drift_beyond_the_rule_fails_in_outputs(script, tmp_path):
    drifted = OUT.replace("44.4612345678", repr(44.4612345678 * (1 + 1e-6)))
    assert compare(script, tmp_path, out=drifted) == 1


def test_flipped_bool_fails(script, tmp_path):
    flipped = {**REPORT, "growth": {"per_m": [{**REPORT["growth"]["per_m"][0], "feasible": False}]}}
    assert compare(script, tmp_path, report=flipped) == 1


@pytest.mark.parametrize("old, new", [("weights", "weight"), ("exit 0", "exit 2"), ("d_1=1", "d_1=2")])
def test_changed_word_or_integer_fails(script, tmp_path, old, new):
    assert compare(script, tmp_path, out=OUT.replace(old, new)) == 1


def test_changed_warning_list_fails(script, tmp_path):
    assert compare(script, tmp_path, report={**REPORT, "warnings": ["rank decision is borderline"]}) == 1


def test_missing_file_fails(script, tmp_path):
    old = write_tree(tmp_path / "old", REPORT, OUT)
    new = write_tree(tmp_path / "new", REPORT, OUT)
    (new / "a.out").unlink()
    assert script.main(["--compare", str(old), str(new)]) == 1


def test_moved_floats_are_listed_per_field(script, tmp_path, capsys):
    report = {
        "growth": {"per_m": [{"m": 1, "minimal_d": 2.0}, {"m": 2, "minimal_d": 4.0}]},
        "pairs": {"1,0": {"minimal_d": 3.0}, "2,1": {"minimal_d": 5.0}},
        "gamma_by_level": {"1": 1.5, "2": 1.25},
        "holds": True,
    }
    old = tmp_path / "old"
    old.mkdir()
    (old / "a.report.json").write_text(json.dumps(report))
    (old / "a.out").write_text("  gamma: 1.5\n  d_1=2.0, d_2=4.0\n")
    new = tmp_path / "new"
    new.mkdir()
    report["growth"]["per_m"][0]["minimal_d"] = 2.0 * (1 + 1e-12)
    report["growth"]["per_m"][1]["minimal_d"] = 4.0 * (1 + 3e-12)
    report["pairs"]["2,1"]["minimal_d"] = 5.0 * (1 - 1e-13)
    report["gamma_by_level"]["1"] = 1.5 * (1 + 1e-15)
    (new / "a.report.json").write_text(json.dumps(report))
    (new / "a.out").write_text(f"  gamma: 1.5\n  d_1=2.0, d_2={4.0 * (1 + 2e-12)!r}\n")
    assert script.main(["--compare", str(old), str(new)]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = {line.split(":")[0].strip(): line for line in lines[2:]}
    assert lines[1].startswith("floats that moved in 4 field(s)")
    assert set(listed) == {"growth.per_m[].minimal_d", "pairs.*.minimal_d", "gamma_by_level.*", ".out 'd_#=#, d_#='"}
    count, largest = listed["growth.per_m[].minimal_d"].rsplit(":", 1)[1].split(",")
    assert int(count) == 2 and float(largest) == pytest.approx(3e-12, rel=1e-3)
    assert listed["pairs.*.minimal_d"].endswith(": 1, 1e-13")
    assert listed[".out 'd_#=#, d_#='"].startswith("  .out 'd_#=#, d_#=': 1, 2e-12")


def test_nothing_moved_lists_no_field(script, tmp_path, capsys):
    assert compare(script, tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "floats that moved in 0 field(s) (count, largest relative change):"
    ]
