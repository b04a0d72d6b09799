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
