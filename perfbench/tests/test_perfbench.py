"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They run every workload at tiny sizes, check the tracer's accounting and
that it restores every binding, and check the output comparisons.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

UNATTRIBUTED_MAX = 0.05
"""Layer self times must cover at least 95 % of the traced wall time."""


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 20
    spec = benchmark_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert any(line.startswith("check: seed-independent checks") for line in lines)
    assert any(line.startswith("env: ") for line in lines)


def test_benchmark_spec_matches_code():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.layer_metrics())


def test_reference_files_match_workload_sizes():
    for name, workload in WORKLOADS.items():
        doc = checks.load_reference(name)
        assert doc["sizes"] == workload.params
        assert len(doc["outputs"]) == workload.pool * (1 if workload.kind else 11)


def traced_calls(tmp_path):
    """Trace one analyze and one suite call on small inputs; return the span
    file, and the bindings before install and after uninstall."""
    import woldkit.cli
    import woldkit.verify
    from woldkit.errors import WoldkitError

    path = str(tmp_path / "inst.json")
    assert woldkit.cli.main(["generate", "generic", "--seed", "3", "--out", path,
                             "--params", "d=2", "m=5"]) == 0
    before = tracer.bindings()
    t = tracer.Tracer(WoldkitError)
    for call in (
        lambda: woldkit.cli.main(["analyze", path, "--out", str(tmp_path / "r.json")]),
        lambda: woldkit.verify.run_suite("wold", 3, 1),
    ):
        t.install()
        root = t.begin_call()
        call()
        t.end_call(root)
        t.uninstall()
    spans = str(tmp_path / "spans.npz")
    t.save(spans)
    return spans, before, tracer.bindings()


def test_self_times_sum_to_traced_wall_time(tmp_path, capsys):
    spans, _, _ = traced_calls(tmp_path)
    metrics, unattributed = tracer.summarize(spans)
    z = np.load(spans)
    dur = z["end"] - z["start"]
    roots = z["name_id"] == list(z["names"]).index(tracer.ROOT)
    wall = dur[roots].sum() / roots.sum()
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in (*tracer.LAYERS, "numpy"))
    # Children nest inside their parent, so no self time is negative.
    linked = z["parent"] >= 0
    self_t = dur - np.bincount(z["parent"][linked], weights=dur[linked], minlength=dur.size)
    assert self_t.min() > -1e-6
    assert unattributed < UNATTRIBUTED_MAX
    assert layer_self == pytest.approx(wall * (1 - unattributed), rel=1e-9)
    assert metrics["cli.calls"] == 0.5 and metrics["verify.calls"] == 0.5
    assert metrics["growth.level_dim_max"] > 0 and metrics["numpy.svd.flops"] > 0


def test_every_rebound_name_is_restored(tmp_path, capsys):
    import woldkit.cli
    import woldkit.linalg
    import woldkit.structure
    from woldkit.errors import WoldkitError

    original_pinv, original_svd = woldkit.linalg.pinv, np.linalg.svd
    t = tracer.Tracer(WoldkitError)
    before = tracer.bindings()
    t.install()
    # Copied bindings (`from .linalg import pinv`) are rebound as well.
    assert woldkit.structure.pinv is not original_pinv
    assert woldkit.structure.pinv is woldkit.linalg.pinv
    assert woldkit.cli.is_regular.__wrapped__ is not None
    assert np.linalg.svd is not original_svd
    t.uninstall()
    assert tracer.bindings() == before
    assert woldkit.linalg.pinv is original_pinv and np.linalg.svd is original_svd
    _, before, after = traced_calls(tmp_path)
    assert after == before


def test_compare_exact_and_float_tolerance():
    want = {"rc": 0, "flags": [True, False], "w": 2.5, "res": 1e-15, "note": "x"}
    assert checks.compare(dict(want), want) == []
    assert checks.compare({**want, "w": 2.5 * (1 + 1e-10)}, want) == []
    assert checks.compare({**want, "w": 2.5 * (1 + 1e-8)}, want)
    assert checks.compare({**want, "res": 3e-14}, want) == []
    assert checks.compare({**want, "rc": 2}, want)
    assert checks.compare({**want, "flags": [1, False]}, want)
    assert checks.compare({**want, "note": "y"}, want)
    assert checks.compare({k: v for k, v in want.items() if k != "w"}, want)


def test_bilateral_matrix_matches_woldkit(tmp_path):
    from woldkit.generate import bilateral_spec
    from woldkit.shifts import build_bilateral_shift, save_shift_spec

    spec = bilateral_spec(np.random.default_rng(4), n=2, M=4)
    path = tmp_path / "b.json"
    save_shift_spec(spec, path)
    with open(path, encoding="utf-8") as fh:
        v = checks.instance_matrix(json.load(fh))
    np.testing.assert_array_equal(v, build_bilateral_shift(spec)[0].matrix)


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(36)]
    value, pct = run.tail(xs)
    assert pct == 72 and sum(x > value for x in xs) == 10
    with pytest.raises(run.BenchError):
        run.tail(xs[:10])


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "generic-growth", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
