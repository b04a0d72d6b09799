"""woldkit benchmark: one seeded workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload generic-growth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` prints the end-to-end metrics, measured untraced; `--trace 1`
prints the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines before it give the sample counts, the
output check that ran, the memory cap and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import BLAS_THREADS, DEFAULT_SEED, WORKLOADS

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_RUNS = 5
"""Processes whose set-up is timed; setup_s is their median."""
DEADLINE_S = 170.0
"""Every process the benchmark starts ends within this many seconds."""

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_s.p50": "s",
    "call_s.tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("WOLDKIT_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(mode: str, args, workdir: str, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; return its start time and result."""
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--workdir", workdir,
    ] + (["--tiny"] if args.tiny else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return t_spawn, json.load(fh)


def tail(samples: list[float]) -> tuple[float, int]:
    """Value and rank of the highest whole percentile with at least ten
    samples beyond it (nearest-rank definition)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        raise BenchError(f"{n} samples leave no percentile with ten beyond it")
    pct = (100 * (n - 10)) // n
    return xs[-(-pct * n // 100) - 1], pct


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(worker: dict, args) -> dict:
    env = dict(worker["environment"])
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
        "machine": platform.machine(),
        "seed": args.seed,
        "commit": git_commit(),
    })
    return env


def check_outputs(args, result: dict, workdir: str, use_reference: bool = True
                  ) -> tuple[list[list[str]], str]:
    """Problems per distinct output, and a description of the check that ran.
    The committed reference applies to the default seed at full size."""
    import checks

    workload = WORKLOADS[args.workload]
    labels = result["labels"]
    reference = None
    if use_reference and args.seed == DEFAULT_SEED and not args.tiny:
        doc = checks.load_reference(args.workload)
        if doc["sizes"] != workload.params:
            raise BenchError(f"reference sizes {doc['sizes']} are not the workload's "
                             f"{workload.params}; run make_reference.py")
        reference = doc["outputs"]
    problems = []
    for out in result["outputs"]:
        label = labels[out["item"]]
        if workload.kind is None:
            found = checks.check_suite(out)
        else:
            found = checks.check_analyze(os.path.join(workdir, label), out)
        if reference is not None and out["error"] is None:
            if label in reference:
                found += checks.compare(checks.normalize(out), reference[label], label)
            else:
                found.append("no reference output for this item")
        problems.append(found)
    own = ("zero suite failures" if workload.kind is None
           else "exit code, gamma against a direct SVD of V, dim W = dim H - rank V")
    if reference is None:
        return problems, f"seed-independent checks ({own})"
    return problems, f"reference outputs of seed {DEFAULT_SEED} (exact; floats within " \
                     f"{checks.REL_TOL} relative) and seed-independent checks ({own})"


def measure(args) -> tuple[dict, int, int, bool]:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        mode = "trace" if args.trace else "run"
        t_spawn, result = spawn(mode, args, os.path.join(workdir, "main"), deadline)
        problems, how = check_outputs(args, result, os.path.join(workdir, "main"))
        calls = result["calls"]
        failed = sum(1 for c in calls if problems[c["output"]])
        for out, found in zip(result["outputs"], problems):
            for p in found[:5]:
                print(f"mismatch {result['labels'][out['item']]}: {p}")
        print(f"check: {how}")
        print(f"memory: {json.dumps(result['memory'], sort_keys=True)}")
        print(f"env: {json.dumps(environment(result, args), sort_keys=True)}")
        untraced = [c["s"] for c in calls if not c["traced"]]
        print(f"failed_ratio: {failed / len(calls):.6g} ({failed} of {len(calls)} calls)")
        correct = failed == 0
        if args.trace:
            import tracer

            traced = [c["s"] for c in calls if c["traced"]]
            metrics, unattributed = tracer.summarize(os.path.join(workdir, "main", "spans.npz"))
            metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
            print(f"trace: {len(traced)} traced and {len(untraced)} untraced calls; "
                  f"{unattributed:.4%} of traced wall time outside every layer span; "
                  f"bindings restored: {result['restored']}")
            correct = correct and result["restored"]
            units = tracer.layer_metrics()
        else:
            setups = [result["t_first_call"] - t_spawn]
            for i in range(1, SETUP_RUNS):
                t, extra = spawn("setup", args, os.path.join(workdir, f"setup{i}"), deadline)
                setups.append(extra["t_first_call"] - t)
            value, pct = tail(untraced)
            print(f"call_s.tail: p{pct} of {len(untraced)} calls; "
                  f"setup_s: median of {SETUP_RUNS} processes {[round(s, 4) for s in setups]}")
            metrics = {
                "setup_s": statistics.median(setups),
                "calls_per_s": len(untraced) / sum(untraced),
                "call_s.p50": statistics.median(untraced),
                "call_s.tail": value,
                "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
            }
            units = END_TO_END
        return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, len(calls), \
            failed, correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes: same code paths, milliseconds per call")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "woldkit", "__init__.py")):
        print(f"error: no woldkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, correct = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
