"""One workload process of the benchmark: set up, warm up, run the timed loop.

run.py starts this script with the checkout's `src/` on PYTHONPATH and the
BLAS thread count fixed.  Modes:

* `setup`: import, write the instances, make the warm-up call, record the
  time of the first timed call, and stop.
* `run`: as `setup`, then the untraced timed loop.
* `trace`: as `setup`, then a loop that calls each item once untraced and
  once with the tracer installed; the spans go to `spans.npz`.

The result, with the raw per-call times and every distinct output, goes to
`result.json` in the work directory; run.py checks the outputs and derives
the metrics from it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import MEMORY_FACTOR, MIN_CALLS, SUITES, WORKLOADS


def cap_memory(peak_rss_mb: float) -> dict:
    """Cap the address space at MEMORY_FACTOR x the workload's reference peak
    RSS above what the process holds now, so a memory regression fails calls
    with MemoryError instead of exhausting the machine."""
    with open("/proc/self/statm") as fh:
        base = int(fh.read().split()[0]) * resource.getpagesize()
    cap = base + int(MEMORY_FACTOR * peak_rss_mb * 1e6)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return {"factor": MEMORY_FACTOR, "reference_peak_rss_mb": peak_rss_mb,
            "base_address_space_mb": base / 1e6, "cap_mb": cap / 1e6}


def blas_runtime() -> dict:
    """BLAS build and the thread count OpenBLAS reports at run time."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"vendor": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out["threads"] = int(fn())
                    return out
    return out


@contextlib.contextmanager
def captured():
    """Silence the CLI summary; keep stderr for the failure message."""
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(err):
        yield err


class AnalyzeRunner:
    """`woldkit analyze` on instance files written by `woldkit generate`."""

    def __init__(self, workload, seed: int, workdir: str, tiny: bool):
        self.cli = importlib.import_module("woldkit.cli")
        params = [f"{k}={v}" for k, v in workload.sizes(tiny).items()]
        paths = []
        for s in workload.items(seed):
            path = os.path.join(workdir, f"{workload.kind}-{s}.json")
            with captured() as err:
                rc = self.cli.main(
                    ["generate", workload.kind, "--seed", str(s), "--out", path, "--params", *params]
                )
            if rc != 0:
                raise RuntimeError(f"generate {workload.kind} seed {s} failed: {err.getvalue()}")
            paths.append(path)
        self.pool, self.warmup = paths[:-1], paths[-1:]
        self.labels = [os.path.basename(p) for p in self.pool]
        self.report = os.path.join(workdir, "report.json")

    def prepare(self, item) -> None:
        if os.path.exists(self.report):
            os.remove(self.report)

    def call(self, item):
        with captured() as err:
            rc = self.cli.main(["analyze", item, "--out", self.report])
        return rc, err.getvalue()

    def output(self, result) -> dict:
        rc, stderr = result
        text = None
        if os.path.exists(self.report):
            with open(self.report, encoding="utf-8") as fh:
                text = fh.read()
        return {"rc": rc, "report": text, "stderr": stderr[-2000:]}


class SuiteRunner:
    """`run_suite(name, count, seed)` for every suite on each pool seed."""

    def __init__(self, workload, seed: int, workdir: str, tiny: bool):
        self.verify = importlib.import_module("woldkit.verify")
        self.count = workload.sizes(tiny)["count"]
        seeds = workload.items(seed)
        self.pool = [(name, s) for s in seeds[:-1] for name in SUITES]
        self.warmup = [(name, seeds[-1]) for name in SUITES]
        self.labels = [f"{name}@{s}" for name, s in self.pool]

    def prepare(self, item) -> None:
        pass

    def call(self, item):
        name, s = item
        with captured():
            return self.verify.run_suite(name, self.count, s)

    def output(self, result) -> dict:
        return {
            "total": result.total,
            "passed": result.passed,
            "skipped": result.skipped,
            "failed": result.failed,
            "messages": [f["message"] for f in result.failures[:3]],
        }


def timed_loop(runner, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds of the pool until `seconds` have passed
    and at least MIN_CALLS calls were made."""
    outputs: list[dict] = []
    index: dict[str, int] = {}
    calls: list[dict] = []
    hard_stop = 3 * seconds + 30
    t0 = time.monotonic()
    while True:
        for i, item in enumerate(runner.pool):
            for traced in (False, True) if tracer is not None else (False,):
                runner.prepare(item)
                root = None
                if traced:
                    tracer.install()
                    root = tracer.begin_call()
                start = time.perf_counter()
                try:
                    result = runner.call(item)
                except Exception:
                    result = None
                    error = traceback.format_exc(limit=3)
                else:
                    error = None
                finally:
                    duration = time.perf_counter() - start
                    if traced:
                        tracer.end_call(root)
                        tracer.uninstall()
                out = {"item": i, "error": error}
                if error is None:
                    out.update(runner.output(result))
                key = json.dumps(out, sort_keys=True)
                if key not in index:
                    index[key] = len(outputs)
                    outputs.append(out)
                calls.append({"item": i, "s": duration, "traced": traced, "output": index[key]})
        elapsed = time.monotonic() - t0
        if (elapsed >= seconds and len(calls) >= MIN_CALLS) or elapsed >= hard_stop:
            break
    return {"calls": calls, "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import numpy  # noqa: F401  (imported before the cap, like woldkit itself)
    import woldkit.cli  # noqa: F401
    from woldkit.errors import WoldkitError

    memory = cap_memory(workload.peak_rss_mb)
    runner_type = SuiteRunner if workload.kind is None else AnalyzeRunner
    runner = runner_type(workload, args.seed, args.workdir, args.tiny)
    for item in runner.warmup:
        runner.prepare(item)
        try:
            runner.call(item)
        except Exception:
            pass  # the timed calls on the same code report the failure
    result = {
        "t_first_call": time.monotonic(),
        "labels": runner.labels,
        "memory": memory,
        "environment": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "blas": blas_runtime(),
        },
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer, bindings

            before = bindings()
            tracer = Tracer(WoldkitError)
        result.update(timed_loop(runner, args.seconds, tracer))
        if tracer is not None:
            after = bindings()
            result["restored"] = all(after.get(key) == val for key, val in before.items())
            tracer.save(os.path.join(args.workdir, "spans.npz"))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
