"""Output checks: exact comparison with committed reference outputs for the
default seed, and checks the benchmark computes itself for any seed.

Each check returns a list of problems; an empty list means the output is
correct.  Every call whose output has a problem counts as failed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REL_TOL = 1e-9
"""Floats agree when |a - b| <= REL_TOL * max(1, |a|, |b|): relative for the
weights and moduli, and an absolute floor for round-off-level residuals."""

TAU_RANK = 1e-10
"""woldkit's default relative rank cutoff; the benchmark passes no --tol-*."""

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def compare(got, want, where: str = "$") -> list[str]:
    """Structural comparison: dict keys, list lengths, bools, ints, strings
    and nulls must match exactly, floats within REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        if set(got) != set(want):
            return [f"{where}: keys {sorted(set(got) ^ set(want))} differ"]
        return [p for k in sorted(want) for p in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if not isinstance(got, numeric) or isinstance(got, bool):
            return [f"{where}: expected a number, got {got!r}"]
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{where}: {got} != {want}"]
        if abs(got - want) <= REL_TOL * max(1.0, abs(got), abs(want)):
            return []
        return [f"{where}: {got!r} != {want!r} beyond {REL_TOL} relative"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def normalize(out: dict) -> dict:
    """The part of a call's output that the reference fixes."""
    if "report" in out:
        report = json.loads(out["report"]) if out["report"] is not None else None
        if report is not None:
            report["input"]["path"] = os.path.basename(report["input"]["path"])
        return {"rc": out["rc"], "report": report}
    return {k: out[k] for k in ("total", "passed", "skipped", "failed")}


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def _decode(pairs, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64).reshape(rows * cols, 2)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def instance_matrix(inst: dict) -> np.ndarray:
    """The representation matrix of an instance file, built without woldkit.

    A bilateral spec gives the windowed shift e_m -> w_{i,m} e_{i+n*m} on
    |m| <= M; columns are indexed (i-1)*(2M+1) + (m+M), targets outside the
    window map to zero.
    """
    if inst.get("kind") == "bilateral":
        n, big_m = inst["n"], inst["M"]
        dim_h = 2 * big_m + 1
        w = np.vstack([_decode(row, 1, dim_h) for row in inst["w"]])
        v = np.zeros((dim_h, n * dim_h), dtype=np.complex128)
        for i in range(1, n + 1):
            for m in range(-big_m, big_m + 1):
                target = i + n * m
                if abs(target) <= big_m:
                    v[target + big_m, (i - 1) * dim_h + m + big_m] = w[i - 1, m + big_m]
        return v
    return _decode(inst["V"], inst["dim_H"], inst["dim_E"] * inst["dim_H"])


def check_analyze(instance_path: str, out: dict) -> list[str]:
    """Exit code, gamma and dim W = dim H - rank V, from the instance alone."""
    if out["error"] is not None:
        return [f"raised: {out['error'].strip().splitlines()[-1]}"]
    if out["rc"] not in (0, 2) or out["report"] is None:
        return [f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"]
    report = json.loads(out["report"])
    with open(instance_path, encoding="utf-8") as fh:
        inst = json.load(fh)
    v = instance_matrix(inst)
    s = np.linalg.svd(v, compute_uv=False)
    rank = int(np.count_nonzero(s > TAU_RANK * s[0] * max(v.shape))) if s.size else 0
    gamma = float(s[rank - 1]) if rank else math.inf

    problems = []
    if "kind" in inst:
        body, skipped = report["pipeline"], False
        reported_gamma = body["gamma"]
    else:
        body = report
        skipped = any("skipped" in report[k] for k in ("growth", "wold"))
        reported_gamma = report["gamma"]["value"]
        if gamma < 1.0 - 1e-10 and not skipped:
            problems.append(f"gamma {gamma:.6g} < 1 but growth and wold were not skipped")
    if out["rc"] != (2 if skipped else 0):
        problems.append(f"exit code {out['rc']} with skipped sections: {skipped}")
    if reported_gamma is None:
        if math.isfinite(gamma):
            problems.append(f"gamma reported as infinite, direct SVD gives {gamma!r}")
    else:
        problems += compare(reported_gamma, gamma, "gamma")
    wold = body["wold"]
    if "skipped" not in wold:
        want_w = v.shape[0] - rank
        if wold["dims"]["W"] != want_w:
            problems.append(f"dim W {wold['dims']['W']} != dim H - rank V = {want_w}")
    return problems


def check_suite(out: dict) -> list[str]:
    if out["error"] is not None:
        return [f"raised: {out['error'].strip().splitlines()[-1]}"]
    if out["failed"] or out["total"] < 1:
        return [f"{out['failed']} of {out['total']} suite instances failed: {out['messages']}"]
    return []
