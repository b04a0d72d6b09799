"""Batch front-end: analyze instance files, generate seeded instances,
and run the verification suites.

Exit codes for `analyze`: 0 = analysis completed, 2 = a precondition
failed and the dependent report sections were skipped, 1 = I/O or parse
error.  `verify` exits 0 only when every suite passes.  JSON output is
the machine contract; stdout text is a human summary.  Reports embed the
tolerance policy, horizons, and budget, so every verdict is reproducible.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import __version__
from .errors import InvalidParams, ParseError, ShapeError, WoldkitError
from .generate import generate_named
from .growth import gamma, gamma_at_least_one
from .linalg import DEFAULT_POLICY, RankWarning, TolerancePolicy
from .model import (
    Representation,
    canonical_json,
    check_covariance,
    parse_json_file,
    representation_from_dict,
    save_representation,
    size_budget,
)
from .shifts import save_shift_spec, shift_pipeline, shift_spec_from_dict
from .structure import is_regular  # noqa: F401 -- kept bound here for perfbench's tracer test
from .verify import SUITES, run_suite
from .wold import _growth_report, _regularity_report, _wold_result, horizon_plan

__all__ = ["main"]


def _jsonable(obj):
    """Strip numpy scalar types and non-finite floats for JSON output."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _policy_from_args(args) -> TolerancePolicy:
    return TolerancePolicy(
        tau_rank=args.tol_rank,
        tau_orth=args.tol_orth,
        tau_psd=args.tol_psd,
        tau_sub=args.tol_sub,
    )


def _analyze_representation(rep: Representation, pol: TolerancePolicy, horizon: int | None):
    plan = horizon_plan(rep, pol, horizon, "analyze")
    report: dict = {"horizon": plan.regularity}
    exit_code = 0

    if rep.sigma:
        holds, residuals = check_covariance(rep)
        report["covariance"] = {"holds": holds, "residuals": residuals}
    else:
        report["covariance"] = {"holds": True, "residuals": {}, "note": "no generators listed"}

    reg = _regularity_report(rep, pol, plan.regularity)
    g = gamma(rep, pol)
    report["regularity"] = {
        "strict": reg.strict,
        "at_horizon": reg.holds_at_horizon,
        "per_m": {str(m): v for m, v in reg.per_m.items()},
        "stabilization": reg.stabilization,
        "kernel_dim": reg.kernel_dim,
        "anomaly": reg.anomaly,
    }
    report["gamma"] = {"value": None if math.isinf(g) else g, "at_least_one": gamma_at_least_one(rep, pol)}

    if not gamma_at_least_one(rep, pol):
        reason = "reduced minimum modulus below one"
        report["growth"] = {"skipped": reason}
        report["wold"] = {"skipped": reason}
        return report, 2

    growth = _growth_report(rep, pol, plan.growth, None)
    report["growth"] = growth.as_dict()
    if not reg.holds_at_horizon:
        report["wold"] = {"skipped": f"regularity fails up to horizon {plan.regularity}"}
        exit_code = 2
    elif not growth.all_feasible:
        report["wold"] = {"skipped": "growth condition infeasible at some level"}
        exit_code = 2
    else:
        report["wold"] = _wold_result(rep, pol, plan, growth.all_feasible).as_dict()
    return report, exit_code


def _print_analysis_summary(report: dict) -> None:
    inp = report["input"]
    print(f"woldkit {report['tool']['version']} analysis of {inp['path']} ({inp['kind']})")
    if inp["kind"] == "representation":
        print(f"  dims: E={inp['dim_E']} H={inp['dim_H']}  horizon={report['horizon']}")
        g = report["gamma"]["value"]
        print(f"  gamma: {'inf' if g is None else f'{g:.6g}'}  "
              f"(at least one: {report['gamma']['at_least_one']})")
        r = report["regularity"]
        print(f"  regular: strict={r['strict']} at_horizon={r['at_horizon']}")
        growth = report["growth"]
        if "skipped" in growth:
            print(f"  growth: skipped ({growth['skipped']})")
        else:
            parts = []
            for entry in growth["per_m"]:
                minimal = entry["minimal_d"]
                shown = "inf" if minimal is None else f"{minimal:.4g}"
                parts.append(f"d_{entry['m']}={shown}")
            print(f"  growth minimal weights: {', '.join(parts)}")
        wold = report["wold"]
        if "skipped" in wold:
            print(f"  wold: skipped ({wold['skipped']})")
        else:
            dims = wold["dims"]
            print(f"  wold dims: W={dims['W']} bracketW={dims['bracketW']} Rinf={dims['Rinf']}")
            flags = ", ".join(k for k, v in sorted(wold["flags"].items()) if v)
            print(f"  wold flags true: {flags}")
    else:
        pipe = report["pipeline"]
        print(f"  gamma: {pipe['gamma']}")
        print(f"  regularity: strict={pipe['regularity']['strict']} "
              f"boundary={pipe['regularity']['boundary_aware']} (label: boundary)")
        dims = pipe["wold"]["dims"]
        print(f"  wold dims: W={dims['W']} bracketW={dims['bracketW']} Rinf={dims['Rinf']}")
        print(f"  assertions: " + ", ".join(f"{k}={v}" for k, v in sorted(pipe["assertions"].items())))
    if report["warnings"]:
        for w in report["warnings"]:
            print(f"  warning: {w}")


def cmd_analyze(args) -> int:
    pol = _policy_from_args(args)
    try:
        data = parse_json_file(args.input)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report: dict = {
        "tool": {"name": "woldkit", "version": __version__},
        "tolerances": pol.as_dict(),
        "budget": size_budget(),
    }
    caught: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always", RankWarning)
            if "kind" in data:
                spec = shift_spec_from_dict(data, source=str(args.input))
                pipe = shift_pipeline(spec, pol)
                report["input"] = {"path": str(args.input), "kind": pipe.kind}
                report["pipeline"] = pipe.as_dict()
                exit_code = 0
            else:
                rep = representation_from_dict(data, source=str(args.input))
                report["input"] = {
                    "path": str(args.input),
                    "kind": "representation",
                    "dim_E": rep.dim_e,
                    "dim_H": rep.dim_h,
                }
                body, exit_code = _analyze_representation(rep, pol, args.horizon)
                report.update(body)
            caught = sorted({str(r.message) for r in records if issubclass(r.category, RankWarning)})
    except (ParseError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report["warnings"] = caught
    plain = _jsonable(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(plain))
    _print_analysis_summary(plain)
    return exit_code


def cmd_generate(args) -> int:
    params: dict[str, str] = {}
    for item in args.params or []:
        if "=" not in item:
            print(f"error: parameter {item!r} is not key=value", file=sys.stderr)
            return 1
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    try:
        obj = generate_named(args.kind, args.seed, params)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(obj, Representation):
        save_representation(obj, args.out)
    else:
        save_shift_spec(obj, args.out)
    print(f"wrote {args.kind} instance (seed {args.seed}) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    pol = _policy_from_args(args)
    size_budget()  # a bad WOLDKIT_BUDGET fails before any suite prints
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITES:
        print(
            f"error: unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}",
            file=sys.stderr,
        )
        return 1
    all_ok = True
    for name in names:
        result = run_suite(name, args.count, args.seed, pol)
        status = "PASS" if result.ok else "FAIL"
        line = (
            f"{status} {result.name}: {result.passed}/{result.total} passed"
            + (f", {result.skipped} skipped" if result.skipped else "")
        )
        print(line)
        for failure in result.failures:
            print(f"  failure[{failure['index']}]: {failure['message']}")
            if failure["instance"]:
                print(f"  instance: {failure['instance']}")
        all_ok = all_ok and result.ok
    return 0 if all_ok else 1


def _int_at_least(low: int, expected: str):
    """An argparse type: an integer of at least low, else a usage error that
    says it expected the integer named by expected."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")  # --horizon, --count
_nonnegative_int = _int_at_least(0, "a non-negative integer")  # --seed, as numpy seeds it


def _tolerance(text: str) -> float:
    """An argparse type for the --tol-* options: a number that
    TolerancePolicy accepts (finite and positive), else a usage error."""
    try:
        return TolerancePolicy(tau_rank=float(text)).tau_rank
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="woldkit",
        description="Analyze covariant-representation matrices and weighted shifts.",
    )
    parser.add_argument("--version", action="version", version=f"woldkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tolerances(p):
        p.add_argument("--tol-rank", type=_tolerance, default=DEFAULT_POLICY.tau_rank)
        p.add_argument("--tol-orth", type=_tolerance, default=DEFAULT_POLICY.tau_orth)
        p.add_argument("--tol-psd", type=_tolerance, default=DEFAULT_POLICY.tau_psd)
        p.add_argument("--tol-sub", type=_tolerance, default=DEFAULT_POLICY.tau_sub)

    p_an = sub.add_parser("analyze", help="analyze a representation or shift-spec file")
    p_an.add_argument("input")
    p_an.add_argument("--out", help="write the JSON report here")
    p_an.add_argument("--horizon", type=_positive_int, default=None)
    add_tolerances(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a seeded instance file")
    p_gen.add_argument("kind")
    p_gen.add_argument("--seed", type=_nonnegative_int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--params", nargs="*", metavar="key=value")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="run seeded verification suites")
    p_ver.add_argument("suite", help="'all' or one suite name")
    p_ver.add_argument("--count", type=_positive_int, default=25)
    p_ver.add_argument("--seed", type=_nonnegative_int, default=1)
    add_tolerances(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WoldkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
