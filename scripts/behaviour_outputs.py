"""Write the CLI outputs that a behaviour-preserving change must keep byte for byte.

Usage: python scripts/behaviour_outputs.py OUT
       python scripts/behaviour_outputs.py --compare OLD NEW

Runs the woldkit of this checkout (its src/ directory goes first on the
path) in one process and writes 137 files under OUT:

- for each analyzed instance, NAME.report.json (the `analyze --out` report)
  and NAME.out (stdout, stderr and the exit code);
- for each verify seed, verify-seedS.out (stdout and the exit code of
  `verify all --count 25`).

The analyzed instances are the generic-growth, bilateral-window and
injective-wide pools of perfbench at seeds 1 and 3 (instance seeds 100*s+i,
i = 0..4, at the benchmark sizes) and every `generate` kind at seeds 1-6
with default parameters.  They are generated under OUT/instances and
analyzed by that path relative to OUT, because reports embed the input path.

BLAS is pinned to one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS are set to 1 before numpy is imported), as perfbench pins
it: the bytes that `generate` writes depend on the BLAS thread count, so
two trees are comparable only when both were written with one thread.

Run it on two commits and compare with `diff -r OUT_A OUT_B`; empty output
means the two commits behave the same on these inputs.

A change that alters arithmetic on purpose is compared with --compare
instead.  It applies the rule of perfbench/checks.compare to every file
under OLD and NEW: JSON files as parsed documents, other files token by
token, each number token against its counterpart.  Keys, strings, bools,
nulls, integers (exit codes, dimensions, counts) and the text between
numbers must match exactly, and floats within 1e-9 * max(1, |a|, |b|).
It prints every difference and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: pin BLAS before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.checks import compare  # noqa: E402
from woldkit import cli  # noqa: E402

POOLS = {
    "generic-growth": ("generic", ["d=2", "m=10"]),
    "bilateral-window": ("bilateral", ["n=2", "M=8"]),
    "injective-wide": ("left-invertible", ["m=120"]),
}
POOL_SEEDS = (1, 3)
POOL_SIZE = 5
KINDS = ("generic", "left-invertible", "expansive", "concave", "unilateral", "bilateral")
KIND_SEEDS = range(1, 7)
VERIFY_SEEDS = (0, 1, 2, 3, 2800)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _instances() -> list[tuple[str, str, int, list[str]]]:
    """(name, kind, seed, params) of every analyzed instance."""
    items = []
    for pool, (kind, params) in POOLS.items():
        for s in POOL_SEEDS:
            for i in range(POOL_SIZE):
                seed = 100 * s + i
                items.append((f"{pool}-{seed}", kind, seed, params))
    for kind in KINDS:
        for seed in KIND_SEEDS:
            items.append((f"{kind}-{seed}", kind, seed, []))
    return items


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _tokens(text: str) -> list:
    """Split text at numbers: ints and floats for the number tokens, and
    the exact text between them as strings."""
    parts = NUMBER.split(text)
    for i in range(1, len(parts), 2):
        token = parts[i]
        parts[i] = float(token) if any(c in token for c in ".eE") else int(token)
    return parts


def compare_outputs(old: Path, new: Path) -> list[str]:
    """Differences between two output trees, by the rule of checks.compare."""
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    problems = [f"{f}: only in {old}" for f in sorted(old_files - new_files)]
    problems += [f"{f}: only in {new}" for f in sorted(new_files - old_files)]
    for f in sorted(old_files & new_files):
        a, b = (old / f).read_text(), (new / f).read_text()
        if f.suffix == ".json":
            want, got = json.loads(a), json.loads(b)
        else:
            want, got = _tokens(a), _tokens(b)
        problems += [f"{f}: {p}" for p in compare(got, want)]
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        problems = compare_outputs(Path(args[1]), Path(args[2]))
        for p in problems:
            print(p)
        print(f"{len(problems)} difference(s) beyond the rule of perfbench/checks.compare")
        return 1 if problems else 0
    if len(args) != 1:
        print("\n".join(__doc__.splitlines()[2:4]), file=sys.stderr)
        return 1
    out_dir = Path(args[0])
    (out_dir / "instances").mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    written = 0
    for name, kind, seed, params in _instances():
        path = f"instances/{name}.json"
        code, _, err = _run(["generate", kind, "--seed", str(seed), "--out", path, "--params", *params])
        if code:
            raise SystemExit(f"generate {name} failed: {err}")
        code, out, err = _run(["analyze", path, "--out", f"{name}.report.json"])
        Path(f"{name}.out").write_text(f"{out}--- stderr\n{err}--- exit {code}\n")
        written += 2
    for seed in VERIFY_SEEDS:
        code, out, err = _run(["verify", "all", "--count", "25", "--seed", str(seed)])
        Path(f"verify-seed{seed}.out").write_text(f"{out}--- stderr\n{err}--- exit {code}\n")
        written += 1
    print(f"wrote {written} outputs to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
