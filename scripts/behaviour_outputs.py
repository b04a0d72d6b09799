"""Write the CLI outputs that a behaviour-preserving change must keep byte for byte.

Usage: python scripts/behaviour_outputs.py OUT
       python scripts/behaviour_outputs.py --compare OLD NEW

Runs the woldkit of this checkout (its src/ directory goes first on the
path) in one process and writes 141 output files under OUT:

- for each analyzed instance, NAME.report.json (the `analyze --out` report)
  and NAME.out (stdout, stderr and the exit code);
- for each verify seed, verify-seedS.out (stdout and the exit code of
  `verify all --count 25`).

The analyzed instances are the generic-growth, bilateral-window and
injective-wide pools of perfbench at seeds 1 and 3 (instance seeds 100*s+i,
i = 0..4, at the benchmark sizes), every `generate` kind at seeds 1-6
with default parameters, and two files that list generator images, one
covariant pair and one that is not (see _covariance_instances), so that
the report's covariance section is compared too.  They are written under
OUT/instances and analyzed by that path relative to OUT, because reports
embed the input path.

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
It prints every difference and exits 1 if there is one.  It then lists the
floats that moved at all, one line per field: the count and the largest
relative change |a - b| / max(|a|, |b|).  A JSON field is named by its
path with list indices collapsed to [] and numeric keys (such as "2" or
"1,0") to *, so growth.per_m[].minimal_d covers every level of every
report; a number in another file is named by its suffix and the text of
its line before it, with earlier numbers shown as #.
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

import numpy as np  # noqa: E402

from perfbench.checks import compare  # noqa: E402
from woldkit import cli  # noqa: E402
from woldkit.generate import rand_complex  # noqa: E402
from woldkit.model import Representation, save_representation  # noqa: E402

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
COVARIANCE_SEED = 1


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


def _covariance_instances() -> dict[str, Representation]:
    """A covariant pair and the same pair with sigma doubled, built from a
    seeded RNG, since no `generate` kind lists generator images: V =
    [V_1 | s V_1] on C^2 (x) C^4 for a Gaussian V_1 and the Householder
    reflection s = I - 2 x x*, with sigma(a) = s and phi(a) the swap of
    E, so that V (phi(a) (x) I) = [s V_1 | V_1] = s V."""
    rng = np.random.default_rng(COVARIANCE_SEED)
    v1 = rand_complex(rng, 4, 4)
    x = rand_complex(rng, 4, 1)
    s = np.eye(4) - 2.0 * (x @ x.conj().T) / np.vdot(x, x).real
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = np.hstack([v1, s @ v1])
    return {
        f"covariant-{COVARIANCE_SEED}": Representation(2, 4, v, sigma={"a": s}, phi={"a": swap}),
        f"not-covariant-{COVARIANCE_SEED}": Representation(2, 4, v, sigma={"a": 2.0 * s}, phi={"a": swap}),
    }


def _analyze(name: str, path: str) -> None:
    """Write NAME.report.json and NAME.out of `analyze PATH`."""
    code, out, err = _run(["analyze", path, "--out", f"{name}.report.json"])
    Path(f"{name}.out").write_text(f"{out}--- stderr\n{err}--- exit {code}\n")


NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _tokens(text: str) -> list:
    """Split text at numbers: ints and floats for the number tokens, and
    the exact text between them as strings."""
    parts = NUMBER.split(text)
    for i in range(1, len(parts), 2):
        token = parts[i]
        parts[i] = float(token) if any(c in token for c in ".eE") else int(token)
    return parts


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _parsed_pairs(old: Path, new: Path):
    """(relative path, new content, old content) of every file in both
    trees: JSON files parsed, other files split by _tokens."""
    for f in sorted(_files(old) & _files(new)):
        a, b = (old / f).read_text(), (new / f).read_text()
        if f.suffix == ".json":
            yield f, json.loads(b), json.loads(a)
        else:
            yield f, _tokens(b), _tokens(a)


def compare_outputs(old: Path, new: Path) -> list[str]:
    """Differences between two output trees, by the rule of checks.compare."""
    old_files, new_files = _files(old), _files(new)
    problems = [f"{f}: only in {old}" for f in sorted(old_files - new_files)]
    problems += [f"{f}: only in {new}" for f in sorted(new_files - old_files)]
    for f, got, want in _parsed_pairs(old, new):
        problems += [f"{f}: {p}" for p in compare(got, want)]
    return problems


NUMERIC_KEY = re.compile(r"-?\d+(?:,-?\d+)*")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _moved_in_json(got, want, field: str, moved: dict) -> None:
    """Record in moved every float of want that differs in got, by field."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(got) & set(want)):
            name = "*" if NUMERIC_KEY.fullmatch(k) else k
            _moved_in_json(got[k], want[k], f"{field}.{name}" if field else name, moved)
    elif isinstance(want, list) and isinstance(got, list):
        for g, w in zip(got, want):
            _moved_in_json(g, w, f"{field}[]", moved)
    elif _is_number(got) and _is_number(want) and (isinstance(got, float) or isinstance(want, float)):
        if got != want:
            count, largest = moved.get(field, (0, 0.0))
            change = abs(got - want) / max(abs(got), abs(want))
            moved[field] = (count + 1, max(largest, change))


def _moved_in_tokens(got: list, want: list, suffix: str, moved: dict) -> None:
    """_moved_in_json for the token lists of a text file; a number is named
    by its line up to it, with earlier numbers as #."""
    line = ""
    for g, w in zip(got, want):
        if isinstance(w, str):
            line = line + w if "\n" not in w else w.rsplit("\n", 1)[1]
            continue
        _moved_in_json(g, w, f"{suffix} {line.strip()!r}", moved)
        line += "#"


def moved_floats(old: Path, new: Path) -> dict[str, tuple[int, float]]:
    """Per field, the number of floats that differ at all between the two
    trees and their largest relative change."""
    moved: dict[str, tuple[int, float]] = {}
    for f, got, want in _parsed_pairs(old, new):
        if f.suffix == ".json":
            _moved_in_json(got, want, "", moved)
        else:
            _moved_in_tokens(got, want, f.suffix, moved)
    return moved


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        problems = compare_outputs(Path(args[1]), Path(args[2]))
        for p in problems:
            print(p)
        print(f"{len(problems)} difference(s) beyond the rule of perfbench/checks.compare")
        moved = moved_floats(Path(args[1]), Path(args[2]))
        print(f"floats that moved in {len(moved)} field(s) (count, largest relative change):")
        for field, (count, largest) in sorted(moved.items()):
            print(f"  {field}: {count}, {largest:.2g}")
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
        _analyze(name, path)
        written += 2
    for name, rep in _covariance_instances().items():
        path = f"instances/{name}.json"
        save_representation(rep, path)
        _analyze(name, path)
        written += 2
    for seed in VERIFY_SEEDS:
        code, out, err = _run(["verify", "all", "--count", "25", "--seed", str(seed)])
        Path(f"verify-seed{seed}.out").write_text(f"{out}--- stderr\n{err}--- exit {code}\n")
        written += 1
    print(f"wrote {written} outputs to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
