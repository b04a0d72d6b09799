"""Write reference/<workload>.json: the outputs of the default seed, which
run.py then requires exactly (floats within checks.REL_TOL).

    python3 perfbench/make_reference.py [workload ...]

Run it from the root of a checkout of the commit whose outputs are the
reference.  Each output must first pass the seed-independent checks, and
repeated calls on one item must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import checks
import run
from workloads import DEFAULT_SEED, WORKLOADS


def reference_outputs(name: str) -> dict:
    args = argparse.Namespace(workload=name, seed=DEFAULT_SEED, seconds=1, trace=0, tiny=False)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_ROOT)
    try:
        main = os.path.join(workdir, "main")
        _, result = run.spawn("run", args, main, time.monotonic() + run.DEADLINE_S)
        problems, _ = run.check_outputs(args, result, main, use_reference=False)
        outputs: dict[str, dict] = {}
        for out, found in zip(result["outputs"], problems):
            label = result["labels"][out["item"]]
            if found:
                raise SystemExit(f"{name} {label}: {found}")
            normalized = checks.normalize(out)
            if outputs.setdefault(label, normalized) != normalized:
                raise SystemExit(f"{name} {label}: repeated calls disagree")
        return outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(WORKLOADS)
    for name in names:
        doc = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "sizes": WORKLOADS[name].params,
            "outputs": reference_outputs(name),
        }
        with open(checks.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {checks.reference_path(name)} ({len(doc['outputs'])} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
