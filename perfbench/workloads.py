"""Workload definitions shared by run.py and its worker processes.

Every workload is a closed loop with one caller: the next call starts only
after the previous one has returned.  A *call* is one `woldkit analyze` on
one generated instance file, or one `run_suite(name, count, seed)`.

A *round* is one call on every item of the workload's pool: each of the
`pool` instance files, or each of the verify suites on one seed.  The timed
loop only stops between rounds, so every run weighs the items equally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1
"""Seed whose outputs are committed under reference/ and compared exactly."""

BLAS_THREADS = 1
"""BLAS threads in the worker: one, at most nproc, so timings stay steady on a
shared two-core machine and run.py keeps a core of its own."""

MIN_CALLS = 20
"""Timed calls per run at least, so `call_s.tail` has ten samples beyond it."""

MEMORY_FACTOR = 4
"""The worker caps its address space at this multiple of the workload's peak
RSS measured at the seed commit, on top of what it holds after import."""

SUITES = (
    "penrose",
    "kernel-lattice",
    "generalized-inverse",
    "telescoping",
    "wold",
    "concave",
    "growth-forms",
    "range-structure",
    "intertwiner-purity",
    "shift-growth",
    "bilateral-structure",
)
"""The verify suites of the workload, listed here so that a suite added to the
package later does not change what the workload measures."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str | None
    """`woldkit generate` kind; None for the verify-suites workload."""
    params: dict[str, int] = field(default_factory=dict)
    tiny_params: dict[str, int] = field(default_factory=dict)
    """Sizes for the self-tests: same code paths, milliseconds per call."""
    pool: int = 4
    """Instances (analyze) or seeds (verify) that the timed loop cycles over."""
    peak_rss_mb: float = 0.0
    """Peak RSS of the full-size workload at the seed commit (memory guard)."""

    def items(self, seed: int) -> list[int]:
        """Instance or suite seeds of the pool; the warm-up uses the next one."""
        return [seed * 100 + i for i in range(self.pool + 1)]

    def sizes(self, tiny: bool) -> dict[str, int]:
        return self.tiny_params if tiny else self.params


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="generic-growth",
            kind="generic",
            params={"d": 2, "m": 10},
            tiny_params={"d": 2, "m": 3},
            peak_rss_mb=112.0,
        ),
        Workload(
            name="bilateral-window",
            kind="bilateral",
            params={"n": 2, "M": 8},
            tiny_params={"n": 2, "M": 3},
            peak_rss_mb=207.0,
        ),
        Workload(
            name="injective-wide",
            kind="left-invertible",
            params={"m": 120},
            tiny_params={"m": 12},
            peak_rss_mb=53.0,
        ),
        Workload(
            name="verify-suites",
            kind=None,
            params={"count": 25},
            tiny_params={"count": 2},
            pool=3,
            peak_rss_mb=44.0,
        ),
    )
}
