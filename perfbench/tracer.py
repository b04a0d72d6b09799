"""Span tracer that measures woldkit's layers from outside the package.

`Tracer.install()` rebinds every public function of every woldkit module
(the names in each module's `__all__`, plus `model.representation_from_dict`)
in every woldkit module that holds a reference to it, since `from .linalg
import pinv` copies the binding.  It also rebinds the numpy kernels the
modules call through `np.linalg.*` and `np.kron`.  `uninstall()` puts every
original back.

A span records name, start, end, parent span and call id.  Spans are kept
in typed arrays and written to an `.npz` file by `save()`.  Work that only
the tracer does (fingerprinting decomposition inputs) runs off the span
clock, so it shows up neither in self times nor in the traced wall time of
a call; the remaining cost of the wrappers is `trace.overhead_ratio`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli", "generate", "linalg", "model", "structure", "growth", "wold", "shifts", "verify",
)
EXTRA_NAMES = {"model": ("representation_from_dict",)}
ROOT = "bench.call"
"""Root span of one timed call; its self time is the benchmark's own."""

OK, RAISED, OTHER_ERROR = 0, 1, 2


def _fingerprint(a) -> int:
    arr = np.ascontiguousarray(a)
    h = hashlib.blake2b(arr.view(np.uint8).reshape(-1) if arr.size else b"", digest_size=8)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    return int.from_bytes(h.digest(), "little", signed=True)


def _svd_flops(a, full_matrices=True, compute_uv=True) -> float:
    """Operation count of a complex SVD, from the Golub-Van Loan real counts x4."""
    m, n = (int(x) for x in np.shape(a)[-2:])
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        real = 4 * m * n**2 - 4 * n**3 / 3
    elif full_matrices:
        real = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    else:
        real = 14 * m * n**2 + 8 * n**3
    return 4.0 * real


def _probe_svd(args, kwargs, out):
    a = args[0]
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    return max(np.shape(a)), _svd_flops(a, full, uv), _fingerprint(a)


def _probe_square(args, kwargs, out):
    a = args[0]
    return max(np.shape(a)), 0.0, _fingerprint(a)


def _probe_kron(args, kwargs, out):
    return max(np.shape(out)), float(np.asarray(out).nbytes), 0


def _probe_level(args, kwargs, out):
    return int(np.shape(args[0])[0]), 0.0, 0


def _is_norm2(args, kwargs) -> bool:
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
    return isinstance(ord_, int) and ord_ == 2 and axis is None and np.ndim(args[0]) == 2


PROBES = {"growth.minimal_scale_factor": _probe_level}


class Tracer:
    def __init__(self, error_type: type[BaseException]):
        self.error_type = error_type
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("i")
        self.status = array("b")
        self.outer = array("b")
        self.dim = array("q")
        self.work = array("d")
        self.fp = array("q")
        self._stack = [-1]
        self._active: list[int] = []
        self._call_id = -1
        self._excluded = 0.0
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] | None = None

    # -- clock and span records -------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.call.append(self._call_id)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self.status.append(OK)
        self.dim.append(-1)
        self.work.append(0.0)
        self.fp.append(0)
        self._stack.append(idx)
        self.start.append(self.now())
        return idx

    def _close(self, idx: int, nid: int, status: int) -> None:
        self.end[idx] = self.now()
        self.status[idx] = status
        self._active[nid] -= 1
        self._stack.pop()

    def _probe(self, idx: int, probe, args, kwargs, out) -> None:
        t0 = time.perf_counter()
        self.dim[idx], self.work[idx], self.fp[idx] = probe(args, kwargs, out)
        self._excluded += time.perf_counter() - t0

    def begin_call(self) -> int:
        self._call_id += 1
        return self._open(self._intern(ROOT))

    def end_call(self, idx: int) -> None:
        self._close(idx, self._ids[ROOT], OK)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, probe=None):
        nid = self._intern(name)
        error_type = self.error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except error_type:
                self._close(idx, nid, RAISED)
                raise
            except BaseException:
                self._close(idx, nid, OTHER_ERROR)
                raise
            self._close(idx, nid, OK)
            if probe is not None:
                self._probe(idx, probe, args, kwargs, out)
            return out

        return traced

    def _wrap_norm(self, fn):
        norm2 = self._wrap("numpy.norm2", fn, _probe_square)
        other = self._wrap("numpy.norm", fn)

        @functools.wraps(fn)
        def norm(*args, **kwargs):
            return (norm2 if _is_norm2(args, kwargs) else other)(*args, **kwargs)

        return norm

    def _build(self) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every binding to replace."""
        by_id: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"woldkit.{layer}")
            for attr in (*mod.__all__, *EXTRA_NAMES.get(layer, ())):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    by_id[id(obj)] = self._wrap(name, obj, PROBES.get(name))
        plan = []
        for modname, mod in sorted(sys.modules.items()):
            if modname == "woldkit" or modname.startswith("woldkit."):
                for attr, val in vars(mod).items():
                    if id(val) in by_id and inspect.isfunction(val):
                        plan.append((mod, attr, by_id[id(val)]))
        linalg = np.linalg
        plan += [
            (linalg, "svd", self._wrap("numpy.svd", linalg.svd, _probe_svd)),
            (linalg, "eigh", self._wrap("numpy.eigh", linalg.eigh, _probe_square)),
            (linalg, "eigvalsh", self._wrap("numpy.eigvalsh", linalg.eigvalsh, _probe_square)),
            (linalg, "inv", self._wrap("numpy.inv", linalg.inv)),
            (linalg, "norm", self._wrap_norm(linalg.norm)),
            (np, "kron", self._wrap("numpy.kron", np.kron, _probe_kron)),
        ]
        return plan

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        if self._wrappers is None:
            self._wrappers = self._build()
        for mod, attr, wrapper in self._wrappers:
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def save(self, path) -> None:
        """Write every span to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            call=np.frombuffer(self.call, dtype=np.int32),
            status=np.frombuffer(self.status, dtype=np.int8),
            outer=np.frombuffer(self.outer, dtype=np.int8),
            dim=np.frombuffer(self.dim, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.float64),
            fp=np.frombuffer(self.fp, dtype=np.int64),
        )


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every callable bound in a woldkit module, and of the
    traced numpy kernels; equal before and after a traced run."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "woldkit" or modname.startswith("woldkit."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(modname, attr)] = id(val)
    for attr in ("svd", "eigh", "eigvalsh", "inv", "norm"):
        out[("numpy.linalg", attr)] = id(getattr(np.linalg, attr))
    out[("numpy", "kron")] = id(np.kron)
    return out


DECOMPOSITIONS = ("numpy.svd", "numpy.eigh", "numpy.norm2")
"""Kernels whose inputs are fingerprinted for numpy.decomp.*."""

FUNCTION_TOTALS = (
    "growth.check_growth",
    "growth.minimal_scale_factor",
    "model.iterate_lower",
    "model.representation_from_dict",
    "structure.is_regular",
    "structure.is_hyper_dagger",
    "wold.wold_diagnostics",
    "shifts.shift_pipeline",
)
FUNCTION_CALLS = (
    "model.iterate_map",
    "structure.range_chain",
    "linalg.pinv",
    "linalg.reduced_min_modulus",
    "linalg.as_matrix",
)


def layer_metrics() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in output order."""
    units = {}
    for layer in (*LAYERS, "numpy"):
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s", f"{layer}.raised": "count"})
    units.update({
        "numpy.svd.calls": "count",
        "numpy.svd.self_s": "s",
        "numpy.svd.flops": "flop",
        "numpy.norm2.calls": "count",
        "numpy.norm2.self_s": "s",
        "numpy.eigh.calls": "count",
        "numpy.eigh.self_s": "s",
        "numpy.eigvalsh.calls": "count",
        "numpy.eigvalsh.self_s": "s",
        "numpy.kron.calls": "count",
        "numpy.kron.self_s": "s",
        "numpy.kron.bytes_max": "B",
        "numpy.decomp.dim_max": "count",
        "numpy.decomp.unique_ratio": "1",
    })
    units.update({f"{name}.total_s": "s" for name in FUNCTION_TOTALS})
    units["growth.level_dim_max"] = "count"
    units.update({f"{name}.calls": "count" for name in FUNCTION_CALLS})
    units["trace.overhead_ratio"] = "1"
    return units


def summarize(path) -> tuple[dict[str, float], float]:
    """Per-layer metrics from a span file, per traced call, and the share of
    traced wall time that no layer span covers (the benchmark's own)."""
    z = np.load(path)
    names = [str(n) for n in z["names"]]
    nid, parent, outer = z["name_id"], z["parent"], z["outer"].astype(bool)
    dur = z["end"] - z["start"]
    linked = parent >= 0
    self_t = dur - np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)

    def spans(name: str) -> np.ndarray:
        return nid == names.index(name) if name in names else np.zeros(dur.size, bool)

    roots = spans(ROOT)
    n_calls = int(roots.sum())
    layer_of = np.array([n.split(".")[0] for n in names])[nid]
    out: dict[str, float] = {}
    for layer in (*LAYERS, "numpy"):
        sel = layer_of == layer
        out[f"{layer}.calls"] = sel.sum() / n_calls
        out[f"{layer}.self_s"] = self_t[sel].sum() / n_calls
        out[f"{layer}.raised"] = (sel & (z["status"] == RAISED)).sum() / n_calls
    for kernel in ("svd", "norm2", "eigh", "eigvalsh", "kron"):
        sel = spans(f"numpy.{kernel}")
        out[f"numpy.{kernel}.calls"] = sel.sum() / n_calls
        out[f"numpy.{kernel}.self_s"] = self_t[sel].sum() / n_calls
    out["numpy.svd.flops"] = z["work"][spans("numpy.svd")].sum() / n_calls
    out["numpy.kron.bytes_max"] = float(z["work"][spans("numpy.kron")].max(initial=0.0))
    decomp = np.any([spans(name) for name in DECOMPOSITIONS], axis=0)
    out["numpy.decomp.dim_max"] = float(z["dim"][decomp].max(initial=0))
    pairs = np.unique(np.stack([z["call"][decomp], z["fp"][decomp]]), axis=1)
    distinct = np.bincount(pairs[0], minlength=n_calls)
    total = np.bincount(z["call"][decomp], minlength=n_calls)
    out["numpy.decomp.unique_ratio"] = float(np.mean(distinct[total > 0] / total[total > 0]))
    for name in FUNCTION_TOTALS:
        out[f"{name}.total_s"] = dur[spans(name) & outer].sum() / n_calls
    out["growth.level_dim_max"] = float(z["dim"][spans("growth.minimal_scale_factor")].max(initial=0))
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = spans(name).sum() / n_calls
    unattributed = self_t[roots].sum() / dur[roots].sum()
    return {k: float(v) for k, v in out.items()}, float(unattributed)
