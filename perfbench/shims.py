"""Counting and timing shims around pdmorse's public functions.

``install()`` replaces every public function of the ``model``, ``effective``,
``morse1d``, ``spectrum``, ``oracle`` and ``cli`` modules with a wrapper, in
every module namespace that holds a reference to it (``pdmorse.energy_1d``,
``pdmorse.spectrum.energy_1d``, ``pdmorse.cli.enumerate_spectrum``, ...).
Calls between library modules go through module globals, so internal calls
are counted as well.  No library file is modified.

Coarse functions record spans (name, start, end, parent, op id) kept in
memory; hot scalar functions (hundreds of thousands of calls per op) record
only a call count and inclusive time so tracing stays affordable.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("model", "effective", "morse1d", "spectrum", "oracle", "cli")

#: Functions whose calls become spans; every other public function is counted.
SPAN_FUNCTIONS = frozenset(
    {
        "spectrum.energy_window",
        "spectrum.enumerate_spectrum",
        "spectrum.find_roots",
        "spectrum.compare_table",
        "spectrum.group_degeneracies",
        "spectrum.psi_mn",
        "spectrum.chi_mn",
        "spectrum.pde_residual",
        "morse1d.normalize_1d",
        "oracle.minimize_potential",
        "oracle.oracle_energy_2d",
        "oracle.fd_eigen_1d",
        "oracle.fd_eigen_2d",
        "oracle.auto_grid_1d",
    }
)


class Tracer:
    """In-memory counters, inclusive times and spans for one process."""

    def __init__(self):
        self.active = False
        self.op_id = None
        self.counts: dict[str, float] = {}
        self.times: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self._open: dict[str, int] = {}  # span name -> nesting depth

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def open_span(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        self._open[name] = self._open.get(name, 0) + 1
        return idx

    def close_span(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1
        self.add(span[0] + ".calls")
        self.times[span[0]] = self.times.get(span[0], 0.0) + (span[2] - span[1])

    def self_times(self) -> dict[str, float]:
        """Per-name span time minus the time of each span's direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is not None:
                out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path) -> None:
        """Write counters, times and spans for a parent process to merge."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": self.counts, "times": self.times, "spans": self.spans}, fh)

    def merge_child(self, path, parent: int) -> None:
        """Fold a child process's dump in, its root spans under ``parent``."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        for key, value in child["counts"].items():
            self.add(key, value)
        for key, value in child["times"].items():
            self.times[key] = self.times.get(key, 0.0) + value
        offset = len(self.spans)
        for name, start, end, up, _ in child["spans"]:
            self.spans.append([name, start, end, parent if up is None else up + offset, self.op_id])


def _fd_eigen_2d_matrix_bytes(args, kwargs) -> int:
    """CSC storage of the 5-point Lanczos operator, computed from the grid.

    nnz = N diagonal + 2 ny (nx - 1) x-neighbours + 2 nx (ny - 1) y-neighbours
    over the N = nx ny interior nodes; 8-byte values, 4-byte indices.
    """
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    nx, ny = grid.x.n - 2, grid.y.n - 2
    nnz = nx * ny + 2 * ny * (nx - 1) + 2 * nx * (ny - 1)
    return 12 * nnz + 4 * (nx * ny + 1)


def _after_call(tracer: Tracer, key: str, args, kwargs, result) -> None:
    """Layer-specific counters that need the call's arguments or result."""
    if key == "spectrum.find_roots":
        tracer.add("spectrum.roots.found", len(result))
        tracer.add("spectrum.roots.valid", sum(1 for e in result if e.valid.all_ok))
    elif key == "effective.epsilon_of" and tracer.inside("oracle.oracle_energy_2d"):
        # One G(E) evaluation of the oracle is one epsilon_of call.
        tracer.add("oracle.oracle_energy_2d.g_evals")
    elif key == "oracle.fd_eigen_2d":
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        if method == "lanczos":
            tracer.add("oracle.fd_eigen_2d.matrix_bytes", _fd_eigen_2d_matrix_bytes(args, kwargs))


def _wrap(fn, key: str, tracer: Tracer):
    perf = time.perf_counter

    if key in SPAN_FUNCTIONS:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open_span(key)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.add(f"{key}.raised.{type(exc).__name__}")
                raise
            finally:
                tracer.close_span(idx)
            _after_call(tracer, key, args, kwargs, result)
            return result

    else:
        calls_key = key + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.add(calls_key)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.add(f"{key}.raised.{type(exc).__name__}")
                raise
            finally:
                tracer.times[key] = tracer.times.get(key, 0.0) + (perf() - t0)
            _after_call(tracer, key, args, kwargs, result)
            return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every public function in every pdmorse namespace."""
    import pdmorse

    modules = {name: importlib.import_module(f"pdmorse.{name}") for name in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[id(obj)] = _wrap(obj, f"{short}.{name}", tracer)

    namespaces = [pdmorse, *modules.values()]
    namespaces += [
        mod for name, mod in vars(pdmorse).items() if inspect.ismodule(mod) and mod not in namespaces
    ]
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(ns, name, wrappers[id(obj)])
