"""pdmorse benchmark: time to a checked spectrum, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload reference-study --seed 1 --seconds 12 --trace 0

``--trace 0`` times ops with no instrumentation, for ``--seconds`` CPU
seconds of ops, and prints the end-to-end metrics.  Times are CPU seconds of
the process doing the work (this process, or the reaped CLI children): on a
shared virtual machine wall time also counts the time the hypervisor runs
other guests, which no code change can move.  ``--trace 1`` runs a fixed
number of ops untraced, then the same number traced through the shims in
``shims.py``, and prints the per-layer metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Load model: closed loop, one caller, one process.  BLAS/OpenMP threads are
pinned to 1 here and in every child process.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for CLI outputs and trace files, inside the checkout.
RUN_DIR = ROOT / ".bench_run"

#: Fresh-interpreter ``import pdmorse`` samples per run; setup_s is their median.
SETUP_SAMPLES = 7
#: Bare-interpreter samples per traced run; cli.interp_s is their median.
INTERP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: Wall-clock cap on the timed phase, far above its normal length.
WALL_CAP_S = 100
#: Calibration passes per probe; a probe runs before every timed op and after the last.
CALIBRATION_REPS = 10
#: CPU seconds of one calibration pass that reported times are scaled to.
CALIBRATION_REF_S = 0.008

#: Per-layer metrics: name -> (unit, source).  The source is COUNT (the
#: counter of that name), TIME (the inclusive time of the function named by
#: the metric without its ``.s``), another counter's name, or None for a
#: value derived in ``per_layer``.  Values are per traced op.
COUNT, TIME = "count", "time"
PER_LAYER = {
    "model.potential_at.calls": ("count", COUNT),
    "model.potential_at.s": ("s", TIME),
    "effective.gammas_at.calls": ("count", COUNT),
    "effective.ueff_at.s": ("s", TIME),
    "morse1d.energy_1d.calls": ("count", COUNT),
    "morse1d.channel_from_gammas.calls": ("count", COUNT),
    "morse1d.normalize_1d.calls": ("count", COUNT),
    "morse1d.normalize_1d.s": ("s", TIME),
    "spectrum.energy_window.s": ("s", TIME),
    "spectrum.find_roots.calls": ("count", COUNT),
    "spectrum.find_roots.s": ("s", TIME),
    "spectrum.mismatch.calls": ("count", COUNT),
    "spectrum.mismatch.unsupported": ("count", "spectrum.mismatch.raised.ChannelUnsupported"),
    "spectrum.scan.supported_frac": ("ratio", None),
    "spectrum.roots.found": ("count", COUNT),
    "spectrum.roots.valid": ("count", COUNT),
    "spectrum.roots.per_find_roots": ("ratio", None),
    "spectrum.enumerate_spectrum.s": ("s", TIME),
    "spectrum.compare_table.s": ("s", TIME),
    "spectrum.pde_residual.s": ("s", TIME),
    "spectrum.psi_mn.s": ("s", TIME),
    "oracle.minimize_potential.s": ("s", TIME),
    "oracle.fd_eigen_1d.calls": ("count", COUNT),
    "oracle.fd_eigen_1d.s": ("s", TIME),
    "oracle.oracle_energy_2d.s": ("s", TIME),
    "oracle.oracle_energy_2d.g_evals": ("count", COUNT),
    "oracle.fd_eigen_2d.s": ("s", TIME),
    "oracle.fd_eigen_2d.matrix_bytes": ("bytes", COUNT),
    "cli.interp_s": ("s", None),
    "cli.spectrum.wall_s": ("s", None),
    "cli.fields-psi.wall_s": ("s", None),
    "cli.fields-potential.wall_s": ("s", None),
    "cli.compare-table.wall_s": ("s", None),
    "cli.oracle.wall_s": ("s", None),
    "cli.verify.wall_s": ("s", None),
    "cli.csv_bytes": ("bytes", None),
    "trace.overhead_frac": ("ratio", None),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_cpu_s(args: list[str], env: dict) -> float:
    """CPU seconds one child process takes from start to exit."""
    from workloads import children_cpu

    before = children_cpu()
    subprocess.run(args, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return children_cpu() - before


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def calibration_pass() -> float:
    """CPU seconds of a fixed kernel that does no pdmorse work.

    Interpreted float arithmetic, raised exceptions and small numpy
    reductions, the mix the ops spend their time in.  The host's speed
    drifts between states about 1.5x apart that last minutes; dividing by
    this kernel's mean time over a run removes most of that drift.
    """
    import numpy as np

    t0 = time.process_time()
    acc = 0.0
    for i in range(20000):
        x = 0.5 + i * 1e-4
        try:
            if i % 3 == 0:
                raise ValueError(x)
            acc += math.sqrt(x) * (x - 1.0) ** 2
        except ValueError:
            acc -= 1.0
    grid = np.linspace(0.0, 1.0, 2000)
    for _ in range(50):
        acc += float(np.sum(np.exp(-grid) * grid))
    return time.process_time() - t0


def tail(samples: list[float]) -> tuple[float, str]:
    """Tail op time and its label.

    The tail is the highest percentile with ten samples beyond it: the
    11th-largest sample.  Below 21 samples that sample sits at or under the
    median, so the maximum is reported instead and labelled as such.
    """
    s = sorted(samples)
    if len(s) >= 21:
        return s[-11], f"p{100.0 * (len(s) - 10) / len(s):.1f} of {len(s)} samples (10 beyond it)"
    return s[-1], f"max of {len(s)} samples (fewer than 21)"


class Runner:
    """Runs one workload's ops and keeps their outputs and timings.

    Outputs are checked after the timed phase, so a check's own work can
    neither slow a later op nor raise the measured peak memory.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.pending = []  # (op index, input, output, seconds)
        self.timed_ops: list[int] = []
        self.calibration: list[float] = []  # CPU seconds of every calibration pass

    def probe(self) -> None:
        self.calibration += [calibration_pass() for _ in range(CALIBRATION_REPS)]

    def scale(self) -> float:
        """Factor that converts this run's CPU seconds to the reference host speed."""
        return CALIBRATION_REF_S / statistics.fmean(self.calibration)

    def op(self, i: int, tracer=None) -> float:
        """Run op ``i`` and return its CPU seconds; with a tracer, trace the op alone."""
        w = self.workload
        inp = w.op_input(i)
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
            span = tracer.open_span(f"op.{w.name}")
        error = None
        t0 = w.clock()
        try:
            out = w.run_op(inp)
        except Exception as exc:  # a raising op is a failed op, not a crash
            error = exc
        finally:
            elapsed = w.clock() - t0
            if tracer is not None:
                tracer.close_span(span)
                tracer.active = False
        if error is None:
            self.pending.append((i, inp, out, elapsed))
        else:
            self.failed += 1
            print(f"op {i} raised {type(error).__name__}: {error}", file=sys.stderr)
        return elapsed

    def check_pending(self) -> dict[int, float]:
        """Check every pending output; returns the times of the ops that passed."""
        passed = {}
        for i, inp, out, elapsed in self.pending:
            try:
                self.workload.check(inp, out)
            except Exception as exc:
                self.failed += 1
                print(f"op {i} failed its check: {type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                passed[i] = elapsed
        self.pending = []
        return passed

    def warm_up(self) -> None:
        """One untimed op to fill caches and finish lazy set-up.

        Skipped for workloads whose ops run in child processes, which start
        cold every time anyway.
        """
        if not self.workload.uses_children:
            self.op(self.workload.WARMUP_INDEX)

    def timed(self, seconds: float) -> None:
        """Ops until they have taken ``seconds`` of scaled CPU time, ending on a block boundary.

        A calibration probe runs before every op and after the last one, and
        the run length counts scaled time, so the number of ops does not
        depend on the host's speed.  A wall-clock cap keeps a pathologically
        slow program inside the benchmark's time limit.
        """
        start = time.perf_counter()
        spent = 0.0
        i = 0
        self.workload.calibrate = self.probe
        while i % self.workload.block or spent < seconds:
            if time.perf_counter() - start > WALL_CAP_S:
                break
            self.probe()
            spent += self.op(i) * self.scale()
            self.timed_ops.append(i)
            i += 1
        self.probe()
        self.workload.calibrate = None


def passing(times: dict[int, float], indices) -> list[float]:
    samples = [times[i] for i in indices if i in times]
    if not samples:
        raise SystemExit("no op passed its check; nothing to report")
    return samples


def end_to_end(runner: Runner, env: dict, seconds: int) -> dict:
    setup = [child_cpu_s([sys.executable, "-c", "import pdmorse"], env) for _ in range(SETUP_SAMPLES)]
    w = runner.workload
    runner.warm_up()
    runner.timed(seconds)
    who = resource.RUSAGE_CHILDREN if w.uses_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    samples = passing(runner.check_pending(), runner.timed_ops)
    scale = runner.scale()
    tail_value, tail_label = tail(samples)
    print(f"op_s.tail is the {tail_label}")
    print(
        f"calibration: mean pass {CALIBRATION_REF_S / scale * 1e3:.3f} ms CPU over {len(runner.calibration)} "
        f"passes; CPU seconds are scaled by {scale:.4f} to a {CALIBRATION_REF_S * 1e3:g} ms pass"
    )
    print(
        f"unscaled CPU seconds: setup_s {statistics.median(setup):.6g}, "
        f"op_s.p50 {statistics.median(samples):.6g}, op_s.tail {tail_value:.6g}"
    )
    return {
        "setup_s": statistics.median(setup) * scale,
        "op_s.p50": statistics.median(samples) * scale,
        "op_s.tail": tail_value * scale,
        "ops_per_s": len(samples) / (sum(samples) * scale),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner, env: dict, seconds: int, seed: int) -> dict:
    import shims

    w = runner.workload
    interp = statistics.median(child_cpu_s([sys.executable, "-c", "pass"], env) for _ in range(INTERP_SAMPLES))
    k = w.trace_ops(seconds)
    runner.warm_up()
    # The untraced pass uses other inputs than the traced one, so a model
    # drawn once never meets a cache filled by the same model.
    for i in range(k, 2 * k):
        runner.op(i)
    tracer = shims.Tracer()
    shims.install(tracer)
    w.tracer = tracer
    for i in range(k):
        runner.op(i, tracer)
    passed = runner.check_pending()
    plain = passing(passed, range(k, 2 * k))
    traced = passing(passed, range(k))

    counts, times = tracer.counts, tracer.times
    calls = counts.get("spectrum.mismatch.calls", 0)
    unsupported = counts.get("spectrum.mismatch.raised.ChannelUnsupported", 0)
    finds = counts.get("spectrum.find_roots.calls", 0)
    walls = getattr(w, "walls", {})
    derived = {
        "spectrum.scan.supported_frac": (calls - unsupported) / calls if calls else 0.0,
        "spectrum.roots.per_find_roots": counts.get("spectrum.roots.found", 0) / finds if finds else 0.0,
        "cli.interp_s": interp,
        "cli.csv_bytes": getattr(w, "csv_bytes", 0),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    }
    for label, samples in walls.items():
        derived[f"cli.{label}.wall_s"] = statistics.median(samples) if samples else 0.0
    values = {}
    for name, (unit, how) in PER_LAYER.items():
        if how == COUNT:
            values[name] = counts.get(name, 0) / k
        elif how == TIME:
            values[name] = times.get(name.rsplit(".", 1)[0], 0.0) / k
        elif how is None:
            values[name] = derived.get(name, 0.0)
        else:
            values[name] = counts.get(how, 0) / k

    RUN_DIR.mkdir(exist_ok=True)
    trace_path = RUN_DIR / f"trace-{w.name}-seed{seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": w.name,
                "seed": seed,
                "traced_ops": k,
                "self_s_per_op": {n: s / k for n, s in sorted(tracer.self_times().items())},
                "counts": counts,
                "times_s": times,
                "spans": tracer.spans,
            },
            fh,
        )
    print(f"traced {k} ops (inputs 0..{k - 1}) after {k} untraced ops; spans in {trace_path}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pdmorse" / "__init__.py").is_file():
        print(f"error: no pdmorse sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import pdmorse

    if Path(pdmorse.__file__).resolve().parent != SRC / "pdmorse":
        print(f"error: imported pdmorse from {pdmorse.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    env = child_env()
    scratch = RUN_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, ROOT, env)
        runner = Runner(workload)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print("machine " + json.dumps(machine_info(), sort_keys=True))
        if args.trace:
            values = per_layer(runner, env, args.seconds, args.seed)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end(runner, env, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {runner.failed / runner.attempted:.6g} ratio ({runner.failed} of {runner.attempted} ops)")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
