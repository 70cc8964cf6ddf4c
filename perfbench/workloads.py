"""The four benchmark workloads: seeded inputs, one op each, and output checks.

Every op's output is checked against values that need no recorded golden
file: the README's exact closed forms, algebraic back-substitution, the
analytic PDE residual, the finite-difference oracle at grid-limited
tolerances, and the library's own in-process results for CLI output.
A missing expected root is a failure; an extra root is allowed (it only
shows in ``spectrum.roots.found``).
"""

import math
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import pdmorse as pm
import pdmorse.cli

FP = pm.Variant.FIRST_PRINCIPLES
PP = pm.Variant.PAPER_PRINTED

#: Grid-limited tolerances, fixed from the errors measured at the seed commit
#: (largest: 2.05e-3 for oracle_energy_2d at 192^2, 4.5e-2 for Lanczos at 96^2
#: against epsilon_of, both at the reference (3,3) level).
ORACLE_2D_TOL = 3e-3
LANCZOS_EPS_TOL = 6e-2
#: Lanczos against the separable finite-difference spectrum on the same grid.
LANCZOS_SEPARABLE_TOL = 1e-8

#: README closed forms of the reference first-principles spectrum.
REFERENCE_FP_LEVELS = {
    (0, 0): (math.sqrt(29.0) - 7.0) / 8.0,
    (0, 1): (math.sqrt(21.0) - 5.0) / 8.0,
    (1, 0): (math.sqrt(21.0) - 5.0) / 8.0,
    (1, 1): (math.sqrt(21.0) - 3.0) / 8.0,
    (1, 2): (math.sqrt(13.0) - 1.0) / 8.0,
    (2, 1): (math.sqrt(13.0) - 1.0) / 8.0,
    (2, 2): (math.sqrt(13.0) + 1.0) / 8.0,
    (3, 3): (5.0 + math.sqrt(5.0)) / 8.0,
}
#: README multi-root sets of the paper-printed condition.
REFERENCE_PP_MULTI = {
    (2, 3): (-0.25, 0.75),
    (3, 2): (-0.25, 0.75),
    (3, 3): ((2.0 - math.sqrt(3.0)) / 4.0, (2.0 + math.sqrt(3.0)) / 4.0),
}
REFERENCE_WINDOW_LO = -0.40693


def children_cpu() -> float:
    """CPU seconds (user + system) of every child process reaped so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def reference_model() -> pm.Model:
    """The published default model: the CLI's built-in configuration."""
    return pdmorse.cli.config_from_dict({}).model


def asymmetric_fixture() -> pm.Model:
    """The mildly x/y-asymmetric model of the test suite's fixture."""
    return pm.Model(
        hbar=1.0,
        mass=pm.MassParams(m0=1.0, g1=1.0, g2=0.0, g3=0.8, g4=0.0, a1=1.0, a2=1.3),
        pot=pm.PotentialParams(r=0.0, a=1.0, b1=-1.0, b2=0.125, b3=-0.9, b4=0.15),
        ordering=pm.solve_ambiguity_free_ordering(),
    )


#: Parameter ranges of asym-sweep draws (hbar = m0 = a = 1, r = 0).
ASYM_RANGES = {
    "g1": (0.8, 1.2), "g2": (0.0, 0.1), "g3": (0.6, 1.0), "g4": (0.0, 0.1),
    "a1": (0.8, 1.2), "a2": (1.0, 1.6),
    "b1": (-1.2, -0.8), "b2": (0.1, 0.15), "b3": (-1.1, -0.7), "b4": (0.12, 0.18),
}
#: Draws come in Latin-hypercube blocks: within a block every parameter takes
#: one value from each of ASYM_BLOCK equal slices of its range, so a run's
#: mix of cheap and costly models varies less from seed to seed.
ASYM_BLOCK = 8


def draw_asymmetric_model(seed: int, i: int) -> pm.Model:
    """Op ``i`` of seed ``seed``: an x/y-asymmetric model near the fixture."""
    block, j = divmod(i, ASYM_BLOCK)
    rng = np.random.default_rng([seed, block])
    p = {}
    for name, (lo, hi) in ASYM_RANGES.items():
        strata = rng.permutation(ASYM_BLOCK)
        offsets = rng.uniform(size=ASYM_BLOCK)
        p[name] = float(lo + (hi - lo) * (strata[j] + offsets[j]) / ASYM_BLOCK)
    return pm.Model(
        hbar=1.0,
        mass=pm.MassParams(m0=1.0, g1=p["g1"], g2=p["g2"], g3=p["g3"], g4=p["g4"], a1=p["a1"], a2=p["a2"]),
        pot=pm.PotentialParams(r=0.0, a=1.0, b1=p["b1"], b2=p["b2"], b3=p["b3"], b4=p["b4"]),
        ordering=pm.solve_ambiguity_free_ordering(),
    )


def _grid(x0: float, x1: float, n: int) -> pm.Grid2D:
    return pm.Grid2D(pm.Grid1D(x0, x1, n), pm.Grid1D(x0, x1, n))


#: Grid of the default configuration (41^2) and the verify PDE grid (61^2).
FIELD_GRID = _grid(-2.0, 6.0, 41)
PDE_GRID = _grid(-2.0, 8.0, 61)


def _mesh(grid: pm.Grid2D):
    return np.meshgrid(grid.x.nodes(), grid.y.nodes())


def _check_back_substitution(model, entries, window) -> None:
    for e in entries:
        f = pm.mismatch(model, e.variant, e.m, e.n, e.energy)
        expect(abs(f) < 1e-10, f"({e.m},{e.n}) back-substitution |F| = {abs(f):.3e}")
        expect(
            window.lo - 1e-9 <= e.energy <= window.hi + 1e-9,
            f"({e.m},{e.n}) energy {e.energy!r} outside the window",
        )


def _check_pde(model, entries) -> None:
    for e in entries:
        r = pm.pde_residual(model, e, PDE_GRID)
        expect(r < 1e-10, f"({e.m},{e.n}) PDE residual {r:.3e}")


class Workload:
    """One workload: ``op_input(i)`` is op i's input, ``run_op`` is timed."""

    name = ""
    #: Ops per balanced block; a timed run ends only on a block boundary so
    #: every run measures the same mix of inputs.
    block = 1
    #: Rough CPU cost of one op at the seed commit, used only to size the
    #: fixed-length traced run from ``--seconds``.
    nominal_op_s = 1.0
    #: Ops run in child processes: no warm-up op, and peak RSS is the children's.
    uses_children = False
    #: Clock an op is timed with: CPU seconds of the process that does the work.
    clock = staticmethod(time.process_time)
    #: Input index of the untimed warm-up op; never used by a timed or traced op.
    WARMUP_INDEX = 2**31 - 1
    #: Set by the runner while timing: runs a calibration probe in this
    #: process.  An op that waits on child processes may call it between
    #: children; the children's CPU time, which the op reports, excludes it.
    calibrate = None

    def __init__(self, seed: int, scratch: Path, root: Path, env: dict):
        self.seed = seed
        self.scratch = scratch
        self.root = root
        self.env = env
        self.tracer = None

    def trace_ops(self, seconds: int) -> int:
        """Fixed op count of a traced run: depends on the arguments only."""
        k = max(1, int(0.3 * seconds / self.nominal_op_s))
        return -(-k // self.block) * self.block

    def op_input(self, i: int):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError


class ReferenceStudy(Workload):
    """The full study of the published default model; warm eigenfunction cache."""

    name = "reference-study"
    nominal_op_s = 2.2

    def __init__(self, *args):
        super().__init__(*args)
        self.model = reference_model()
        self.field_mesh = _mesh(FIELD_GRID)

    def op_input(self, i):
        return self.model

    def run_op(self, model):
        window = pm.energy_window(model)
        fp = pm.enumerate_spectrum(model, FP, window, 6)
        pp = pm.enumerate_spectrum(model, PP, window, 6)
        clusters = pm.group_degeneracies(fp, 1e-6)
        table = pm.compare_table(model, window=window)
        valid = [e for e in fp if e.valid.all_ok]
        X, Y = self.field_mesh
        psis = [pm.psi_mn(model, e, X, Y) for e in valid]
        residuals = [pm.pde_residual(model, e, PDE_GRID) for e in valid]
        return window, fp, pp, clusters, table, valid, psis, residuals

    def check(self, model, out):
        window, fp, pp, clusters, table, valid, psis, residuals = out
        expect(abs(window.lo - REFERENCE_WINDOW_LO) <= 1e-4, f"window lo {window.lo!r}")
        expect(abs(window.hi - 1.0) <= 1e-12, f"window hi {window.hi!r}")
        for (m, n), energy in REFERENCE_FP_LEVELS.items():
            hits = [e for e in valid if (e.m, e.n) == (m, n) and abs(e.energy - energy) <= 1e-9]
            expect(bool(hits), f"first-principles level ({m},{n}) = {energy:.9f} missing")
        for level in set(REFERENCE_FP_LEVELS.values()):
            expect(
                any(abs(c.energy - level) <= 1e-9 for c in clusters),
                f"no degeneracy cluster at {level:.9f}",
            )
        for (m, n), roots in REFERENCE_PP_MULTI.items():
            found = sorted(e.energy for e in pp if (e.m, e.n) == (m, n))
            for r in roots:
                expect(
                    any(abs(f - r) <= 1e-9 for f in found),
                    f"paper-printed ({m},{n}) root {r:.9f} missing from {found}",
                )
        expect(table.matches_fp == 0, f"first-principles matches {table.matches_fp}/21, expected 0")
        expect(table.matches_pp == 0, f"paper-printed matches {table.matches_pp}/21, expected 0")
        with_roots = sum(1 for r in table.rows if not math.isnan(r.e_pp))
        expect(with_roots == 9, f"paper-printed pairs with roots {with_roots}/21, expected 9")
        multi = {(v, m, n): rs for v, m, n, rs in table.multi_roots}
        for m, n in ((2, 3), (3, 3)):
            rs = multi.get((PP.value, m, n), ())
            for r in REFERENCE_PP_MULTI[(m, n)]:
                expect(
                    any(abs(x - r) <= 1e-9 for x in rs),
                    f"compare_table multi-root ({m},{n}) lacks {r:.9f}: {rs}",
                )
        _check_back_substitution(model, fp + pp, window)
        for e, psi in zip(valid, psis):
            expect(
                psi.shape == (41, 41) and np.all(np.isfinite(psi)) and np.any(psi != 0.0),
                f"psi ({e.m},{e.n}) is not a finite non-zero 41x41 field",
            )
        worst = max(residuals)
        expect(worst < 1e-10, f"PDE residual {worst:.3e}")


class AsymSweep(Workload):
    """A new seeded asymmetric model per op: no mirror halving, cold cache."""

    name = "asym-sweep"
    nominal_op_s = 1.0
    block = ASYM_BLOCK

    def __init__(self, *args):
        super().__init__(*args)
        self.field_mesh = _mesh(FIELD_GRID)

    def op_input(self, i):
        return draw_asymmetric_model(self.seed, i)

    def run_op(self, model):
        window = pm.energy_window(model)
        entries = pm.enumerate_spectrum(model, FP, window, 4)
        ground = next(e for e in entries if e.valid.all_ok)
        X, Y = self.field_mesh
        psi = pm.psi_mn(model, ground, X, Y)
        return window, entries, ground, psi

    def check(self, model, out):
        window, entries, ground, psi = out
        _check_back_substitution(model, entries, window)
        valid = [e for e in entries if e.valid.all_ok]
        expect(ground is valid[0], "ground level is not the lowest valid level")
        expect(
            np.all(np.isfinite(psi)) and np.any(psi != 0.0), "ground psi is not a finite non-zero field"
        )
        _check_pde(model, valid)


class OracleCertify(Workload):
    """Finite-difference certification of one closed-form level per op."""

    name = "oracle-certify"
    nominal_op_s = 0.3

    ORACLE_GRID = _grid(-4.0, 12.0, 192)
    LANCZOS_GRID = _grid(-4.0, 12.0, 96)

    def __init__(self, *args):
        super().__init__(*args)
        levels = []
        for model in (reference_model(), asymmetric_fixture()):
            window = pm.energy_window(model)
            for e in pm.enumerate_spectrum(model, FP, window, 6):
                if e.valid.all_ok:
                    levels.append(self._prepare(model, window, e))
        order = np.random.default_rng(self.seed).permutation(len(levels))
        self.levels = [levels[j] for j in order]
        self.block = len(self.levels)

    def _prepare(self, model, window, entry):
        """Lanczos rank of the level, from the separable FD spectrum on the same grid.

        The box continuum puts extra eigenvalues below a level, so the rank
        is counted from the two 1D finite-difference spectra, and the sum
        nearest the target is the value Lanczos must reproduce.
        """
        g = pm.gammas_at(model, entry.energy)
        h2 = model.hbar * model.hbar
        a1, a2 = model.mass.a1, model.mass.a2
        ux = lambda x: (2.0 / h2) * (g.gamma1 * np.exp(-a1 * x) + g.gamma2 * np.exp(-2.0 * a1 * x))
        uy = lambda y: (2.0 / h2) * (g.gamma3 * np.exp(-a2 * y) + g.gamma4 * np.exp(-2.0 * a2 * y))
        lx = pm.fd_eigen_1d(ux, self.LANCZOS_GRID.x, 80).eigenvalues
        ly = pm.fd_eigen_1d(uy, self.LANCZOS_GRID.y, 80).eigenvalues
        target = pm.epsilon_of(model, entry.energy)
        sums = np.sort(np.add.outer(lx, ly).ravel())
        separable = float(sums[np.argmin(np.abs(sums - target))])
        k = int(np.searchsorted(sums, separable, side="right"))
        return {
            "model": model,
            "window": window,
            "m": entry.m,
            "n": entry.n,
            "energy": entry.energy,
            "target": target,
            "separable": separable,
            "k": k,
        }

    def op_input(self, i):
        return self.levels[i % len(self.levels)]

    def run_op(self, lv):
        model = lv["model"]
        e_num = pm.oracle_energy_2d(model, lv["m"], lv["n"], lv["window"], self.ORACLE_GRID)
        scale = 2.0 / (model.hbar * model.hbar)
        reduced = lambda x, y: scale * pm.ueff_at(model, lv["energy"], x, y)
        eig = pm.fd_eigen_2d(reduced, self.LANCZOS_GRID, lv["k"], method="lanczos")
        return e_num, eig.eigenvalues

    def check(self, lv, out):
        e_num, vals = out
        label = f"({lv['m']},{lv['n']}) at E*={lv['energy']:.9f}"
        d = abs(e_num - lv["energy"])
        expect(d <= ORACLE_2D_TOL, f"{label}: |oracle_energy_2d - E*| = {d:.3e}")
        nearest = float(vals[np.argmin(np.abs(vals - lv["separable"]))])
        d_sep = abs(nearest - lv["separable"])
        expect(d_sep <= LANCZOS_SEPARABLE_TOL, f"{label}: Lanczos vs separable FD {d_sep:.3e}")
        d_eps = abs(nearest - lv["target"])
        expect(d_eps <= LANCZOS_EPS_TOL, f"{label}: Lanczos vs epsilon_of(E*) {d_eps:.3e}")


#: (label, CLI arguments, CSV written) of one session, in order.
CLI_SESSION = (
    ("spectrum", ["spectrum"], "spectrum.csv"),
    ("fields-psi", ["fields", "--which", "psi", "--m", "0", "--n", "0"], "field.csv"),
    ("fields-potential", ["fields", "--which", "potential"], "field.csv"),
    ("compare-table", ["compare-table"], "table_compare.csv"),
    ("oracle", ["oracle", "--m", "0", "--n", "0"], None),
    ("verify", ["verify"], None),
)


def _parse_csv(data: bytes):
    lines = data.decode("utf-8").split("\n")
    expect(lines[-1] == "", "CSV does not end with a newline")
    return lines[0], [line.split(",") for line in lines[1:-1]]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


class CliSession(Workload):
    """Six ``python -m pdmorse`` subprocesses on the default configuration."""

    name = "cli-session"
    nominal_op_s = 8.0
    uses_children = True
    clock = staticmethod(children_cpu)

    def __init__(self, *args):
        super().__init__(*args)
        self.first_csvs = None
        self.walls = {label: [] for label, _, _ in CLI_SESSION}
        for label, _, _ in CLI_SESSION:
            (self.scratch / label).mkdir(parents=True, exist_ok=True)
        # Library results in-process, for the value checks.
        cfg = pdmorse.cli.config_from_dict({})
        model = cfg.model
        window = pm.energy_window(model)
        self.spectrum = pm.enumerate_spectrum(
            model, cfg.variant, window, cfg.max_q, cfg.scan_points, cfg.tol_root
        )
        self.table = pm.compare_table(model, window=window, scan_points=cfg.scan_points)
        xs, ys = cfg.grid.x.nodes(), cfg.grid.y.nodes()
        Y, X = np.meshgrid(ys, xs)  # row order of field.csv: x outer, y inner
        ground = [e for e in self.spectrum if (e.m, e.n) == (0, 0) and e.valid.all_ok][0]
        self.ground = ground.energy
        self.fields = {
            "fields-psi": (X.ravel(), Y.ravel(), pm.psi_mn(model, ground, X, Y, cfg.tol_quadrature).ravel()),
            "fields-potential": (X.ravel(), Y.ravel(), pm.potential_at(model, X, Y).ravel()),
        }

    def op_input(self, i):
        return i

    def _command(self, label, args):
        out_args = ["--out", str(self.scratch / label), *args]
        if self.tracer is not None and self.tracer.active:
            trace_file = self.scratch / f"{label}.trace.json"
            child = Path(__file__).resolve().parent / "cli_child.py"
            return [sys.executable, str(child), str(trace_file), *out_args], trace_file
        return [sys.executable, "-m", "pdmorse", *out_args], None

    def run_op(self, i):
        """Run the session; returns each run's process and the CSV bytes it wrote."""
        results = {}
        for n, (label, args, csv_name) in enumerate(CLI_SESSION):
            if n and self.calibrate is not None:
                self.calibrate()
            cmd, trace_file = self._command(label, args)
            traced = self.tracer is not None and self.tracer.active
            span = self.tracer.open_span(f"cli.{label}") if traced else None
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, timeout=150)
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.close_span(span)
                self.tracer.merge_child(trace_file, span)
            else:
                self.walls[label].append(wall)
            csv = (self.scratch / label / csv_name).read_bytes() if csv_name and proc.returncode == 0 else None
            results[label] = (proc, csv)
        return results

    def check(self, i, out):
        for label, (proc, _) in out.items():
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        csvs = {label: csv for label, (_, csv) in out.items() if csv is not None}
        self.csv_bytes = sum(len(b) for b in csvs.values())
        if self.first_csvs is None:
            self.first_csvs = csvs
        for label, data in csvs.items():
            expect(data == self.first_csvs[label], f"{label} CSV bytes differ from the first session's")

        header, rows = _parse_csv(csvs["spectrum"])
        expect(header == "m,n,E,residual,valid,variant", f"spectrum.csv header {header!r}")
        expect(len(rows) == len(self.spectrum), f"spectrum.csv has {len(rows)} rows, library {len(self.spectrum)}")
        for row, e in zip(rows, self.spectrum):
            expect(
                (int(row[0]), int(row[1])) == (e.m, e.n)
                and _close(float(row[2]), e.energy, 1e-12)
                and row[4] == ("true" if e.valid.all_ok else "false")
                and row[5] == e.variant.value,
                f"spectrum.csv row {row} differs from library ({e.m},{e.n}) {e.energy!r}",
            )

        for label in ("fields-psi", "fields-potential"):
            header, rows = _parse_csv(csvs[label])
            expect(header == "x,y,value", f"{label} header {header!r}")
            expect(len(rows) == 41 * 41, f"{label} has {len(rows)} rows, expected 1681")
            got = np.array(rows, dtype=float).T
            for col, ref in zip(got, self.fields[label]):
                err = float(np.max(np.abs(col - ref)))
                expect(err <= 1e-12, f"{label} differs from the library by {err:.3e}")

        header, rows = _parse_csv(csvs["compare-table"])
        expect(header == "m,n,E_ref,E_fp,dE_fp,E_pp,dE_pp,match_fp,match_pp", f"table_compare.csv header {header!r}")
        expect(len(rows) == len(self.table.rows), f"table_compare.csv has {len(rows)} rows")
        for row, ref in zip(rows, self.table.rows):
            expect(
                (int(row[0]), int(row[1])) == (ref.m, ref.n)
                and float(row[2]) == ref.e_ref
                and _close(float(row[3]), ref.e_fp, 1e-12)
                and _close(float(row[5]), ref.e_pp, 1e-12)
                and row[7] == "false"
                and row[8] == "false",
                f"table_compare.csv row {row} differs from library ({ref.m},{ref.n})",
            )

        text = out["oracle"][0].stdout.decode()
        fd = re.search(r"finite-difference energy \(0,0\): (\S+)", text)
        cf = re.search(r"closed-form root: (\S+)", text)
        expect(fd is not None and cf is not None, f"oracle output not recognised: {text!r}")
        expect(abs(float(fd.group(1)) - REFERENCE_FP_LEVELS[(0, 0)]) <= ORACLE_2D_TOL, f"oracle energy {fd.group(1)}")
        expect(_close(float(cf.group(1)), self.ground, 1e-12), f"oracle closed-form root {cf.group(1)}")

        text = out["verify"][0].stdout.decode()
        passes = sum(1 for line in text.splitlines() if line.startswith("PASS "))
        expect("all checks passed" in text and passes == 9, f"verify: {passes} PASS lines\n{text}")


WORKLOADS = {w.name: w for w in (ReferenceStudy, AsymSweep, OracleCertify, CliSession)}
