"""Command-line front end: config ingestion and deterministic CSV emission.

Subcommands
-----------
spectrum       enumerate self-consistent levels, write spectrum.csv
fields         sample a field (potential/mass/ueff/chi/psi) onto field.csv
verify         run the invariant suite, pass/fail per check
compare-table  distances of both variants to the bundled reference levels
oracle         finite-difference cross-check of one (m, n) level

All numeric output uses 17 significant digits, '.' decimal points and plain
newlines so repeated runs are byte-identical.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import oracle
from .checks import VERIFY_CHECKS
from .effective import require_reduction_ordering, ueff_at
from .errors import (
    ConfigError,
    DegenerateWindow,
    EvaluationOverflow,
    GridTooSmall,
    InvalidLevel,
    NoBracket,
    NotConverged,
    OrderingNotSolvable,
    Unbounded,
    UnknownLevel,
)
from .model import MassParams, Model, OrderingParams, PotentialParams, mass_at, potential_at
from .spectrum import (
    EnergyWindow,
    Variant,
    chi_mn,
    compare_table,
    energy_window,
    enumerate_spectrum,
    find_roots,
    group_degeneracies,
    psi_mn,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_INVARIANT = 3

#: (error types, exit code, stderr label); an error takes its first matching
#: row.  main exits and labels by it, verify exits by its first failure's row.
FAILURES = (
    ((ConfigError, UnknownLevel, InvalidLevel), EXIT_CONFIG, "error"),
    ((NotConverged, NoBracket, EvaluationOverflow, GridTooSmall), EXIT_NUMERIC, "numerical failure"),
    ((Unbounded, DegenerateWindow, OrderingNotSolvable), EXIT_NUMERIC, "error"),
    ((Exception,), EXIT_INVARIANT, "internal error"),
)


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr label of ``exc``'s row in FAILURES."""
    return next((code, label) for types, code, label in FAILURES if isinstance(exc, types))


#: Example parameter set shipped as the default configuration.
DEFAULT_CONFIG: dict = {
    "hbar": 1.0,
    "m0": 1.0,
    "g1": 1.0,
    "g2": 0.0,
    "g3": 1.0,
    "g4": 0.0,
    "a1": 1.0,
    "a2": 1.0,
    "r": 0.0,
    "a": 1.0,
    "b1": -1.0,
    "b2": 0.125,
    "b3": -1.0,
    "b4": 0.125,
    "ordering": {"alpha": -0.5, "beta": 0.0, "gamma": -0.5},
    "variant": "first-principles",
    "max_q": 6,
    "window": None,
    "scan_points": 2000,
    "grid": {"x0": -2.0, "x1": 6.0, "nx": 41, "y0": -2.0, "y1": 6.0, "ny": 41},
    "tolerances": {"root": 1e-12, "degeneracy": 1e-6, "quadrature": 1e-8},
}

@dataclass
class RunConfig:
    model: Model
    variant: Variant
    max_q: int
    window: EnergyWindow | None
    scan_points: int
    grid: oracle.Grid2D
    tol_root: float
    tol_degeneracy: float
    #: Validated and kept for existing callers; no output depends on it,
    #: because every L2 norm is an exact closed form.
    tol_quadrature: float


def _leaf(key: str, value, default):
    """``value`` as its default's type: a float default takes any finite
    number, an int default only an integer, and a bool is neither."""
    kind = float if isinstance(default, float) else int
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ConfigError(f"field '{key}' must be {'a number' if kind is float else 'an integer'}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ConfigError(f"field '{key}' must be finite, got an integer too large for a double") from None
    if not finite:
        raise ConfigError(f"field '{key}' must be finite, got {value!r}")
    return kind(value)


def _tolerance(key: str, value, default) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"tolerance '{key}' must be a positive number, got {value!r}")
    return _leaf(key, value, default)


def _object(name: str, value, shape: dict, leaf=_leaf) -> dict:
    """``value`` with exactly ``shape``'s keys, each leaf checked against its default."""
    if not isinstance(value, dict) or set(value) != set(shape):
        raise ConfigError(f"'{name}' must be an object with keys {', '.join(shape)}")
    return {k: leaf(k, value[k], d) for k, d in shape.items()}


def _at_most(name: str, value: int, top: int) -> int:
    """``value``, if no larger than ``top``: a config integer sizes a loop or an allocation."""
    if value > top:
        raise ConfigError(f"{name} must be at most {top}, got {value!r}")
    return value


def config_from_dict(data: dict) -> RunConfig:
    """Validate a config mapping against the shape of DEFAULT_CONFIG.

    Unknown keys are hard errors.  The top-level float defaults are the model
    numbers, and every object must carry exactly its default's keys.
    """
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    merged = {**DEFAULT_CONFIG, **data}
    unknown = sorted(set(data) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    num = {k: _leaf(k, merged[k], d) for k, d in DEFAULT_CONFIG.items() if isinstance(d, float)}
    try:
        ordering = OrderingParams(**_object("ordering", merged["ordering"], DEFAULT_CONFIG["ordering"]))
        model = Model(
            hbar=num["hbar"],
            mass=MassParams(**{f.name: num[f.name] for f in fields(MassParams)}),
            pot=PotentialParams(**{f.name: num[f.name] for f in fields(PotentialParams)}),
            ordering=ordering,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        variant = Variant(merged["variant"])
    except ValueError:
        raise ConfigError(
            f"variant must be 'first-principles' or 'paper-printed', got {merged['variant']!r}"
        ) from None

    if not isinstance(merged["max_q"], int) or isinstance(merged["max_q"], bool) or merged["max_q"] < 0:
        raise ConfigError(f"max_q must be a non-negative integer, got {merged['max_q']!r}")
    if not isinstance(merged["scan_points"], int) or merged["scan_points"] < 100:
        raise ConfigError(f"scan_points must be an integer >= 100, got {merged['scan_points']!r}")
    # The pair loop is quadratic in max_q; 20000 is the largest scan the tests run.
    max_q = _at_most("max_q", merged["max_q"], 200)
    scan_points = _at_most("scan_points", merged["scan_points"], 20000)

    try:
        w = merged["window"]
        window = None if w is None else EnergyWindow(**_object("window", w, {"lo": 0.0, "hi": 0.0}))
        g = _object("grid", merged["grid"], DEFAULT_CONFIG["grid"])
        nx, ny = (_at_most(f"field '{k}'", g[k], 1000) for k in ("nx", "ny"))
        grid = oracle.Grid2D(oracle.Grid1D(g["x0"], g["x1"], nx), oracle.Grid1D(g["y0"], g["y1"], ny))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tols = _object("tolerances", merged["tolerances"], DEFAULT_CONFIG["tolerances"], leaf=_tolerance)

    return RunConfig(
        model, variant, max_q, window, scan_points, grid,
        tol_root=tols["root"], tol_degeneracy=tols["degeneracy"], tol_quadrature=tols["quadrature"],
    )


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return config_from_dict({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigError(f"config {path!r} cannot be read: {exc}") from exc
    return config_from_dict(data)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _csv_path(out_dir: str, name: str) -> str:
    """Where a command writes its CSV; checked before the command computes anything."""
    if not os.path.isdir(out_dir):
        raise ConfigError(f"output directory {out_dir!r} is not an existing directory")
    return f"{out_dir}/{name}"


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_window(cfg: RunConfig) -> EnergyWindow:
    # Without the reducing ordering there is no condition for a window to bound.
    require_reduction_ordering(cfg.model.ordering)
    return cfg.window if cfg.window is not None else energy_window(cfg.model)


def cmd_spectrum(cfg: RunConfig, out_dir: str = ".") -> int:
    """Enumerate the spectrum and write spectrum.csv plus a summary."""
    path = _csv_path(out_dir, "spectrum.csv")
    header = ["m", "n", "E", "residual", "valid", "variant"]
    try:
        window = _resolve_window(cfg)
    except DegenerateWindow as exc:
        _write_csv(path, header, [])
        print(f"no bound states: {exc}")
        print(f"wrote {path} (0 levels)")
        return EXIT_OK

    entries = enumerate_spectrum(
        cfg.model, cfg.variant, window, cfg.max_q, cfg.scan_points, cfg.tol_root
    )
    rows = [
        (e.m, e.n, e.energy, e.residual, e.valid.all_ok, e.variant.value) for e in entries
    ]
    _write_csv(path, header, rows)
    print(f"wrote {path} ({len(entries)} levels, variant={cfg.variant.value})")
    print(f"window: [{_fmt(window.lo)}, {_fmt(window.hi)}]")
    clusters = group_degeneracies(entries, cfg.tol_degeneracy)
    for c in clusters:
        members = " ".join(f"({e.m},{e.n})" for e in c.entries)
        print(f"E={_fmt(c.energy)} multiplicity={c.multiplicity}: {members}")
    return EXIT_OK


def cmd_fields(
    cfg: RunConfig,
    which: str,
    out_dir: str = ".",
    m: int | None = None,
    n: int | None = None,
    energy: float = 0.0,
) -> int:
    """Sample the requested field over the config grid into field.csv."""
    path = _csv_path(out_dir, "field.csv")
    if not math.isfinite(energy):
        raise ConfigError(f"--energy must be finite, got {energy!r}")
    model = cfg.model
    X, Y = np.meshgrid(cfg.grid.x.nodes(), cfg.grid.y.nodes(), indexing="ij")

    if which in ("chi", "psi"):
        if m is None or n is None:
            raise ConfigError("chi/psi fields need --m and --n")
        window = _resolve_window(cfg)
        entries = find_roots(model, cfg.variant, m, n, window, cfg.scan_points, cfg.tol_root)
        if not entries:
            raise UnknownLevel(f"no spectrum entry for (m, n)=({m}, {n})")
        valid = [e for e in entries if e.valid.all_ok]
        if not valid:
            roots = ", ".join(f"E={_fmt(e.energy)}" for e in entries)
            raise UnknownLevel(
                f"no valid spectrum entry for (m, n)=({m}, {n}); "
                f"invalid {cfg.variant.value} roots: {roots}"
            )
        entry = valid[0]
        vals = (chi_mn if which == "chi" else psi_mn)(model, entry, X, Y)
    elif which == "potential":
        vals = potential_at(model, X, Y)
    elif which == "mass":
        vals = mass_at(model.mass, X, Y)
    elif which == "ueff":
        vals = ueff_at(model, energy, X, Y)
    else:
        raise ConfigError(f"unknown field {which!r}")

    vals = np.broadcast_to(vals, X.shape)
    rows = list(zip(X.ravel().tolist(), Y.ravel().tolist(), vals.ravel().tolist()))
    _write_csv(path, ["x", "y", "value"], rows)
    print(f"wrote {path} ({which}, {len(rows)} samples)")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Run every invariant check, printing one pass/fail line per check.

    When resolving the study fails, each check that reads it fails with that
    error.  The first failing check's error sets the exit code by FAILURES.
    """
    try:
        window = _resolve_window(cfg)
        run = lambda v: enumerate_spectrum(cfg.model, v, window, cfg.max_q, cfg.scan_points, cfg.tol_root)
        entries = run(cfg.variant)
        # Printed-condition roots are not eigenvalues of the reduced PDE.
        fp_entries = entries if cfg.variant is Variant.FIRST_PRINCIPLES else run(Variant.FIRST_PRINCIPLES)
        study = (window, entries, fp_entries, cfg.tol_degeneracy)
    except Exception as exc:  # noqa: BLE001 - each check that reads the study reports it
        study = exc
    first_failure = None
    for name, check, reads_study in VERIFY_CHECKS:
        try:
            if reads_study and isinstance(study, Exception):
                raise study
            detail = check(cfg.model, *study) if reads_study else check(cfg.model)
            print(f"PASS {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report and keep going
            print(f"FAIL {name}: {exc}")
            first_failure = first_failure or (name, exc)
    if first_failure is None:
        print("all checks passed")
        return EXIT_OK
    name, exc = first_failure
    print(f"first failing check: {name}")
    return _failure(exc)[0]


def _is_reference_model(model: Model) -> bool:
    ref = config_from_dict({}).model
    return (model.hbar, model.mass, model.pot) == (ref.hbar, ref.mass, ref.pot)


def _find_inversions(levels) -> list[tuple]:
    """Pairs of (m, n, E) levels where higher total quantum number comes with lower energy."""
    return [(a, b) for a in levels for b in levels if a[0] + a[1] < b[0] + b[1] and a[2] > b[2] + 1e-12]


def cmd_compare_table(cfg: RunConfig, out_dir: str = ".") -> int:
    """Compare both variants against the bundled reference levels."""
    path = _csv_path(out_dir, "table_compare.csv")
    if not _is_reference_model(cfg.model):
        raise ConfigError(
            "compare-table runs only on the reference parameter set the bundled "
            "levels were published for"
        )
    window = _resolve_window(cfg)
    cmp = compare_table(cfg.model, window=window, scan_points=cfg.scan_points, tol=cfg.tol_root)

    _write_csv(
        path,
        ["m", "n", "E_ref", "E_fp", "dE_fp", "E_pp", "dE_pp", "match_fp", "match_pp"],
        [
            (r.m, r.n, r.e_ref, r.e_fp, r.de_fp, r.e_pp, r.de_pp, r.match_fp, r.match_pp)
            for r in cmp.rows
        ],
    )
    print(f"wrote {path} ({len(cmp.rows)} reference levels)")
    print(
        f"matches at {cmp.match_tol:g}: first-principles {cmp.matches_fp}/{len(cmp.rows)}, "
        f"paper-printed {cmp.matches_pp}/{len(cmp.rows)}"
    )

    quarters = [r for r in cmp.rows if r.e_ref == 0.25]
    for label, dists in (
        ("first-principles", [r.de_fp for r in quarters]),
        ("paper-printed", [r.de_pp for r in quarters]),
    ):
        status = "reproduced" if quarters and all(d < cmp.match_tol for d in dists) else "not reproduced"
        print(f"eight-fold cluster at 0.25 ({len(quarters)} ordered pairs + mirrors): {status} by {label}")

    # REFERENCE_LEVELS is fixed, and it always holds inversions.
    inv = _find_inversions([(r.m, r.n, r.e_ref) for r in cmp.rows])
    a, b = inv[0]
    print(
        f"reference shows {len(inv)} energy inversions, e.g. (m,n)=({a[0]},{a[1]}) at "
        f"{_fmt(a[2])} above ({b[0]},{b[1]}) at {_fmt(b[2])}"
    )

    if cmp.multi_roots:
        print("multi-root quantum numbers:")
        for variant_name, m, n, roots in cmp.multi_roots:
            print(f"  {variant_name} ({m},{n}): " + " ".join(_fmt(r) for r in roots))
    else:
        print("no quantum numbers produced multiple roots")
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, m: int, n: int) -> int:
    """Finite-difference cross-check of one level against the closed form."""
    window = _resolve_window(cfg)
    roots = find_roots(cfg.model, Variant.FIRST_PRINCIPLES, m, n, window, cfg.scan_points, cfg.tol_root)
    grid = oracle.Grid2D(oracle.Grid1D(-4.0, 14.0, 192), oracle.Grid1D(-4.0, 14.0, 192))
    e_num = oracle.oracle_energy_2d(cfg.model, m, n, window, grid)
    print(f"finite-difference energy ({m},{n}): {_fmt(e_num)}")
    if roots:
        best = min(roots, key=lambda r: abs(r.energy - e_num))
        print(f"closed-form root: {_fmt(best.energy)}  |difference| = {_fmt(abs(best.energy - e_num))}")
    else:
        print("closed form found no root for these quantum numbers")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmorse",
        description="Bound-state solver for a 2D position-dependent-mass particle in Morse-like confinement",
    )
    parser.add_argument("--config", help="path to a JSON run configuration (defaults built in)")
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        help="override the configured self-consistency variant",
    )
    parser.add_argument("--out", default=".", help="output directory for CSV files")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", help="enumerate levels into spectrum.csv")

    p_fields = sub.add_parser("fields", help="sample a field onto field.csv")
    p_fields.add_argument("--which", required=True, choices=["potential", "mass", "ueff", "chi", "psi"])
    p_fields.add_argument("--m", type=int, default=None)
    p_fields.add_argument("--n", type=int, default=None)
    p_fields.add_argument("--energy", type=float, default=0.0, help="trial energy for --which ueff")

    sub.add_parser("verify", help="run the invariant suite")
    sub.add_parser("compare-table", help="compare variants against the reference levels")

    p_oracle = sub.add_parser("oracle", help="finite-difference cross-check of one level")
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)

    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.variant is not None:
            cfg.variant = Variant(args.variant)

        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "fields":
            return cmd_fields(cfg, args.which, args.out, args.m, args.n, args.energy)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "compare-table":
            return cmd_compare_table(cfg, args.out)
        return cmd_oracle(cfg, args.m, args.n)
    except Exception as exc:  # noqa: BLE001 - FAILURES' last row labels any other error
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
