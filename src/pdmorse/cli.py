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
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import oracle, spectrum
from .effective import channels_at, is_reduction_ordering, require_reduction_ordering, ueff_at, veff_at, xi_of
from .errors import (
    ConfigError,
    DegenerateWindow,
    EvaluationOverflow,
    NoBracket,
    NotConverged,
    OrderingNotSolvable,
    PdmorseError,
    Unbounded,
    UnknownLevel,
)
from .model import MassParams, Model, OrderingParams, PotentialParams, mass_at, potential_at, solve_ambiguity_free_ordering
from .morse1d import energy_1d, m_max, wavefunction_1d
from .spectrum import (
    EnergyWindow,
    Variant,
    chi_mn,
    compare_table,
    energy_window,
    enumerate_spectrum,
    find_inversions,
    find_roots,
    group_degeneracies,
    mismatch,
    pde_residual,
    psi_mn,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_INVARIANT = 3

_NUMERIC_ERRORS = (NotConverged, NoBracket, EvaluationOverflow)

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
    """``value`` as its default's type: a float default takes any number, an
    int default only an integer, and a bool is neither."""
    kind = float if isinstance(default, float) else int
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ConfigError(f"field '{key}' must be {'a number' if kind is float else 'an integer'}, got {value!r}")
    return kind(value)


def _tolerance(key: str, value, default) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ConfigError(f"tolerance '{key}' must be a positive number, got {value!r}")
    return float(value)


def _object(name: str, value, shape: dict, leaf=_leaf) -> dict:
    """``value`` with exactly ``shape``'s keys, each leaf checked against its default."""
    if not isinstance(value, dict) or set(value) != set(shape):
        raise ConfigError(f"'{name}' must be an object with keys {', '.join(shape)}")
    return {k: leaf(k, value[k], d) for k, d in shape.items()}


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

    try:
        w = merged["window"]
        window = None if w is None else EnergyWindow(**_object("window", w, {"lo": 0.0, "hi": 0.0}))
        g = _object("grid", merged["grid"], DEFAULT_CONFIG["grid"])
        grid = oracle.Grid2D(oracle.Grid1D(g["x0"], g["x1"], g["nx"]), oracle.Grid1D(g["y0"], g["y1"], g["ny"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tols = _object("tolerances", merged["tolerances"], DEFAULT_CONFIG["tolerances"], leaf=_tolerance)

    return RunConfig(
        model, variant, merged["max_q"], window, merged["scan_points"], grid,
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
    return config_from_dict(data)


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_window(cfg: RunConfig) -> EnergyWindow:
    # Without the reducing ordering there is no condition for a window to bound.
    require_reduction_ordering(cfg.model.ordering, "the self-consistency condition")
    return cfg.window if cfg.window is not None else energy_window(cfg.model)


def cmd_spectrum(cfg: RunConfig, out_dir: str = ".") -> int:
    """Enumerate the spectrum and write spectrum.csv plus a summary."""
    path = f"{out_dir}/spectrum.csv"
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
    model = cfg.model
    xs = cfg.grid.x.nodes()
    ys = cfg.grid.y.nodes()

    if which in ("chi", "psi"):
        if m is None or n is None:
            raise ConfigError("chi/psi fields need --m and --n")
        window = _resolve_window(cfg)
        entries = []
        if m >= 0 and n >= 0:
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
        fn = chi_mn if which == "chi" else psi_mn
        value = lambda x, y: fn(model, entry, x, y)
    elif which == "potential":
        value = lambda x, y: potential_at(model, x, y)
    elif which == "mass":
        value = lambda x, y: mass_at(model.mass, x, y)
    elif which == "ueff":
        value = lambda x, y: ueff_at(model, energy, x, y)
    else:
        raise ConfigError(f"unknown field {which!r}")

    rows = []
    for x in xs:
        col = value(np.full_like(ys, x), ys)
        col = np.broadcast_to(col, ys.shape)
        rows.extend((float(x), float(y), float(v)) for y, v in zip(ys, col))
    path = f"{out_dir}/field.csv"
    _write_csv(path, ["x", "y", "value"], rows)
    print(f"wrote {path} ({which}, {len(rows)} samples)")
    return EXIT_OK


def _verify_checks(cfg: RunConfig):
    """(name, callable) pairs; each callable returns a detail string.

    The last four checks read one study, resolved before any check runs: the
    window, the configured variant's spectrum and the first-principles one.
    A failure to resolve it is raised again by each of them.  Without the
    reducing ordering there is no condition to solve and their callables are
    None.
    """
    model = cfg.model
    study = None
    if is_reduction_ordering(model.ordering):
        try:
            window = _resolve_window(cfg)
            entries = enumerate_spectrum(model, cfg.variant, window, cfg.max_q, cfg.scan_points, cfg.tol_root)
            fp_entries = entries
            if cfg.variant is not Variant.FIRST_PRINCIPLES:
                # Printed-condition roots are not eigenvalues of the reduced PDE.
                fp_entries = enumerate_spectrum(
                    model, Variant.FIRST_PRINCIPLES, window, cfg.max_q, cfg.scan_points, cfg.tol_root
                )
            study = (window, entries, fp_entries)
        except Exception as exc:  # noqa: BLE001 - each spectrum check reports it
            study = exc

    def check_ordering():
        o = solve_ambiguity_free_ordering()
        assert (o.alpha, o.beta, o.gamma) == (-0.5, 0.0, -0.5), "unexpected ordering solution"
        c1 = o.alpha + o.gamma + 1.0
        c2 = o.alpha + o.gamma + o.alpha * o.gamma + 0.75
        assert c1 == 0.0 and c2 == 0.0, f"conditions not zero: {c1}, {c2}"
        return "alpha=gamma=-1/2, beta=0; both conditions vanish"

    def check_reduction():
        if not is_reduction_ordering(model.ordering):
            raise OrderingNotSolvable(
                f"configured ordering {model.ordering} leaves mass-gradient terms"
            )
        xs = np.linspace(-2.0, 6.0, 41)
        X, Y = np.meshgrid(xs, xs)
        M = mass_at(model.mass, X, Y)
        veff = veff_at(model, X, Y)
        worst = 0.0
        for e in np.linspace(-0.4, 1.0, 5):
            general = M * (veff - e) + xi_of(model, float(e))
            reduced = ueff_at(model, float(e), X, Y)
            worst = max(worst, float(np.max(np.abs(general - reduced))))
        assert worst < 1e-10, f"reduction identity defect {worst:.3e}"
        return f"max defect {worst:.3e} on 41x41 grid, 5 energies"

    def check_oracle_1d():
        chx, chy = channels_at(model, model.pot.r)
        worst = 0.0
        for ch in (chx, chy):
            if not ch.supports_bound_states:
                continue
            top = m_max(ch)
            grid = oracle.auto_grid_1d(ch, n=4000)
            # The three-point error is even in h: (4 E_{h/2} - E_h)/3 cancels
            # its h^2 term, which a shallow level's slow tail makes large.
            half = oracle.Grid1D(grid.x0, grid.x1, 2 * grid.n - 1)
            e_h = oracle.fd_eigen_1d(ch.potential, grid, top + 1).eigenvalues
            e_h2 = oracle.fd_eigen_1d(ch.potential, half, top + 1).eigenvalues
            fd = (4.0 * e_h2 - e_h) / 3.0
            for mm in range(top + 1):
                exact = energy_1d(ch, mm).epsilon
                rel = abs(fd[mm] - exact) / abs(exact)
                worst = max(worst, rel)
        assert worst < 1e-4, f"1D oracle disagreement {worst:.3e}"
        return f"max relative eigenvalue error {worst:.3e} (Richardson, h and h/2)"

    def check_nodes():
        chx, _ = channels_at(model, model.pot.r)
        if not chx.supports_bound_states:
            return "skipped: no bound support at r"
        top = m_max(chx)
        grid = oracle.auto_grid_1d(chx)
        xs = np.linspace(grid.x0, grid.x1, 4001)
        for mm in range(min(top, 4) + 1):
            st = energy_1d(chx, mm)
            vals = wavefunction_1d(chx, st, xs)
            sig = vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))]
            nodes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
            assert nodes == mm, f"level {mm} shows {nodes} sign changes"
        return f"node counts match m for m<= {min(top, 4)}"

    def check_orthogonality():
        chx, _ = channels_at(model, model.pot.r)
        if not chx.supports_bound_states or m_max(chx) < 1:
            return "skipped: fewer than two levels"
        s0 = energy_1d(chx, 0)
        s1 = energy_1d(chx, 1)
        # Composite 20-point Gauss-Legendre over the oracle domain plus 40
        # e-foldings of level 1's slower outer tail.  numpy's rule: importing
        # scipy.integrate would add ~23 MB to this command's peak memory.
        grid = oracle.auto_grid_1d(chx)
        hi = grid.x1 + 40.0 / (s1.mu * chx.alpha)
        edges = np.concatenate([np.linspace(grid.x0, grid.x1, 129), np.linspace(grid.x1, hi, 129)[1:]])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        nodes, weights = np.polynomial.legendre.leggauss(20)
        t = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel()
        overlap = float(np.sum(w * s0.norm * wavefunction_1d(chx, s0, t) * s1.norm * wavefunction_1d(chx, s1, t)))
        assert abs(overlap) < 1e-8, f"levels 0 and 1 overlap {overlap:.3e}"
        return f"<0|1> = {abs(overlap):.3e}"

    def check_backsub(window, entries, fp_entries):
        worst = max((e.residual for e in entries), default=0.0)
        for e in entries:
            assert abs(mismatch(model, cfg.variant, e.m, e.n, e.energy)) < 1e-10, (
                f"({e.m},{e.n}) residual {e.residual:.3e}"
            )
        return f"{len(entries)} levels, worst |F| = {worst:.3e}"

    def check_pde(window, entries, fp_entries):
        valid = [e for e in fp_entries if e.valid.all_ok]
        if not valid:
            return "skipped: no fully valid levels"
        grid = oracle.Grid2D(oracle.Grid1D(-2.0, 8.0, 61), oracle.Grid1D(-2.0, 8.0, 61))
        worst = 0.0
        for e in valid[:3]:
            worst = max(worst, pde_residual(model, e, grid))
        assert worst < 1e-10, f"PDE residual {worst:.3e}"
        return f"max relative residual {worst:.3e} over {min(3, len(valid))} levels"

    def check_window(window, entries, fp_entries):
        for e in entries:
            assert window.lo - 1e-9 <= e.energy <= window.hi + 1e-9, (
                f"({e.m},{e.n}) energy {e.energy} outside window"
            )
        return f"{len(entries)} energies inside [{_fmt(window.lo)}, {_fmt(window.hi)}]"

    def check_degeneracy(window, entries, fp_entries):
        clusters = group_degeneracies(entries, cfg.tol_degeneracy)
        if spectrum.is_xy_symmetric(model):
            for e in entries:
                partner = [p for p in entries if (p.m, p.n) == (e.n, e.m)]
                assert partner and any(p.energy == e.energy for p in partner), (
                    f"({e.m},{e.n}) lacks an exact mirror partner"
                )
        multi = [c for c in clusters if c.multiplicity > 1]
        return f"{len(clusters)} clusters, {len(multi)} degenerate"

    def on_study(check):
        def run():
            if isinstance(study, Exception):
                raise study
            return check(*study)

        return None if study is None else run

    return [
        ("ordering-solution", check_ordering),
        ("reduction-identity", check_reduction),
        ("1d-oracle", check_oracle_1d),
        ("node-counts", check_nodes),
        ("orthogonality", check_orthogonality),
        ("back-substitution", on_study(check_backsub)),
        ("pde-residual", on_study(check_pde)),
        ("window-containment", on_study(check_window)),
        ("degeneracy", on_study(check_degeneracy)),
    ]


def cmd_verify(cfg: RunConfig) -> int:
    """Run every invariant check, printing one pass/fail/skip line per check."""
    failures: list[tuple[str, BaseException]] = []
    for name, check in _verify_checks(cfg):
        if check is None:
            print(f"SKIP {name}: requires the solvable ordering")
            continue
        try:
            detail = check()
            print(f"PASS {name}: {detail}")
        except BaseException as exc:  # noqa: BLE001 - report and keep going
            if isinstance(exc, KeyboardInterrupt):
                raise
            print(f"FAIL {name}: {exc}")
            failures.append((name, exc))
    if not failures:
        print("all checks passed")
        return EXIT_OK
    first_name, first_exc = failures[0]
    print(f"first failing check: {first_name}")
    return EXIT_NUMERIC if isinstance(first_exc, _NUMERIC_ERRORS) else EXIT_INVARIANT


def _is_reference_model(model: Model) -> bool:
    ref = config_from_dict({}).model
    return (model.hbar, model.mass, model.pot) == (ref.hbar, ref.mass, ref.pot)


def cmd_compare_table(cfg: RunConfig, out_dir: str = ".") -> int:
    """Compare both variants against the bundled reference levels."""
    if not _is_reference_model(cfg.model):
        raise ConfigError(
            "compare-table runs only on the reference parameter set the bundled "
            "levels were published for"
        )
    window = _resolve_window(cfg)
    cmp = compare_table(cfg.model, window=window, scan_points=cfg.scan_points)

    path = f"{out_dir}/table_compare.csv"
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

    inv = find_inversions([SimpleNamespace(m=r.m, n=r.n, energy=r.e_ref) for r in cmp.rows])
    if inv:
        a, b = inv[0]
        print(
            f"reference shows {len(inv)} energy inversions, e.g. (m,n)=({a[0]},{a[1]}) at "
            f"{_fmt(a[2])} above ({b[0]},{b[1]}) at {_fmt(b[2])}"
        )
    else:
        print("reference shows no energy inversions")

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
    except (ConfigError, UnknownLevel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (Unbounded, DegenerateWindow, OrderingNotSolvable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PdmorseError as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    raise SystemExit(main())
