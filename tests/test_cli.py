import csv
import json
import subprocess
import sys

import pytest

from pdmorse.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERIC,
    EXIT_OK,
    config_from_dict,
    load_config,
    main,
)
from pdmorse.errors import ConfigError


GRID = DEFAULT_CONFIG["grid"]
TOLS = DEFAULT_CONFIG["tolerances"]
ORDER = DEFAULT_CONFIG["ordering"]

#: (config, exact ConfigError text), one fault each.
BAD_CONFIGS = [
    ([], "top-level config must be a JSON object"),
    ("x", "top-level config must be a JSON object"),
    ({"frobnicate": 1}, "unknown config keys: frobnicate"),
    ({"hbar": None}, "field 'hbar' must be a number, got None"),
    ({"hbar": True}, "field 'hbar' must be a number, got True"),
    ({"m0": "1"}, "field 'm0' must be a number, got '1'"),
    ({"b4": False}, "field 'b4' must be a number, got False"),
    ({"m0": -1.0}, "m0 must be positive, got -1.0"),
    ({"a1": 0}, "decay rates must be positive, got a1=0.0, a2=1.0"),
    ({"g2": -0.1}, "g2 must be non-negative, got -0.1"),
    ({"ordering": None}, "'ordering' must be an object with keys alpha, beta, gamma"),
    ({"ordering": {"alpha": -0.5, "gamma": -0.5}}, "'ordering' must be an object with keys alpha, beta, gamma"),
    ({"ordering": {**ORDER, "delta": 0}}, "'ordering' must be an object with keys alpha, beta, gamma"),
    ({"ordering": {**ORDER, "alpha": None}}, "field 'alpha' must be a number, got None"),
    ({"ordering": {**ORDER, "alpha": True}}, "field 'alpha' must be a number, got True"),
    (
        {"ordering": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0}},
        "ordering exponents must satisfy alpha+beta+gamma=-1, got sum 0.0",
    ),
    ({"variant": "exact"}, "variant must be 'first-principles' or 'paper-printed', got 'exact'"),
    ({"variant": None}, "variant must be 'first-principles' or 'paper-printed', got None"),
    ({"max_q": -1}, "max_q must be a non-negative integer, got -1"),
    ({"max_q": 2.0}, "max_q must be a non-negative integer, got 2.0"),
    ({"max_q": True}, "max_q must be a non-negative integer, got True"),
    ({"max_q": "3"}, "max_q must be a non-negative integer, got '3'"),
    ({"scan_points": 50}, "scan_points must be an integer >= 100, got 50"),
    ({"scan_points": 1000.0}, "scan_points must be an integer >= 100, got 1000.0"),
    ({"scan_points": None}, "scan_points must be an integer >= 100, got None"),
    ({"scan_points": True}, "scan_points must be an integer >= 100, got True"),
    ({"window": 5}, "'window' must be an object with keys lo, hi"),
    ({"window": {"lo": 0.0}}, "'window' must be an object with keys lo, hi"),
    ({"window": {"lo": None, "hi": 1.0}}, "field 'lo' must be a number, got None"),
    ({"window": {"lo": 0.0, "hi": False}}, "field 'hi' must be a number, got False"),
    ({"window": {"lo": 1, "hi": 0}}, "need lo < hi, got [1.0, 0.0]"),
    ({"window": {"lo": 0.5, "hi": 0.5}}, "need lo < hi, got [0.5, 0.5]"),
    ({"grid": []}, "'grid' must be an object with keys x0, x1, nx, y0, y1, ny"),
    ({"grid": dict(list(GRID.items())[:5])}, "'grid' must be an object with keys x0, x1, nx, y0, y1, ny"),
    ({"grid": {**GRID, "nz": 41}}, "'grid' must be an object with keys x0, x1, nx, y0, y1, ny"),
    ({"grid": {**GRID, "x1": None}}, "field 'x1' must be a number, got None"),
    ({"grid": {**GRID, "nx": None}}, "field 'nx' must be an integer, got None"),
    ({"grid": {**GRID, "nx": "41"}}, "field 'nx' must be an integer, got '41'"),
    ({"grid": {**GRID, "ny": 41.9}}, "field 'ny' must be an integer, got 41.9"),
    ({"grid": {**GRID, "nx": True}}, "field 'nx' must be an integer, got True"),
    ({"grid": {**GRID, "nx": 10}}, "need at least 16 nodes, got 10"),
    ({"grid": {**GRID, "x1": -3}}, "need x0 < x1, got [-2.0, -3.0]"),
    ({"grid": {**GRID, "y0": "0"}}, "field 'y0' must be a number, got '0'"),
    ({"tolerances": {"root": 1e-12}}, "'tolerances' must be an object with keys root, degeneracy, quadrature"),
    ({"tolerances": {**TOLS, "root": 0}}, "tolerance 'root' must be a positive number, got 0"),
    ({"tolerances": {**TOLS, "degeneracy": "1e-6"}}, "tolerance 'degeneracy' must be a positive number, got '1e-6'"),
    ({"tolerances": {**TOLS, "quadrature": True}}, "tolerance 'quadrature' must be a positive number, got True"),
    ({"tolerances": {**TOLS, "root": -1e-3}}, "tolerance 'root' must be a positive number, got -0.001"),
]


def run_main(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_build(self):
        cfg = config_from_dict({})
        assert cfg.variant.value == "first-principles"
        assert cfg.scan_points == 2000
        assert cfg.model.mass.g1 == 1.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: frobnicate"):
            config_from_dict({"frobnicate": 1})

    def test_scan_points_floor(self):
        with pytest.raises(ConfigError, match="scan_points"):
            config_from_dict({"scan_points": 50})

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            config_from_dict({"variant": "exact"})

    def test_bad_ordering_sum(self):
        with pytest.raises(ConfigError):
            config_from_dict({"ordering": {"alpha": 0.0, "beta": 0.0, "gamma": 0.0}})

    def test_round_trip(self, tmp_path):
        data = {**DEFAULT_CONFIG, "max_q": 3, "variant": "paper-printed", "window": {"lo": -0.3, "hi": 0.9}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        cfg = config_from_dict(data)
        assert load_config(str(path)) == cfg
        assert (cfg.max_q, cfg.variant.value, cfg.window.hi) == (3, "paper-printed", 0.9)

    @pytest.mark.parametrize("bad, message", BAD_CONFIGS, ids=[json.dumps(bad) for bad, _ in BAD_CONFIGS])
    def test_rejection_message(self, bad, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(bad)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data",
        [{"hbar": 2, "grid": {**GRID, "x0": -3}}, {"max_q": 0, "scan_points": 100}, {"window": {"lo": -1, "hi": 1}}],
    )
    def test_integers_accepted_where_numbers_are(self, data):
        cfg = config_from_dict(data)
        assert all(type(v) is float for v in (cfg.model.hbar, cfg.grid.x.x0, cfg.grid.y.x1, cfg.tol_root))
        assert cfg.window is None or type(cfg.window.lo) is float

    @pytest.mark.parametrize(
        "bad",
        [
            {"ordering": {"alpha": None, "beta": 0.0, "gamma": -0.5}},
            {"window": {"lo": None, "hi": 1.0}},
            {"grid": {**DEFAULT_CONFIG["grid"], "x1": None}},
            {"grid": {**DEFAULT_CONFIG["grid"], "nx": None}},
            {"grid": {**DEFAULT_CONFIG["grid"], "nx": "41"}},
            {"grid": {**DEFAULT_CONFIG["grid"], "ny": 41.9}},
        ],
    )
    def test_wrong_type_exits_config_error(self, tmp_path, capsys, bad):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: field '")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestSpectrumCommand:
    def test_default_run(self, tmp_path):
        assert run_main("--out", str(tmp_path), "spectrum") == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 8
        assert [r["variant"] for r in rows] == ["first-principles"] * 8
        energies = [float(r["E"]) for r in rows]
        assert energies == sorted(energies)
        assert all(r["valid"] == "true" for r in rows)

    def test_paper_printed_variant_flag(self, tmp_path):
        assert run_main("--variant", "paper-printed", "--out", str(tmp_path), "spectrum") == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows and all(r["variant"] == "paper-printed" for r in rows)

    def test_no_bound_states_run(self, tmp_path):
        cfg = dict(DEFAULT_CONFIG)
        cfg.update({"b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 0.0, "g1": 0.0, "g3": 0.0})
        del cfg["ordering"], cfg["window"], cfg["grid"], cfg["tolerances"]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(cfg))
        code = run_main("--config", str(path), "--out", str(tmp_path), "spectrum")
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows == []

    def test_flat_axis_run(self, tmp_path):
        # V is constant along x: a degenerate minimum, not an unbounded one.
        path = tmp_path / "flat_x.json"
        path.write_text(json.dumps({"g1": 0, "g2": 0, "b1": 0, "b2": 0, "b3": -1, "b4": 0.125}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_OK
        assert read_csv(tmp_path / "spectrum.csv") == []

    def test_byte_identical_reruns(self, tmp_path, capsys):
        run_main("--out", str(tmp_path), "spectrum")
        first_csv = (tmp_path / "spectrum.csv").read_bytes()
        first_out = capsys.readouterr().out
        run_main("--out", str(tmp_path), "spectrum")
        assert (tmp_path / "spectrum.csv").read_bytes() == first_csv
        assert capsys.readouterr().out == first_out


class TestFieldsCommand:
    def test_potential_grid_contains_minimum(self, tmp_path):
        assert run_main("--out", str(tmp_path), "fields", "--which", "potential") == EXIT_OK
        rows = read_csv(tmp_path / "field.csv")
        assert len(rows) == 41 * 41
        best = min(rows, key=lambda r: float(r["value"]))
        assert float(best["value"]) == pytest.approx(-0.40693, abs=2e-3)
        assert float(best["x"]) == float(best["y"])  # symmetric interior node

    def test_mass_grid_value_at_origin(self, tmp_path):
        assert run_main("--out", str(tmp_path), "fields", "--which", "mass") == EXIT_OK
        rows = read_csv(tmp_path / "field.csv")
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["y"]) == 0.0]
        assert origin and float(origin[0]["value"]) == 3.0

    def test_chi_ground_state_positive(self, tmp_path):
        assert run_main("--out", str(tmp_path), "fields", "--which", "chi", "--m", "0", "--n", "0") == EXIT_OK
        rows = read_csv(tmp_path / "field.csv")
        assert all(float(r["value"]) > 0.0 for r in rows)

    def test_unknown_level_exits_config_error(self, tmp_path, capsys):
        code = run_main("--out", str(tmp_path), "fields", "--which", "chi", "--m", "5", "--n", "6")
        assert code == EXIT_CONFIG
        assert "no spectrum entry" in capsys.readouterr().err

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (2, 3), (3, 1), (3, 2)])
    def test_only_invalid_roots_exits_config_error(self, tmp_path, capsys, m, n):
        # The printed condition has roots here, but none is a bound level.
        argv = ("--variant", "paper-printed", "--out", str(tmp_path), "fields", "--which", "psi")
        assert run_main(*argv, "--m", str(m), "--n", str(n)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: no valid spectrum entry for (m, n)=({m}, {n}); invalid paper-printed roots: E=")
        assert not (tmp_path / "field.csv").exists()

    def test_ueff_field(self, tmp_path):
        assert run_main("--out", str(tmp_path), "fields", "--which", "ueff", "--energy", "0.0") == EXIT_OK
        rows = read_csv(tmp_path / "field.csv")
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["y"]) == 0.0]
        assert origin and float(origin[0]["value"]) == pytest.approx(-1.75, abs=1e-12)


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "verify") == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 9
        assert "PASS 1d-oracle: max relative eigenvalue error 4.16" in out

    def test_shallow_level_passes_1d_oracle(self, tmp_path, capsys):
        # The y channel's top level (eps = -0.0451, mu = 0.177) misses by
        # 2.4e-4 relative on the n = 4000 grid alone; the Richardson value of
        # that grid and its halved spacing misses by 2.3e-7.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a2": 1.2, "g3": 0.8, "b3": -0.9, "g4": 0.05, "b4": 0.1}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert "PASS 1d-oracle: max relative eigenvalue error 2.3" in out

    @pytest.mark.parametrize("level", [0, 1])
    def test_moved_closed_form_level_fails_1d_oracle(self, tmp_path, capsys, monkeypatch, level):
        from dataclasses import replace

        import pdmorse.cli

        real = pdmorse.cli.energy_1d

        def moved(ch, m):
            state = real(ch, m)
            return replace(state, epsilon=state.epsilon * (1.0 + 1e-3)) if m == level else state

        monkeypatch.setattr(pdmorse.cli, "energy_1d", moved)
        assert run_main("--out", str(tmp_path), "verify") == EXIT_INVARIANT
        out = capsys.readouterr().out
        # |E_fd - 1.001 eps| / |1.001 eps| = 1e-3 / 1.001.
        assert "FAIL 1d-oracle: 1D oracle disagreement 9.990e-04" in out
        assert "first failing check: 1d-oracle" in out

    def test_nonsolvable_ordering_fails_reduction(self, tmp_path, capsys, monkeypatch):
        import pdmorse.cli

        # No condition to solve, so no window and no spectrum either.
        monkeypatch.setattr(pdmorse.cli, "energy_window", lambda model: pytest.fail("window resolved"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ordering": {"alpha": 0.0, "beta": -1.0, "gamma": 0.0}}))
        code = run_main("--config", str(path), "--out", str(tmp_path), "verify")
        assert code == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "FAIL reduction-identity" in out
        assert "first failing check: reduction-identity" in out
        assert [line for line in out.splitlines() if line.startswith("SKIP")] == [
            f"SKIP {name}: requires the solvable ordering"
            for name in ("back-substitution", "pde-residual", "window-containment", "degeneracy")
        ]

    @pytest.mark.parametrize("variant", ["first-principles", "paper-printed"])
    def test_window_resolved_once(self, tmp_path, capsys, monkeypatch, variant):
        import pdmorse.cli

        calls = []
        real = pdmorse.cli.energy_window
        monkeypatch.setattr(pdmorse.cli, "energy_window", lambda model: calls.append(model) or real(model))
        assert run_main("--variant", variant, "--out", str(tmp_path), "verify") == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("variant, runs", [("first-principles", 1), ("paper-printed", 2)])
    def test_spectrum_enumerated_once_per_variant(self, tmp_path, capsys, monkeypatch, variant, runs):
        import pdmorse.cli

        calls = []
        real = pdmorse.cli.enumerate_spectrum
        monkeypatch.setattr(pdmorse.cli, "enumerate_spectrum", lambda *a: calls.append(a[1]) or real(*a))
        assert run_main("--variant", variant, "--out", str(tmp_path), "verify") == EXIT_OK
        assert [v.value for v in calls] == [variant, "first-principles"][:runs]

    @pytest.mark.parametrize("variant", ["first-principles", "paper-printed"])
    def test_window_error_reported_by_each_check_that_needs_it(self, tmp_path, capsys, variant):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 0.0, "g1": 0.0, "g3": 0.0}))
        code = run_main("--config", str(path), "--variant", variant, "--out", str(tmp_path), "verify")
        assert code == EXIT_INVARIANT
        out = capsys.readouterr().out
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == [
            "FAIL back-substitution", "FAIL pde-residual", "FAIL window-containment", "FAIL degeneracy"
        ]
        assert "first failing check: back-substitution" in out
        assert len({line.split(": ", 1)[1] for line in failed}) == 1
        assert "does not lie below the asymptote" in failed[0]

    def test_config_validation_precedes_checks(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scan_points": 50}))
        assert run_main("--config", str(path), "verify") == EXIT_CONFIG

    def test_verify_deterministic(self, tmp_path, capsys):
        run_main("--out", str(tmp_path), "verify")
        first = capsys.readouterr().out
        run_main("--out", str(tmp_path), "verify")
        assert capsys.readouterr().out == first


class TestCompareTableCommand:
    def test_writes_report(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "compare-table") == EXIT_OK
        rows = read_csv(tmp_path / "table_compare.csv")
        assert len(rows) == 21
        pairs = {(int(r["m"]), int(r["n"])) for r in rows}
        assert (1, 2) in pairs and (3, 6) in pairs
        ref = {(int(r["m"]), int(r["n"])): float(r["E_ref"]) for r in rows}
        assert ref[(1, 2)] == 0.957107
        assert ref[(3, 6)] == 0.883975
        out = capsys.readouterr().out
        assert "matches at" in out
        assert "eight-fold cluster" in out
        assert "inversion" in out

    def test_refuses_other_parameters(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": -0.9}))
        code = run_main("--config", str(path), "--out", str(tmp_path), "compare-table")
        assert code == EXIT_CONFIG
        assert "reference parameter set" in capsys.readouterr().err

    def test_every_row_has_both_variant_columns(self, tmp_path):
        run_main("--out", str(tmp_path), "compare-table")
        rows = read_csv(tmp_path / "table_compare.csv")
        for r in rows:
            assert r["match_fp"] in ("true", "false")
            assert r["match_pp"] in ("true", "false")
            float(r["dE_fp"])  # parses (finite or inf)


class TestOracleCommand:
    def test_cross_check_ground_level(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "oracle", "--m", "0", "--n", "0") == EXIT_OK
        out = capsys.readouterr().out
        assert "finite-difference energy (0,0)" in out
        assert "closed-form root" in out

    @pytest.mark.parametrize(
        "m, n, line",
        [
            ("0", "0", "finite-difference energy (0,0): -0.20201608282615152"),
            ("2", "1", "finite-difference energy (2,1): 0.32509889984102669"),
        ],
    )
    def test_default_config_energies_pinned(self, tmp_path, capsys, m, n, line):
        assert run_main("--out", str(tmp_path), "oracle", "--m", m, "--n", n) == EXIT_OK
        assert line in capsys.readouterr().out.splitlines()

    def test_no_bracket_exits_numeric(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"window": {"lo": 0.95, "hi": 1.0}}))
        code = run_main("--config", str(path), "--out", str(tmp_path), "oracle", "--m", "0", "--n", "0")
        assert code == EXIT_NUMERIC
        assert "no sign change" in capsys.readouterr().err


class TestNonReducingOrdering:
    """Commands that solve the self-consistency condition refuse an ordering it does not exist for."""

    ORDERING = {"ordering": {"alpha": -0.4, "beta": -0.2, "gamma": -0.4}}
    #: Nothing binds under this potential, so the ordering must be checked before the window.
    FLAT_WINDOW = {"b1": 0, "b2": 0, "b3": 0, "b4": 0, "g1": 0, "g3": 0, **ORDERING}

    @pytest.mark.parametrize(
        "data, argv, csv_name",
        [
            (ORDERING, ["spectrum"], "spectrum.csv"),
            (ORDERING, ["fields", "--which", "psi", "--m", "1", "--n", "2"], "field.csv"),
            (ORDERING, ["compare-table"], "table_compare.csv"),
            (ORDERING, ["oracle", "--m", "0", "--n", "0"], None),
            (ORDERING, ["fields", "--which", "ueff"], "field.csv"),
            (FLAT_WINDOW, ["spectrum"], "spectrum.csv"),
            (FLAT_WINDOW, ["fields", "--which", "psi", "--m", "0", "--n", "0"], "field.csv"),
            (FLAT_WINDOW, ["oracle", "--m", "0", "--n", "0"], None),
        ],
        ids=[
            "spectrum", "fields-psi", "compare-table", "oracle", "fields-ueff",
            "flat-window-spectrum", "flat-window-fields-psi", "flat-window-oracle",
        ],
    )
    def test_exits_numeric(self, tmp_path, capsys, data, argv, csv_name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_main("--config", str(path), "--out", str(tmp_path), *argv) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "requires the ordering with vanishing mass-gradient coefficients" in captured.err
        assert captured.err.count("\n") == 1
        if csv_name is not None:
            assert not (tmp_path / csv_name).exists()

    @pytest.mark.parametrize("which", ["potential", "mass"])
    def test_plain_fields_unaffected(self, tmp_path, which):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.ORDERING))
        assert run_main("--config", str(path), "--out", str(tmp_path), "fields", "--which", which) == EXIT_OK


class TestSubprocessEntrypoints:
    def test_module_help(self):
        cp = subprocess.run(
            [sys.executable, "-m", "pdmorse", "--help"], capture_output=True, text=True
        )
        assert cp.returncode == 0
        assert "spectrum" in cp.stdout and "compare-table" in cp.stdout

    def test_import_leaves_scipy_unloaded(self):
        # The closed-form path never needs scipy; only the FD oracle imports it.
        cp = subprocess.run(
            [sys.executable, "-c", "import sys, pdmorse; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "False"

    def test_module_spectrum_smoke(self, tmp_path):
        cp = subprocess.run(
            [sys.executable, "-m", "pdmorse", "--out", str(tmp_path), "spectrum"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert (tmp_path / "spectrum.csv").exists()
