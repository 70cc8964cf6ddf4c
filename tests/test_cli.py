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
        cfg = config_from_dict({"max_q": 3, "variant": "paper-printed"})
        dumped = cfg.raw
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dumped))
        cfg2 = load_config(str(path))
        assert cfg2.raw == dumped
        assert cfg2.model == cfg.model
        assert cfg2.variant == cfg.variant

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

    @pytest.mark.parametrize(
        "argv, csv_name",
        [
            (["spectrum"], "spectrum.csv"),
            (["fields", "--which", "psi", "--m", "1", "--n", "2"], "field.csv"),
            (["compare-table"], "table_compare.csv"),
            (["oracle", "--m", "0", "--n", "0"], None),
            (["fields", "--which", "ueff"], "field.csv"),
        ],
        ids=["spectrum", "fields-psi", "compare-table", "oracle", "fields-ueff"],
    )
    def test_exits_numeric(self, tmp_path, capsys, argv, csv_name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.ORDERING))
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
