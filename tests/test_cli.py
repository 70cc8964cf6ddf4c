import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmorse import channels_at, energy_window, errors
from pdmorse.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_NUMERIC,
    EXIT_OK,
    FAILURES,
    VERIFY_CHECKS,
    config_from_dict,
    load_config,
    main,
)
from pdmorse.errors import ConfigError
from pdmorse.spectrum import validity_at
from tests.conftest import failing_dstebz


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
    ({"hbar": 1e-200}, "hbar^2 must be a normal finite double, got hbar=1e-200"),
    ({"hbar": 1e-155}, "hbar^2 must be a normal finite double, got hbar=1e-155"),  # subnormal square
    ({"hbar": 1e160}, "hbar^2 must be a normal finite double, got hbar=1e+160"),
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
    ({"max_q": 201}, "max_q must be at most 200, got 201"),
    ({"max_q": 1000000}, "max_q must be at most 200, got 1000000"),
    ({"scan_points": 20001}, "scan_points must be at most 20000, got 20001"),
    ({"scan_points": 100000000000}, "scan_points must be at most 20000, got 100000000000"),
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
    ({"grid": {**GRID, "nx": 100000000000}}, "field 'nx' must be at most 1000, got 100000000000"),
    ({"grid": {**GRID, "ny": 1001}}, "field 'ny' must be at most 1000, got 1001"),
    ({"grid": {**GRID, "x1": -3}}, "need x0 < x1, got [-2.0, -3.0]"),
    ({"grid": {**GRID, "y0": "0"}}, "field 'y0' must be a number, got '0'"),
    ({"tolerances": {"root": 1e-12}}, "'tolerances' must be an object with keys root, degeneracy, quadrature"),
    ({"tolerances": {**TOLS, "root": 0}}, "tolerance 'root' must be a positive number, got 0"),
    ({"tolerances": {**TOLS, "degeneracy": "1e-6"}}, "tolerance 'degeneracy' must be a positive number, got '1e-6'"),
    ({"tolerances": {**TOLS, "quadrature": True}}, "tolerance 'quadrature' must be a positive number, got True"),
    ({"tolerances": {**TOLS, "root": -1e-3}}, "tolerance 'root' must be a positive number, got -0.001"),
]


#: An asymmetric model with a first-principles level, (2,6), a tenth of a
#: scan cell above the lower edge of its support.
EDGE_CONFIG = {
    "hbar": 1.2781762294161338, "m0": 1.09906007710337,
    "g1": 0.4290033573211448, "g2": 0.11552362945043085, "g3": 0.9769900897698354, "g4": 0.18460506684543615,
    "a1": 1.0856939432419703, "a2": 0.938474611766246,
    "r": -0.20238045036145857, "a": 1.2252082462632354,
    "b1": -0.8623947556641214, "b2": 0.06791535977658615, "b3": -1.2007098089465211, "b4": 0.09178903164791767,
}


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
        [
            {"hbar": 2, "grid": {**GRID, "x0": -3}},
            {"max_q": 0, "scan_points": 100},
            {"window": {"lo": -1, "hi": 1}},
            {"max_q": 200, "scan_points": 20000, "grid": {**GRID, "nx": 1000, "ny": 1000}},
        ],
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"hbar": Infinity}', "field 'hbar' must be finite, got inf"),
            ('{"ordering": {"alpha": NaN, "beta": 0.0, "gamma": -0.5}}', "field 'alpha' must be finite, got nan"),
            ('{"window": {"lo": -Infinity, "hi": 1.0}}', "field 'lo' must be finite, got -inf"),
            (
                '{"grid": {"x0": -Infinity, "x1": 6.0, "nx": 41, "y0": -2.0, "y1": 6.0, "ny": 41}}',
                "field 'x0' must be finite, got -inf",
            ),
            (
                '{"tolerances": {"root": Infinity, "degeneracy": 1e-6, "quadrature": 1e-8}}',
                "field 'root' must be finite, got inf",
            ),
        ],
        ids=["model", "ordering", "window", "grid", "tolerance"],
    )
    def test_non_finite_number_exits_config_error(self, tmp_path, capsys, text, message):
        # json.load reads NaN and +-Infinity, which RFC 8259 JSON does not have.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        for argv in (["spectrum"], ["verify"]):
            assert run_main("--config", str(path), "--out", str(tmp_path), *argv) == EXIT_CONFIG
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "spectrum.csv").exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"hbar": 1' + "0" * 400 + "}", "hbar"),
            ('{"grid": {"x0": -2.0, "x1": 6.0, "nx": 1' + "0" * 400 + ', "y0": -2.0, "y1": 6.0, "ny": 41}}', "nx"),
        ],
        ids=["float-field", "int-field"],
    )
    def test_integer_beyond_a_double_exits_config_error(self, tmp_path, capsys, text, field):
        # math.isfinite raises OverflowError on an integer this large.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_CONFIG
        message = f"field '{field}' must be finite, got an integer too large for a double"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "bad, argv, message",
        [
            ({"max_q": 1000000}, ["spectrum"], "max_q must be at most 200, got 1000000"),
            ({"scan_points": 100000000000}, ["spectrum"], "scan_points must be at most 20000, got 100000000000"),
            (
                {"grid": {**GRID, "nx": 100000000000}},
                ["fields", "--which", "potential"],
                "field 'nx' must be at most 1000, got 100000000000",
            ),
        ],
        ids=["max_q", "scan_points", "nx"],
    )
    def test_oversize_integer_exits_config_error(self, tmp_path, capsys, bad, argv, message):
        # Unchecked, each would run the quadratic pair loop for hours or ask numpy for 745 GiB.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        assert run_main("--config", str(path), "--out", str(tmp_path), *argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.glob("*.csv"))

    def test_integer_past_the_digit_limit_exits_config_error(self, tmp_path, capsys):
        # Past 4300 digits json.load itself raises ValueError on interpreters
        # that limit int-string conversion; either way it is a config error.
        path = tmp_path / "cfg.json"
        path.write_text('{"hbar": 1' + "0" * 5000 + "}")
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_missing_config_file_exits_config_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config {str(path)!r}: [Errno 2] No such file or directory")

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

    def test_level_next_to_support_edge_is_listed(self, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(EDGE_CONFIG))
        assert run_main("--config", str(path), "--out", str(tmp_path), "spectrum") == EXIT_OK
        rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 10
        (row,) = [r for r in rows if (r["m"], r["n"]) == ("2", "6")]
        assert float(row["E"]) == pytest.approx(0.14914764323363688, abs=1e-12)
        assert float(row["residual"]) < 1e-10
        assert row["valid"] == "true"
        # At the scan node below the root, level 6 is not yet bound.
        model = config_from_dict(EDGE_CONFIG).model
        window = energy_window(model)
        es = np.linspace(window.lo, window.hi, DEFAULT_CONFIG["scan_points"])
        assert not validity_at(model, 2, 6, es[es < float(row["E"])][-1]).level_y_allowed

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

    def test_negative_quantum_number_exits_config_error(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "fields", "--which", "psi", "--m", "-1", "--n", "0") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quantum numbers must be non-negative, got (-1, 0)\n"
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize("given", [(), ("--m", "0"), ("--n", "0")])
    def test_chi_without_both_quantum_numbers_exits_config_error(self, tmp_path, capsys, given):
        assert run_main("--out", str(tmp_path), "fields", "--which", "chi", *given) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chi/psi fields need --m and --n\n"
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize("energy", ["nan", "inf", "-inf"])
    def test_non_finite_energy_exits_config_error(self, tmp_path, capsys, energy):
        assert run_main("--out", str(tmp_path), "fields", "--which", "ueff", f"--energy={energy}") == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: --energy must be finite, got {float(energy)!r}\n")
        assert not (tmp_path / "field.csv").exists()

    def test_ueff_field(self, tmp_path):
        assert run_main("--out", str(tmp_path), "fields", "--which", "ueff", "--energy", "0.0") == EXIT_OK
        rows = read_csv(tmp_path / "field.csv")
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["y"]) == 0.0]
        assert origin and float(origin[0]["value"]) == pytest.approx(-1.75, abs=1e-12)


def readme_verify_checks() -> list[str]:
    """The check names that README's "The `verify` checks" section numbers, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### The `verify` checks\n", 1)[1].split("\n### ", 1)[0]
    return re.findall(r"^\d+\. `([a-z0-9-]+)`", section, flags=re.M)


def verify_statuses(out: str) -> list[tuple[str, str]]:
    """(status, check name) of each PASS, FAIL and SKIP line of verify's output."""
    return [tuple(line.split(":", 1)[0].split(" ", 1)) for line in out.splitlines() if line[:4] in ("PASS", "FAIL", "SKIP")]


class TestVerifyCommand:
    def test_readme_lists_the_checks_in_run_order(self, tmp_path, capsys):
        names = readme_verify_checks()
        assert len(names) == len(set(names)) == 9
        assert [name for name, _, _ in VERIFY_CHECKS] == names
        assert run_main("--out", str(tmp_path), "verify") == EXIT_OK
        assert verify_statuses(capsys.readouterr().out) == [("PASS", name) for name in names]
        # Under an ordering that does not reduce, every check but the first
        # reads the reduced problem, so every check but the first fails.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ordering": {"alpha": -0.4, "beta": -0.2, "gamma": -0.4}}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_NUMERIC
        statuses = ["PASS"] + ["FAIL"] * 8
        assert verify_statuses(capsys.readouterr().out) == list(zip(statuses, names))

    @pytest.mark.parametrize("b1, mu, rel", [(-0.76, "2.000e-02", "7.149e-03"), (-0.7501, "2.000e-04", "2.130e+03")])
    def test_level_below_grid_floor_is_a_numerical_failure(self, tmp_path, capsys, b1, mu, rel):
        # The x channel's top level is shallower than auto_grid_1d's mu floor,
        # so the grid's right wall cuts off its tail.  The closed form itself
        # is right: pde-residual and orthogonality pass.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": b1}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert (
            f"FAIL 1d-oracle: x-axis level 1 has mu = {mu}, below the 1D oracle grid's floor 0.05, "
            f"which cuts off its tail (relative error {rel})"
        ) in out
        assert [status for status in verify_statuses(out) if status[0] != "PASS"] == [("FAIL", "1d-oracle")]
        assert "first failing check: 1d-oracle" in out

    def test_level_just_above_grid_floor_passes_1d_oracle(self, tmp_path, capsys):
        # The x channel's top level has mu = 0.035, so the grid holds it.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": -0.7675}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_OK
        assert "PASS 1d-oracle: max relative eigenvalue error 7.108e-05" in capsys.readouterr().out

    def test_held_level_violation_outranks_a_level_below_grid_floor(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        import pdmorse.checks

        real = pdmorse.checks.energy_1d
        monkeypatch.setattr(
            pdmorse.checks, "energy_1d",
            lambda ch, m: replace(real(ch, m), epsilon=real(ch, m).epsilon * 1.001) if m == 0 else real(ch, m),
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": -0.76}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_INVARIANT
        assert "FAIL 1d-oracle: 1D oracle disagreement 9.990e-04" in capsys.readouterr().out

    def test_default_config_passes(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "verify") == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") == 9
        assert "PASS 1d-oracle: max relative eigenvalue error 4.16" in out
        assert "PASS node-counts: node counts match m (x: m <= 1, y: m <= 1)\n" in out
        assert "PASS orthogonality: x: <0|1> = 1.941e-17, y: <0|1> = 1.941e-17\n" in out

    def test_model_bound_only_along_y_checks_y(self, tmp_path, capsys):
        # The x channel binds nothing at E = r; the potential is unbounded.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": 0, "g1": 0}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_NUMERIC
        out = capsys.readouterr().out.splitlines()
        assert "PASS node-counts: node counts match m (y: m <= 1)" in out
        assert "PASS orthogonality: y: <0|1> = 1.941e-17" in out

    @pytest.mark.parametrize(
        "data, oracle_1d, nodes, overlaps",
        [
            # At E = r the x channel has lam = 0.4 and binds nothing: only y is checked.
            (
                {"b1": -0.2}, "PASS 1d-oracle: max relative eigenvalue error 4.163e-08 (Richardson, h and h/2)",
                "node counts match m (y: m <= 1)", "y: <0|1> = 1.941e-17",
            ),
            # x binds level 0 alone: its nodes are counted, but it has no pair to overlap.
            (
                {"b1": -0.3}, "PASS 1d-oracle: max relative eigenvalue error 3.960e-07 (Richardson, h and h/2)",
                "node counts match m (x: m <= 0, y: m <= 1)", "y: <0|1> = 1.941e-17",
            ),
            # Neither channel holds a level at E = r.
            (
                {"b1": -0.2, "b3": -0.2}, "PASS 1d-oracle: skipped: no channel holds a level at r",
                "skipped: no channel holds a level at r", "skipped: fewer than two levels",
            ),
            # At x = -2 the mass is 9e6 times m0, so reduction-identity reads a relative defect.
            (
                {"a1": 4}, "PASS 1d-oracle: max relative eigenvalue error 4.163e-08 (Richardson, h and h/2)",
                "node counts match m (y: m <= 1)", "y: <0|1> = 1.941e-17",
            ),
            # At E = r each channel's level 0 has mu = 707, where N underflows and the bare
            # state overflows; the states hold, but 4000 nodes cannot resolve the levels.
            (
                {"b2": 1e-6, "b4": 1e-6}, "FAIL 1d-oracle: 1D oracle disagreement 4.882e+04",
                "node counts match m (x: m <= 4, y: m <= 4)", "x: <0|1> = 1.242e-12, y: <0|1> = 1.242e-12",
            ),
        ],
        ids=["x-binds-none", "x-binds-one", "neither-binds", "steep-x-mass", "deep-channels"],
    )
    def test_channel_checks_read_the_channels_that_hold_a_level(
        self, tmp_path, capsys, data, oracle_1d, nodes, overlaps
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        oracle_status = oracle_1d.split()[0]
        code = run_main("--config", str(path), "--out", str(tmp_path), "verify")
        assert code == (EXIT_OK if oracle_status == "PASS" else EXIT_INVARIANT)
        out, err = capsys.readouterr()
        assert err == ""
        assert verify_statuses(out) == [
            (oracle_status if name == "1d-oracle" else "PASS", name) for name in readme_verify_checks()
        ]
        assert f"{oracle_1d}\n" in out
        assert f"PASS node-counts: {nodes}\n" in out
        assert f"PASS orthogonality: {overlaps}\n" in out
        assert out.endswith("all checks passed\n" if oracle_status == "PASS" else "first failing check: 1d-oracle\n")

    def test_no_fully_valid_level_skips_pde_residual(self, tmp_path, capsys):
        # With no x dependence the x channel binds nothing: no level to check.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"g1": 0, "g2": 0, "b1": 0, "b2": 0}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_OK
        out = capsys.readouterr().out
        assert verify_statuses(out) == [("PASS", name) for name in readme_verify_checks()]
        assert "PASS pde-residual: skipped: no fully valid levels\n" in out

    def test_corrupt_y_states_fail_node_counts_and_orthogonality(self, tmp_path, capsys, monkeypatch):
        import pdmorse.checks

        data = {"a2": 1.3, "b3": -1.1, "g3": 0.4}
        model = config_from_dict(data).model
        chx, chy = channels_at(model, model.pot.r)
        assert chx != chy
        # |phi| erases level 1's node and makes it overlap level 0; x stays exact.
        real = pdmorse.checks.wavefunction_1d
        monkeypatch.setattr(
            pdmorse.checks, "wavefunction_1d", lambda ch, s, t: np.abs(real(ch, s, t)) if ch == chy else real(ch, s, t)
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_main("--config", str(path), "--out", str(tmp_path), "verify") == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert [status for status in verify_statuses(out) if status[0] != "PASS"] == [
            ("FAIL", "node-counts"), ("FAIL", "orthogonality")
        ]
        assert "FAIL node-counts: y-axis level 1 shows 0 sign changes" in out
        assert "FAIL orthogonality: y-axis levels 0 and 1 overlap " in out

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

        import pdmorse.checks

        real = pdmorse.checks.energy_1d

        def moved(ch, m):
            state = real(ch, m)
            return replace(state, epsilon=state.epsilon * (1.0 + 1e-3)) if m == level else state

        monkeypatch.setattr(pdmorse.checks, "energy_1d", moved)
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
        assert code == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "first failing check: reduction-identity" in out
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL {name}: the reduced problem requires the ordering with vanishing mass-gradient "
            "coefficients (alpha=gamma=-1/2, beta=0); got OrderingParams(alpha=0.0, beta=-1.0, gamma=0.0)"
            for name, _, _ in VERIFY_CHECKS[1:]
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

    def test_moved_root_fails_back_substitution(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        import pdmorse.cli

        real = pdmorse.cli.enumerate_spectrum

        def moved(model, variant, *args):
            # The printed (0,0) root moves by 1e-6 and keeps the residual stored
            # at its true energy; the first-principles spectrum stays exact.
            entries = real(model, variant, *args)
            if variant.value == "paper-printed":
                entries = [replace(e, energy=e.energy + 1e-6) if (e.m, e.n) == (0, 0) else e for e in entries]
            return entries

        monkeypatch.setattr(pdmorse.cli, "enumerate_spectrum", moved)
        assert run_main("--variant", "paper-printed", "--out", str(tmp_path), "verify") == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert [status for status in verify_statuses(out) if status[0] != "PASS"] == [("FAIL", "back-substitution")]
        assert "FAIL back-substitution: (0,0) residual " in out

    def test_unmirrored_duplicate_root_fails_degeneracy(self, tmp_path, capsys, monkeypatch):
        import pdmorse.cli

        real = pdmorse.cli.enumerate_spectrum

        def duplicated(*args):
            # A second (0,1) root at the same energy, with no second (1,0) root.
            entries = real(*args)
            i = next(i for i, e in enumerate(entries) if (e.m, e.n) == (0, 1))
            return entries[: i + 1] + entries[i:]

        monkeypatch.setattr(pdmorse.cli, "enumerate_spectrum", duplicated)
        assert run_main("--out", str(tmp_path), "verify") == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert [status for status in verify_statuses(out) if status[0] != "PASS"] == [("FAIL", "degeneracy")]
        assert "FAIL degeneracy: (0,1) roots differ from (1,0)'s\n" in out

    @pytest.mark.parametrize("variant", ["first-principles", "paper-printed"])
    def test_asymmetric_row_fails_degeneracy(self, tmp_path, capsys, monkeypatch, variant):
        from pdmorse import spectrum

        terms = spectrum._TERMS[spectrum.Variant(variant)]
        real = terms._row

        def skewed(self, axis, q):
            # The y rows move by a few ulps: the mirrored roots still copy their
            # energies, but F(m, n) and F(n, m) now differ in the last bits.
            row, undefined = real(self, axis, q)
            return (row * (1.0 + 2.0**-50) if axis == 1 else row), undefined

        monkeypatch.setattr(terms, "_row", skewed)
        assert run_main("--variant", variant, "--out", str(tmp_path), "verify") == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert [status for status in verify_statuses(out) if status[0] != "PASS"] == [("FAIL", "degeneracy")]
        assert re.search(r"^FAIL degeneracy: F\((\d),(\d)\) = \S+ but F\(\2,\1\) = \S+ at E = \S+$", out, re.M)

    @pytest.mark.parametrize("variant", ["first-principles", "paper-printed"])
    def test_window_error_reported_by_each_check_that_needs_it(self, tmp_path, capsys, variant):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": 0.0, "b2": 0.0, "b3": 0.0, "b4": 0.0, "g1": 0.0, "g3": 0.0}))
        code = run_main("--config", str(path), "--variant", variant, "--out", str(tmp_path), "verify")
        assert code == EXIT_NUMERIC
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


def readme_exit_codes() -> list[tuple[tuple[str, ...], int, str]]:
    """(error type names, exit code, stderr label) of each row of README's exit-code table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| (.+) \| (\d) \| `([a-z ]+)` \|$", section, flags=re.M)
    return [(tuple(re.findall(r"`([A-Z]\w*)`", types)), int(code), label) for types, code, label in rows]


def pdmorse_errors() -> list[Exception]:
    """One instance of every PdmorseError subclass in pdmorse.errors, the base included."""
    args = {errors.EvaluationOverflow: ("V", 1.0), errors.Unbounded: (1.0, 1.0, -1.0)}
    types = [t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.PdmorseError)]
    return [t(*args.get(t, ("boom",))) for t in types]


class TestFailureTable:
    """main and verify give an error the exit code of its row in the one table README shows."""

    def test_readme_shows_the_table(self):
        rows = readme_exit_codes()
        assert len(rows) == 4
        assert rows == [(tuple(t.__name__ for t in types), code, label) for types, code, label in FAILURES]

    def test_every_error_type_is_covered(self):
        assert len(pdmorse_errors()) == 12

    @pytest.mark.parametrize(
        "exc", [*pdmorse_errors(), ZeroDivisionError("float division by zero")], ids=lambda exc: type(exc).__name__
    )
    def test_main_and_verify_exit_alike(self, tmp_path, capsys, monkeypatch, exc):
        import pdmorse.cli

        def fail(*args):
            raise exc

        monkeypatch.setattr(pdmorse.cli, "energy_window", fail)
        code = run_main("oracle", "--m", "0", "--n", "0")
        names = {t.__name__ for t in type(exc).__mro__}
        expected, label = next((c, lab) for types, c, lab in readme_exit_codes() if names & set(types))
        assert (code, capsys.readouterr().err) == (expected, f"{label}: {exc}\n")
        # Raised while verify resolves its study, and raised by a check itself.
        monkeypatch.setattr(pdmorse.cli, "VERIFY_CHECKS", (("study", lambda cfg, *study: "read", True),))
        assert run_main("verify") == code
        monkeypatch.setattr(pdmorse.cli, "VERIFY_CHECKS", (("own", fail, False),))
        assert run_main("verify") == code
        out = capsys.readouterr().out
        assert f"FAIL study: {exc}\n" in out and f"FAIL own: {exc}\n" in out

    @pytest.mark.parametrize(
        "data",
        [
            {"b1": 0, "g1": 0},
            {"b1": 0, "b2": 0, "b3": 0, "b4": 0, "g1": 0, "g3": 0},
            {"ordering": {"alpha": -0.4, "beta": -0.2, "gamma": -0.4}},
        ],
        ids=["unbounded", "flat-window", "non-reducing-ordering"],
    )
    def test_verify_exits_as_oracle_does(self, tmp_path, capsys, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert run_main("--config", str(path), "oracle", "--m", "0", "--n", "0") == EXIT_NUMERIC
        assert run_main("--config", str(path), "verify") == EXIT_NUMERIC


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
        assert "reference shows 59 energy inversions, e.g. (m,n)=(0,0) at -0.0669873 above (1,3) at -0.161438\n" in out

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

    def test_uses_configured_root_tolerance(self, tmp_path):
        # A coarse root tolerance moves E(0,0) by ~9e-8; the table must report
        # the very roots that spectrum writes under the same config.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tolerances": {**TOLS, "root": 0.001}}))
        for command in ("spectrum", "compare-table"):
            assert run_main("--config", str(path), "--out", str(tmp_path), command) == EXIT_OK
        spectrum = {(r["m"], r["n"]): r["E"] for r in read_csv(tmp_path / "spectrum.csv")}
        found = [r for r in read_csv(tmp_path / "table_compare.csv") if r["E_fp"] != "nan"]
        assert len(found) == 6
        for r in found:
            assert r["E_fp"] == spectrum[(r["m"], r["n"])], (r["m"], r["n"])


class TestOracleCommand:
    def test_cross_check_ground_level(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "oracle", "--m", "0", "--n", "0") == EXIT_OK
        out = capsys.readouterr().out
        assert "finite-difference energy (0,0)" in out
        assert "closed-form root" in out

    @pytest.mark.parametrize(
        "m, n, line",
        [
            ("0", "0", "finite-difference energy (0,0): -0.2020160822829784"),
            ("2", "1", "finite-difference energy (2,1): 0.32509889909050038"),
        ],
    )
    def test_default_config_energies_pinned(self, tmp_path, capsys, m, n, line):
        assert run_main("--out", str(tmp_path), "oracle", "--m", m, "--n", n) == EXIT_OK
        assert line in capsys.readouterr().out.splitlines()

    def test_level_the_closed_form_rules_out(self, tmp_path, capsys):
        # Below E = 0.05 the x channel binds nothing, but the Dirichlet box
        # always binds a lowest state, so the oracle still finds a (0,0).
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b1": -0.2}))
        assert run_main("--config", str(path), "--out", str(tmp_path), "oracle", "--m", "0", "--n", "0") == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == (
            "finite-difference energy (0,0): -0.028058925521836135\n"
            "closed form found no root for these quantum numbers\n"
        )
        assert captured.err == ""

    def test_no_bracket_exits_numeric(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"window": {"lo": 0.95, "hi": 1.0}}))
        code = run_main("--config", str(path), "--out", str(tmp_path), "oracle", "--m", "0", "--n", "0")
        assert code == EXIT_NUMERIC
        assert "no sign change" in capsys.readouterr().err

    def test_negative_quantum_number_exits_config_error(self, tmp_path, capsys):
        assert run_main("--out", str(tmp_path), "oracle", "--m", "-1", "--n", "0") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quantum numbers must be non-negative, got (-1, 0)\n"

    def test_level_beyond_grid_exits_numeric(self, tmp_path, capsys):
        # Level 200 needs 201 eigenvalues of a 1D operator with 190 interior nodes.
        assert run_main("--out", str(tmp_path), "oracle", "--m", "200", "--n", "0") == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: requested 201 levels but grid has 190 interior nodes\n"

    def test_lapack_failure_exits_numeric(self, monkeypatch, capsys):
        # The oracle imports dstebz at call time, so the patched module attribute is the one it calls.
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", failing_dstebz)
        assert main(["oracle", "--m", "0", "--n", "0"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: tridiagonal eigensolve failed: LAPACK dstebz info=1\n"


class TestMissingOutputDirectory:
    @pytest.mark.parametrize(
        "argv, csv_name",
        [
            (["spectrum"], "spectrum.csv"),
            (["fields", "--which", "psi", "--m", "0", "--n", "0"], "field.csv"),
            (["compare-table"], "table_compare.csv"),
        ],
        ids=["spectrum", "fields", "compare-table"],
    )
    def test_exits_config_error_before_computing(self, tmp_path, capsys, monkeypatch, argv, csv_name):
        import pdmorse.cli

        def no_window(*args):
            raise AssertionError("computed before checking --out")

        monkeypatch.setattr(pdmorse.cli, "energy_window", no_window)
        missing = tmp_path / "no" / "such"
        assert run_main("--out", str(missing), *argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output directory {str(missing)!r} is not an existing directory\n"
        assert not (tmp_path / "no").exists()


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

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # The closed-form path never needs scipy; only the FD oracle imports it.
        cp = subprocess.run(
            [sys.executable, "-c", "import sys, pdmorse; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.strip() == "False"
        # Nor do the cli-session commands that stay off the oracle, each run through cli.main.
        run = "import sys; from pdmorse import cli; code = cli.main(sys.argv[1:]); print(code, 'scipy' in sys.modules)"
        for args in (
            ["spectrum"],
            ["fields", "--which", "psi", "--m", "0", "--n", "0"],
            ["fields", "--which", "potential"],
            ["compare-table"],
        ):
            argv = [sys.executable, "-c", run, "--out", str(tmp_path), *args]
            cp = subprocess.run(argv, capture_output=True, text=True)
            assert cp.returncode == 0, cp.stderr
            assert cp.stdout.splitlines()[-1] == "0 False", args

    def test_module_spectrum_smoke(self, tmp_path):
        cp = subprocess.run(
            [sys.executable, "-m", "pdmorse", "--out", str(tmp_path), "spectrum"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 0, cp.stderr
        assert (tmp_path / "spectrum.csv").exists()

    def test_ueff_overflow_is_one_numerical_failure(self, tmp_path):
        # 10 e^{-2x} overflows on the grid's first column, x = -354: one typed error
        # on stderr, no numpy warning there, and no field.csv.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"g2": 10.0, "b2": 10.0, "grid": {**GRID, "x0": -354.0}}))
        cp = subprocess.run(
            [sys.executable, "-m", "pdmorse", "--config", str(config), "--out", str(tmp_path), "fields", "--which", "ueff"],
            capture_output=True,
            text=True,
        )
        assert cp.returncode == 2
        assert cp.stderr == "numerical failure: u_eff overflowed to a non-finite value at x=-354.0, y=-2.0\n"
        assert not (tmp_path / "field.csv").exists()
