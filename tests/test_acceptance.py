"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every tolerance here is pinned; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from pdmorse import (
    EnergyWindow,
    Grid1D,
    Grid2D,
    Variant,
    energy_1d,
    energy_window,
    enumerate_spectrum,
    fd_eigen_1d,
    m_max,
    mass_derivatives,
    minimize_potential,
    oracle_energy_2d,
    pde_residual,
    potential_at,
    ueff_at,
    wavefunction_1d,
    xi_of,
)
from pdmorse.checks import check_backsub, check_degeneracy, check_ordering, check_window
from pdmorse.cli import main as cli_main
from pdmorse.effective import grad_coefficient, laplacian_coefficient
from pdmorse.morse1d import MorseChannel
from pdmorse.oracle import auto_grid_1d
from pdmorse.spectrum import is_xy_symmetric
from tests.conftest import draw_supported_channels, quad_overlap


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {detail}")


@pytest.fixture(scope="module")
def window(reference_model):
    return energy_window(reference_model)


@pytest.fixture(scope="module")
def fp_entries(reference_model, window):
    return enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 6)


def test_criterion_01_ordering_solution(reference_model):
    t0 = time.perf_counter()
    detail = check_ordering(reference_model)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1e-3
    report(1, f"{detail}, {elapsed * 1e6:.0f} us")


def test_criterion_02_potential_window(reference_model):
    t0 = time.perf_counter()
    _, _, vmin = minimize_potential(reference_model)
    w = energy_window(reference_model)
    elapsed = time.perf_counter() - t0
    assert vmin == pytest.approx(-0.40693, abs=1e-4)
    assert w.hi == 1.0
    assert elapsed < 1.0
    report(2, f"minimum {vmin:.6f} (target -0.40693 +/- 1e-4), hi = 1 exactly, {elapsed:.2f}s")


def test_criterion_03_reduction_identity(reference_model):
    t0 = time.perf_counter()
    model = reference_model
    xs = np.linspace(-2.0, 6.0, 41)
    X, Y = np.meshgrid(xs, xs)
    worst = 0.0
    for e in (-0.4, 0.0, 0.25, 0.6, 1.0):
        M, mx, my, mxx, myy = mass_derivatives(model.mass, X, Y)
        grad2 = (mx / M) ** 2 + (my / M) ** 2
        bracket = 2.0 * grad_coefficient(model.ordering) * grad2 - laplacian_coefficient(
            model.ordering
        ) * (mxx + myy) / M
        general = M * (potential_at(model, X, Y) - e) + model.hbar**2 / 4.0 * bracket + xi_of(model, e)
        worst = max(worst, float(np.max(np.abs(general - ueff_at(model, e, X, Y)))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    report(3, f"41x41 grid, 5 energies, max node defect {worst:.2e} < 1e-10, {elapsed:.2f}s")


def test_criterion_04_oneD_oracle_equivalence():
    t0 = time.perf_counter()
    channels = draw_supported_channels(20240811, 12)
    assert len(channels) >= 10
    worst = 0.0
    total_levels = 0
    for ch in channels:
        top = m_max(ch)
        total_levels += top + 1
        r = fd_eigen_1d(ch.potential, auto_grid_1d(ch), top + 2)
        assert int(np.sum(r.eigenvalues < 0)) == top + 1, f"level count mismatch for {ch}"
        for m in range(top + 1):
            eps = energy_1d(ch, m).epsilon
            worst = max(worst, abs(r.eigenvalues[m] - eps) / abs(eps))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    report(
        4,
        f"{len(channels)} channels / {total_levels} levels, worst relative error "
        f"{worst:.2e} < 1e-4, counts exact, {elapsed:.1f}s",
    )


def test_criterion_05_wavefunction_properties():
    t0 = time.perf_counter()
    # Node counts on a deep channel holding at least five levels.
    deep = MorseChannel(eta=-6.0, nu=0.25, alpha=0.5)
    xs = np.linspace(-10.0, 80.0, 8001)
    for m in range(5):
        s = energy_1d(deep, m)
        vals = wavefunction_1d(deep, s, xs)
        sig = vals[np.abs(vals) > 1e-10 * np.max(np.abs(vals))]
        assert int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1]))) == m

    # Orthogonality and the unit norm by quadrature on the reference channel.
    ch = MorseChannel(eta=-2.0, nu=0.25, alpha=1.0)
    s0, s1 = energy_1d(ch, 0), energy_1d(ch, 1)
    overlap = quad_overlap(ch, s0, s1)
    assert abs(overlap) < 1e-8

    norm_defect = abs(math.sqrt(quad_overlap(ch, s0, s0)) - 1.0)
    assert norm_defect < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        5,
        f"nodes == m for m <= 4, orthogonality {abs(overlap):.1e} < 1e-8, "
        f"|sqrt(<0|0>) - 1| = {norm_defect:.1e} < 1e-8 by quadrature, {elapsed:.1f}s",
    )


def test_criterion_06_spectrum_self_consistency(reference_model, window, fp_entries):
    t0 = time.perf_counter()
    # The degeneracy check compares mirror root lists only for symmetric parameters.
    assert is_xy_symmetric(reference_model)
    details = []
    for variant in Variant:
        study = (window, enumerate_spectrum(reference_model, variant, window, 6), fp_entries, 1e-6)
        rows = [check(reference_model, *study) for check in (check_backsub, check_window, check_degeneracy)]
        details.append(f"{variant.value}: {'; '.join(rows)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"back-substitution < 1e-10, window and exact mirror lists; {' | '.join(details)}, {elapsed:.1f}s")


def test_criterion_07_pde_residual(reference_model, fp_entries):
    t0 = time.perf_counter()
    grid = Grid2D(Grid1D(-2.0, 10.0, 101), Grid1D(-2.0, 10.0, 101))
    lowest = fp_entries[:3]
    worst = max(pde_residual(reference_model, e, grid) for e in lowest)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    report(7, f"three lowest levels on 101x101 grid, max relative residual {worst:.2e} < 1e-10, {elapsed:.1f}s")


def test_criterion_08_twoD_oracle_cross_check(reference_model, window, fp_entries):
    t0 = time.perf_counter()
    lowest = []
    for e in fp_entries:
        if (e.m, e.n) not in [(x.m, x.n) for x in lowest] and (e.n, e.m) not in [
            (x.m, x.n) for x in lowest
        ]:
            lowest.append(e)
        if len(lowest) == 3:
            break
    grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
    fine = Grid2D(Grid1D(-4.0, 12.0, 383), Grid1D(-4.0, 12.0, 383))  # exactly halves h
    details = []
    for e in lowest:
        num = oracle_energy_2d(reference_model, e.m, e.n, window, grid)
        num_fine = oracle_energy_2d(reference_model, e.m, e.n, window, fine)
        d, d_fine = abs(num - e.energy), abs(num_fine - e.energy)
        assert d < 1e-3, f"({e.m},{e.n}): |oracle - closed| = {d:.2e}"
        ratio = d / d_fine
        assert 3.0 < ratio < 5.6, f"({e.m},{e.n}): convergence ratio {ratio:.2f}"
        details.append(f"({e.m},{e.n}) d={d:.1e} ratio={ratio:.2f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(8, f"192x192 grid: {'; '.join(details)}; all < 1e-3 with ~4x shrink, {elapsed:.1f}s")


def test_criterion_09_table_investigation(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli_main(["--out", str(tmp_path), "compare-table"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "table_compare.csv").exists()
    lines = (tmp_path / "table_compare.csv").read_text().splitlines()
    assert len(lines) == 22  # header + all 21 reference levels
    assert "matches at 1e-05" in out
    assert "eight-fold cluster" in out
    assert "inversion" in out
    assert elapsed < 60.0

    # The empirical findings live in the README, as required.
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "0/21" in readme
    report(
        9,
        f"both variants evaluated against all 21 reference levels; "
        f"findings recorded in README, {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    code = cli_main(["--out", str(tmp_path), "spectrum"])
    assert code == 0
    csv_a = (tmp_path / "spectrum.csv").read_bytes()
    out_a = capsys.readouterr().out
    code = cli_main(["--out", str(tmp_path), "spectrum"])
    assert code == 0
    csv_b = (tmp_path / "spectrum.csv").read_bytes()
    out_b = capsys.readouterr().out
    assert csv_a == csv_b and out_a == out_b

    assert cli_main(["--out", str(tmp_path), "verify"]) == 0
    verify_a = capsys.readouterr().out
    assert cli_main(["--out", str(tmp_path), "verify"]) == 0
    verify_b = capsys.readouterr().out
    assert verify_a == verify_b
    report(10, "repeated spectrum and verify runs byte-identical (CSV and stdout)")
