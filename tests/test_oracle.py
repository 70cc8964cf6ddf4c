import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from pdmorse import (
    EnergyWindow,
    Grid1D,
    Grid2D,
    GridTooSmall,
    NoBracket,
    OrderingNotSolvable,
    Unbounded,
    auto_grid_1d,
    energy_1d,
    energy_window,
    fd_eigen_1d,
    fd_eigen_2d,
    m_max,
    minimize_potential,
    oracle_energy_2d,
    potential_at,
)
from pdmorse import oracle
from pdmorse.model import MassParams, Model, OrderingParams, PotentialParams
from tests.conftest import draw_supported_channels, supported_models


def linear_scan_energy(model, m, n, window, grid, tol=1e-8, scan_points=64):
    """oracle_energy_2d as a linear scan over every node: the search reference."""
    g_of = lambda e: oracle._level_defect(model, m, n, grid, e)
    es = np.linspace(window.lo, window.hi, scan_points)
    vals = [g_of(float(e)) for e in es]
    for i in range(scan_points - 1):
        if vals[i] == 0.0:
            return float(es[i])
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi, _, _ = oracle._bisect(g_of, float(es[i]), float(es[i + 1]), vals[i], vals[i + 1], tol)
            return 0.5 * (lo + hi)
    raise NoBracket("no sign change")


def outcome(f, *args, **kwargs):
    """A call's float.hex result, or the exception type it raised."""
    try:
        return float(f(*args, **kwargs)).hex()
    except NoBracket:
        return NoBracket


class TestFdEigen1D:
    def test_particle_in_a_box(self):
        r = fd_eigen_1d(lambda x: np.zeros_like(x), Grid1D(0.0, math.pi, 2000), 3)
        assert np.allclose(r.eigenvalues, [1.0, 4.0, 9.0], atol=1e-3)

    def test_harmonic_oscillator(self):
        r = fd_eigen_1d(lambda x: x**2, Grid1D(-12.0, 12.0, 4000), 3)
        assert np.allclose(r.eigenvalues, [1.0, 3.0, 5.0], atol=1e-4)

    def test_reference_morse_channel(self, paper_channel):
        # Closed forms give -2.25 and -0.25.  On the auto-sized domain the
        # n=4000 stencil reproduces both to a few parts in 1e5; the fixed
        # [-12, 40] domain is wastefully wide (h grows 2.4x) and lands at
        # 1.18e-4 relative on the top level, so it gets the honest bound.
        exact = [-2.25, -0.25]
        r = fd_eigen_1d(paper_channel.potential, auto_grid_1d(paper_channel, 4000), 3)
        for lam, eps in zip(r.eigenvalues[:2], exact):
            assert abs(lam - eps) / abs(eps) < 1e-4
        assert int(np.sum(r.eigenvalues < 0)) == 2

        wide = fd_eigen_1d(paper_channel.potential, Grid1D(-12.0, 40.0, 4000), 3)
        for lam, eps in zip(wide.eigenvalues[:2], exact):
            assert abs(lam - eps) / abs(eps) < 2e-4
        assert int(np.sum(wide.eigenvalues < 0)) == 2

    def test_requesting_too_many_levels(self):
        with pytest.raises(GridTooSmall):
            fd_eigen_1d(lambda x: np.zeros_like(x), Grid1D(0.0, 1.0, 16), 15)

    def test_order_two_convergence_box(self):
        # Halving h scales each eigenvalue error by ~4.
        e_exact = np.array([1.0, 4.0, 9.0])
        r1 = fd_eigen_1d(lambda x: np.zeros_like(x), Grid1D(0.0, math.pi, 501), 3)
        r2 = fd_eigen_1d(lambda x: np.zeros_like(x), Grid1D(0.0, math.pi, 1001), 3)
        ratio = np.abs(r1.eigenvalues - e_exact) / np.abs(r2.eigenvalues - e_exact)
        assert np.all(ratio > 3.2) and np.all(ratio < 4.8)

    def test_order_two_convergence_oscillator(self):
        e_exact = np.array([1.0, 3.0, 5.0])
        r1 = fd_eigen_1d(lambda x: x**2, Grid1D(-12.0, 12.0, 1001), 3)
        r2 = fd_eigen_1d(lambda x: x**2, Grid1D(-12.0, 12.0, 2001), 3)
        ratio = np.abs(r1.eigenvalues - e_exact) / np.abs(r2.eigenvalues - e_exact)
        assert np.all(ratio > 3.2) and np.all(ratio < 4.8)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 100)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 8)


class TestRandomizedOracleEquivalence:
    def test_closed_forms_match_fd(self):
        # Channels drawn from the documented ranges (rejecting near-threshold
        # top levels and >3-level channels; see conftest).  Every closed-form
        # level must match the n=4000 oracle to 1e-4 relative, and the count
        # of negative FD eigenvalues must equal the closed-form level count.
        channels = draw_supported_channels(20240811, 12)
        assert len(channels) >= 10
        for ch in channels:
            top = m_max(ch)
            r = fd_eigen_1d(ch.potential, auto_grid_1d(ch, 4000), top + 2)
            assert int(np.sum(r.eigenvalues < 0)) == top + 1
            for m in range(top + 1):
                eps = energy_1d(ch, m).epsilon
                assert abs(r.eigenvalues[m] - eps) / abs(eps) < 1e-4


_MIXED = lambda X, Y: X**2 + Y**2 + X * Y + np.sin(X - 2.0 * Y)
# Strong coupling: the separable minorant behind the Lanczos shift is loose.
_COUPLED = lambda X, Y: 4.0 * (X - Y) ** 2 + 0.25 * (X + Y) ** 2


class TestFdEigen2D:
    def test_box_modes(self):
        grid = Grid2D(Grid1D(0.0, math.pi, 201), Grid1D(0.0, math.pi, 201))
        r = fd_eigen_2d(lambda X, Y: np.zeros_like(X), grid, 1)
        assert abs(r.eigenvalues[0] - 2.0) < 5e-3

    def test_separable_oscillator(self):
        grid = Grid2D(Grid1D(-10.0, 10.0, 801), Grid1D(-10.0, 10.0, 801))
        r = fd_eigen_2d(lambda X, Y: X**2 + Y**2, grid, 1)
        assert abs(r.eigenvalues[0] - 2.0) < 1e-3

    def test_separable_and_lanczos_agree(self, reference_model):
        from pdmorse import ueff_at

        u = lambda X, Y: 2.0 * ueff_at(reference_model, 0.0, X, Y)
        grid = Grid2D(Grid1D(-3.0, 12.0, 61), Grid1D(-3.0, 12.0, 61))
        sep = fd_eigen_2d(u, grid, 6, method="separable")
        lan = fd_eigen_2d(u, grid, 6, method="lanczos")
        assert np.max(np.abs(sep.eigenvalues - lan.eigenvalues)) < 1e-8

    def test_auto_uses_separable_for_sums(self):
        grid = Grid2D(Grid1D(-6.0, 6.0, 101), Grid1D(-6.0, 6.0, 101))
        auto = fd_eigen_2d(lambda X, Y: X**2 + Y**2, grid, 4)
        sep = fd_eigen_2d(lambda X, Y: X**2 + Y**2, grid, 4, method="separable")
        assert np.array_equal(auto.eigenvalues, sep.eigenvalues)

    def test_separable_rejects_coupled_potential(self):
        grid = Grid2D(Grid1D(-4.0, 4.0, 41), Grid1D(-4.0, 4.0, 41))
        with pytest.raises(ValueError):
            fd_eigen_2d(lambda X, Y: X**2 + Y**2 + X * Y, grid, 2, method="separable")

    @pytest.mark.parametrize(
        "u, k",
        [
            pytest.param(u, k, id=f"{name}{k}")
            for name, u in (
                ("", _MIXED),
                ("coupled-", _COUPLED),
                # The shift must not depend on the units of u.
                ("milli-", lambda X, Y: 1e-3 * _MIXED(X, Y)),
                ("kilo-", lambda X, Y: 1e3 * _MIXED(X, Y)),
            )
            for k in (1, 10)
        ],
    )
    def test_lanczos_matches_dense_nonseparable(self, u, k):
        # The 5-point operator on 22 x 24 interior nodes with unequal
        # spacings, assembled node by node and solved densely.
        grid = Grid2D(Grid1D(-5.0, 5.0, 24), Grid1D(-4.0, 6.0, 26))
        x, y = grid.x.interior(), grid.y.interior()
        nx, ny = len(x), len(y)
        cx, cy = 1.0 / grid.x.h**2, 1.0 / grid.y.h**2
        a = np.zeros((nx * ny, nx * ny))
        for j in range(ny):
            for i in range(nx):
                p = j * nx + i
                a[p, p] = 2.0 * cx + 2.0 * cy + u(x[i], y[j])
                for q, c, inside in ((p - 1, cx, i > 0), (p + 1, cx, i < nx - 1),
                                     (p - nx, cy, j > 0), (p + nx, cy, j < ny - 1)):
                    if inside:
                        a[p, q] = -c
        dense = np.linalg.eigvalsh(a)[:k]
        lan = fd_eigen_2d(u, grid, k, method="lanczos").eigenvalues
        assert np.max(np.abs(lan - dense)) < 1e-10

    @pytest.mark.parametrize("coupled", [False, True], ids=["separable", "coupled"])
    def test_lanczos_shift_between_min_and_ground(self, reference_model, monkeypatch, coupled):
        # min u < sigma < lam_1; for a separable u the Weyl bound is lam_1
        # itself, so sigma sits a tenth of the way from lam_1 down to min u.
        import scipy.sparse.linalg

        from pdmorse import ueff_at

        shifts = []
        real = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **kw: shifts.append(kw["sigma"]) or real(*a, **kw))
        if coupled:
            u = _COUPLED
            grid = Grid2D(Grid1D(-5.0, 5.0, 24), Grid1D(-4.0, 6.0, 26))
        else:
            u = lambda X, Y: 2.0 * ueff_at(reference_model, 0.0, X, Y)
            grid = Grid2D(Grid1D(-3.0, 12.0, 61), Grid1D(-3.0, 12.0, 61))
        lam1 = fd_eigen_2d(u, grid, 1, method="lanczos").eigenvalues[0]
        u_min = float(np.min(u(*np.meshgrid(grid.x.interior(), grid.y.interior()))))
        assert u_min < shifts[0] < lam1
        if not coupled:
            assert lam1 - shifts[0] == pytest.approx(0.1 * (lam1 - u_min), rel=1e-9)

    def test_lanczos_handles_nonseparable(self):
        # Coupled oscillator: normal modes with frequencies sqrt(1 +/- 1/2);
        # ground energy is their average-sum sqrt(3/2) + sqrt(1/2).
        grid = Grid2D(Grid1D(-9.0, 9.0, 181), Grid1D(-9.0, 9.0, 181))
        r = fd_eigen_2d(lambda X, Y: X**2 + Y**2 + X * Y, grid, 1)
        want = math.sqrt(1.5) + math.sqrt(0.5)
        assert abs(r.eigenvalues[0] - want) < 5e-3


class TestOracleEnergy2D:
    SEARCH_GRID = Grid2D(Grid1D(-4.0, 12.0, 48), Grid1D(-4.0, 12.0, 48))

    def test_ground_level_against_closed_form(self, reference_model):
        window = EnergyWindow(-0.40692966918274637, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
        e = oracle_energy_2d(reference_model, 0, 0, window, grid)
        e_closed = (math.sqrt(29.0) - 7.0) / 8.0
        assert abs(e - e_closed) < 1e-3

    def test_nonreducing_ordering_raises(self, reference_model):
        model = replace(reference_model, ordering=OrderingParams(-0.4, -0.2, -0.4))
        with pytest.raises(OrderingNotSolvable, match="per-axis reduced operators"):
            oracle_energy_2d(model, 0, 0, EnergyWindow(-0.4, 1.0), self.SEARCH_GRID)

    def test_readme_grid_errors(self, reference_model):
        # README: on 192^2 over [-4, 12] the oracle misses the six distinct
        # first-principles levels by these amounts (three significant figures).
        window = energy_window(reference_model)
        grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
        stated = {
            (0, 0, (math.sqrt(29.0) - 7.0) / 8.0): 1.28e-4,
            (0, 1, (math.sqrt(21.0) - 5.0) / 8.0): 2.00e-4,
            (1, 1, (math.sqrt(21.0) - 3.0) / 8.0): 6.42e-4,
            (1, 2, (math.sqrt(13.0) - 1.0) / 8.0): 4.88e-5,
            (2, 2, (math.sqrt(13.0) + 1.0) / 8.0): 1.60e-3,
            (3, 3, (5.0 + math.sqrt(5.0)) / 8.0): 2.05e-3,
        }
        for (m, n, exact), err in stated.items():
            got = abs(oracle_energy_2d(reference_model, m, n, window, grid) - exact)
            assert got == pytest.approx(err, rel=5e-3), (m, n)

    def test_zero_tolerance_terminates(self, reference_model, monkeypatch):
        from pdmorse import oracle

        window = EnergyWindow(-0.40692966918274637, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 32), Grid1D(-4.0, 12.0, 32))
        e_tol = oracle_energy_2d(reference_model, 0, 0, window, grid)
        # 64 scan points, then a bracket halves to a few float spacings in
        # fewer than 64 steps; each G(E) costs two 1D eigensolves.
        calls = []
        real = oracle.fd_eigen_1d

        def capped(*args, **kwargs):
            calls.append(1)
            if len(calls) > 2 * (64 + 64):
                raise RuntimeError("bisection is not narrowing the bracket")
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "fd_eigen_1d", capped)
        e = oracle_energy_2d(reference_model, 0, 0, window, grid, tol=0.0)
        assert abs(e - e_tol) < 1e-8

    def test_no_bracket_refuses(self, reference_model):
        window = EnergyWindow(0.95, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 64), Grid1D(-4.0, 12.0, 64))
        with pytest.raises(NoBracket):
            oracle_energy_2d(reference_model, 0, 0, window, grid)

    @pytest.mark.parametrize("scan_points", [17, 64, 100])
    @pytest.mark.parametrize("fixture", ["reference_model", "asymmetric_model"])
    def test_node_search_matches_linear_scan(self, request, fixture, scan_points):
        # Bitwise: the search must land in the linear scan's cell, after which
        # bisection repeats the same evaluations.
        model = request.getfixturevalue(fixture)
        window = energy_window(model)
        for m, n in ((0, 0), (1, 0), (0, 2), (2, 1), (1, 3), (4, 4)):
            args = (model, m, n, window, self.SEARCH_GRID)
            want = outcome(linear_scan_energy, *args, scan_points=scan_points)
            assert outcome(oracle_energy_2d, *args, scan_points=scan_points) == want, (m, n)

    @pytest.mark.parametrize(
        "root, want", [(0.0, 0.0), (0.25, 0.25), (0.3, None), (1.0, NoBracket), (-0.5, NoBracket), (1.5, NoBracket)]
    )
    def test_node_zeros_and_missing_brackets(self, reference_model, monkeypatch, root, want):
        # G = root - E on the nodes k/16 of [0, 1]: an exact zero at a node is
        # returned as that node; a zero only at the last node is no bracket.
        monkeypatch.setattr(oracle, "_level_defect", lambda model, m, n, grid, e: root - e)
        args = (reference_model, 0, 0, EnergyWindow(0.0, 1.0), self.SEARCH_GRID)
        got = outcome(oracle_energy_2d, *args, scan_points=17)
        assert got == outcome(linear_scan_energy, *args, scan_points=17)
        if want is not None:
            assert got == (want if want is NoBracket else want.hex())

    @pytest.mark.parametrize("scan_points", [17, 64, 100])
    def test_scan_stage_is_logarithmic(self, reference_model, monkeypatch, scan_points):
        solves, before_bisect = [], []
        real_eigen, real_bisect = oracle.fd_eigen_1d, oracle._bisect

        def counted(*args, **kwargs):
            solves.append(1)
            return real_eigen(*args, **kwargs)

        def bisect(*args, **kwargs):
            before_bisect.append(len(solves))
            return real_bisect(*args, **kwargs)

        monkeypatch.setattr(oracle, "fd_eigen_1d", counted)
        monkeypatch.setattr(oracle, "_bisect", bisect)
        window = energy_window(reference_model)
        oracle_energy_2d(reference_model, 0, 0, window, self.SEARCH_GRID, scan_points=scan_points)
        # Each G(E) costs two 1D eigensolves.
        assert before_bisect and before_bisect[0] <= 2 * (2 + math.ceil(math.log2(scan_points - 1)))

    def test_bisect_returns_final_bracket(self):
        f = lambda x: x - 0.3
        lo, hi, flo, fhi = oracle._bisect(f, 0.0, 1.0, f(0.0), f(1.0), 1e-6)
        assert lo < 0.3 < hi and hi - lo <= 1e-6
        assert (flo, fhi) == (f(lo), f(hi))
        # The first midpoint is an exact zero.
        f = lambda x: x - 0.5
        assert oracle._bisect(f, 0.0, 1.0, f(0.0), f(1.0), 1e-6) == (0.5, 0.5, 0.0, 0.0)

    def test_bisect_keeps_defined_side(self):
        # Undefined on [0.6, 1): the bracket closes on the edge of the defined
        # side, and its upper value is NaN.
        f = lambda x: x - 0.8 if x < 0.6 or x == 1.0 else math.nan
        lo, hi, flo, fhi = oracle._bisect(f, 0.0, 1.0, f(0.0), f(1.0), 1e-9)
        assert lo < 0.6 <= hi and hi - lo <= 1e-9
        assert flo == f(lo) and math.isnan(fhi)

    @given(drawn=supported_models())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_defect_strictly_decreasing(self, drawn):
        # The premise of the node search: at most one sign change over the nodes.
        model, window = drawn
        es = np.linspace(window.lo, window.hi, 64)
        for m, n in ((0, 0), (2, 1)):
            g = [oracle._level_defect(model, m, n, self.SEARCH_GRID, float(e)) for e in es]
            assert np.all(np.diff(g) < 0.0)


class TestMinimizePotential:
    def test_reference_minimum(self, reference_model):
        x, y, v = minimize_potential(reference_model)
        # Closed form: V* = (sqrt(33) - 9)/8 at x = y = -ln((sqrt(33)-1)/2).
        assert v == pytest.approx((math.sqrt(33.0) - 9.0) / 8.0, abs=1e-10)
        assert v == pytest.approx(-0.40693, abs=1e-4)
        assert x == pytest.approx(y, abs=1e-7)

    def test_gradient_and_curvature_at_minimizer(self, reference_model):
        x, y, _ = minimize_potential(reference_model)
        h = 1e-5
        gx = (potential_at(reference_model, x + h, y) - potential_at(reference_model, x - h, y)) / (2 * h)
        gy = (potential_at(reference_model, x, y + h) - potential_at(reference_model, x, y - h)) / (2 * h)
        assert math.hypot(gx, gy) < 1e-6
        cxx = (
            potential_at(reference_model, x + h, y)
            - 2 * potential_at(reference_model, x, y)
            + potential_at(reference_model, x - h, y)
        )
        cyy = (
            potential_at(reference_model, x, y + h)
            - 2 * potential_at(reference_model, x, y)
            + potential_at(reference_model, x, y - h)
        )
        assert cxx > 0 and cyy > 0

    def test_monotone_potential_reports_unbounded(self):
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=1.0, g2=0.0, g3=1.0, g4=0.0, a1=1.0, a2=1.0),
            pot=PotentialParams(r=0.0, a=1.0, b1=0, b2=0, b3=0, b4=0),
            ordering=OrderingParams(-0.5, 0.0, -0.5),
        )
        with pytest.raises(Unbounded) as exc:
            minimize_potential(model)
        assert exc.value.value < 1.0  # boundary value carried in the error

    @pytest.mark.parametrize("flat_axis", ["x", "y"])
    def test_flat_axis_is_degenerate_not_unbounded(self, flat_axis):
        # V is constant along one axis, so its minimum lies on a whole line;
        # along the other axis (1 - q + q^2/8)/(1 + q) has minimum (sqrt(17) - 5)/4.
        well = dict(g=1.0, b=-1.0, b_sq=0.125)
        flat = dict(g=0.0, b=0.0, b_sq=0.0)
        wx, wy = (flat, well) if flat_axis == "x" else (well, flat)
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=wx["g"], g2=0.0, g3=wy["g"], g4=0.0, a1=1.0, a2=1.0),
            pot=PotentialParams(r=0.0, a=1.0, b1=wx["b"], b2=wx["b_sq"], b3=wy["b"], b4=wy["b_sq"]),
            ordering=OrderingParams(-0.5, 0.0, -0.5),
        )
        assert abs(energy_window(model).lo - (math.sqrt(17.0) - 5.0) / 4.0) < 1e-12

    def test_refinement_stays_in_scan_box(self):
        # The infimum is not attained inside the scan box; a refinement free to
        # leave the box follows the potential down until exp() overflows.
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=0.599, g1=1.262, g2=0.0133, g3=0.516, g4=0.0861, a1=1.466, a2=1.062),
            pot=PotentialParams(r=-0.241, a=0.742, b1=-0.612, b2=0.106, b3=-1.375, b4=0.122),
            ordering=OrderingParams(-0.5, 0.0, -0.5),
        )
        with pytest.raises(Unbounded) as exc:
            minimize_potential(model)
        assert -0.75 * (12.0 / 1.062) <= exc.value.y and exc.value.x <= 3.0 * (12.0 / 1.466)
