import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorse import (
    EnergyWindow,
    EvaluationOverflow,
    Grid1D,
    Grid2D,
    GridTooSmall,
    InvalidLevel,
    MorseChannel,
    NoBracket,
    NotConverged,
    Unbounded,
    channels_at,
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
from pdmorse.oracle import auto_grid_1d
from tests.conftest import draw_supported_channels, failing_dstebz, supported_models


def box_modes(grid, k):
    """The lowest k Dirichlet eigenvalues of the three-point Laplacian on the grid."""
    j = np.arange(1, k + 1)
    return 2.0 / grid.h**2 * (1.0 - np.cos(j * math.pi / (grid.n - 1)))


def axis_operators(grid):
    """The (x, y) pair of three-point operators oracle_energy_2d builds for the 2D grid."""
    return oracle._ThreePoint(grid.x), oracle._ThreePoint(grid.y)


def tridiagonal_reference(potential, grid, first, last):
    """Levels first..last of the three-point operator by scipy's eigh_tridiagonal: the bitwise reference."""
    import scipy.linalg

    x = grid.interior()
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + np.broadcast_to(np.asarray(potential(x), dtype=float), x.shape)
    return scipy.linalg.eigh_tridiagonal(
        diag, np.full(grid.n - 3, -1.0 / h2), select="i", select_range=(first, last), eigvals_only=True
    )


def linear_scan_energy(model, m, n, window, grid, scan_points):
    """A linear scan over the nodes, then an ITP search of the bracketing cell: the search reference."""
    axes = axis_operators(grid)
    g_of = lambda e: oracle._level_defect(model, m, n, axes, e)
    es = np.linspace(window.lo, window.hi, scan_points)
    vals = [g_of(float(e)) for e in es]
    for i in range(scan_points - 1):
        if vals[i] == 0.0:
            return float(es[i])
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi, _, _ = oracle.itp(g_of, float(es[i]), float(es[i + 1]), vals[i], vals[i + 1], 1e-8)
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
        r = fd_eigen_1d(paper_channel.potential, auto_grid_1d(paper_channel), 3)
        for lam, eps in zip(r.eigenvalues[:2], exact):
            assert abs(lam - eps) / abs(eps) < 1e-4
        assert int(np.sum(r.eigenvalues < 0)) == 2

        wide = fd_eigen_1d(paper_channel.potential, Grid1D(-12.0, 40.0, 4000), 3)
        for lam, eps in zip(wide.eigenvalues[:2], exact):
            assert abs(lam - eps) / abs(eps) < 2e-4
        assert int(np.sum(wide.eigenvalues < 0)) == 2

    @pytest.mark.parametrize("eta, nu", [(-1.0, 0.0), (0.0, 1.0)], ids=["nu0", "eta0"])
    def test_auto_grid_needs_bound_states(self, eta, nu):
        with pytest.raises(NoBracket, match="channel with bound states"):
            auto_grid_1d(MorseChannel(eta, nu, 1.0))

    def test_scalar_potential_is_broadcast(self):
        # A constant c shifts the box modes (2/h^2)(1 - cos(j pi/(n - 1))) by c.
        grid = Grid1D(0.0, 2.0, 41)
        modes = box_modes(grid, 5)
        r = fd_eigen_1d(lambda x: 0.75, grid, 5)
        assert np.max(np.abs(r.eigenvalues - (modes + 0.75))) < 1e-10

    def test_overflow_reports_offending_node(self):
        # Non-finite only at the node x = 1 of 41 nodes over [0, 2].
        u = lambda x: np.where(np.abs(x - 1.0) < 0.01, np.inf, x * x)
        with pytest.raises(EvaluationOverflow) as exc:
            fd_eigen_1d(u, Grid1D(0.0, 2.0, 41), 1)
        assert (exc.value.what, exc.value.x, exc.value.y) == ("grid potential", 1.0, None)

    def test_morse_channel_overflow_reports_first_interior_node(self, paper_channel):
        # nu e^{-2x} overflows left of x = -354.9, so from the first interior node
        # on, and is reported there without a numpy warning.
        grid = Grid1D(-400.0, 8.0, 100)
        with pytest.raises(EvaluationOverflow) as exc:
            fd_eigen_1d(paper_channel.potential, grid, 1)
        assert (exc.value.what, exc.value.x, exc.value.y) == ("grid potential", float(grid.interior()[0]), None)

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

    @pytest.mark.parametrize(
        "x1",
        [1e-300, 1e-160, 1e-150, 1e-76, 1e79, 1e300],
        ids=["h2-zero", "h2-subnormal", "square-inf", "square-just-inf", "square-subnormal", "h2-inf"],
    )
    def test_degenerate_spacing_is_grid_too_small(self, x1):
        # h^2 underflows to 0 or to a subnormal whose 2/h^2 is inf; or h^2 is a normal double
        # whose (2/h^2)^2 overflows (dstebz would fail with info=4), or whose (1/h^2)^2 falls
        # below the smallest normal double (dstebz would split the matrix and return 2/h^2);
        # or h^2 overflows.
        grid = Grid1D(0.0, x1, 16)
        message = f"grid spacing h={grid.h!r} needs a finite (2/h^2)^2 and a normal (1/h^2)^2"
        with pytest.raises(GridTooSmall, match=re.escape(message)):
            fd_eigen_1d(lambda x: np.zeros_like(x), grid, 1)

    @pytest.mark.parametrize("x1", [1e-75, 1e78], ids=["finest", "coarsest"])
    def test_extreme_accepted_spacing_solves(self, x1):
        # h^2 = 4.4e-153 keeps (2/h^2)^2 = 2.0e305 finite, and h^2 = 4.4e153 keeps (1/h^2)^2 =
        # 5.1e-308 normal: the level is the discrete box mode (4/h^2) sin^2(pi/(2(n-1))).
        grid = Grid1D(0.0, x1, 16)
        want = 4.0 / grid.h**2 * math.sin(math.pi / (2 * (grid.n - 1))) ** 2
        got = fd_eigen_1d(lambda x: np.zeros_like(x), grid, 1).eigenvalues
        assert got.shape == (1,)
        assert abs(got[0] - want) <= 1e-12 * want

    def test_lapack_failure_is_not_converged(self, monkeypatch):
        monkeypatch.setattr(oracle, "_dstebz", lambda: failing_dstebz)
        with pytest.raises(NotConverged, match=r"^tridiagonal eigensolve failed: LAPACK dstebz info=1$"):
            fd_eigen_1d(lambda x: x * x, Grid1D(-1.0, 1.0, 32), 2)

    def test_dstebz_is_scipy_lapack_routine(self):
        import scipy.linalg.lapack

        assert oracle._dstebz() is scipy.linalg.lapack.dstebz

    def test_dstebz_loads_without_scipy_linalg(self):
        # Loader first: scipy.linalg stays unloaded, and importing it later reuses the same extension.
        code = (
            "import sys; from pdmorse import oracle; f = oracle._dstebz(); print('scipy.linalg' in sys.modules); "
            "import scipy.linalg.lapack; print(f is scipy.linalg.lapack.dstebz)"
        )
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.split() == ["False", "True"]

    @given(drawn=supported_models(), data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_levels_bitwise_eigh_tridiagonal(self, drawn, data):
        # One dstebz call is what eigh_tridiagonal(select="i") makes, so every level is its bit for bit.
        model, window = drawn
        nodes = data.draw(st.integers(16, 400), label="nodes")
        grid = Grid1D(-4.0, 12.0, nodes)
        last = data.draw(st.integers(0, nodes - 3), label="last")
        first = data.draw(st.integers(0, last), label="first")
        which = data.draw(st.sampled_from(["x", "y", "scalar"]), label="potential")
        if which == "scalar":
            c = data.draw(st.floats(-10.0, 10.0), label="c")
            potential = lambda x: c
        else:
            e = data.draw(st.floats(window.lo, window.hi), label="E")
            potential = channels_at(model, e)[which == "y"].potential
        got = oracle._ThreePoint(grid).levels(potential, first, last)
        want = tridiagonal_reference(potential, grid, first, last)
        assert got.shape == want.shape == (last - first + 1,)
        assert got.tobytes() == want.tobytes()


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
            r = fd_eigen_1d(ch.potential, auto_grid_1d(ch), top + 2)
            assert int(np.sum(r.eigenvalues < 0)) == top + 1
            for m in range(top + 1):
                eps = energy_1d(ch, m).epsilon
                assert abs(r.eigenvalues[m] - eps) / abs(eps) < 1e-4


_MIXED = lambda X, Y: X**2 + Y**2 + X * Y + np.sin(X - 2.0 * Y)
# Strong coupling: the separable minorant is loose.
_COUPLED = lambda X, Y: 4.0 * (X - Y) ** 2 + 0.25 * (X + Y) ** 2


def dense_eigenvalues(u, grid):
    """All eigenvalues of the 5-point operator, assembled node by node and solved densely."""
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
    return np.linalg.eigvalsh(a)


class TestFdEigen2D:
    def test_box_modes(self):
        grid = Grid2D(Grid1D(0.0, math.pi, 201), Grid1D(0.0, math.pi, 201))
        r = fd_eigen_2d(lambda X, Y: np.zeros_like(X), grid, 1, method="lanczos")
        assert abs(r.eigenvalues[0] - 2.0) < 5e-3

    def test_separable_oscillator(self):
        grid = Grid2D(Grid1D(-10.0, 10.0, 401), Grid1D(-10.0, 10.0, 401))
        r = fd_eigen_2d(lambda X, Y: X**2 + Y**2, grid, 1, method="lanczos")
        assert abs(r.eigenvalues[0] - 2.0) < 1e-3

    def test_separable_and_lanczos_agree(self, reference_model):
        from pdmorse import ueff_at

        u = lambda X, Y: 2.0 * ueff_at(reference_model, 0.0, X, Y)
        grid = Grid2D(Grid1D(-3.0, 12.0, 61), Grid1D(-3.0, 12.0, 61))
        # u is additively separable, so the 5-point spectrum is the sorted
        # pairwise sums of the two 1D spectra of its restrictions to the walls.
        x0, y0 = grid.x.x0, grid.y.x0
        ux = lambda xs: u(xs, np.full_like(xs, y0)) - u(x0, y0)
        uy = lambda ys: u(np.full_like(ys, x0), ys)
        ex = fd_eigen_1d(ux, grid.x, 6).eigenvalues
        ey = fd_eigen_1d(uy, grid.y, 6).eigenvalues
        sums = np.sort(np.add.outer(ex, ey).ravel())[:6]
        lan = fd_eigen_2d(u, grid, 6, method="lanczos")
        assert np.max(np.abs(sums - lan.eigenvalues)) < 1e-8

    def test_unknown_method_rejected(self):
        grid = Grid2D(Grid1D(-4.0, 4.0, 41), Grid1D(-4.0, 4.0, 41))
        for method in ("auto", "separable"):
            with pytest.raises(ValueError, match=f"unknown method '{method}'"):
                fd_eigen_2d(lambda X, Y: X**2 + Y**2, grid, 2, method=method)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda: fd_eigen_1d(lambda x: x * x, Grid1D(-4.0, 4.0, 41), 0),
            lambda: fd_eigen_2d(lambda X, Y: X**2 + Y**2, Grid2D(Grid1D(-4.0, 4.0, 41), Grid1D(-4.0, 4.0, 41)), 0, "lanczos"),
        ],
        ids=["1d", "2d"],
    )
    def test_no_level_requested_rejected(self, solve):
        with pytest.raises(ValueError, match="^need k >= 1, got 0$"):
            solve()

    # 16 x 16 nodes leave 14 x 14 = 196 interior nodes.
    ALL_NODES = Grid2D(Grid1D(-4.0, 4.0, 16), Grid1D(-4.0, 4.0, 16))

    def test_lanczos_refuses_every_level(self):
        # The sums supply all N levels; one more has no node left.
        with pytest.raises(GridTooSmall, match="^requested 197 levels but grid has 196 interior nodes$"):
            fd_eigen_2d(lambda X, Y: X**2 + Y**2, self.ALL_NODES, 197, method="lanczos")

    @pytest.mark.parametrize("energy", [0.0], ids=["separable"])
    def test_lanczos_shift_between_min_and_ground(self, reference_model, energy):
        # The Dirichlet Laplacian is positive definite, so the ground level of
        # a reduced potential's Kronecker sums lies above its minimum.
        from pdmorse import ueff_at

        u = lambda X, Y: 2.0 * ueff_at(reference_model, energy, X, Y)
        grid = Grid2D(Grid1D(-3.0, 12.0, 61), Grid1D(-3.0, 12.0, 61))
        lam1 = fd_eigen_2d(u, grid, 3, method="lanczos").eigenvalues[0]
        u_min = float(np.min(u(*np.meshgrid(grid.x.interior(), grid.y.interior()))))
        assert u_min < lam1

    # 22 x 22 interior nodes on equal axes, and 22 x 24 with unequal spacings.
    SQUARE = Grid2D(Grid1D(-5.0, 5.0, 24), Grid1D(-5.0, 5.0, 24))
    UNEQUAL = Grid2D(Grid1D(-3.0, 7.0, 24), Grid1D(-2.0, 9.0, 26))

    @pytest.mark.parametrize(
        "u, grid, k",
        [
            # A separable u, asymmetric or not, is a Kronecker sum at any k <= N.
            pytest.param(lambda X, Y: X**2 + Y**2 + 1e-9 * X, SQUARE, 10, id="near-symmetric10"),
            pytest.param(lambda X, Y: X**2 + Y**2, ALL_NODES, 195, id="all-but-one"),
            pytest.param(lambda X, Y: X**2 + Y**2, ALL_NODES, 196, id="all-levels"),
            pytest.param(lambda X, Y: np.zeros_like(X), UNEQUAL, 12, id="box12"),
            pytest.param(lambda X, Y: X**2 + Y**2, UNEQUAL, 12, id="oscillator12"),
            pytest.param(
                lambda X, Y: X**2 + Y**2, Grid2D(Grid1D(-3.0, 3.0, 16), Grid1D(-3.0, 3.0, 16)), 150,
                id="blocks-fall-back150",
            ),
        ],
    )
    def test_swap_blocks_match_dense(self, u, grid, k):
        dense = dense_eigenvalues(u, grid)[:k]
        lan = fd_eigen_2d(u, grid, k, method="lanczos").eigenvalues
        assert np.max(np.abs(lan - dense)) < 1e-10

    @pytest.mark.parametrize(
        "u",
        [
            pytest.param(_MIXED, id="mixed"),
            pytest.param(_COUPLED, id="coupled"),
            pytest.param(lambda X, Y: 400.0 * (X - Y) ** 2 + (X + Y) ** 2, id="valley"),
            # The remainder max r = 1e-9 max|xy| lies far above 8 eps max|u|.
            pytest.param(lambda X, Y: X**2 + Y**2 + 1e-9 * X * Y, id="near-separable"),
        ],
    )
    def test_nonseparable_refused_before_any_solve(self, monkeypatch, u):
        solves = []
        monkeypatch.setattr(oracle, "fd_eigen_1d", lambda *args: solves.append(args))
        pattern = r"^potential does not separate: max remainder \S+ exceeds 8 eps max\|u\| = \S+$"
        with pytest.raises(ValueError, match=pattern):
            fd_eigen_2d(u, self.SQUARE, 10, method="lanczos")
        assert solves == []

    @pytest.mark.parametrize("fixture", ["reference_model", "asymmetric_model"])
    def test_ueff_takes_no_2d_solve(self, request, fixture):
        from pdmorse import ueff_at

        model = request.getfixturevalue(fixture)
        u = lambda X, Y: 2.0 * ueff_at(model, -0.2, X, Y)
        dense = dense_eigenvalues(u, self.UNEQUAL)[:12]
        vals = fd_eigen_2d(u, self.UNEQUAL, 12, method="lanczos").eigenvalues
        assert np.max(np.abs(vals - dense)) < 1e-10

    def test_scalar_potential_is_broadcast(self):
        # The pairwise sums of the 1D box modes, plus c.
        grid = Grid2D(Grid1D(0.0, 2.0, 21), Grid1D(0.0, 2.0, 21))
        modes = box_modes(grid.x, 19)
        want = np.sort(np.add.outer(modes, modes).ravel())[:8] + 0.75
        lan = fd_eigen_2d(lambda X, Y: 0.75, grid, 8, method="lanczos").eigenvalues
        assert np.max(np.abs(lan - want)) < 1e-10

    def test_overflow_reports_offending_node(self):
        # Non-finite only at the node (2, 1) of a 41^2 grid over [-4, 4]^2.
        grid = Grid2D(Grid1D(-4.0, 4.0, 41), Grid1D(-4.0, 4.0, 41))
        u = lambda X, Y: np.where(np.hypot(X - 2.0, Y - 1.0) < 0.05, np.inf, X**2 + Y**2)
        with pytest.raises(EvaluationOverflow) as exc:
            fd_eigen_2d(u, grid, 1, method="lanczos")
        assert exc.value.x == pytest.approx(2.0, abs=1e-12)
        assert exc.value.y == pytest.approx(1.0, abs=1e-12)


class TestBenchmarkLevels:
    """oracle-certify's 2D levels (96^2 over [-4, 12]) are Kronecker sums."""

    GRID = Grid2D(Grid1D(-4.0, 12.0, 96), Grid1D(-4.0, 12.0, 96))

    @pytest.mark.parametrize(
        "fixture, m, n, k",
        [("reference_model", 0, 0, 1), ("reference_model", 3, 3, 66), ("asymmetric_model", 2, 1, 27)],
        ids=["reference-00", "reference-33", "fixture-21"],
    )
    def test_kronecker_sums_take_no_2d_solve(self, request, fixture, m, n, k):
        from pdmorse import Variant, enumerate_spectrum, gammas_at, ueff_at

        model = request.getfixturevalue(fixture)
        spectrum = enumerate_spectrum(model, Variant.FIRST_PRINCIPLES, energy_window(model), max(m, n))
        energy = next(e.energy for e in spectrum if (e.m, e.n) == (m, n) and e.valid.all_ok)
        scale = 2.0 / (model.hbar * model.hbar)
        vals = fd_eigen_2d(lambda X, Y: scale * ueff_at(model, energy, X, Y), self.GRID, k, method="lanczos")
        # The benchmark's reference: one 1D spectrum per axis from the gammas.
        g = gammas_at(model, energy)
        a1, a2 = model.mass.a1, model.mass.a2
        ux = lambda x: scale * (g.gamma1 * np.exp(-a1 * x) + g.gamma2 * np.exp(-2.0 * a1 * x))
        uy = lambda y: scale * (g.gamma3 * np.exp(-a2 * y) + g.gamma4 * np.exp(-2.0 * a2 * y))
        lx = fd_eigen_1d(ux, self.GRID.x, 80).eigenvalues
        ly = fd_eigen_1d(uy, self.GRID.y, 80).eigenvalues
        sums = np.sort(np.add.outer(lx, ly), axis=None)[:k]
        assert np.max(np.abs(vals.eigenvalues - sums)) <= 1e-10


class TestOracleEnergy2D:
    SEARCH_GRID = Grid2D(Grid1D(-4.0, 12.0, 48), Grid1D(-4.0, 12.0, 48))

    def test_ground_level_against_closed_form(self, reference_model):
        window = EnergyWindow(-0.40692966918274637, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
        e = oracle_energy_2d(reference_model, 0, 0, window, grid)
        e_closed = (math.sqrt(29.0) - 7.0) / 8.0
        assert abs(e - e_closed) < 1e-3

    def test_box_state_below_the_closed_forms_falls_as_the_box_widens(self, reference_model):
        # With b1 = -0.2 the x channel binds nothing below E = 0.05, so the
        # closed form has no (0,0), yet the Dirichlet box always binds a
        # lowest state.  Widened at fixed h, that state sinks to the x
        # continuum edge, and its (0,0) towards the energy where the y ground
        # level alone meets eps(E): (sqrt(15) - 4)/4.  (0,1) is a level of
        # both closed forms and holds still.
        from pdmorse import Variant, find_roots

        model = replace(reference_model, pot=replace(reference_model.pot, b1=-0.2))
        assert m_max(channels_at(model, 0.0499)[0]) is None and m_max(channels_at(model, 0.0501)[0]) == 0
        window = energy_window(model)
        assert find_roots(model, Variant.FIRST_PRINCIPLES, 0, 0, window) == []
        (closed,) = find_roots(model, Variant.FIRST_PRINCIPLES, 0, 1, window)
        assert closed.energy == pytest.approx(0.2928079, abs=1e-7)
        threshold = (math.sqrt(15.0) - 4.0) / 4.0
        ground, first = [], []
        for x1, n in ((14.0, 192), (32.0, 383), (68.0, 765)):
            axis = Grid1D(-4.0, x1, n)
            assert axis.h == pytest.approx(18.0 / 191.0, rel=1e-12)
            grid = Grid2D(axis, axis)
            ground.append(oracle_energy_2d(model, 0, 0, window, grid))
            first.append(oracle_energy_2d(model, 0, 1, window, grid))
        assert ground == pytest.approx([-0.028059, -0.031001, -0.031699], abs=5e-7)
        # The gap to the threshold shrinks by 4.9, then by 13.6.
        gaps = [e - threshold for e in ground]
        assert gaps[1] < gaps[0] / 4.0 and 0.0 < gaps[2] < gaps[1] / 10.0
        # 6.4e-4 below the closed form on every box: the h^2 error.
        assert first == pytest.approx([0.2921667] * 3, abs=2e-7)

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

    def test_zero_tolerance_terminates(self, reference_model):
        window = EnergyWindow(-0.40692966918274637, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 32), Grid1D(-4.0, 12.0, 32))
        e_tol = oracle_energy_2d(reference_model, 0, 0, window, grid)
        # The whole window narrows to a few float spacings in fewer than 64 steps.
        calls = []
        axes = axis_operators(grid)

        def capped(e):
            calls.append(e)
            if len(calls) > 64:
                raise RuntimeError("itp is not narrowing the bracket")
            return oracle._level_defect(reference_model, 0, 0, axes, e)

        lo, hi, _, _ = oracle.itp(capped, window.lo, window.hi, capped(window.lo), capped(window.hi), 0.0)
        assert hi - lo <= 4.0 * np.finfo(float).eps
        assert abs(0.5 * (lo + hi) - e_tol) < 1e-8

    def test_no_bracket_refuses(self, reference_model):
        window = EnergyWindow(0.95, 1.0)
        grid = Grid2D(Grid1D(-4.0, 12.0, 64), Grid1D(-4.0, 12.0, 64))
        with pytest.raises(NoBracket):
            oracle_energy_2d(reference_model, 0, 0, window, grid)

    # The reference scans 64 nodes and searches the one cell that brackets the root.
    @pytest.mark.parametrize("scan_points", [64])
    @pytest.mark.parametrize("fixture", ["reference_model", "asymmetric_model"])
    def test_node_search_matches_linear_scan(self, request, fixture, scan_points):
        # Both narrow a bracket of the one root to width 1e-8, so their
        # midpoints lie within 1e-8 of each other, and G changes sign across E.
        model = request.getfixturevalue(fixture)
        window = energy_window(model)
        axes = axis_operators(self.SEARCH_GRID)
        for m, n in ((0, 0), (1, 0), (0, 2), (2, 1), (1, 3), (4, 4)):
            args = (model, m, n, window, self.SEARCH_GRID)
            want = outcome(linear_scan_energy, *args, scan_points)
            got = outcome(oracle_energy_2d, *args)
            if want is NoBracket:
                assert got is NoBracket, (m, n)
                continue
            e = float.fromhex(got)
            assert abs(e - float.fromhex(want)) <= 1e-8, (m, n)
            g_of = lambda t: oracle._level_defect(model, m, n, axes, t)
            assert g_of(e - 1e-8) > 0.0 > g_of(e + 1e-8), (m, n)

    @pytest.mark.parametrize(
        "root, want",
        [(0.0, 0.0), (0.25, 0.25), (0.3, None), (0.984375, NoBracket), (1.0, NoBracket), (-0.5, NoBracket),
         (1.5, NoBracket)],
    )
    def test_node_zeros_and_missing_brackets(self, reference_model, monkeypatch, root, want):
        # G = root - E on [0, 63/64]: a zero at the lower edge is returned as
        # is, a zero only at the upper edge is no bracket, and an interior
        # root is narrowed to within 1e-8, as the linear scan over the nodes
        # k/64 does.
        monkeypatch.setattr(oracle, "_level_defect", lambda model, m, n, axes, e: root - e)
        args = (reference_model, 0, 0, EnergyWindow(0.0, 63.0 / 64.0), self.SEARCH_GRID)
        got = outcome(oracle_energy_2d, *args)
        ref = outcome(linear_scan_energy, *args, 64)
        if want is NoBracket:
            assert got is NoBracket and ref is NoBracket
        elif root == 0.0:
            assert got == ref == want.hex()
        else:
            assert abs(float.fromhex(got) - root) <= 0.5e-8
            assert abs(float.fromhex(got) - float.fromhex(ref)) <= 1e-8

    @staticmethod
    def counting_defect(monkeypatch):
        """Count G(E) evaluations, and the 1D solves behind them, of oracle_energy_2d."""
        counts = {"g": 0, "levels": 0, "fd_eigen_1d": 0}
        real_defect, real_levels, real_eigen = oracle._level_defect, oracle._ThreePoint.levels, oracle.fd_eigen_1d

        def tally(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(oracle, "_level_defect", tally("g", real_defect))
        monkeypatch.setattr(oracle._ThreePoint, "levels", tally("levels", real_levels))
        monkeypatch.setattr(oracle, "fd_eigen_1d", tally("fd_eigen_1d", real_eigen))
        return counts

    def test_itp_count_on_reference_ground(self, reference_model, monkeypatch):
        counts = self.counting_defect(monkeypatch)
        window = energy_window(reference_model)
        oracle_energy_2d(reference_model, 0, 0, window, self.SEARCH_GRID)
        # Bisection would take 2 + ceil(log2((hi - lo)/1e-8)) = 30 evaluations
        # and ITP at most one more; on this smooth G it takes 9.
        bisection = 2 + math.ceil(math.log2((window.hi - window.lo) / 1e-8))
        assert bisection == 30
        assert counts["g"] == 9
        # Each G(E) solves for one eigenvalue per axis, not through fd_eigen_1d.
        assert counts["levels"] == 2 * counts["g"]
        assert counts["fd_eigen_1d"] == 0

    def test_readme_itp_counts(self, reference_model, monkeypatch):
        # README: on 192^2 over [-4, 12] the six distinct reference levels
        # take these many G(E) evaluations, the two edges included.
        counts = self.counting_defect(monkeypatch)
        window = energy_window(reference_model)
        grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
        stated = {(0, 0): 9, (0, 1): 10, (1, 1): 11, (1, 2): 9, (2, 2): 10, (3, 3): 10}
        got = {}
        for m, n in stated:
            counts["g"] = 0
            oracle_energy_2d(reference_model, m, n, window, grid)
            got[(m, n)] = counts["g"]
        assert got == stated

    @pytest.mark.parametrize("root", [-0.39, -0.2, 0.123456789, 0.3, 0.9303059046593121, 0.99])
    @pytest.mark.parametrize("upper", [1.001, 10.0, 1000.0])
    def test_itp_bound_when_interpolation_is_useless(self, reference_model, monkeypatch, root, upper):
        # A step of width 1e-12 from 1 down to 1 - upper: the regula-falsi
        # point sits near the edge of smaller |G|, far from the root, so only
        # the projection bounds the search.  It may take one evaluation more
        # than bisection, never two, and still lands within half the width.
        width = 1e-12
        g = lambda e: 1.0 - upper * 0.5 * (1.0 + math.tanh((e - root) / width))
        exact = root + width * math.atanh(2.0 / upper - 1.0)
        evals = []
        monkeypatch.setattr(oracle, "_level_defect", lambda model, m, n, axes, e: evals.append(e) or g(e))
        window = EnergyWindow(-0.40692966918274637, 1.0)
        e = oracle_energy_2d(reference_model, 0, 0, window, self.SEARCH_GRID)
        assert len(evals) <= 2 + math.ceil(math.log2((window.hi - window.lo) / 1e-8)) + 1
        assert abs(e - exact) <= 0.5e-8

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_itp_probes_only_new_points(self, tol):
        # Once regula falsi has converged on a smooth f, the truncation step
        # falls below a float spacing and the probe rounds onto the bracket
        # edge; probing there again would learn nothing.  Every probe is a new
        # point strictly inside the bracket, and the final bracket holds the root.
        f = lambda x: 1.0 - 5.0 * (1.0 + math.tanh((x + 1.31) / 0.1))
        root = -1.31 + 0.1 * math.atanh(-0.8)
        probes = []
        g = lambda x: probes.append(x) or f(x)
        lo, hi, _, _ = oracle.itp(g, -1.68, -0.86, f(-1.68), f(-0.86), tol)
        assert len(set(probes)) == len(probes)
        assert all(-1.68 < x < -0.86 for x in probes)
        assert lo <= root <= hi and hi - lo <= tol
        assert len(probes) <= math.ceil(math.log2(0.82 / tol)) + 1

    @pytest.mark.parametrize("energy", [-0.3, 0.0, 0.5])
    def test_single_index_matches_fd_eigen_1d(self, reference_model, asymmetric_model, energy):
        # The one-eigenvalue solve behind G(E) against the lowest-k solve, on
        # both axes of both models on the two grids the tests use.  Sturm
        # bisection stops each eigenvalue within eps ||T|| (LAPACK dstebz's
        # default absolute tolerance), 6.6e-14 to 1.8e-12 here, so the two
        # solves may differ by that much: up to 5.0e-13 on these cases.
        grids = (self.SEARCH_GRID.x, Grid1D(-4.0, 12.0, 192))
        for model in (reference_model, asymmetric_model):
            for ch in channels_at(model, energy):
                for grid in grids:
                    operator = oracle._ThreePoint(grid)
                    inv_h2 = 1.0 / grid.h**2
                    norm = float(np.max(np.abs(2.0 * inv_h2 + ch.potential(grid.interior())) + 2.0 * inv_h2))
                    lowest = fd_eigen_1d(ch.potential, grid, 6).eigenvalues
                    for j in range(6):
                        single = operator.levels(ch.potential, j, j)
                        assert single.shape == (1,)
                        assert abs(single[0] - lowest[j]) <= np.finfo(float).eps * norm, (j, grid.n)

    @pytest.mark.parametrize("x1", [1e-300, 1e-160], ids=["h2-zero", "h2-subnormal"])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_degenerate_spacing_is_grid_too_small(self, reference_model, axis, x1):
        tiny = Grid1D(0.0, x1, 16)
        grid = Grid2D(tiny, self.SEARCH_GRID.y) if axis == "x" else Grid2D(self.SEARCH_GRID.x, tiny)
        message = f"grid spacing h={tiny.h!r} needs a finite (2/h^2)^2 and a normal (1/h^2)^2"
        with pytest.raises(GridTooSmall, match=re.escape(message)):
            oracle_energy_2d(reference_model, 0, 0, EnergyWindow(-0.4, 1.0), grid)

    def test_operators_built_once_per_call(self, reference_model, monkeypatch):
        # All nine G(E) evaluations of the reference ground level reuse one operator per axis.
        built = []

        class Counted(oracle._ThreePoint):
            def __init__(self, grid):
                built.append(grid)
                super().__init__(grid)

        monkeypatch.setattr(oracle, "_ThreePoint", Counted)
        oracle_energy_2d(reference_model, 0, 0, energy_window(reference_model), self.SEARCH_GRID)
        assert built == [self.SEARCH_GRID.x, self.SEARCH_GRID.y]

    # oracle_energy_2d on 192^2 over [-4, 12] at oracle-certify's twelve levels, bit for bit.
    @pytest.mark.parametrize(
        "fixture, m, n, pinned",
        [
            ("reference_model", 0, 0, "-0x1.9da8ce2a29b14p-3"),
            ("reference_model", 0, 1, "-0x1.ad15277e4d72ap-5"),
            ("reference_model", 1, 0, "-0x1.ad15277e4d72ap-5"),
            ("reference_model", 1, 1, "0x1.93d31b756475ap-3"),
            ("reference_model", 1, 2, "0x1.4d75e729f02d6p-2"),
            ("reference_model", 2, 1, "0x1.4d75e729f02d6p-2"),
            ("reference_model", 2, 2, "0x1.25efaaf01408ap-1"),
            ("reference_model", 3, 3, "0x1.ce0f1fff8c4f8p-1"),
            ("asymmetric_model", 0, 0, "-0x1.f36e146db761ep-4"),
            ("asymmetric_model", 1, 0, "0x1.9e0a37d443736p-4"),
            ("asymmetric_model", 1, 1, "0x1.4c6b70446f358p-2"),
            ("asymmetric_model", 2, 1, "0x1.3154c71b365bap-1"),
        ],
    )
    def test_benchmark_levels_pinned(self, request, fixture, m, n, pinned):
        model = request.getfixturevalue(fixture)
        grid = Grid2D(Grid1D(-4.0, 12.0, 192), Grid1D(-4.0, 12.0, 192))
        assert oracle_energy_2d(model, m, n, energy_window(model), grid).hex() == pinned

    @pytest.mark.parametrize("m, n", [(-1, 0), (0, -1)])
    def test_negative_quantum_number_is_invalid_level(self, reference_model, m, n):
        with pytest.raises(InvalidLevel, match=rf"quantum numbers must be non-negative, got \({m}, {n}\)"):
            oracle_energy_2d(reference_model, m, n, EnergyWindow(-0.4, 1.0), self.SEARCH_GRID)

    def test_itp_returns_final_bracket(self):
        f = lambda x: x - 0.3
        lo, hi, flo, fhi = oracle.itp(f, 0.0, 1.0, f(0.0), f(1.0), 1e-6)
        assert lo < 0.3 < hi and hi - lo <= 1e-6
        assert (flo, fhi) == (f(lo), f(hi))
        # The first probe, the midpoint, is an exact zero.
        f = lambda x: x - 0.5
        assert oracle.itp(f, 0.0, 1.0, f(0.0), f(1.0), 1e-6) == (0.5, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("edge", [0.3, 0.6, 0.75])
    def test_itp_keeps_defined_side(self, edge):
        # Undefined on [edge, 1), below the root 0.8 of the defined formula: a
        # NaN probe replaces hi, so the bracket closes on the edge of the
        # defined side and its upper value is NaN.  Up to the first NaN every
        # probe raised lo; from then on every probe is the midpoint, and the
        # search keeps its bound of one probe beyond bisection.
        f = lambda x: x - 0.8 if x < edge or x == 1.0 else math.nan
        probes = []
        g = lambda x: probes.append(x) or f(x)
        lo, hi, flo, fhi = oracle.itp(g, 0.0, 1.0, f(0.0), f(1.0), 1e-9)
        assert lo < edge <= hi and hi - lo <= 1e-9
        assert flo == f(lo) and math.isnan(fhi)
        assert len(probes) <= math.ceil(math.log2(1.0 / 1e-9)) + 1
        first = next(i for i, x in enumerate(probes) if math.isnan(f(x)))
        lo, hi = max([0.0] + probes[:first]), probes[first]
        for x in probes[first + 1 :]:
            assert x == 0.5 * (lo + hi)
            lo, hi = (lo, x) if math.isnan(f(x)) else (x, hi)

    @given(drawn=supported_models())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_defect_strictly_decreasing(self, drawn):
        # The premise of the search: at most one root in the window.
        model, window = drawn
        es = np.linspace(window.lo, window.hi, 64)
        axes = axis_operators(self.SEARCH_GRID)
        for m, n in ((0, 0), (2, 1)):
            g = [oracle._level_defect(model, m, n, axes, float(e)) for e in es]
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
