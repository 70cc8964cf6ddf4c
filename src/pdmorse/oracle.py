"""Independent numerical ground truth for the closed-form machinery.

Everything here deliberately avoids the analytic bound-state formulas:
eigenvalues come from second-order central differences with Dirichlet walls
(in 1D, one dstebz bisection, from scipy's LAPACK extension alone, of the
three-point operator built once per solve for exactly the requested index
range; in 2D, the pairwise sums of two such 1D spectra, for a potential that
separates, as every reduced potential of the model does), the potential
minimum from a scan plus alternating golden-section refinement, and
the self-consistent 2D energies from an ITP search (interpolation, truncation,
projection) on the finite-difference level sums, which minus the right-hand
side decrease strictly in the trial energy.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .effective import channels_at, epsilon_of
from .errors import GridTooSmall, InvalidLevel, NoBracket, NotConverged, Unbounded, finite_field
from .model import Model, potential_at
from .morse1d import MorseChannel, energy_1d, m_max

#: oracle_energy_2d's final bracket width.
_ORACLE_TOL = 1e-8
#: Nodes of every auto_grid_1d grid.
_AUTO_GRID_NODES = 4000
#: auto_grid_1d places its right wall for a top level with at least this mu.
#: A shallower level's tail reaches past the wall, which moves its eigenvalue.
AUTO_GRID_MU_FLOOR = 0.05


@dataclass(frozen=True)
class Grid1D:
    """Uniform node set on [x0, x1], endpoints included."""

    x0: float
    x1: float
    n: int

    def __post_init__(self):
        if not self.x0 < self.x1:
            raise ValueError(f"need x0 < x1, got [{self.x0!r}, {self.x1!r}]")
        if self.n < 16:
            raise ValueError(f"need at least 16 nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.x1 - self.x0) / (self.n - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.n)

    def interior(self) -> np.ndarray:
        return self.nodes()[1:-1]


@dataclass(frozen=True)
class Grid2D:
    x: Grid1D
    y: Grid1D


@dataclass
class EigenResult:
    """Ascending eigenvalues."""

    eigenvalues: np.ndarray


def fd_eigen_1d(potential, grid: Grid1D, k: int) -> EigenResult:
    """Lowest k Dirichlet eigenvalues of -d2/dx2 + U(x) on the grid.

    Three-point Laplacian on the interior nodes; one LAPACK dstebz call
    (Sturm-sequence bisection) solves the symmetric tridiagonal eigenproblem,
    deterministically and for exactly the requested index range.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return EigenResult(_ThreePoint(grid).levels(potential, 0, k - 1))


@functools.cache
def _dstebz():
    """scipy.linalg.lapack.dstebz from the extension scipy.linalg._flapack alone, which scipy.linalg then reuses."""
    import scipy  # cheap, and sets up what the extension needs to load

    linalg = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [linalg])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dstebz


class _ThreePoint:
    """-d2/dx2 on a grid's interior nodes, Dirichlet walls: 2/h^2 on the diagonal, -1/h^2 off it."""

    def __init__(self, grid: Grid1D):
        h2 = float(grid.h) * float(grid.h)  # Python floats overflow and underflow without a warning
        # dstebz squares entries: it fails past a finite (2/h^2)^2, returns the diagonal below a normal (1/h^2)^2.
        if not (h2 > 0.0 and (2.0 / h2) * (2.0 / h2) < np.inf and (1.0 / h2) * (1.0 / h2) >= np.finfo(float).tiny):
            raise GridTooSmall(f"grid spacing h={grid.h!r} needs a finite (2/h^2)^2 and a normal (1/h^2)^2")
        self.x = grid.interior()
        self.diag = 2.0 / h2
        self.off = np.full(grid.n - 3, -1.0 / h2)

    def levels(self, potential, first: int, last: int) -> np.ndarray:
        """Eigenvalues first..last (0-based, ascending) of -d2/dx2 + U(x), at a cost per index asked for.

        The dstebz call of scipy's eigh_tridiagonal(select="i"), so bitwise its levels.
        """
        if last >= self.x.size:
            raise GridTooSmall(f"requested {last + 1} levels but grid has {self.x.size} interior nodes")
        diag = self.diag + np.asarray(potential(self.x), dtype=float)
        if diag.shape != self.x.shape:  # a scalar potential
            diag = np.broadcast_to(diag, self.x.shape)
        diag = finite_field("grid potential", diag, self.x)
        count, vals, _, _, info = _dstebz()(diag, self.off, 2, 0.0, 1.0, first + 1, last + 1, 0.0, "E")
        if info != 0:
            raise NotConverged(f"tridiagonal eigensolve failed: LAPACK dstebz info={info}")
        return vals[:count]


def fd_eigen_2d(potential, grid: Grid2D, k: int, method: str) -> EigenResult:
    """Lowest k Dirichlet eigenvalues of -lap + U(x, y) on the grid, for a separable U.

    ``method`` must be ``'lanczos'``; it no longer names an algorithm and goes
    with this function (ROADMAP item 1).  k may reach the number N of interior
    nodes.

    With u_x(x) = min_y u and u_y(y) = min_x (u - u_x), the remainder
    r = u - u_x - u_y is >= 0 at every node, and the 5-point operator is the
    Kronecker sum (T_x + u_x) + (T_y + u_y) plus the diagonal r.  When
    max r <= 8 eps max|u|, u separates to rounding, and the k lowest pairwise
    sums of the axes' lowest min(k, n) tridiagonal levels are returned: no 2D
    operator is assembled.  Any larger remainder is refused with a
    ValueError before anything is solved.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    nx_int, ny_int = grid.x.n - 2, grid.y.n - 2
    if k > nx_int * ny_int:
        raise GridTooSmall(f"requested {k} levels but grid has {nx_int * ny_int} interior nodes")

    X, Y = np.meshgrid(grid.x.interior(), grid.y.interior())
    u = finite_field("grid potential", np.broadcast_to(np.asarray(potential(X, Y), dtype=float), X.shape), X, Y)
    u_x = u.min(axis=0)
    u_y = (u - u_x).min(axis=1)
    remainder = float(np.max((u - u_x) - u_y[:, None]))
    limit = 8.0 * np.finfo(float).eps * float(np.max(np.abs(u)))
    if not remainder <= limit:
        raise ValueError(f"potential does not separate: max remainder {remainder!r} exceeds 8 eps max|u| = {limit!r}")
    lam_x = fd_eigen_1d(lambda _: u_x, grid.x, min(k, nx_int)).eigenvalues
    lam_y = fd_eigen_1d(lambda _: u_y, grid.y, min(k, ny_int)).eigenvalues
    return EigenResult(np.sort(np.add.outer(lam_x, lam_y), axis=None)[:k])


def _level_defect(model: Model, m: int, n: int, axes, e: float) -> float:
    """G(E) = lam_m(E) + lam_n(E) - 2 xi(E)/hbar^2 on the (x, y) pair ``axes`` of 1D operators."""
    chx, chy = channels_at(model, e)
    lam_m = float(axes[0].levels(chx.potential, m, m)[0])
    lam_n = float(axes[1].levels(chy.potential, n, n)[0])
    return lam_m + lam_n - epsilon_of(model, e)


def oracle_energy_2d(model: Model, m: int, n: int, window, grid: Grid2D) -> float:
    """Self-consistent level (m, n) from finite differences alone.

    Solves G(E) = lam_m(E) + lam_n(E) - 2 xi(E)/hbar^2 = 0 where lam are the
    m-th and n-th Dirichlet eigenvalues of the per-axis reduced operators at
    trial energy E.  G is strictly decreasing: gamma_i(E) = b_i + m0 (r - E) g_i
    with g_i >= 0, so each 1D potential is pointwise non-increasing in E and,
    by Courant-Fischer, so is every Dirichlet eigenvalue, while
    2 xi(E)/hbar^2 = 2 (m0 (E - r) - a)/hbar^2 strictly increases.  The window
    therefore holds at most one root, and an ITP search of the whole window
    (see itp) to width 1e-8 returns the midpoint of the final bracket.  G is
    smooth, so the search needs far fewer G(E) evaluations than bisection,
    and never more than one beyond it: at most 3 + ceil(log2((hi - lo)/1e-8)),
    the two edges included.  That is 31 on the reference window, where the
    reference levels on 192^2 take 9 to 11 (bisection: 30).  An exact zero at
    the lower edge or at a probe is returned as is; without a strict sign
    change between the edges the routine refuses to guess.
    Raises InvalidLevel for a negative quantum number, and OrderingNotSolvable
    unless the model's ordering is the reducing one.
    """
    if m < 0 or n < 0:
        raise InvalidLevel(f"quantum numbers must be non-negative, got ({m}, {n})")
    axes = (_ThreePoint(grid.x), _ThreePoint(grid.y))
    g_of = lambda e: _level_defect(model, m, n, axes, e)
    lo, hi = float(window.lo), float(window.hi)
    g_lo = g_of(lo)
    if g_lo == 0.0:
        return lo
    g_hi = g_of(hi)
    if not g_lo * g_hi < 0.0:
        raise NoBracket(f"G(E) has no sign change on [{window.lo}, {window.hi}] for (m,n)=({m},{n})")
    e_lo, e_hi, _, _ = itp(g_of, lo, hi, g_lo, g_hi, _ORACLE_TOL)
    return 0.5 * (e_lo + e_hi)


def itp(f, lo: float, hi: float, flo: float, fhi: float, tol: float):
    """ITP search of a bracket [lo, hi] whose ends flo = f(lo), fhi = f(hi) differ in sign.

    Interpolate, truncate, project (I. F. D. Oliveira and R. H. C. Takahashi,
    ACM Trans. Math. Softw. 47(1):5, 2020): each probe starts at the
    regula-falsi point, moves kappa1 w^2 towards the midpoint, w being the
    bracket width (kappa1 = 0.2/(hi - lo), kappa2 = 2), and is then held
    within the distance of the midpoint that still lets the bracket reach tol
    in n0 = 1 probe more than bisection.  So it never takes more than
    ceil(log2((hi - lo)/tol)) + 1 probes, and on a smooth f it converges
    superlinearly.  Returns the final bracket and its end values
    (lo, hi, flo, fhi), stops at width tol but never below a few float
    spacings of the bracket, so tol = 0 terminates too, and an exact zero at
    a probe x returns (x, x, 0, 0).  Where f is NaN (undefined) the probe
    replaces hi, keeping the defined lower side, and fhi is then NaN; while
    it is, each probe is the midpoint, so the bound on probes still holds.
    """
    spacing = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    width_floor = max(tol, spacing)
    kappa1 = 0.2 / (hi - lo)
    # Probes left after the next one, of bisection's count plus n0 = 1.
    left = max(math.ceil(math.log2((hi - lo) / width_floor)), 0)
    while hi - lo > width_floor:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        x_f = lo - flo * width / (fhi - flo)
        sigma = math.copysign(1.0, mid - x_f)
        delta = kappa1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        # Minmax radius: after this probe the bracket can still halve down to
        # width_floor in the probes left.  It aims at width_floor - spacing,
        # a margin that rounding cannot use up.
        r = max(math.ldexp(width_floor - spacing, left) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if math.isnan(fhi) or not lo < x < hi:
            # Past a NaN probe there is nothing to interpolate from; otherwise
            # a truncation step below a float spacing rounded the probe onto
            # an edge, where it would learn nothing.
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x, x, fx, fx
        if flo * fx < 0.0 or math.isnan(fx):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        left -= 1
    return lo, hi, flo, fhi


def auto_grid_1d(ch: MorseChannel) -> Grid1D:
    """4000-node domain sized so Dirichlet truncation sits far below discretization error.

    Left wall where the repulsive core reaches ~100x the well depth (plus one
    decay length), right wall 7.5 tail e-foldings past the shallowest level's
    outer turning point: the squared amplitude there is ~e^-15, well below the
    h^2 discretization error this resolution can reach.
    """
    top = m_max(ch)
    if top is None:
        raise NoBracket("auto-sizing needs a channel with bound states")
    depth = ch.eta * ch.eta / (4.0 * ch.nu)
    x_left = -math.log(100.0 * depth / ch.nu) / (2.0 * ch.alpha) - 1.0 / ch.alpha
    state = energy_1d(ch, top)
    mu_min = max(state.mu, AUTO_GRID_MU_FLOOR)
    # Outer turning point of the top level: |eta| e^{-ax} = |eps_top|.
    x_turn = math.log(-ch.eta / -state.epsilon) / ch.alpha if -state.epsilon < -ch.eta else 0.0
    x_right = x_turn + 7.5 / (mu_min * ch.alpha) + 2.0 / ch.alpha
    return Grid1D(x_left, x_right, _AUTO_GRID_NODES)


def minimize_potential(model: Model) -> tuple[float, float, float]:
    """Global minimum of the potential surface: (x*, y*, value).

    Coarse rectangular scan (each axis ranged by its own decay length)
    followed by alternating per-axis golden-section refinement whose brackets
    stay inside the scan box.  A minimum pinned to the scan boundary, by the
    scan with the potential still falling outward or by the refinement, is
    reported as Unbounded rather than returned as a fake minimizer.
    """
    scan_nodes = 161
    lx = 12.0 / model.mass.a1
    ly = 12.0 / model.mass.a2
    xs = np.linspace(-0.75 * lx, 3.0 * lx, scan_nodes)
    ys = np.linspace(-0.75 * ly, 3.0 * ly, scan_nodes)
    X, Y = np.meshgrid(xs, ys)
    v = potential_at(model, X, Y)
    j, i = np.unravel_index(int(np.argmin(v)), v.shape)
    x0, y0 = float(xs[i]), float(ys[j])
    vmin = float(v[j, i])

    on_edge = i in (0, scan_nodes - 1) or j in (0, scan_nodes - 1)
    if on_edge:
        dx = xs[1] - xs[0]
        step_x = -dx if i == 0 else (dx if i == scan_nodes - 1 else 0.0)
        dy = ys[1] - ys[0]
        step_y = -dy if j == 0 else (dy if j == scan_nodes - 1 else 0.0)
        outward = potential_at(model, x0 + step_x, y0 + step_y)
        if outward < vmin - 1e-15 * max(1.0, abs(vmin)):
            raise Unbounded(x0, y0, vmin)

    gold = (math.sqrt(5.0) - 1.0) / 2.0

    def golden(f, a: float, b: float) -> float:
        c = b - gold * (b - a)
        d = a + gold * (b - a)
        fc, fd = f(c), f(d)
        while b - a > 1e-13 * max(1.0, abs(a) + abs(b)):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gold * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gold * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    x_lo, x_hi, y_lo, y_hi = float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])
    wx = 2.0 * (xs[1] - xs[0])
    wy = 2.0 * (ys[1] - ys[0])
    xc, yc = x0, y0
    for _ in range(80):
        x_new = golden(lambda t: potential_at(model, t, yc), max(xc - wx, x_lo), min(xc + wx, x_hi))
        y_new = golden(lambda t: potential_at(model, x_new, t), max(yc - wy, y_lo), min(yc + wy, y_hi))
        moved = max(abs(x_new - xc), abs(y_new - yc))
        xc, yc = x_new, y_new
        wx = max(4.0 * moved, 1e-9)
        wy = wx
        if moved < 1e-11:
            break
    vc = float(potential_at(model, xc, yc))
    # golden() stops within 1e-13 relative of an edge it is pushed against.  An
    # edge counts only where the refinement went below the scanned minimum, so
    # a constant potential keeps its (degenerate) minimum.  Along an axis on
    # which the scanned potential is exactly constant, golden() drifts to an
    # edge without lowering V; the minimum is degenerate along that axis.
    flat_x = bool(np.all(v == v[:, :1]))
    flat_y = bool(np.all(v == v[:1, :]))
    pinned = (not flat_x and min(xc - x_lo, x_hi - xc) <= 1e-12 * lx) or (
        not flat_y and min(yc - y_lo, y_hi - yc) <= 1e-12 * ly
    )
    if pinned and vc < vmin:
        raise Unbounded(float(xc), float(yc), vc)
    return xc, yc, vc
