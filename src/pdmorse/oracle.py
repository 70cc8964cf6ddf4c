"""Independent numerical ground truth for the closed-form machinery.

Everything here deliberately avoids the analytic bound-state formulas:
eigenvalues come from second-order central differences with Dirichlet walls
(tridiagonal bisection in 1D; in 2D, sums of the 1D spectra or shift-invert
Lanczos shifted just below a separable lower bound on the lowest eigenvalue,
the shifted operator assembled in one pass and factored once under a
symmetric minimum-degree ordering), the potential minimum from a scan plus
alternating golden-section refinement, and the self-consistent 2D energies
from outer bisection on the finite-difference level sums.  Those sums minus
the right-hand side decrease strictly in the trial energy, so a binary search
over the scan nodes finds the one bracketing cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .effective import channels_at, epsilon_of, require_reduction_ordering
from .errors import EvaluationOverflow, GridTooSmall, NoBracket, NotConverged, Unbounded
from .model import Model, potential_at
from .morse1d import MorseChannel, energy_1d, m_max


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

    Three-point Laplacian on the interior nodes; the symmetric tridiagonal
    eigenproblem is solved by LAPACK's Sturm-sequence bisection, which is
    deterministic and returns exactly the requested index range.
    """
    import scipy.linalg

    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n_int = grid.n - 2
    if k > n_int:
        raise GridTooSmall(f"requested {k} levels but grid has {n_int} interior nodes")
    x = grid.interior()
    u = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(u)):
        bad = int(np.argmax(~np.isfinite(u)))
        raise EvaluationOverflow("grid potential", float(x[bad]))
    h2 = grid.h * grid.h
    diag = 2.0 / h2 + u
    off = np.full(n_int - 1, -1.0 / h2)
    try:
        vals = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NotConverged(f"tridiagonal eigensolve failed: {exc}") from exc
    return EigenResult(np.asarray(vals, dtype=float))


def _is_separable(potential, grid: Grid2D, rtol: float = 1e-10) -> bool:
    """Probe f(x,y) - f(x,y0) - f(x0,y) + f(x0,y0) on a coarse sub-mesh."""
    xs = np.linspace(grid.x.x0, grid.x.x1, 5)
    ys = np.linspace(grid.y.x0, grid.y.x1, 5)
    X, Y = np.meshgrid(xs, ys)
    f = np.asarray(potential(X, Y), dtype=float)
    fx = np.asarray(potential(xs, np.full_like(xs, ys[0])), dtype=float)
    fy = np.asarray(potential(np.full_like(ys, xs[0]), ys), dtype=float)
    mixed = f - fx[None, :] - fy[:, None] + f[0, 0]
    scale = max(float(np.max(np.abs(f))), 1.0)
    return bool(np.max(np.abs(mixed)) <= rtol * scale)


def fd_eigen_2d(potential, grid: Grid2D, k: int, method: str = "auto") -> EigenResult:
    """Lowest k Dirichlet eigenvalues of -lap + U(x, y) on the grid.

    ``method='separable'`` forms 2D eigenvalues as sums of the two 1D spectra
    (exact for the 5-point Laplacian when U is additively separable);
    ``method='lanczos'`` assembles the sparse operator and runs shift-invert
    ARPACK with a fixed start vector.  ``'auto'`` probes separability and
    picks the cheap path when it applies.

    The Lanczos shift comes from a separable minorant: with
    u_x(x) = min_y u and u_y(y) = min_x (u - u_x), u >= u_x + u_y at every
    node, so by Weyl's inequality lam_1(A) >= lower = lam_1(T_x + u_x) +
    lam_1(T_y + u_y), two k = 1 tridiagonal solves, with equality for a
    separable u.  The Dirichlet Laplacian is positive definite, so
    lower > min u; sigma = lower - 0.1 (lower - min u) lies strictly between
    them, A - sigma I stays symmetric positive definite, and sigma does not
    depend on the units of u.  Shift-invert convergence improves as sigma
    nears the wanted eigenvalues: on the benchmark's 96^2 levels the ARPACK
    solves fall from 41 to 21 at k = 1 and from 394 to 350 at k = 66 against
    the old sigma = min u - 1.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    nx_int, ny_int = grid.x.n - 2, grid.y.n - 2
    if k > nx_int * ny_int:
        raise GridTooSmall(f"requested {k} levels but grid has {nx_int * ny_int} interior nodes")

    if method not in ("auto", "separable", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "separable"):
        separable = _is_separable(potential, grid)
        if method == "separable" and not separable:
            raise ValueError("potential failed the separability probe")
        if separable:
            y0 = grid.y.x0
            x0 = grid.x.x0
            c = float(np.atleast_1d(potential(np.array([x0]), np.array([y0])))[0])
            ux = lambda xs: np.asarray(potential(xs, np.full_like(xs, y0)), dtype=float) - c
            uy = lambda ys: np.asarray(potential(np.full_like(ys, x0), ys), dtype=float)
            kx = min(k, nx_int)
            ky = min(k, ny_int)
            ex = fd_eigen_1d(ux, grid.x, kx).eigenvalues
            ey = fd_eigen_1d(uy, grid.y, ky).eigenvalues
            # kx * ky >= k, so the k lowest of all pairwise sums are the answer.
            return EigenResult(np.sort(np.add.outer(ex, ey).ravel())[:k])

    import scipy.sparse
    import scipy.sparse.linalg

    X, Y = np.meshgrid(grid.x.interior(), grid.y.interior())
    u = np.asarray(potential(X, Y), dtype=float)
    if not np.all(np.isfinite(u)):
        raise EvaluationOverflow("grid potential", float(grid.x.x0), float(grid.y.x0))
    # min u < sigma < lower <= lam_1(A) (see above), so A - sigma I is
    # symmetric positive definite and a symmetric minimum-degree ordering of
    # A^T + A fills in less than the COLAMD column ordering eigsh would use.
    u_x = u.min(axis=0)
    u_y = (u - u_x).min(axis=1)
    lower = float(fd_eigen_1d(lambda _: u_x, grid.x, 1).eigenvalues[0])
    lower += float(fd_eigen_1d(lambda _: u_y, grid.y, 1).eigenvalues[0])
    sigma = lower - 0.1 * (lower - float(u.min()))
    # A - sigma I with x fastest: five diagonals, x-couplings cut at row ends.
    n = nx_int * ny_int
    hx2, hy2 = grid.x.h ** 2, grid.y.h ** 2
    cx = np.full(n - 1, -1.0 / hx2)
    cx[nx_int - 1 :: nx_int] = 0.0
    cy = np.full(n - nx_int, -1.0 / hy2)
    shifted = scipy.sparse.diags(
        [cy, cx, (2.0 / hx2 + 2.0 / hy2) + u.ravel() - sigma, cx, cy], offsets=(-nx_int, -1, 0, 1, nx_int), format="csc"
    )
    lu = scipy.sparse.linalg.splu(shifted, permc_spec="MMD_AT_PLUS_A")
    op_inv = scipy.sparse.linalg.LinearOperator(shifted.shape, matvec=lu.solve, dtype=float)
    v0 = np.ones(n) / math.sqrt(n)
    try:
        # Given OPinv, eigsh reads only the shape of `shifted`; it returns A's eigenvalues.
        vals = scipy.sparse.linalg.eigsh(
            shifted, k=k, sigma=sigma, which="LM", v0=v0, tol=0, OPinv=op_inv, return_eigenvectors=False
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise NotConverged(f"shift-invert Lanczos did not converge: {exc}") from exc
    return EigenResult(np.sort(np.asarray(vals, dtype=float)))


def _level_defect(model: Model, m: int, n: int, grid: Grid2D, e: float) -> float:
    """G(E) = lam_m(E) + lam_n(E) - 2 xi(E)/hbar^2 on the grid's two 1D operators."""
    chx, chy = channels_at(model, e)
    lam_m = float(fd_eigen_1d(chx.potential, grid.x, m + 1).eigenvalues[m])
    lam_n = float(fd_eigen_1d(chy.potential, grid.y, n + 1).eigenvalues[n])
    return lam_m + lam_n - epsilon_of(model, e)


def oracle_energy_2d(model: Model, m: int, n: int, window, grid: Grid2D, tol: float = 1e-8,
                     scan_points: int = 64) -> float:
    """Self-consistent level (m, n) from finite differences alone.

    Solves G(E) = lam_m(E) + lam_n(E) - 2 xi(E)/hbar^2 = 0 where lam are the
    m-th and n-th Dirichlet eigenvalues of the per-axis reduced operators at
    trial energy E.  G is strictly decreasing: gamma_i(E) = b_i + m0 (r - E) g_i
    with g_i >= 0, so each 1D potential is pointwise non-increasing in E and,
    by Courant-Fischer, so is every Dirichlet eigenvalue, while
    2 xi(E)/hbar^2 = 2 (m0 (E - r) - a)/hbar^2 strictly increases.  The
    ``scan_points`` equispaced nodes over the window therefore hold at most
    one sign change, which a binary search over the nodes finds with
    2 + ceil(log2(scan_points - 1)) evaluations; bisection then narrows that
    cell to width tol and returns its midpoint.  An exact zero at a node is
    returned as is; without a strict sign change the routine refuses to guess.
    Raises OrderingNotSolvable unless the model's ordering is the reducing one.
    """
    require_reduction_ordering(model.ordering, "the per-axis reduced operators")
    g_of = lambda e: _level_defect(model, m, n, grid, e)
    es = np.linspace(window.lo, window.hi, scan_points)
    lo, hi = 0, scan_points - 1
    g_lo = g_of(float(es[lo]))
    if g_lo == 0.0:
        return float(es[lo])
    g_hi = g_of(float(es[hi]))
    if not g_lo * g_hi < 0.0:
        raise NoBracket(f"G(E) has no sign change on [{window.lo}, {window.hi}] for (m,n)=({m},{n})")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g_mid = g_of(float(es[mid]))
        if g_mid == 0.0:
            return float(es[mid])
        if g_mid * g_lo > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    e_lo, e_hi, _, _ = _bisect(g_of, float(es[lo]), float(es[hi]), g_lo, g_hi, tol)
    return 0.5 * (e_lo + e_hi)


def _bisect(f, lo: float, hi: float, flo: float, fhi: float, tol: float):
    """Bisection of a bracket [lo, hi] whose ends flo = f(lo), fhi = f(hi) differ in sign.

    Returns the final bracket and its end values (lo, hi, flo, fhi).  Stops at
    width tol, but never below a few float spacings of the bracket, so tol = 0
    terminates too; an exact zero at a midpoint returns (mid, mid, 0, 0).
    Where f is NaN (undefined) the midpoint replaces hi, keeping the defined
    lower side, and fhi is then NaN.
    """
    width_floor = max(tol, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    while hi - lo > width_floor:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, mid, fm, fm
        if flo * fm < 0.0 or math.isnan(fm):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return lo, hi, flo, fhi


def auto_grid_1d(ch: MorseChannel, n: int = 4000) -> Grid1D:
    """Domain sized so Dirichlet truncation sits far below discretization error.

    Left wall where the repulsive core reaches ~100x the well depth (plus one
    decay length), right wall 7.5 tail e-foldings past the shallowest level's
    outer turning point: the squared amplitude there is ~e^-15, well below the
    h^2 discretization error this resolution can reach.
    """
    depth = ch.eta * ch.eta / (4.0 * ch.nu)
    x_left = -math.log(100.0 * depth / ch.nu) / (2.0 * ch.alpha) - 1.0 / ch.alpha
    top = m_max(ch)
    if top is None:
        raise NoBracket("auto-sizing needs a channel with bound states")
    state = energy_1d(ch, top)
    mu_min = max(state.mu, 0.05)
    # Outer turning point of the top level: |eta| e^{-ax} = |eps_top|.
    x_turn = math.log(-ch.eta / -state.epsilon) / ch.alpha if -state.epsilon < -ch.eta else 0.0
    x_right = x_turn + 7.5 / (mu_min * ch.alpha) + 2.0 / ch.alpha
    return Grid1D(x_left, x_right, n)


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
