"""The invariant checks that ``pdmorse verify`` runs and the acceptance tests reuse.

Each check takes the model and returns a detail string or raises: a failed
assertion is an invariant violation, any other error keeps its own type.
"""

import numpy as np

from . import effective, oracle, spectrum
from .effective import channels_at, ueff_at, veff_at, xi_of
from .errors import GridTooSmall
from .model import Model, mass_at, solve_ambiguity_free_ordering
from .morse1d import MorseChannel, energy_1d, m_max, wavefunction_1d
from .spectrum import group_degeneracies, mismatch, pde_residual


def check_ordering(model: Model) -> str:
    o = solve_ambiguity_free_ordering()
    assert (o.alpha, o.beta, o.gamma) == (-0.5, 0.0, -0.5), "unexpected ordering solution"
    c1, c2 = effective.laplacian_coefficient(o), effective.grad_coefficient(o)
    assert c1 == 0.0 and c2 == 0.0, f"conditions not zero: {c1}, {c2}"
    return "alpha=gamma=-1/2, beta=0; both conditions vanish"


def check_reduction(model: Model) -> str:
    xs = np.linspace(-2.0, 6.0, 41)
    X, Y = np.meshgrid(xs, xs)
    M = mass_at(model.mass, X, Y)
    veff = veff_at(model, X, Y)
    # Relative to the largest |M (V_eff - E)|, which grows like e^(2 a1) at x = -2.
    defect = scale = 0.0
    for e in np.linspace(-0.4, 1.0, 5):
        field = M * (veff - e)
        general = field + xi_of(model, float(e))
        reduced = ueff_at(model, float(e), X, Y)
        defect = max(defect, float(np.max(np.abs(general - reduced))))
        scale = max(scale, float(np.max(np.abs(field))))
    worst = defect / scale
    assert worst < 1e-10, f"reduction identity relative defect {worst:.3e}"
    return f"max relative defect {worst:.3e} on 41x41 grid, 5 energies"


def _bound_channels(model: Model) -> list[tuple[str, MorseChannel]]:
    """(axis, channel) for each channel at E = r that holds a bound level."""
    return [(axis, ch) for axis, ch in zip("xy", channels_at(model, model.pot.r)) if m_max(ch) is not None]


def check_oracle_1d(model: Model) -> str:
    channels = _bound_channels(model)
    if not channels:
        return "skipped: no channel holds a level at r"
    worst, cut = 0.0, None
    for axis, ch in channels:
        top = m_max(ch)
        grid = oracle.auto_grid_1d(ch)
        # The three-point error is even in h: (4 E_{h/2} - E_h)/3 cancels
        # its h^2 term, which a shallow level's slow tail makes large.
        half = oracle.Grid1D(grid.x0, grid.x1, 2 * grid.n - 1)
        e_h = oracle.fd_eigen_1d(ch.potential, grid, top + 1).eigenvalues
        e_h2 = oracle.fd_eigen_1d(ch.potential, half, top + 1).eigenvalues
        fd = (4.0 * e_h2 - e_h) / 3.0
        for mm in range(top + 1):
            state = energy_1d(ch, mm)
            rel = abs(fd[mm] - state.epsilon) / abs(state.epsilon)
            # Below the grid's mu floor a level's tail reaches past the right wall.
            if rel < 1e-4 or state.mu >= oracle.AUTO_GRID_MU_FLOOR:
                worst = max(worst, rel)
            elif cut is None:
                cut = GridTooSmall(
                    f"{axis}-axis level {mm} has mu = {state.mu:.3e}, below the 1D oracle grid's floor "
                    f"{oracle.AUTO_GRID_MU_FLOOR:g}, which cuts off its tail (relative error {rel:.3e})"
                )
    assert worst < 1e-4, f"1D oracle disagreement {worst:.3e}"
    if cut is not None:
        raise cut
    return f"max relative eigenvalue error {worst:.3e} (Richardson, h and h/2)"


def check_nodes(model: Model) -> str:
    counted = []
    for axis, ch in _bound_channels(model):
        top = min(m_max(ch), 4)
        grid = oracle.auto_grid_1d(ch)
        xs = np.linspace(grid.x0, grid.x1, 4001)
        for mm in range(top + 1):
            vals = wavefunction_1d(ch, energy_1d(ch, mm), xs)
            sig = vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))]
            nodes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
            assert nodes == mm, f"{axis}-axis level {mm} shows {nodes} sign changes"
        counted.append(f"{axis}: m <= {top}")
    return f"node counts match m ({', '.join(counted)})" if counted else "skipped: no channel holds a level at r"


def check_orthogonality(model: Model) -> str:
    # Composite 20-point Gauss-Legendre over the oracle domain plus 40
    # e-foldings of level 1's slower outer tail.  numpy's rule: importing
    # scipy.integrate would add ~23 MB to verify's peak memory.
    nodes, weights = np.polynomial.legendre.leggauss(20)
    overlaps = []
    for axis, ch in _bound_channels(model):
        if m_max(ch) < 1:
            continue
        s0, s1 = energy_1d(ch, 0), energy_1d(ch, 1)
        grid = oracle.auto_grid_1d(ch)
        hi = grid.x1 + 40.0 / (s1.mu * ch.alpha)
        edges = np.concatenate([np.linspace(grid.x0, grid.x1, 129), np.linspace(grid.x1, hi, 129)[1:]])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel()
        overlap = float(np.sum(w * wavefunction_1d(ch, s0, t) * wavefunction_1d(ch, s1, t)))
        assert abs(overlap) < 1e-8, f"{axis}-axis levels 0 and 1 overlap {overlap:.3e}"
        overlaps.append(f"{axis}: <0|1> = {abs(overlap):.3e}")
    return ", ".join(overlaps) or "skipped: fewer than two levels"


def check_backsub(model: Model, window, entries, fp_entries, tol_degeneracy) -> str:
    # F re-evaluated at each root, not the residual find_roots stored with it.
    residuals = [abs(mismatch(model, e.variant, e.m, e.n, e.energy)) for e in entries]
    for e, f in zip(entries, residuals):
        assert f < 1e-10, f"({e.m},{e.n}) residual {f:.3e}"
    return f"{len(entries)} levels, worst |F| = {max(residuals, default=0.0):.3e}"


def check_pde(model: Model, window, entries, fp_entries, tol_degeneracy) -> str:
    valid = [e for e in fp_entries if e.valid.all_ok]
    if not valid:
        return "skipped: no fully valid levels"
    grid = oracle.Grid2D(oracle.Grid1D(-2.0, 8.0, 61), oracle.Grid1D(-2.0, 8.0, 61))
    worst = max(pde_residual(model, e, grid) for e in valid[:3])
    assert worst < 1e-10, f"PDE residual {worst:.3e}"
    return f"max relative residual {worst:.3e} over {min(3, len(valid))} levels"


def check_window(model: Model, window, entries, fp_entries, tol_degeneracy) -> str:
    for e in entries:
        assert window.lo - 1e-9 <= e.energy <= window.hi + 1e-9, f"({e.m},{e.n}) energy {e.energy} outside window"
    return f"{len(entries)} energies inside [{window.lo:.17g}, {window.hi:.17g}]"


def check_degeneracy(model: Model, window, entries, fp_entries, tol_degeneracy) -> str:
    clusters = group_degeneracies(entries, tol_degeneracy)
    if spectrum.is_xy_symmetric(model):
        by_pair: dict[tuple[int, int], list[float]] = {}
        for e in entries:
            by_pair.setdefault((e.m, e.n), []).append(e.energy)
        for (m, n), energies in by_pair.items():
            assert sorted(by_pair.get((n, m), [])) == sorted(energies), f"({m},{n}) roots differ from ({n},{m})'s"
        # Mirrored roots copy their energies, so F itself must be mirror-exact there.
        for e in entries:
            if e.m != e.n:
                f = mismatch(model, e.variant, e.m, e.n, e.energy)
                g = mismatch(model, e.variant, e.n, e.m, e.energy)
                assert f.hex() == g.hex(), f"F({e.m},{e.n}) = {f!r} but F({e.n},{e.m}) = {g!r} at E = {e.energy!r}"
    multi = [c for c in clusters if c.multiplicity > 1]
    return f"{len(clusters)} clusters, {len(multi)} degenerate"


#: The verify suite in run order: (name, check, reads_study).  A check that
#: reads the study also takes the window, the configured variant's spectrum,
#: the first-principles one and the degeneracy tolerance, which verify
#: resolves once before any check runs.
VERIFY_CHECKS = (
    ("ordering-solution", check_ordering, False),
    ("reduction-identity", check_reduction, False),
    ("1d-oracle", check_oracle_1d, False),
    ("node-counts", check_nodes, False),
    ("orthogonality", check_orthogonality, False),
    ("back-substitution", check_backsub, True),
    ("pde-residual", check_pde, True),
    ("window-containment", check_window, True),
    ("degeneracy", check_degeneracy, True),
)
