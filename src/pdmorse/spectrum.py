"""Self-consistent 2D spectrum, eigenfunctions, and reference comparison.

The reduced per-axis channels depend on the total energy E through the
potential weights, so physical levels are roots of a mismatch function
rather than explicit formulas.  Two variants of that function are first
class citizens:

* ``FIRST_PRINCIPLES`` assembles eps_m(E) + eps_n(E) = 2 xi(E)/hbar^2 from
  this package's own per-axis closed forms.
* ``PAPER_PRINTED`` transcribes the published closed condition verbatim,
  including its prefactor 8 and its use of |gamma3| in both bracketed terms.

The two disagree (they are not algebraically equivalent), which is exactly
why both are implemented and compared against the bundled reference levels
instead of silently repairing either one.
"""

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import oracle
from .effective import channels_at, epsilon_of, gammas_at, split_channels, ueff_at
from .errors import DegenerateWindow, InvalidLevel, finite_field
from .model import Model, mass_at
from .morse1d import energy_1d, level_epsilon, wavefunction_1d


class Variant(enum.Enum):
    """Which self-consistency condition generates the spectrum."""

    FIRST_PRINCIPLES = "first-principles"
    PAPER_PRINTED = "paper-printed"


@dataclass(frozen=True)
class ValidityFlags:
    """Whether level m of the x channel and level n of the y channel are bound."""

    level_x_allowed: bool
    level_y_allowed: bool

    @property
    def all_ok(self) -> bool:
        return self.level_x_allowed and self.level_y_allowed


@dataclass(frozen=True)
class SpectrumEntry:
    """One root of the mismatch function for quantum numbers (m, n)."""

    m: int
    n: int
    energy: float
    residual: float
    valid: ValidityFlags
    variant: Variant


@dataclass(frozen=True)
class EnergyWindow:
    """Bound-state search interval: potential minimum up to the asymptote."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")


#: Published reference spectrum for the symmetric example parameter set,
#: verbatim at the six significant figures it was reported with.
REFERENCE_LEVELS: tuple[tuple[int, int, float], ...] = (
    (0, 0, -0.0669873),
    (0, 1, 0.250000),
    (0, 2, 0.433013),
    (0, 3, 0.250000),
    (0, 4, -0.0188424),
    (1, 1, 0.661438),
    (1, 2, 0.957107),
    (1, 3, -0.161438),
    (1, 4, 0.250000),
    (2, 2, -0.329156),
    (2, 3, -0.116025),
    (2, 4, 0.170844),
    (2, 5, 0.542893),
    (3, 3, 0.0317542),
    (3, 4, 0.250000),
    (3, 5, 0.531754),
    (3, 6, 0.883975),
    (4, 4, 0.410275),
    (4, 5, 0.631966),
    (4, 6, 0.910275),
    (5, 5, 0.801042),
)


def mismatch(model: Model, variant: Variant, m: int, n: int, e):
    """Signed self-consistency defect F(E) whose roots are physical levels.

    Elementwise over trial energies e, NaN where F is undefined, and a float
    for scalar e.  First-principles F is _OnsetTerms.defect's, undefined
    where level m (x) or n (y) is not bound; the printed condition where
    gamma2 <= 0 or gamma4 <= 0.
    """
    if m < 0 or n < 0:
        raise InvalidLevel(f"quantum numbers must be non-negative, got ({m}, {n})")
    f = _TERMS[variant](model, e).mismatch(m, n)
    return f if np.ndim(f) else float(f)


class _Terms:
    """F = row_x(m) + row_y(n) - c at trial energies e, from one gammas_at call.

    A variant supplies _row(axis, q), a row and where it leaves F undefined,
    the constant c, its bracket rule and its probe.  Every pair's F is formed
    in that one order, so it is bitwise what evaluating the pair alone gives,
    and F(m, n) and F(n, m) are bitwise equal wherever the axes' rows are.
    Over a scan grid, :meth:`roots` finds each pair's roots from those rows.
    """

    def __init__(self, model: Model, e):
        self.model = model
        self.e = e
        self.g = gammas_at(model, e)
        self._x_row_at = (None, None)
        self._y_rows: dict = {}

    @cached_property
    def channels(self):
        return split_channels(self.model, self.g)

    def flags(self, m: int, n: int) -> ValidityFlags:
        chx, chy = self.channels
        return ValidityFlags(
            level_x_allowed=not np.isnan(level_epsilon(chx, m)),
            level_y_allowed=not np.isnan(level_epsilon(chy, n)),
        )

    def defect(self, m: int, n: int):
        """F, and where it is undefined.

        Every y row is kept, but only the last x row: callers visit the pairs
        m by m, so the rows held stay a few times one pair's.
        """
        if self._x_row_at[0] != m:
            self._x_row_at = (m, self._row(0, m))
        if n not in self._y_rows:
            self._y_rows[n] = self._row(1, n)
        (fx, undefined_x), (fy, undefined_y) = self._x_row_at[1], self._y_rows[n]
        with np.errstate(all="ignore"):
            return fx + fy - self.c, undefined_x | undefined_y

    def mismatch(self, m: int, n: int):
        f, undefined = self.defect(m, n)
        return np.where(undefined, np.nan, f)

    def roots(self, m: int, n: int, tol: float) -> list[SpectrumEntry]:
        """find_roots for one pair over this scan grid; each root's entry from its own terms."""
        model, es = self.model, self.e
        vals, cells = self.brackets(m, n)
        f = lambda e: self._probe(m, n, e)
        roots = [float(e) for e in es[vals == 0.0]]
        for i in np.flatnonzero(cells):
            a, b = float(es[i]), float(es[i + 1])
            lo, hi, flo, fhi = oracle.itp(f, a, b, float(vals[i]), float(vals[i + 1]), tol)
            if lo == hi or math.isnan(fhi):
                roots.append(0.5 * (lo + hi))
            else:
                roots.append(lo + (hi - lo) * flo / (flo - fhi))

        merged: list[float] = []
        for r in sorted(roots):
            if not merged or r - merged[-1] > 10.0 * tol:
                merged.append(r)
        entries = []
        for r in merged:
            terms = type(self)(model, r)
            fr = float(terms.mismatch(m, n))
            if not math.isnan(fr):
                entries.append(
                    SpectrumEntry(m=m, n=n, energy=r, residual=abs(fr), valid=terms.flags(m, n), variant=self.variant)
                )
        return entries


class _OnsetTerms(_Terms):
    """First-principles F = eps_m (x channel) + eps_n (y channel) - eps(E).

    A level not yet bound enters its row as 0, the eps it reaches at onset,
    and is undefined there.  So defect's F is continuous and strictly
    decreasing in E, and NaN only where gamma2 or gamma4 <= 0 (F -> -inf).
    """

    variant = Variant.FIRST_PRINCIPLES

    def __init__(self, model: Model, e):
        super().__init__(model, e)
        self.c = epsilon_of(model, e)

    def _row(self, axis: int, q: int):
        ch = self.channels[axis]
        eq = level_epsilon(ch, q)
        below = np.isnan(eq) & (ch.nu > 0.0)
        return np.where(below, 0.0, eq), below

    def brackets(self, m: int, n: int):
        """F over a scan grid, and the cells whose lower value is > 0 and whose
        upper value is < 0 or NaN, with the upper end past both onsets."""
        vals, below = self.defect(m, n)
        return vals, (vals[:-1] > 0.0) & ~(vals[1:] >= 0.0) & ~below[1:]

    def _probe(self, m: int, n: int, e: float) -> float:
        return float(_OnsetTerms(self.model, e).defect(m, n)[0])


class _PrintedTerms(_Terms):
    """The published condition verbatim: prefactor 8, |gamma3| in both brackets,
    m paired with the y-axis quantities and n with the x-axis ones, all
    evaluated at the shift m0 (r - E).  Its rows enter negated and
    c = -8 gamma2 gamma4 (a + shift), so F = -c - (row_m + row_n) is
    symmetric in its two rows; c is NaN where gamma2 or gamma4 <= 0."""

    variant = Variant.PAPER_PRINTED

    def __init__(self, model: Model, e):
        super().__init__(model, e)
        g = self.g
        with np.errstate(all="ignore"):
            lhs = 8.0 * g.gamma2 * g.gamma4 * (model.pot.a + g.shift)
            self.abs3 = np.abs(g.gamma3)
            self.slope_x = model.hbar * model.mass.a1 * np.sqrt(g.gamma2 / 2.0)
            self.slope_y = model.hbar * model.mass.a2 * np.sqrt(g.gamma4 / 2.0)
        self.c = np.where((g.gamma2 > 0.0) & (g.gamma4 > 0.0), -lhs, np.nan)

    def _row(self, axis: int, q: int):
        weight, slope = (self.g.gamma2, self.slope_y) if axis == 0 else (self.g.gamma4, self.slope_x)
        with np.errstate(all="ignore"):
            t = self.abs3 - slope * (2 * q + 1)
            return -(weight * t * t), False

    def brackets(self, m: int, n: int):
        """F over a scan grid, and the cells across which it changes sign."""
        vals = self.mismatch(m, n)
        return vals, vals[:-1] * vals[1:] < 0.0

    def _probe(self, m: int, n: int, e: float) -> float:
        return mismatch(self.model, self.variant, m, n, e)


_TERMS = {Variant.FIRST_PRINCIPLES: _OnsetTerms, Variant.PAPER_PRINTED: _PrintedTerms}


def validity_at(model: Model, m: int, n: int, e: float) -> ValidityFlags:
    """Recompute the bound-state validity flags at energy e."""
    return _Terms(model, e).flags(m, n)


def _scan_grid(window: EnergyWindow, scan_points: int):
    if scan_points < 100:
        raise ValueError(f"need scan_points >= 100, got {scan_points}")
    return np.linspace(window.lo, window.hi, scan_points)


def find_roots(
    model: Model,
    variant: Variant,
    m: int,
    n: int,
    window: EnergyWindow,
    scan_points: int = 2000,
    tol: float = 1e-12,
) -> list[SpectrumEntry]:
    """All bracketable roots of the mismatch inside the window, sorted by E.

    The one-pair case of the scan that :func:`enumerate_spectrum` and
    :func:`compare_table` build once per spectrum and share across pairs:
    a uniform sign scan of the whole grid at once, an ITP search (see
    oracle.itp) of every bracket to width tol, then one regula-falsi step
    inside the final bracket from its two known end values.  That step costs
    no evaluation of F and takes |F| from ~tol |F'| down to rounding, which
    matters because :func:`pde_residual` divides by eps, and eps -> 0 as a
    level nears the asymptote.  The first-principles scan runs on
    _OnsetTerms.defect, which is continuous and strictly decreasing, so a
    cell brackets the one root when its lower value is > 0 and its upper
    value < 0 or NaN.  A cell whose upper end still has a level below onset
    is skipped, and a root is kept only where :func:`mismatch` is finite.
    The printed condition is NaN where undefined, which never brackets, and
    defined on one interval of E, so a bracket with two finite ends holds no
    NaN; its tangential roots and two roots in one scan cell are missed.
    Raises OrderingNotSolvable unless the model's ordering is the reducing
    one, for which alone F exists, after the argument checks.
    """
    es = _scan_grid(window, scan_points)
    if m < 0 or n < 0:
        raise InvalidLevel(f"quantum numbers must be non-negative, got ({m}, {n})")
    return _TERMS[variant](model, es).roots(m, n, tol)


def is_xy_symmetric(model: Model) -> bool:
    """True when mass and potential parameters are invariant under x <-> y."""
    ms, ps = model.mass, model.pot
    return (
        ms.g1 == ms.g3
        and ms.g2 == ms.g4
        and ms.a1 == ms.a2
        and ps.b1 == ps.b3
        and ps.b2 == ps.b4
    )


def _mirror(entry: SpectrumEntry) -> SpectrumEntry:
    flags = entry.valid
    return replace(
        entry,
        m=entry.n,
        n=entry.m,
        valid=ValidityFlags(level_x_allowed=flags.level_y_allowed, level_y_allowed=flags.level_x_allowed),
    )


def enumerate_spectrum(
    model: Model,
    variant: Variant,
    window: EnergyWindow,
    max_q: int,
    scan_points: int = 2000,
    tol: float = 1e-12,
) -> list[SpectrumEntry]:
    """Roots for every (m, n) with 0 <= m, n <= max_q, sorted by (E, m, n).

    The scan grid's terms are evaluated once and shared by every pair, which
    finds exactly the roots :func:`find_roots` finds for it alone.  For x<->y
    symmetric parameters only m <= n is scanned and the (n, m) partner is
    mirrored: F(n, m) is bitwise F(m, n) there, so the mirror is what
    scanning (n, m) finds.
    """
    if max_q < 0:
        raise ValueError(f"need max_q >= 0, got {max_q}")
    terms = _TERMS[variant](model, _scan_grid(window, scan_points))
    symmetric = is_xy_symmetric(model)
    entries: list[SpectrumEntry] = []
    for m in range(max_q + 1):
        n_start = m if symmetric else 0
        for n in range(n_start, max_q + 1):
            found = terms.roots(m, n, tol)
            entries.extend(found)
            if symmetric and n > m:
                entries.extend(_mirror(e) for e in found)
    return sorted(entries, key=lambda e: (e.energy, e.m, e.n))


def energy_window(model: Model) -> EnergyWindow:
    """Binding interval [potential minimum, asymptotic value r + a/m0]."""
    hi = model.pot.r + model.pot.a / model.mass.m0
    _, _, lo = oracle.minimize_potential(model)
    if not lo < hi - 1e-12 * max(1.0, abs(hi)):
        raise DegenerateWindow(
            f"potential minimum {lo!r} does not lie below the asymptote {hi!r}; "
            "nothing can bind"
        )
    return EnergyWindow(lo=lo, hi=hi)


@dataclass(frozen=True)
class DegeneracyCluster:
    energy: float
    entries: tuple[SpectrumEntry, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.entries)


def group_degeneracies(entries, tol: float) -> list[DegeneracyCluster]:
    """Cluster energy-sorted entries whose energies agree pairwise within tol."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    clusters: list[DegeneracyCluster] = []
    bucket: list[SpectrumEntry] = []
    for e in entries:
        if bucket and not (e.energy - bucket[0].energy < tol):
            clusters.append(DegeneracyCluster(bucket[0].energy, tuple(bucket)))
            bucket = []
        bucket.append(e)
    if bucket:
        clusters.append(DegeneracyCluster(bucket[0].energy, tuple(bucket)))
    return clusters


def _prepared_axes(model: Model, entry: SpectrumEntry):
    """Normalized per-axis channels and states for one spectrum entry."""
    chx, chy = channels_at(model, entry.energy)
    return chx, energy_1d(chx, entry.m), chy, energy_1d(chy, entry.n)


def chi_mn(model: Model, entry: SpectrumEntry, x, y, quad_tol: float = 1e-8):
    """Separable reduced eigenfunction X_m(x) Y_n(y), normalized per axis.

    ``quad_tol`` has no effect: the per-axis norms are exact closed forms.
    It is accepted so that existing callers keep working.
    """
    chx, sx, chy, sy = _prepared_axes(model, entry)
    out = wavefunction_1d(chx, sx, x) * wavefunction_1d(chy, sy, y)
    return out if np.ndim(out) else float(out)


def psi_mn(model: Model, entry: SpectrumEntry, x, y, quad_tol: float = 1e-8):
    """Physical eigenfunction sqrt(M(x, y)) X_m(x) Y_n(y); ``quad_tol`` has no effect."""
    out = np.sqrt(mass_at(model.mass, x, y)) * chi_mn(model, entry, x, y)
    return out if np.ndim(out) else float(out)


def pde_residual(model: Model, entry: SpectrumEntry, grid: "oracle.Grid2D") -> float:
    """Relative L2 defect of the reduced 2D equation over the grid.

    The Laplacian is taken analytically through the per-axis relations
    X'' = (eta e^{-ax} + nu e^{-2ax} - eps_m) X, so for a true root the
    residual is an algebraic identity up to rounding.  A channel potential or
    u_eff that overflows on the grid raises EvaluationOverflow at its first node.
    """
    chx, sx, chy, sy = _prepared_axes(model, entry)
    xs = grid.x.nodes()
    ys = grid.y.nodes()
    X = wavefunction_1d(chx, sx, xs)
    Y = wavefunction_1d(chy, sy, ys)
    Xpp = (finite_field("x channel potential", chx.potential(xs), xs, ys[0]) - sx.epsilon) * X
    Ypp = (finite_field("y channel potential", chy.potential(ys), xs[0], ys) - sy.epsilon) * Y

    chi = np.outer(Y, X)
    lap = np.outer(Y, Xpp) + np.outer(Ypp, X)
    Xg, Yg = np.meshgrid(xs, ys)
    ueff_term = (2.0 / (model.hbar * model.hbar)) * ueff_at(model, entry.energy, Xg, Yg)
    eps = epsilon_of(model, entry.energy)
    resid = -lap + ueff_term * chi - eps * chi
    denom = float(np.sqrt(np.sum((eps * chi) ** 2)))
    if denom == 0.0:
        raise ValueError("eigenfunction vanishes on the whole grid")
    return float(np.sqrt(np.sum(resid**2)) / denom)


@dataclass(frozen=True)
class TableRow:
    m: int
    n: int
    e_ref: float
    e_fp: float
    de_fp: float
    match_fp: bool
    e_pp: float
    de_pp: float
    match_pp: bool


@dataclass(frozen=True)
class TableComparison:
    rows: tuple[TableRow, ...]
    multi_roots: tuple[tuple[str, int, int, tuple[float, ...]], ...]
    #: A root matches its reference level when closer than this.
    match_tol: ClassVar[float] = 1e-5

    @property
    def matches_fp(self) -> int:
        return sum(r.match_fp for r in self.rows)

    @property
    def matches_pp(self) -> int:
        return sum(r.match_pp for r in self.rows)


def compare_table(
    model: Model, window: EnergyWindow, scan_points: int = 2000, tol: float = 1e-12
) -> TableComparison:
    """Nearest-root distances of both variants against REFERENCE_LEVELS.

    Purely diagnostic: reports per-entry distances and per-variant match
    counts, and inventories quantum numbers that produced several roots.  It
    never asserts how many entries must match.  Each variant's scan grid
    terms are evaluated once and shared by every reference pair, whose roots
    are exactly those :func:`find_roots` finds for it alone; the first
    variant's scan is done before the second one's is built.
    """
    found = {}
    for variant in Variant:
        terms = _TERMS[variant](model, _scan_grid(window, scan_points))
        for m, n, _ in REFERENCE_LEVELS:
            found[variant, m, n] = [e.energy for e in terms.roots(m, n, tol)]
        del terms  # freed before the next variant's grid terms are built
    rows = []
    multi = []
    for m, n, e_ref in REFERENCE_LEVELS:
        nearest = {}
        for variant in Variant:
            energies = found[variant, m, n]
            if len(energies) > 1:
                multi.append((variant.value, m, n, tuple(energies)))
            if energies:
                best = min(energies, key=lambda e: abs(e - e_ref))
                nearest[variant] = (best, abs(best - e_ref))
            else:
                nearest[variant] = (math.nan, math.inf)
        e_fp, de_fp = nearest[Variant.FIRST_PRINCIPLES]
        e_pp, de_pp = nearest[Variant.PAPER_PRINTED]
        rows.append(
            TableRow(
                m=m,
                n=n,
                e_ref=e_ref,
                e_fp=e_fp,
                de_fp=de_fp,
                match_fp=de_fp < TableComparison.match_tol,
                e_pp=e_pp,
                de_pp=de_pp,
                match_pp=de_pp < TableComparison.match_tol,
            )
        )
    return TableComparison(rows=tuple(rows), multi_roots=tuple(multi))
