import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmorse import (
    DegenerateWindow,
    EnergyWindow,
    EvaluationOverflow,
    Grid1D,
    Grid2D,
    InvalidLevel,
    MassParams,
    Model,
    OrderingParams,
    PotentialParams,
    REFERENCE_LEVELS,
    Variant,
    channels_at,
    chi_mn,
    compare_table,
    energy_1d,
    energy_window,
    enumerate_spectrum,
    epsilon_of,
    find_roots,
    gammas_at,
    group_degeneracies,
    m_max,
    mass_at,
    mismatch,
    pde_residual,
    psi_mn,
    solve_ambiguity_free_ordering,
)
from pdmorse import effective, oracle, spectrum
from pdmorse.cli import _find_inversions
from pdmorse.spectrum import (
    SpectrumEntry,
    TableComparison,
    TableRow,
    ValidityFlags,
    _mirror,
    _OnsetTerms,
    is_xy_symmetric,
    validity_at,
)
from tests.conftest import REFERENCE_MODEL, supported_models


def quadratic_roots_fp(m: int, n: int):
    """Independent oracle for the reference parameters, first-principles form.

    With g2=g4=0 the mismatch reduces to a quadratic in E:
    [2(1+E) - (2m+1)/2]^2 + [2(1+E) - (2n+1)/2]^2 + 2E - 2 = 0.
    """
    cm = (2 * m + 1) / 2.0
    cn = (2 * n + 1) / 2.0
    # Expand (2E + 2 - c)^2 terms with numpy poly arithmetic (highest first).
    pm_poly = np.polymul([2.0, 2.0 - cm], [2.0, 2.0 - cm])
    pn_poly = np.polymul([2.0, 2.0 - cn], [2.0, 2.0 - cn])
    poly = np.polyadd(np.polyadd(pm_poly, pn_poly), [0.0, 2.0, -2.0])
    roots = np.roots(poly)
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12)


def quadratic_roots_pp(m: int, n: int):
    """Same reduction for the printed condition: (1-E) = sum of brackets^2."""
    cn = (2 * n + 1) / 4.0
    cm = (2 * m + 1) / 4.0
    pn_poly = np.polymul([1.0, 1.0 - cn], [1.0, 1.0 - cn])
    pm_poly = np.polymul([1.0, 1.0 - cm], [1.0, 1.0 - cm])
    poly = np.polyadd(np.polyadd(pn_poly, pm_poly), [0.0, 1.0, -1.0])
    roots = np.roots(poly)
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-12)


@pytest.fixture(scope="module")
def window(reference_model):
    return energy_window(reference_model)


class TestMismatch:
    def test_fp_ground_pair_root_backsubstitutes(self, reference_model, window):
        roots = [r for r in quadratic_roots_fp(0, 0) if window.lo <= r <= window.hi]
        assert len(roots) == 1
        assert abs(mismatch(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, roots[0])) < 1e-12

    def test_fp_ground_pair_closed_form(self, reference_model, window):
        # Quadratic 16u^2 - 4u - 7 = 0 with u = 1+E gives E = (sqrt(29)-7)/8.
        roots = [r for r in quadratic_roots_fp(0, 0) if window.lo <= r <= window.hi]
        assert roots[0] == pytest.approx((math.sqrt(29.0) - 7.0) / 8.0, abs=1e-12)

    def test_pp_ground_pair_closed_form(self, reference_model, window):
        roots = [r for r in quadratic_roots_pp(0, 0) if window.lo <= r <= window.hi]
        assert roots[0] == pytest.approx(math.sqrt(15.0) / 4.0 - 1.0, abs=1e-12)
        assert abs(mismatch(reference_model, Variant.PAPER_PRINTED, 0, 0, roots[0])) < 1e-12

    def test_unsupported_energy_is_nan(self, reference_model):
        # gamma1(E) = -1 - E >= 0 for E <= -1: repulsive linear term.
        assert math.isnan(mismatch(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, -2.0))

    def test_level_beyond_cap_is_nan(self, reference_model):
        # At E = -0.3, lam = 2(1+E) = 1.4 so only m = 0 is allowed.
        assert math.isnan(mismatch(reference_model, Variant.FIRST_PRINCIPLES, 2, 0, -0.3))

    def test_scalar_energy_gives_float(self, reference_model):
        for variant in Variant:
            assert type(mismatch(reference_model, variant, 0, 0, 0.1)) is float

    def test_continuity_on_supported_interval(self, reference_model):
        f = lambda e: mismatch(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, e)
        e0 = -0.1
        deltas = [1e-3, 1e-5, 1e-7]
        diffs = [abs(f(e0 + d) - f(e0)) for d in deltas]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-5


class TestDefectArrayPath:
    """The whole-grid defect against the scalar closed forms, point by point."""

    @given(drawn=supported_models(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_nan_exactly_where_undefined(self, drawn, fractions):
        model, window = drawn
        es = window.lo + (window.hi - window.lo) * np.array(fractions)
        for m in range(4):
            for n in range(4):
                fp = mismatch(model, Variant.FIRST_PRINCIPLES, m, n, es)
                pp = mismatch(model, Variant.PAPER_PRINTED, m, n, es)
                for e, f_fp, f_pp in zip(es.tolist(), fp.tolist(), pp.tolist()):
                    v = validity_at(model, m, n, e)
                    defined = v.level_x_allowed and v.level_y_allowed
                    assert math.isnan(f_fp) != defined
                    if defined:
                        chx, chy = channels_at(model, e)
                        want = energy_1d(chx, m).epsilon + energy_1d(chy, n).epsilon - epsilon_of(model, e)
                        assert f_fp == want  # bitwise: same operations in the same order
                    g = gammas_at(model, e)
                    assert math.isnan(f_pp) == (g.gamma2 <= 0.0 or g.gamma4 <= 0.0)

    @given(drawn=supported_models())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_defined_energies_form_one_interval(self, drawn):
        # Every gamma_i falls with E (g_i >= 0), so each level's support is an
        # intersection of half-lines.  A scan bracket with two finite ends
        # therefore holds no NaN, and interpolating inside it is safe.
        model, window = drawn
        es = np.linspace(window.lo, window.hi, 4001)
        for variant in Variant:
            for m in range(5):
                for n in range(5):
                    defined = np.flatnonzero(np.isfinite(mismatch(model, variant, m, n, es)))
                    if defined.size:
                        assert defined[-1] - defined[0] + 1 == defined.size, (variant, m, n)

    @given(drawn=supported_models())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_first_principles_defect_strictly_decreases(self, drawn):
        # The scan's one-root argument: F falls strictly wherever it is
        # defined, and so does the scan's F, in which a level not yet bound
        # enters as 0; that one is NaN only where gamma2 or gamma4 <= 0.
        model, window = drawn
        es = np.linspace(window.lo, window.hi, 4001)
        g = gammas_at(model, es)
        dead = (g.gamma2 <= 0.0) | (g.gamma4 <= 0.0)
        for m in range(5):
            for n in range(5):
                f = mismatch(model, Variant.FIRST_PRINCIPLES, m, n, es)
                assert np.all(np.diff(f[np.isfinite(f)]) < 0.0), (m, n)
                scan, _ = _OnsetTerms(model, es).defect(m, n)
                assert np.array_equal(np.isnan(scan), dead), (m, n)
                assert np.all(np.diff(scan[~dead]) < 0.0), (m, n)

    def test_printed_condition_undefined_at_zero_weight(self, reference_model):
        # gamma2 = 1/8 - E/8 is exactly zero at E = 1, where the printed
        # formula alone would still give a finite number.
        model = replace(reference_model, mass=replace(reference_model.mass, g2=0.125))
        assert gammas_at(model, 1.0).gamma2 == 0.0
        assert math.isnan(mismatch(model, Variant.PAPER_PRINTED, 0, 0, np.array([0.5, 1.0]))[1])
        assert math.isnan(mismatch(model, Variant.PAPER_PRINTED, 0, 0, 1.0))


class TestFindRoots:
    def test_fp_ground_pair(self, reference_model, window):
        entries = find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window)
        assert len(entries) == 1
        e = entries[0]
        assert e.energy == pytest.approx((math.sqrt(29.0) - 7.0) / 8.0, abs=1e-11)
        assert e.residual < 1e-10
        assert e.valid.all_ok

    def test_every_quadratic_root_found(self, reference_model, window):
        # All in-window, in-support quadratic roots appear, none extra.
        for m in range(4):
            for n in range(m, 4):
                want = [
                    r
                    for r in quadratic_roots_fp(m, n)
                    if window.lo <= r <= window.hi and (1.0 + r) > (2 * max(m, n) + 1) / 4.0
                ]
                got = [
                    e.energy
                    for e in find_roots(reference_model, Variant.FIRST_PRINCIPLES, m, n, window)
                ]
                assert len(got) == len(want)
                for g, w in zip(got, sorted(want)):
                    assert g == pytest.approx(w, abs=1e-11)

    def test_unsupported_window_is_empty(self, reference_model):
        # Below E = -1 the linear weight turns repulsive: nothing to scan.
        w = EnergyWindow(-3.0, -1.5)
        assert find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, w) == []

    def test_refinement_keeps_roots(self, reference_model, window):
        coarse = find_roots(reference_model, Variant.PAPER_PRINTED, 2, 3, window, scan_points=500)
        fine = find_roots(reference_model, Variant.PAPER_PRINTED, 2, 3, window, scan_points=1000)
        assert len(fine) >= len(coarse)
        for c in coarse:
            assert min(abs(f.energy - c.energy) for f in fine) < 1e-10

    def test_scan_points_floor(self, reference_model, window):
        with pytest.raises(ValueError):
            find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window, scan_points=50)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda model, w: mismatch(model, Variant.PAPER_PRINTED, -1, 0, 0.0),
                InvalidLevel,
                r"quantum numbers must be non-negative, got \(-1, 0\)",
            ),
            (
                lambda model, w: find_roots(model, Variant.FIRST_PRINCIPLES, 0, -1, w),
                InvalidLevel,
                r"quantum numbers must be non-negative, got \(0, -1\)",
            ),
            (lambda model, w: enumerate_spectrum(model, Variant.FIRST_PRINCIPLES, w, -1), ValueError, "need max_q >= 0, got -1"),
            (lambda model, w: group_degeneracies([], -1e-9), ValueError, "tolerance must be non-negative"),
        ],
        ids=["mismatch-m", "find_roots-n", "enumerate-max_q", "degeneracy-tol"],
    )
    def test_argument_guards(self, reference_model, window, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call(reference_model, window)

    def test_itp_probe_counts(self, reference_model, window, monkeypatch):
        # README: every bracket of the reference model's two spectra and of
        # compare_table takes 7 to 15 probes, within ITP's bound of one probe
        # beyond bisection, which takes 30 on each of these scan cells.
        real, counts = oracle.itp, []

        def counted(f, lo, hi, flo, fhi, tol):
            probes = []
            out = real(lambda e: probes.append(e) or f(e), lo, hi, flo, fhi, tol)
            bisection = math.ceil(math.log2((hi - lo) / tol))
            assert bisection == 30 and len(probes) <= bisection + 1
            counts.append(len(probes))
            return out

        monkeypatch.setattr(oracle, "itp", counted)
        for variant in Variant:
            enumerate_spectrum(reference_model, variant, window, 6)
        compare_table(reference_model, window=window)
        assert len(counts) == 34 and (min(counts), max(counts)) == (7, 15)
        assert sum(counts) == 278

    @given(drawn=supported_models())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_scan_resolution_finds_the_same_levels(self, drawn):
        # A level less than one scan cell above its support edge is
        # bracketed too, so a 100-node scan finds what a 20,000-node one does.
        model, window = drawn
        tol = 1e-12
        spectra = (enumerate_spectrum(model, Variant.FIRST_PRINCIPLES, window, 4, p, tol) for p in (100, 20_000))
        coarse, fine = (sorted((e.m, e.n, e.energy) for e in entries) for entries in spectra)
        assert [c[:2] for c in coarse] == [f[:2] for f in fine]
        for c, f in zip(coarse, fine):
            assert abs(c[2] - f[2]) <= tol, c

    @given(drawn=supported_models())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_roots_inside_window(self, drawn):
        # A root is a scan node or lies in a bracket between two of them.
        model, window = drawn
        for variant in Variant:
            for m in range(4):
                for n in range(4):
                    for e in find_roots(model, variant, m, n, window):
                        assert window.lo <= e.energy <= window.hi


#: The six distinct first-principles levels of the reference model, frozen
#: from the quadratic reduction (cross-checked against np.roots above).
FP_LEVELS = {
    (0, 0): (math.sqrt(29.0) - 7.0) / 8.0,
    (0, 1): (math.sqrt(21.0) - 5.0) / 8.0,
    (1, 1): (math.sqrt(21.0) - 3.0) / 8.0,
    (1, 2): (math.sqrt(13.0) - 1.0) / 8.0,
    (2, 2): (math.sqrt(13.0) + 1.0) / 8.0,
    (3, 3): (5.0 + math.sqrt(5.0)) / 8.0,
}


class TestEnumerate:
    def test_reference_fp_spectrum_complete(self, reference_model, window):
        entries = enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 6)
        got = {(e.m, e.n): e.energy for e in entries}
        assert set(got) == set(FP_LEVELS) | {(n, m) for m, n in FP_LEVELS}
        for (m, n), e in FP_LEVELS.items():
            assert got[(m, n)] == pytest.approx(e, abs=1e-11)
        assert all(e.valid.all_ok for e in entries)

    def test_symmetric_mirror_is_bitwise_equal(self, reference_model, window):
        entries = enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 3)
        by_pair = {(e.m, e.n): e.energy for e in entries}
        for (m, n), energy in by_pair.items():
            assert by_pair[(n, m)] == energy  # same float, mirrored object

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @given(drawn=supported_models(symmetric=True))
    @example(drawn=(REFERENCE_MODEL, energy_window(REFERENCE_MODEL)))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_mirror_is_an_independent_solve(self, variant, drawn):
        # On an x<->y symmetric model F(n, m) is bitwise F(m, n), so the
        # (n, m) roots enumerate_spectrum mirrors are exactly what solving
        # (n, m) on its own finds, energies and residuals alike.
        model, window = drawn
        assert is_xy_symmetric(model)
        for m in range(5):
            for n in range(m + 1, 5):
                mirrored = [_mirror(e) for e in find_roots(model, variant, m, n, window)]
                assert find_roots(model, variant, n, m, window) == mirrored, (m, n)

    def test_max_q_zero(self, reference_model, window):
        entries = enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 0)
        assert all((e.m, e.n) == (0, 0) for e in entries)

    def test_energies_inside_window(self, reference_model, window):
        for variant in Variant:
            for e in enumerate_spectrum(reference_model, variant, window, 6):
                assert window.lo - 1e-9 <= e.energy <= window.hi + 1e-9

    def test_sorted_and_deterministic(self, reference_model, window):
        a = enumerate_spectrum(reference_model, Variant.PAPER_PRINTED, window, 5)
        b = enumerate_spectrum(reference_model, Variant.PAPER_PRINTED, window, 5)
        assert a == b
        keys = [(e.energy, e.m, e.n) for e in a]
        assert keys == sorted(keys)

    def test_printed_variant_records_flags_without_filtering(self, reference_model, window):
        # The printed condition has roots where the bound-state machinery
        # would reject the level, e.g. (2,3) at E = -1/4.  Those entries are
        # emitted with honest flags instead of being dropped.
        entries = enumerate_spectrum(reference_model, Variant.PAPER_PRINTED, window, 6)
        flagged = [e for e in entries if not e.valid.all_ok]
        assert flagged
        assert any((e.m, e.n) == (2, 3) and e.energy == pytest.approx(-0.25, abs=1e-10) for e in flagged)
        for e in flagged:
            assert abs(mismatch(reference_model, Variant.PAPER_PRINTED, e.m, e.n, e.energy)) < 1e-10

    def test_asymmetric_model_no_mirroring(self, asymmetric_model):
        assert not is_xy_symmetric(asymmetric_model)
        window = energy_window(asymmetric_model)
        entries = enumerate_spectrum(asymmetric_model, Variant.FIRST_PRINCIPLES, window, 2)
        assert entries, "asymmetric model should still bind levels"
        by_pair = {(e.m, e.n): e.energy for e in entries}
        # x/y asymmetry must break the mirror degeneracy for at least one
        # off-diagonal pair: different energies, or one orientation missing.
        broken = [
            (m, n)
            for (m, n) in by_pair
            if m != n and by_pair.get((n, m)) != by_pair[(m, n)]
        ]
        assert broken, "x/y asymmetry must split at least one mirrored pair"
        for e in entries:
            assert abs(mismatch(asymmetric_model, Variant.FIRST_PRINCIPLES, e.m, e.n, e.energy)) < 1e-10


class TestEnergyWindow:
    def test_reference_window(self, reference_model, window):
        assert window.hi == 1.0
        assert window.lo == pytest.approx(-0.40693, abs=1e-4)

    def test_hi_matches_far_field(self, reference_model, window):
        from pdmorse import potential_at

        assert abs(window.hi - potential_at(reference_model, 30.0, 30.0)) < 1e-10

    def test_degenerate_window_rejected(self):
        flat = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.0, a=1.0, b1=0, b2=0, b3=0, b4=0),
            ordering=OrderingParams(-0.5, 0, -0.5),
        )
        with pytest.raises(DegenerateWindow):
            energy_window(flat)


def _fake_entry(m, n, energy):
    flags = ValidityFlags(True, True)
    return SpectrumEntry(
        m=m,
        n=n,
        energy=energy,
        residual=0.0,
        valid=flags,
        variant=Variant.FIRST_PRINCIPLES,
    )


class TestDegeneracies:
    def test_zero_tolerance_gives_singletons(self):
        entries = [_fake_entry(0, 0, 0.1), _fake_entry(0, 1, 0.1), _fake_entry(1, 1, 0.2)]
        clusters = group_degeneracies(entries, 0.0)
        assert [c.multiplicity for c in clusters] == [1, 1, 1]

    def test_reference_table_eightfold_cluster(self):
        # The published table holds (0,1),(0,3),(1,4),(3,4) at 0.25; counting
        # both orientations that is an eight-fold coincidence.
        entries = []
        for m, n, e in REFERENCE_LEVELS:
            entries.append(_fake_entry(m, n, e))
            if m != n:
                entries.append(_fake_entry(n, m, e))
        entries.sort(key=lambda x: x.energy)
        clusters = group_degeneracies(entries, 1e-6)
        big = [c for c in clusters if c.multiplicity == 8]
        assert len(big) == 1
        assert big[0].energy == pytest.approx(0.25, abs=1e-12)
        pairs = {(e.m, e.n) for e in big[0].entries}
        assert pairs == {(0, 1), (1, 0), (0, 3), (3, 0), (1, 4), (4, 1), (3, 4), (4, 3)}

    def test_reference_table_shows_inversions(self):
        inversions = _find_inversions(REFERENCE_LEVELS)
        assert inversions
        # Specifically (2,2) lies below (0,1) despite the larger total index.
        assert any(
            a[:2] == (0, 1) and b[:2] == (2, 2) for a, b in inversions
        )


@pytest.fixture(scope="module")
def ground(reference_model, window):
    return find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window)[0]


@pytest.fixture(scope="module")
def mixed(reference_model, window):
    return find_roots(reference_model, Variant.FIRST_PRINCIPLES, 1, 2, window)[0]


class TestEigenfunctions:
    def test_symmetry_under_swap(self, reference_model, mixed):
        from pdmorse.spectrum import _mirror

        swapped = _mirror(mixed)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = rng.uniform(-1.0, 6.0, size=2)
            a = chi_mn(reference_model, mixed, x, y)
            b = chi_mn(reference_model, swapped, y, x)
            assert a == pytest.approx(b, abs=1e-12)

    def test_ground_state_positive(self, reference_model, ground):
        xs = np.linspace(-2.0, 6.0, 21)
        X, Y = np.meshgrid(xs, xs)
        assert np.all(chi_mn(reference_model, ground, X, Y) > 0.0)

    def test_unit_norm_2d(self, reference_model, ground):
        from scipy.integrate import simpson

        xs = np.linspace(-9.0, 25.0, (1 << 9) + 1)
        ys = np.linspace(-9.0, 25.0, (1 << 11) + 1)
        chi2 = chi_mn(reference_model, ground, xs[:, None], ys[None, :]) ** 2
        val = simpson(simpson(chi2, x=ys, axis=1), x=xs)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_psi_is_sqrt_mass_times_chi(self, reference_model, ground):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x, y = rng.uniform(-2.0, 8.0, size=2)
            c = chi_mn(reference_model, ground, x, y)
            p = psi_mn(reference_model, ground, x, y)
            assert p == pytest.approx(math.sqrt(mass_at(reference_model.mass, x, y)) * c, rel=1e-14)

    def test_psi_at_origin(self, reference_model, ground):
        c = chi_mn(reference_model, ground, 0.0, 0.0)
        p = psi_mn(reference_model, ground, 0.0, 0.0)
        assert p == pytest.approx(math.sqrt(3.0) * c, rel=1e-14)

    def test_constant_mass_psi_equals_chi(self):
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.0, a=1.0, b1=-1, b2=0.125, b3=-1, b4=0.125),
            ordering=OrderingParams(-0.5, 0, -0.5),
        )
        window = energy_window(model)
        entry = find_roots(model, Variant.FIRST_PRINCIPLES, 0, 0, window)[0]
        for x, y in ((0.0, 0.0), (1.5, -0.5), (4.0, 2.0)):
            assert psi_mn(model, entry, x, y) == chi_mn(model, entry, x, y)


class TestPdeResidual:
    def test_true_roots_are_algebraic_identities(self, reference_model, window):
        grid = Grid2D(Grid1D(-2.0, 10.0, 101), Grid1D(-2.0, 10.0, 101))
        entries = enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 1)
        for e in entries[:3]:
            assert pde_residual(reference_model, e, grid) < 1e-10

    def test_perturbed_energy_blows_up_residual(self, reference_model, window):
        from dataclasses import replace

        grid = Grid2D(Grid1D(-2.0, 10.0, 61), Grid1D(-2.0, 10.0, 61))
        entry = find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window)[0]
        base = pde_residual(reference_model, entry, grid)
        bumped = replace(entry, energy=entry.energy + 1e-3)
        assert pde_residual(reference_model, bumped, grid) > 10.0 * max(base, 1e-12)

    def test_state_vanishing_on_the_grid_raises(self, reference_model, window):
        # Far left of both wells the closed-form state underflows to 0 at every node.
        grid = Grid2D(Grid1D(-60.0, -50.0, 21), Grid1D(-60.0, -50.0, 21))
        entry = find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window)[0]
        with pytest.raises(ValueError, match="^eigenfunction vanishes on the whole grid$"):
            pde_residual(reference_model, entry, grid)

    def test_channel_overflow_reports_first_node(self, reference_model, window):
        # The x channel's nu e^{-2x} overflows at the grid's first column, x = -400.
        grid = Grid2D(Grid1D(-400.0, 10.0, 83), Grid1D(-2.0, 10.0, 21))
        entry = find_roots(reference_model, Variant.FIRST_PRINCIPLES, 0, 0, window)[0]
        with pytest.raises(EvaluationOverflow) as exc:
            pde_residual(reference_model, entry, grid)
        assert (exc.value.what, exc.value.x, exc.value.y) == ("x channel potential", -400.0, -2.0)

    def test_free_model_never_reaches_residual(self):
        # With all exponential weights zero there is no bound machinery to
        # build an entry from: the guard is upstream.
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.0, a=1.0, b1=0, b2=0, b3=0, b4=0),
            ordering=OrderingParams(-0.5, 0, -0.5),
        )
        chx, chy = channels_at(model, 0.0)
        assert m_max(chx) is None and m_max(chy) is None
        with pytest.raises(DegenerateWindow):
            energy_window(model)
        w = EnergyWindow(-1.0, 1.0)  # even with a forced window: no roots
        assert find_roots(model, Variant.FIRST_PRINCIPLES, 0, 0, w) == []


def _near_asymptote_model(g1, g2, g3, g4, a1, a2, b1, b2, b3, b4) -> Model:
    return Model(
        hbar=1.0,
        mass=MassParams(m0=1.0, g1=g1, g2=g2, g3=g3, g4=g4, a1=a1, a2=a2),
        pot=PotentialParams(r=0.0, a=1.0, b1=b1, b2=b2, b3=b3, b4=b4),
        ordering=solve_ambiguity_free_ordering(),
    )


#: Asymmetric models with a level within 1e-3 of the asymptote E = 1, where
#: eps -> 0 and pde_residual's division by |eps| amplifies any |F| left by the
#: root polish: (3,3) at E = 0.99942 and (4,3) at E = 0.99904.
NEAR_ASYMPTOTE_MODELS = {
    "3-3-at-0.99942": _near_asymptote_model(
        0.9796292301791432, 0.031049600354208357, 0.7811987096827641, 0.07943736284730159,
        1.1931994970693247, 1.4805298565820004,
        -0.9201488970221928, 0.13314146730739343, -0.8894502186920351, 0.130909724450189,
    ),
    "4-3-at-0.99904": _near_asymptote_model(
        0.894906637790907, 0.03558386845872962, 0.9401442353339748, 0.04894999104259788,
        1.0180233182204121, 1.3529871439770214,
        -1.0257871330769672, 0.12258026355790626, -0.9305077319535806, 0.12559749775445841,
    ),
}


class TestRootPolish:
    @pytest.mark.parametrize("label", sorted(NEAR_ASYMPTOTE_MODELS))
    def test_levels_near_asymptote_satisfy_pde(self, label):
        model = NEAR_ASYMPTOTE_MODELS[label]
        grid = Grid2D(Grid1D(-2.0, 8.0, 61), Grid1D(-2.0, 8.0, 61))
        valid = [
            e
            for e in enumerate_spectrum(model, Variant.FIRST_PRINCIPLES, energy_window(model), 4)
            if e.valid.all_ok
        ]
        assert max(e.energy for e in valid) > 0.999
        for e in valid:
            r = pde_residual(model, e, grid)
            assert r < 1e-10, f"({e.m},{e.n}) at E={e.energy!r}: residual {r:.3e}"

    def test_every_reference_level_satisfies_pde(self, reference_model, window):
        grid = Grid2D(Grid1D(-2.0, 10.0, 101), Grid1D(-2.0, 10.0, 101))
        for e in enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 6):
            assert pde_residual(reference_model, e, grid) < 1e-10, (e.m, e.n)

    def test_reference_roots_at_closed_forms(self, reference_model, window):
        # README: the first-principles roots agree with their closed forms to
        # 6e-17, the paper-printed multi-roots to 1.2e-16.
        fp = enumerate_spectrum(reference_model, Variant.FIRST_PRINCIPLES, window, 6)
        assert len(fp) == 8
        for e in fp:
            assert abs(e.energy - FP_LEVELS[min(e.m, e.n), max(e.m, e.n)]) <= 6e-17, (e.m, e.n)
        # The paper-printed multi-root pairs of the README.
        pp = enumerate_spectrum(reference_model, Variant.PAPER_PRINTED, window, 6)
        multi = {
            (2, 3): (-0.25, 0.75),
            (3, 2): (-0.25, 0.75),
            (3, 3): ((2.0 - math.sqrt(3.0)) / 4.0, (2.0 + math.sqrt(3.0)) / 4.0),
        }
        for pair, want in multi.items():
            got = sorted(e.energy for e in pp if (e.m, e.n) == pair)
            assert len(got) == 2
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1.2e-16, pair


class TestBackSubstitution:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_all_entries_backsubstitute(self, reference_model, window, variant):
        for e in enumerate_spectrum(reference_model, variant, window, 6):
            assert abs(mismatch(reference_model, variant, e.m, e.n, e.energy)) < 1e-10


@pytest.fixture(scope="module")
def report(reference_model, window):
    return compare_table(reference_model, window=window)


class TestCompareTable:
    def test_reference_data_integrity(self):
        as_dict = {(m, n): e for m, n, e in REFERENCE_LEVELS}
        assert len(REFERENCE_LEVELS) == 21
        assert as_dict[(0, 0)] == -0.0669873
        assert as_dict[(2, 2)] == -0.329156
        assert as_dict[(1, 2)] == 0.957107
        assert as_dict[(3, 6)] == 0.883975
        quarters = [k for k, v in as_dict.items() if v == 0.25]
        assert sorted(quarters) == [(0, 1), (0, 3), (1, 4), (3, 4)]

    def test_report_covers_every_entry_with_both_variants(self, report):
        assert len(report.rows) == 21
        for row in report.rows:
            assert math.isfinite(row.de_fp) or math.isnan(row.e_fp)
            assert math.isfinite(row.de_pp) or math.isnan(row.e_pp)

    def test_report_deterministic(self, reference_model, window):
        a = compare_table(reference_model, window=window)
        b = compare_table(reference_model, window=window)
        assert a == b

    def test_nearest_fp_root_for_ground_pair(self, report):
        row = next(r for r in report.rows if (r.m, r.n) == (0, 0))
        assert row.e_fp == pytest.approx((math.sqrt(29.0) - 7.0) / 8.0, abs=1e-10)
        assert row.e_pp == pytest.approx(math.sqrt(15.0) / 4.0 - 1.0, abs=1e-10)

    def test_match_counts_are_properties_not_assertions(self, report):
        # Neither variant reproduces the published table; the report just
        # says so.  (Empirically both counts are zero at 1e-5.)
        assert 0 <= report.matches_fp <= 21
        assert 0 <= report.matches_pp <= 21


def _nan_free(row: TableRow) -> tuple:
    """A table row's fields with NaN as a string, so rows compare with ==."""
    return tuple("nan" if isinstance(x, float) and math.isnan(x) else x for x in astuple(row))


class TestSharedScan:
    """One scan per spectrum finds, bit for bit, what one scan per pair finds."""

    @pytest.mark.parametrize("draw_symmetric", [False, True], ids=["asymmetric", "symmetric"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_enumerate_equals_per_pair_find_roots(self, draw_symmetric, data):
        model, window = data.draw(supported_models(symmetric=draw_symmetric))
        max_q = data.draw(st.integers(0, 4))
        # A drawn asymmetric model may still come out symmetric.
        symmetric = is_xy_symmetric(model)
        for variant in Variant:
            want = []
            for m in range(max_q + 1):
                for n in range(m if symmetric else 0, max_q + 1):
                    found = find_roots(model, variant, m, n, window)
                    want.extend(found)
                    if n > m and symmetric:
                        want.extend(_mirror(e) for e in found)
            want.sort(key=lambda e: (e.energy, e.m, e.n))
            assert enumerate_spectrum(model, variant, window, max_q) == want

    @pytest.mark.parametrize("which", ["reference_model", "asymmetric_model"])
    def test_compare_table_equals_per_pair_find_roots(self, which, request):
        model = request.getfixturevalue(which)
        window = energy_window(model)
        rows, multi = [], []
        for m, n, e_ref in REFERENCE_LEVELS:
            nearest = []
            for variant in Variant:
                energies = [e.energy for e in find_roots(model, variant, m, n, window)]
                if len(energies) > 1:
                    multi.append((variant.value, m, n, tuple(energies)))
                best = min(energies, key=lambda e: abs(e - e_ref), default=math.nan)
                nearest.append((best, abs(best - e_ref) if energies else math.inf))
            (e_fp, de_fp), (e_pp, de_pp) = nearest
            tol = TableComparison.match_tol
            rows.append(TableRow(m, n, e_ref, e_fp, de_fp, de_fp < tol, e_pp, de_pp, de_pp < tol))
        report = compare_table(model, window=window)
        assert [_nan_free(r) for r in report.rows] == [_nan_free(r) for r in rows]
        assert report.multi_roots == tuple(multi)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_one_grid_evaluation_per_spectrum(self, reference_model, window, variant, monkeypatch):
        # Counts the reduced weights and the channels built over the whole
        # scan grid; a scan per pair would build them once for each of the
        # 28 scanned pairs.
        grid_gammas, grid_channels = [], []
        real_gammas, real_channel = effective.gammas_at, effective.channel_from_gammas

        def gammas_spy(model, e):
            if np.size(e) == 2000:
                grid_gammas.append(e)
            return real_gammas(model, e)

        def channel_spy(gamma_lin, gamma_quad, decay, hbar):
            if np.size(gamma_lin) == 2000:
                grid_channels.append(decay)
            return real_channel(gamma_lin, gamma_quad, decay, hbar)

        monkeypatch.setattr(effective, "gammas_at", gammas_spy)
        monkeypatch.setattr(spectrum, "gammas_at", gammas_spy)
        monkeypatch.setattr(effective, "channel_from_gammas", channel_spy)
        entries = enumerate_spectrum(reference_model, variant, window, 6)
        assert entries
        assert len(grid_gammas) == 1
        assert len(grid_channels) == (2 if variant is Variant.FIRST_PRINCIPLES else 0)

        grid_gammas.clear()
        compare_table(reference_model, window=window)
        assert len(grid_gammas) == 2  # one scan per variant
