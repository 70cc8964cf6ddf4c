import math
from dataclasses import replace

import numpy as np
import pytest

from pdmorse import (
    EnergyWindow,
    Grid1D,
    Grid2D,
    MassParams,
    Model,
    OrderingNotSolvable,
    OrderingParams,
    PotentialParams,
    Variant,
    channels_at,
    chi_mn,
    compare_table,
    energy_window,
    enumerate_spectrum,
    epsilon_of,
    find_roots,
    gammas_at,
    mass_at,
    mass_derivatives,
    mismatch,
    oracle_energy_2d,
    pde_residual,
    potential_at,
    psi_mn,
    ueff_at,
    veff_at,
    xi_of,
)
from pdmorse.effective import grad_coefficient, laplacian_coefficient
from pdmorse.spectrum import SpectrumEntry, ValidityFlags, validity_at


def with_ordering(model: Model, alpha: float, beta: float, gamma: float) -> Model:
    return Model(
        hbar=model.hbar,
        mass=model.mass,
        pot=model.pot,
        ordering=OrderingParams(alpha, beta, gamma),
    )


class TestVeff:
    def test_reduction_ordering_equals_potential_exactly(self, reference_model):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x, y = rng.uniform(-2.0, 6.0, size=2)
            assert veff_at(reference_model, x, y) == potential_at(reference_model, x, y)

    def test_constant_mass_any_ordering(self):
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=2.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.5, a=1.0, b1=-1, b2=0.2, b3=-1, b4=0.2),
            ordering=OrderingParams(0.3, -1.7, 0.4),
        )
        assert veff_at(model, 1.0, -0.5) == potential_at(model, 1.0, -0.5)

    def test_nontrivial_ordering_offset(self, reference_model):
        model = with_ordering(reference_model, 0.0, -1.0, 0.0)
        x = y = 0.0
        M, mx, my, mxx, myy = mass_derivatives(model.mass, x, y)
        grad2 = (mx / M) ** 2 + (my / M) ** 2
        # For (0,-1,0): grad coefficient 3/4, laplacian coefficient 1.
        want = (model.hbar**2 / (4 * M)) * (2 * 0.75 * grad2 - (mxx + myy) / M)
        got = veff_at(model, x, y) - potential_at(model, x, y)
        assert got == pytest.approx(want, abs=1e-12)


class TestGammas:
    def test_reference_at_zero_energy(self, reference_model):
        g = gammas_at(reference_model, 0.0)
        assert (g.gamma1, g.gamma2, g.gamma3, g.gamma4) == (-1.0, 0.125, -1.0, 0.125)

    def test_reference_at_unit_energy(self, reference_model):
        g = gammas_at(reference_model, 1.0)
        assert g.gamma1 == -2.0
        assert g.gamma2 == 0.125

    def test_decouples_when_weights_vanish(self):
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=3.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.2, a=0.0, b1=-1, b2=0.5, b3=-2, b4=0.25),
            ordering=OrderingParams(-0.5, 0, -0.5),
        )
        for e in (-1.0, 0.0, 2.0):
            g = gammas_at(model, e)
            assert (g.gamma1, g.gamma2, g.gamma3, g.gamma4) == (-1.0, 0.5, -2.0, 0.25)

    def test_affine_in_energy_with_slope_minus_m0_g(self, reference_model):
        d = 0.25
        g_lo = gammas_at(reference_model, -d)
        g_hi = gammas_at(reference_model, d)
        m = reference_model.mass
        for name, weight in (("gamma1", m.g1), ("gamma2", m.g2), ("gamma3", m.g3), ("gamma4", m.g4)):
            slope = (getattr(g_hi, name) - getattr(g_lo, name)) / (2 * d)
            assert slope == pytest.approx(-m.m0 * weight, abs=1e-12)


class TestXi:
    def test_reference_values(self, reference_model):
        assert xi_of(reference_model, 0.0) == -1.0
        assert epsilon_of(reference_model, 0.0) == -2.0
        assert xi_of(reference_model, 1.0) == 0.0

    def test_identity_case(self):
        model = Model(
            hbar=1.0,
            mass=MassParams(m0=1.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1),
            pot=PotentialParams(r=0.0, a=0.0, b1=0, b2=0, b3=0, b4=0),
            ordering=OrderingParams(-0.5, 0, -0.5),
        )
        for e in (-2.0, 0.3, 5.0):
            assert xi_of(model, e) == e

    def test_hbar_scaling_of_epsilon(self, reference_model):
        model2 = Model(
            hbar=2.0,
            mass=reference_model.mass,
            pot=reference_model.pot,
            ordering=reference_model.ordering,
        )
        assert epsilon_of(model2, 0.0) == epsilon_of(reference_model, 0.0) / 4.0


class TestUeff:
    def test_reference_value_at_origin(self, reference_model):
        assert ueff_at(reference_model, 0.0, 0.0, 0.0) == pytest.approx(-1.75, abs=1e-15)

    def test_vanishes_at_infinity(self, reference_model):
        assert ueff_at(reference_model, 0.0, 30.0, 30.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("e_trial", [-0.4, 0.0, 0.25, 0.5, 1.0])
    def test_reduction_identity_on_grid(self, reference_model, e_trial):
        # The general constant-mass expression assembled term by term from
        # M, V, E and the ordering coefficients, plus xi(E), must reproduce
        # the four-exponential reduced potential at every node.
        model = reference_model
        xs = np.linspace(-2.0, 6.0, 41)
        X, Y = np.meshgrid(xs, xs)
        M, mx, my, mxx, myy = mass_derivatives(model.mass, X, Y)
        grad2 = (mx / M) ** 2 + (my / M) ** 2
        bracket = 2.0 * grad_coefficient(model.ordering) * grad2 - laplacian_coefficient(
            model.ordering
        ) * (mxx + myy) / M
        general = (
            M * (potential_at(model, X, Y) - e_trial)
            + model.hbar**2 / 4.0 * bracket
            + xi_of(model, e_trial)
        )
        reduced = ueff_at(model, e_trial, X, Y)
        assert np.max(np.abs(general - reduced)) < 1e-10

    def test_reduction_identity_asymmetric_model(self, asymmetric_model):
        xs = np.linspace(-2.0, 6.0, 21)
        X, Y = np.meshgrid(xs, xs)
        model = asymmetric_model
        M, mx, my, mxx, myy = mass_derivatives(model.mass, X, Y)
        general = M * (potential_at(model, X, Y) - 0.3) + xi_of(model, 0.3)
        assert np.max(np.abs(general - ueff_at(model, 0.3, X, Y))) < 1e-10


#: Mass-gradient terms survive this ordering: no reduced problem exists.
NON_REDUCING = OrderingParams(-0.4, -0.2, -0.4)
GATE_MESSAGE = (
    "the reduced problem requires the ordering with vanishing mass-gradient coefficients "
    "(alpha=gamma=-1/2, beta=0); got OrderingParams(alpha=-0.4, beta=-0.2, gamma=-0.4)"
)
WINDOW = EnergyWindow(-0.4, 1.0)
GRID = Grid2D(Grid1D(-2.0, 8.0, 31), Grid1D(-2.0, 8.0, 31))
#: The reference model's first-principles ground level.
GROUND = SpectrumEntry(0, 0, (math.sqrt(29.0) - 7.0) / 8.0, 0.0, ValidityFlags(True, True), Variant.FIRST_PRINCIPLES)
#: Every entry point that reads the reduced problem.
REDUCED = {
    "gammas_at": lambda model: gammas_at(model, 0.0),
    "channels_at": lambda model: channels_at(model, 0.0),
    "ueff_at": lambda model: ueff_at(model, 0.0, 0.0, 0.0),
    "mismatch-first-principles": lambda model: mismatch(model, Variant.FIRST_PRINCIPLES, 0, 0, 0.0),
    "mismatch-paper-printed": lambda model: mismatch(model, Variant.PAPER_PRINTED, 0, 0, 0.0),
    "validity_at": lambda model: validity_at(model, 0, 0, 0.0),
    "find_roots-first-principles": lambda model: find_roots(model, Variant.FIRST_PRINCIPLES, 0, 0, WINDOW),
    "find_roots-paper-printed": lambda model: find_roots(model, Variant.PAPER_PRINTED, 0, 0, WINDOW),
    "enumerate_spectrum": lambda model: enumerate_spectrum(model, Variant.FIRST_PRINCIPLES, WINDOW, 2),
    "compare_table": lambda model: compare_table(model, WINDOW),
    "chi_mn": lambda model: chi_mn(model, GROUND, 0.0, 0.0),
    "psi_mn": lambda model: psi_mn(model, GROUND, 0.0, 0.0),
    "pde_residual": lambda model: pde_residual(model, GROUND, GRID),
    "oracle_energy_2d": lambda model: oracle_energy_2d(model, 0, 0, WINDOW, GRID),
}


class TestReductionGate:
    """gammas_at is the one door to the reduced problem: every entry point
    refuses a non-reducing ordering there, with one message."""

    @pytest.mark.parametrize("call", REDUCED.values(), ids=REDUCED.keys())
    def test_refuses_other_orderings(self, reference_model, call):
        with pytest.raises(OrderingNotSolvable) as info:
            call(replace(reference_model, ordering=NON_REDUCING))
        assert str(info.value) == GATE_MESSAGE

    def test_unreduced_fields_still_run(self, reference_model):
        model = replace(reference_model, ordering=NON_REDUCING)
        assert np.isfinite(veff_at(model, 0.5, 0.5))
        assert potential_at(model, 0.0, 0.0) == potential_at(reference_model, 0.0, 0.0)
        assert mass_at(model.mass, 0.0, 0.0) == mass_at(reference_model.mass, 0.0, 0.0)
        assert energy_window(model) == energy_window(reference_model)
