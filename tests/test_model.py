import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorse import (
    EvaluationOverflow,
    MassParams,
    Model,
    OrderingParams,
    PotentialParams,
    mass_at,
    mass_derivatives,
    potential_at,
    solve_ambiguity_free_ordering,
    ueff_at,
    veff_at,
)


class TestOrderingParams:
    def test_accepts_valid_triples(self):
        OrderingParams(-0.5, 0.0, -0.5)
        OrderingParams(0.0, -1.0, 0.0)
        OrderingParams(0.25, -1.5, 0.25)

    def test_rejects_violation(self):
        with pytest.raises(ValueError):
            OrderingParams(0.0, 0.0, 0.0)

    def test_rejects_just_beyond_tolerance(self):
        with pytest.raises(ValueError):
            OrderingParams(-0.5, 1e-11, -0.5)

    @given(
        alpha=st.floats(-2, 2, allow_nan=False),
        gamma=st.floats(-2, 2, allow_nan=False),
        off=st.floats(1e-9, 1.0),
    )
    @settings(max_examples=50, derandomize=True)
    def test_rejects_any_offset_triple(self, alpha, gamma, off):
        beta = -1.0 - alpha - gamma + off
        with pytest.raises(ValueError):
            OrderingParams(alpha, beta, gamma)


class TestMassParams:
    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            MassParams(m0=0.0, g1=1, g2=0, g3=1, g4=0, a1=1, a2=1)

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            MassParams(m0=1.0, g1=-0.1, g2=0, g3=1, g4=0, a1=1, a2=1)

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError):
            MassParams(m0=1.0, g1=1, g2=0, g3=1, g4=0, a1=0.0, a2=1)


class TestModel:
    def test_rejects_nonpositive_hbar(self, reference_model):
        with pytest.raises(ValueError, match="^hbar must be positive, got 0$"):
            Model(hbar=0, mass=reference_model.mass, pot=reference_model.pot, ordering=reference_model.ordering)


#: Weights of 10 on e^{-2x}: at x = -354, e^{-2x} = 3.0e307 is finite, and ten of it is not.
HEAVY = Model(
    hbar=1.0,
    mass=MassParams(m0=1.0, g1=1.0, g2=10.0, g3=1.0, g4=0.0, a1=1.0, a2=1.0),
    pot=PotentialParams(r=0.0, a=1.0, b1=-1.0, b2=10.0, b3=-1.0, b4=0.125),
    ordering=solve_ambiguity_free_ordering(),
)


class TestOverflowLocation:
    # An array argument names its first non-finite node, and no numpy warning escapes.
    @pytest.mark.parametrize(
        "field, x, y, what, at",
        [
            (lambda x, y: mass_at(HEAVY.mass, x, y), [0.0, -1000.0], 0.0, "exp(-2*a1*x)", (-1000.0, 0.0)),
            (lambda x, y: potential_at(HEAVY, x, y), 0.5, [0.0, 1.0, -400.0], "exp(-2*a2*y)", (0.5, -400.0)),
            (lambda x, y: mass_at(HEAVY.mass, x, y), [0.0, -354.0], 0.0, "mass", (-354.0, 0.0)),
            (lambda x, y: mass_derivatives(HEAVY.mass, x, y), [0.0, -354.0], 2.0, "mass derivatives", (-354.0, 2.0)),
            (lambda x, y: potential_at(HEAVY, x, y), [[0.0], [-354.0]], [1.0, 3.0], "potential", (-354.0, 1.0)),
            # e^{-2x} is finite at x = -354, gamma2 e^{-2x} = 10 e^{708} is not.
            (lambda x, y: ueff_at(HEAVY, 0.0, x, y), [0.0, -354.0], 1.0, "u_eff", (-354.0, 1.0)),
            # A scalar x whose exponential overflows, over an array of y: its first pair.
            (lambda x, y: mass_at(HEAVY.mass, x, y), -1000.0, [2.0, 3.0], "exp(-2*a1*x)", (-1000.0, 2.0)),
            # hbar^2 / 4M = inf times the vanishing bracket of the reducing ordering: NaN at every node.
            (
                lambda x, y: veff_at(replace(HEAVY, hbar=1e100, mass=replace(HEAVY.mass, m0=1e-300)), x, y),
                [0.0, 1.0], 2.0, "V_eff", (0.0, 2.0),
            ),
        ],
        ids=["exp-x", "exp-y", "mass", "mass-derivatives", "potential", "ueff", "exp-x-scalar", "veff"],
    )
    def test_names_first_offending_node(self, field, x, y, what, at):
        with pytest.raises(EvaluationOverflow) as exc:
            field(np.asarray(x), np.asarray(y))
        assert (exc.value.what, (exc.value.x, exc.value.y)) == (what, at)


class TestMassAt:
    def test_reference_origin(self, reference_model):
        assert mass_at(reference_model.mass, 0.0, 0.0) == 3.0

    def test_constant_mass_limit(self):
        m = MassParams(m0=2.5, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1)
        xs = np.linspace(-5, 5, 11)
        assert np.all(mass_at(m, xs, xs) == 2.5)

    def test_asymptote(self, reference_model):
        assert mass_at(reference_model.mass, 30.0, 30.0) == pytest.approx(1.0, abs=1e-12)

    def test_overflow_raises_with_coordinate(self, reference_model):
        with pytest.raises(EvaluationOverflow) as exc:
            mass_at(reference_model.mass, -1000.0, 0.0)
        assert "-1000" in str(exc.value)

    @given(
        g1=st.floats(0, 5),
        g2=st.floats(0, 5),
        x=st.floats(-5, 40),
        y=st.floats(-5, 40),
    )
    @settings(max_examples=100, derandomize=True)
    def test_floor_property(self, g1, g2, x, y):
        m = MassParams(m0=1.3, g1=g1, g2=g2, g3=0.7, g4=0.2, a1=0.8, a2=1.7)
        assert mass_at(m, x, y) >= 1.3


class TestMassDerivatives:
    def test_constant_mass_has_zero_derivatives(self):
        m = MassParams(m0=4.0, g1=0, g2=0, g3=0, g4=0, a1=1, a2=1)
        assert mass_derivatives(m, 0.3, -0.7) == (4.0, 0.0, 0.0, 0.0, 0.0)

    def test_reference_origin_values(self, reference_model):
        M, mx, my, mxx, myy = mass_derivatives(reference_model.mass, 0.0, 0.0)
        assert (M, mx, my, mxx, myy) == (3.0, -1.0, -1.0, 1.0, 1.0)

    def test_matches_central_differences_with_order_two(self):
        # Analytic partials vs central differences of mass_at: halving the
        # step must shrink the defect ~4x (second-order stencil).
        rng = np.random.default_rng(42)
        m = MassParams(m0=1.2, g1=0.9, g2=0.3, g3=1.4, g4=0.05, a1=0.7, a2=1.6)
        ratios = []
        for _ in range(100):
            x = rng.uniform(-1.5, 4.0)
            y = rng.uniform(-1.5, 4.0)
            _, mx, my, mxx, myy = mass_derivatives(m, x, y)

            def fd_errors(h):
                dx = (mass_at(m, x + h, y) - mass_at(m, x - h, y)) / (2 * h)
                dy = (mass_at(m, x, y + h) - mass_at(m, x, y - h)) / (2 * h)
                dxx = (mass_at(m, x + h, y) - 2 * mass_at(m, x, y) + mass_at(m, x - h, y)) / h**2
                dyy = (mass_at(m, x, y + h) - 2 * mass_at(m, x, y) + mass_at(m, x, y - h)) / h**2
                return np.array([dx - mx, dy - my, dxx - mxx, dyy - myy])

            e1 = np.abs(fd_errors(1e-3))
            e2 = np.abs(fd_errors(5e-4))
            mask = e1 > 1e-10  # below that, roundoff swamps the h^2 term
            if mask.any():
                ratios.extend((e1[mask] / e2[mask]).tolist())
        assert ratios, "no usable samples"
        assert np.median(ratios) == pytest.approx(4.0, rel=0.2)


class TestPotentialAt:
    def test_reference_origin(self, reference_model):
        # (1 - 1 - 1 + 1/8 + 1/8) / 3
        assert potential_at(reference_model, 0.0, 0.0) == pytest.approx(-0.25, abs=1e-15)

    def test_asymptote_is_r_plus_a_over_m0(self, reference_model):
        assert potential_at(reference_model, 30.0, 30.0) == pytest.approx(1.0, abs=1e-10)

    def test_global_minimum_value(self, reference_model):
        from pdmorse import minimize_potential

        _, _, vmin = minimize_potential(reference_model)
        assert vmin == pytest.approx(-0.40693, abs=1e-4)

    def test_overflow_raises(self, reference_model):
        with pytest.raises(EvaluationOverflow):
            potential_at(reference_model, -500.0, -500.0)


class TestAmbiguityFreeOrdering:
    def test_exact_solution(self):
        o = solve_ambiguity_free_ordering()
        assert (o.alpha, o.beta, o.gamma) == (-0.5, 0.0, -0.5)

    def test_constraint_exact(self):
        o = solve_ambiguity_free_ordering()
        assert o.alpha + o.beta + o.gamma == -1.0

    def test_both_conditions_vanish_exactly(self):
        o = solve_ambiguity_free_ordering()
        assert o.alpha + o.gamma + 1.0 == 0.0
        assert o.alpha + o.gamma + o.alpha * o.gamma + 0.75 == 0.0

    def test_runtime_under_a_millisecond(self):
        import time

        t0 = time.perf_counter()
        solve_ambiguity_free_ordering()
        assert time.perf_counter() - t0 < 1e-3
