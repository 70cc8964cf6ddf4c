import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from pdmorse import (
    InvalidLevel,
    MorseChannel,
    NoBoundStates,
    energy_1d,
    m_max,
    wavefunction_1d,
)
from pdmorse.morse1d import _laguerre, channel_from_gammas, level_epsilon
from tests.conftest import draw_supported_channels, quad_overlap


def laguerre_by_summation(n: int, a: float, z: float) -> float:
    """Independent oracle: L_n^a(z) = sum_k (-1)^k C(n+a, n-k) z^k / k!."""
    total = 0.0
    for k in range(n + 1):
        # C(n+a, n-k) via log-gammas; arguments stay positive for a > -1.
        logc = gammaln(n + a + 1.0) - gammaln(n - k + 1.0) - gammaln(a + k + 1.0)
        total += (-1.0) ** k * math.exp(logc) * z**k / math.factorial(k)
    return total


class TestChannelFromGammas:
    def test_reference_weights(self):
        ch = channel_from_gammas(-1.0, 0.125, 1.0, 1.0)
        assert (ch.eta, ch.nu, ch.alpha) == (-2.0, 0.25, 1.0)
        assert m_max(ch) == 1

    def test_zero_weights_no_support(self):
        ch = channel_from_gammas(0.0, 0.0, 1.0, 1.0)
        assert (ch.eta, ch.nu) == (0.0, 0.0)
        assert m_max(ch) is None

    def test_hbar_scaling(self):
        ch = channel_from_gammas(-1.0, 0.125, 1.0, 2.0)
        assert (ch.eta, ch.nu) == (-0.5, 0.0625)

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(ValueError, match="^decay rate must be positive, got 0$"):
            MorseChannel(eta=-2.0, nu=0.25, alpha=0)


class TestChannelPotential:
    def test_well_bottom(self, paper_channel):
        # eta e^{-x} + nu e^{-2x} with eta = -2, nu = 1/4 bottoms out at
        # e^{-x} = 4 with depth eta^2 / (4 nu) = 4.
        assert paper_channel.potential(-math.log(4.0)) == pytest.approx(-4.0, rel=1e-15)
        assert paper_channel.potential(0.0) == -1.75

    def test_elementwise(self, paper_channel):
        x = np.linspace(-3.0, 9.0, 13)
        want = [paper_channel.eta * math.exp(-t) + paper_channel.nu * math.exp(-2.0 * t) for t in x]
        np.testing.assert_allclose(paper_channel.potential(x), want, rtol=1e-15)


class TestLevelCount:
    def test_reference_channel_holds_two_levels(self, paper_channel):
        # m=1: 2 > 1.5 holds; m=2: 2 > 2.5 fails.
        assert m_max(paper_channel) == 1

    def test_too_shallow_channel(self):
        assert m_max(MorseChannel(eta=-0.4, nu=0.25, alpha=1.0)) is None

    def test_repulsive_linear_term(self):
        assert m_max(MorseChannel(eta=1.0, nu=0.25, alpha=1.0)) is None

    def test_threshold_is_strict(self):
        # lam = 1.5 exactly: m=1 needs 2m+1 < 3, excluded by strictness.
        ch = MorseChannel(eta=-1.5, nu=0.25, alpha=1.0)
        assert m_max(ch) == 0


@st.composite
def any_channels(draw):
    """Channels that bind or not: eta >= 0, nu < 0, nu = 0, shallow wells and levels at threshold."""
    alpha = draw(st.floats(0.1, 3.0))
    # |nu| >= 1e-9 keeps lam below 1e7: past 2^53 a level index has no exact double.
    nu = draw(st.one_of(st.just(0.0), st.floats(-2.0, -1e-9), st.floats(1e-9, 2.0), st.floats(1e-9, 1e-3)))
    # lam = -eta / (2 a sqrt(nu)); lam <= 1/2 is a well too shallow to bind.
    lam = draw(st.one_of(st.floats(-2.0, 40.0), st.integers(0, 40).map(lambda k: k + 0.5)))
    eta = draw(st.one_of(st.floats(-30.0, 5.0), st.just(0.0), st.just(-2.0 * alpha * math.sqrt(max(nu, 0.0)) * lam)))
    return MorseChannel(eta=eta, nu=nu, alpha=alpha)


class TestOneRule:
    def test_negative_level_is_not_bound(self, paper_channel):
        # The formula alone would give eps_{-1} = -6.25, below the ground level -2.25.
        assert math.isnan(level_epsilon(paper_channel, -1))
        with pytest.raises(InvalidLevel, match=r"level m=-1 is not bound .*, which binds m = 0\.\.1$"):
            energy_1d(paper_channel, -1)

    def test_shallow_well_binds_nothing(self):
        # nu > 0 and eta < 0, but lam = 0.4: not even level 0 is bound.
        ch = MorseChannel(eta=-0.4, nu=0.25, alpha=1.0)
        assert math.isnan(level_epsilon(ch, 0))
        with pytest.raises(NoBoundStates, match=r"binds no level \(needs nu > 0 and lam > 1/2\)$"):
            energy_1d(ch, 0)

    @given(ch=any_channels())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_m_max_and_energy_1d_follow_level_epsilon(self, ch):
        top = m_max(ch)
        # A weak nu makes lam huge, so probe both ends of 0..m_max.
        ms = sorted(set(range(-3, 4)) | (set() if top is None else set(range(top - 3, top + 4))))
        finite = [m for m in ms if np.isfinite(level_epsilon(ch, m))]
        assert finite == [m for m in ms if top is not None and 0 <= m <= top]
        for m in ms:
            if m in finite:
                assert energy_1d(ch, m).epsilon == float(level_epsilon(ch, m)) < 0.0
            else:
                with pytest.raises(NoBoundStates if top is None else InvalidLevel):
                    energy_1d(ch, m)
        # Elementwise over array weights, the rule gives each element's scalar answer.
        arr = MorseChannel(eta=np.array([ch.eta, -2.0]), nu=np.array([ch.nu, 0.25]), alpha=ch.alpha)
        for m in ms:
            want = [float(level_epsilon(ch, m)), float(level_epsilon(MorseChannel(-2.0, 0.25, ch.alpha), m))]
            np.testing.assert_array_equal(level_epsilon(arr, m), want)


class TestEnergy1D:
    def test_reference_levels(self, paper_channel):
        assert energy_1d(paper_channel, 0).epsilon == pytest.approx(-2.25, abs=1e-14)
        assert energy_1d(paper_channel, 1).epsilon == pytest.approx(-0.25, abs=1e-14)

    def test_invalid_level_raises(self, paper_channel):
        with pytest.raises(InvalidLevel):
            energy_1d(paper_channel, 2)

    def test_no_support_raises(self):
        with pytest.raises(NoBoundStates):
            energy_1d(MorseChannel(eta=1.0, nu=0.25, alpha=1.0), 0)

    def test_top_level_strictly_negative(self):
        for ch in draw_supported_channels(5150, 10):
            top = m_max(ch)
            assert energy_1d(ch, top).epsilon < 0.0

    def test_monotone_in_m(self):
        for ch in draw_supported_channels(777, 10, top_cap=4):
            eps = [energy_1d(ch, m).epsilon for m in range(m_max(ch) + 1)]
            assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_mu_lambda_consistency(self):
        for ch in draw_supported_channels(31, 10, top_cap=4):
            for m in range(m_max(ch) + 1):
                s = energy_1d(ch, m)
                assert s.mu == pytest.approx(ch.lam - m - 0.5, abs=1e-12)
                assert s.epsilon == pytest.approx(-((ch.alpha * s.mu) ** 2), abs=1e-12)


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for a in (-0.5, 0.0, 2.7):
            for z in (0.0, 1.0, 10.0):
                assert _laguerre(0, a, z) == 1.0

    def test_degree_one(self):
        assert _laguerre(1, 0.3, 2.0) == pytest.approx(1.0 + 0.3 - 2.0, abs=1e-15)

    def test_explicit_degree_two(self):
        # L_2^0(z) = (z^2 - 4z + 2)/2 at z=2.
        assert _laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(0, 7))
            a = float(rng.uniform(-0.9, 5.0))
            z = float(rng.uniform(0.0, 30.0))
            want = laguerre_by_summation(n, a, z)
            got = _laguerre(n, a, z)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    @given(
        n=st.integers(0, 6),
        a=st.floats(-0.9, 6.0, allow_nan=False),
        z=st.floats(0.0, 25.0, allow_nan=False),
    )
    @settings(max_examples=80, derandomize=True)
    def test_recurrence_matches_summation(self, n, a, z):
        assert _laguerre(n, a, z) == pytest.approx(
            laguerre_by_summation(n, a, z), rel=1e-10, abs=1e-10
        )

    def test_vectorized_over_z(self):
        zs = np.linspace(0, 5, 9)
        vals = _laguerre(3, 0.5, zs)
        assert vals.shape == zs.shape
        assert vals[0] == pytest.approx(_laguerre(3, 0.5, 0.0))


class TestWavefunction:
    def test_ground_state_positive(self, paper_channel):
        s0 = energy_1d(paper_channel, 0)
        xs = np.linspace(-8.0, 30.0, 2001)
        assert np.all(wavefunction_1d(paper_channel, s0, xs) >= 0.0)

    def test_first_excited_single_node_at_laguerre_root(self, paper_channel):
        s1 = energy_1d(paper_channel, 1)
        # L_1^{2mu}(z) = 0 at z = 1 + 2 mu -> x = -ln((1+2mu)/z_scale)/a.
        z_node = 1.0 + 2.0 * s1.mu
        x_node = -math.log(z_node / paper_channel.z_scale) / paper_channel.alpha
        left = wavefunction_1d(paper_channel, s1, x_node - 1e-3)
        right = wavefunction_1d(paper_channel, s1, x_node + 1e-3)
        assert left * right < 0.0
        xs = np.linspace(-8.0, 30.0, 4001)
        vals = wavefunction_1d(paper_channel, s1, xs)
        sig = vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))]
        assert int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1]))) == 1

    def test_decays_both_directions(self, paper_channel):
        for m in (0, 1):
            s = energy_1d(paper_channel, m)
            assert abs(wavefunction_1d(paper_channel, s, 60.0)) < 1e-10
            assert wavefunction_1d(paper_channel, s, -60.0) == 0.0

    def test_extreme_negative_x_underflows_cleanly(self, paper_channel):
        s0 = energy_1d(paper_channel, 0)
        assert wavefunction_1d(paper_channel, s0, -800.0) == 0.0

    def test_node_counts_up_to_four(self):
        channels = [
            (MorseChannel(eta=-6.0, nu=0.25, alpha=0.5), -10.0, 80.0),  # lam = 12, many levels
            (MorseChannel(eta=-4.56, nu=0.25, alpha=1.0), -10.0, 80.0),  # level 4 has mu = 0.06
            (MorseChannel(eta=-2.0, nu=0.01, alpha=1.0), -8.0, 20.0),  # mu = 9.5 .. 5.5
            (MorseChannel(eta=-2.0, nu=2e-4, alpha=1.0), -12.0, 42.0),  # mu = 70 .. 66
            # The x channel of {"b2": 1e-6, "b4": 1e-6} at E = r, mu = 707 .. 703: N underflows
            # and the bare state overflows a double.
            (MorseChannel(eta=-2.0, nu=2e-6, alpha=1.0), -16.5, 16.0),
            (MorseChannel(eta=-1.4, nu=1e-6, alpha=1.0), -17.0, 19.0),  # mu = 700 .. 696
        ]
        for ch, grid_lo, grid_hi in channels:
            xs = np.linspace(grid_lo, grid_hi, 8001)
            for m in range(5):
                s = energy_1d(ch, m)
                vals = wavefunction_1d(ch, s, xs)
                assert np.all(np.isfinite(vals)), (ch, m)
                sig = vals[np.abs(vals) > 1e-10 * np.max(np.abs(vals))]
                nodes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
                assert nodes == m, (ch, m)


class TestNormalization:
    def test_known_norms(self, paper_channel):
        # For this channel the squared-norm integrals are exactly 2, so
        # N = 1/sqrt(2) for both levels; at x = 0, z = 1 and both bare states are e^{-1/2}.
        for m in (0, 1):
            s = energy_1d(paper_channel, m)
            assert wavefunction_1d(paper_channel, s, 0.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2), abs=1e-15)
            assert math.sqrt(quad_overlap(paper_channel, s, s)) == pytest.approx(1.0, abs=1e-9)

    def test_doubling_resolution_settles(self, paper_channel):
        # Doubling the outer tail of the quadrature domain does not move the norm.
        s0 = energy_1d(paper_channel, 0)
        n1 = math.sqrt(quad_overlap(paper_channel, s0, s0))
        n2 = math.sqrt(quad_overlap(paper_channel, s0, s0, tail=80.0))
        assert abs(n2 - n1) < 1e-8

    def test_orthogonality_same_channel(self, paper_channel):
        s0 = energy_1d(paper_channel, 0)
        s1 = energy_1d(paper_channel, 1)
        overlap = quad_overlap(paper_channel, s0, s1)
        assert abs(overlap) < 1e-8

    def test_near_threshold_norm(self):
        # mu = 2.8e-4: the outer tail spans thousands of decay lengths.  The
        # pin is N X(5) with N = 0.019769173883306757, which a 30-digit
        # integral in t = -ln z confirmed.
        ch = MorseChannel(eta=-3.9352851560884305, nu=1.282898585896384, alpha=0.6948021598850062)
        s = energy_1d(ch, 2)
        assert s.mu < 1e-3
        assert wavefunction_1d(ch, s, 5.0) == pytest.approx(0.015097820317120163, rel=1e-13)

    @given(
        eta=st.floats(-8.0, -0.3),
        nu=st.floats(0.02, 1.5),
        alpha=st.floats(0.3, 2.5),
        m=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    # Deep channels, mu = 9.5 to 1594; from mu ~ 150 on, N underflows and the bare state overflows.
    @example(eta=-2.0, nu=0.01, alpha=1.0, m=0)
    @example(eta=-2.0, nu=2e-4, alpha=1.0, m=1)
    @example(eta=-2.0, nu=2e-6, alpha=1.0, m=0)
    @example(eta=-2.0, nu=2e-6, alpha=1.0, m=4)
    @example(eta=-1.4, nu=1e-6, alpha=1.0, m=2)
    @example(eta=-8.0, nu=1e-6, alpha=2.5, m=6)
    @example(eta=-0.3, nu=1e-6, alpha=0.3, m=3)
    # A top level just above the mu floor: mu = 0.06.
    @example(eta=-4.56, nu=0.25, alpha=1.0, m=4)
    def test_norm_matches_quadrature(self, eta, nu, alpha, m):
        ch = MorseChannel(eta=eta, nu=nu, alpha=alpha)
        top = m_max(ch)
        assume(top is not None)
        s = energy_1d(ch, min(m, top))
        assume(s.mu >= 0.05)
        assert math.sqrt(quad_overlap(ch, s, s)) == pytest.approx(1.0, rel=1e-10)

    def test_state_is_frozen(self, paper_channel):
        s = energy_1d(paper_channel, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.mu = 1.0
