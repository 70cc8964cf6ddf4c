import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from pdmorse import (
    DegenerateWindow,
    MassParams,
    Model,
    MorseChannel,
    PotentialParams,
    Unbounded,
    energy_window,
    solve_ambiguity_free_ordering,
)


#: The symmetric example parameter set used throughout the suite.
REFERENCE_MODEL = Model(
    hbar=1.0,
    mass=MassParams(m0=1.0, g1=1.0, g2=0.0, g3=1.0, g4=0.0, a1=1.0, a2=1.0),
    pot=PotentialParams(r=0.0, a=1.0, b1=-1.0, b2=0.125, b3=-1.0, b4=0.125),
    ordering=solve_ambiguity_free_ordering(),
)


@pytest.fixture(scope="session")
def reference_model() -> Model:
    return REFERENCE_MODEL


@pytest.fixture(scope="session")
def asymmetric_model() -> Model:
    """A mildly x/y-asymmetric variant for symmetry-sensitive tests."""
    return Model(
        hbar=1.0,
        mass=MassParams(m0=1.0, g1=1.0, g2=0.0, g3=0.8, g4=0.0, a1=1.0, a2=1.3),
        pot=PotentialParams(r=0.0, a=1.0, b1=-1.0, b2=0.125, b3=-0.9, b4=0.15),
        ordering=solve_ambiguity_free_ordering(),
    )


@pytest.fixture(scope="session")
def paper_channel() -> MorseChannel:
    """Reference-model x channel at trial energy 0: eta=-2, nu=1/4, a=1."""
    return MorseChannel(eta=-2.0, nu=0.25, alpha=1.0)


def draw_supported_channels(seed: int, count: int, mu_margin: float = 0.4, top_cap: int = 2):
    """Randomized bound-state channels from the documented parameter ranges.

    Draws are rejected when the top level sits within ``mu_margin`` of the
    threshold or the channel holds more than ``top_cap``+1 levels: at the
    fixed n=4000 oracle resolution those cases cannot be certified at 1e-4
    relative, so including them would test the grid, not the closed forms.
    """
    from pdmorse import energy_1d, m_max

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        ch = MorseChannel(
            eta=rng.uniform(-6.0, -0.5),
            nu=rng.uniform(0.05, 1.0),
            alpha=rng.uniform(0.5, 2.0),
        )
        top = m_max(ch)
        if top is None or top > top_cap:
            continue
        if energy_1d(ch, top).mu < mu_margin:
            continue
        out.append(ch)
    return out


def failing_dstebz(d, *args):
    """dstebz's outputs with info = 1: an eigenvalue failed to converge."""
    return 0, np.zeros_like(d), np.zeros(d.size, dtype=np.int32), np.zeros(d.size, dtype=np.int32), 1


@st.composite
def supported_models(draw, symmetric: bool = False):
    """A model around the reference set whose potential binds, with its window.

    With ``symmetric`` the y-axis parameters copy the x-axis ones, so the
    model is x<->y symmetric; otherwise every parameter is drawn.
    """
    u = lambda lo, hi: draw(st.floats(lo, hi))
    y = lambda x, lo, hi: x if symmetric else u(lo, hi)
    hbar, m0 = u(0.7, 1.3), u(0.5, 2.0)
    g1, g2 = u(0.0, 1.5), u(0.0, 0.2)
    g3, g4 = y(g1, 0.0, 1.5), y(g2, 0.0, 0.2)
    a1 = u(0.5, 1.5)
    a2 = y(a1, 0.5, 1.5)
    r, a, b1, b2 = u(-0.5, 0.5), u(0.5, 1.5), u(-1.5, -0.5), u(0.05, 0.3)
    b3, b4 = y(b1, -1.5, -0.5), y(b2, 0.05, 0.3)
    model = Model(
        hbar=hbar,
        mass=MassParams(m0=m0, g1=g1, g2=g2, g3=g3, g4=g4, a1=a1, a2=a2),
        pot=PotentialParams(r=r, a=a, b1=b1, b2=b2, b3=b3, b4=b4),
        ordering=solve_ambiguity_free_ordering(),
    )
    try:
        window = energy_window(model)
    except (DegenerateWindow, Unbounded):
        # No window to draw energies from.
        assume(False)
    return model, window


def quad_overlap(ch: MorseChannel, a, b, tail: float = 40.0) -> float:
    """<a|b> of two normalized states of ``ch`` by adaptive scipy quadrature.

    The domain is the oracle's auto-sized grid plus ``tail`` outer-tail
    e-foldings of the slower state, integrated as three pieces: the grid is
    split at the well's minimum, e^{-ax} = |eta| / (2 nu), so that quad sees
    the narrow peak of a deep channel's state.
    """
    import scipy.integrate

    from pdmorse import wavefunction_1d
    from pdmorse.oracle import auto_grid_1d

    grid = auto_grid_1d(ch)
    hi = grid.x1 + tail / (min(a.mu, b.mu) * ch.alpha)
    x_min = math.log(-2.0 * ch.nu / ch.eta) / ch.alpha
    f = lambda t: wavefunction_1d(ch, a, t) * wavefunction_1d(ch, b, t)
    return sum(
        scipy.integrate.quad(f, lo, up, limit=200, epsabs=1e-14, epsrel=1e-13)[0]
        for lo, up in ((grid.x0, x_min), (x_min, grid.x1), (grid.x1, hi))
    )
