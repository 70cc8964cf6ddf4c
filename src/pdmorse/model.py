"""Problem definition: mass field, confining potential, kinetic ordering.

The mass rises exponentially toward negative x and y on two decay scales
per axis and tends to a constant floor at large positive coordinates; the
potential is a rational combination of the same exponentials over the mass.
All derivative evaluations here are exact closed forms -- finite differences
live only in the ``oracle`` module so they stay an independent check.
"""

from dataclasses import dataclass

import numpy as np

from .errors import finite_field

#: Tolerance on the kinetic-ordering trace condition alpha + beta + gamma = -1.
ORDERING_TOL = 1e-12


@dataclass(frozen=True)
class OrderingParams:
    """Kinetic-operator ordering exponents, constrained to sum to -1."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        s = self.alpha + self.beta + self.gamma
        if abs(s + 1.0) > ORDERING_TOL:
            raise ValueError(
                f"ordering exponents must satisfy alpha+beta+gamma=-1, got sum {s!r}"
            )


@dataclass(frozen=True)
class MassParams:
    """Parameters of the double-exponential mass field.

    ``m0`` is the asymptotic mass floor, ``g1``/``g2`` weight the single and
    double exponentials along x with decay rate ``a1``, and ``g3``/``g4`` the
    same along y with rate ``a2``.  Non-negative weights guarantee
    M(x, y) >= m0 > 0 everywhere, which every division by M relies on.
    """

    m0: float
    g1: float
    g2: float
    g3: float
    g4: float
    a1: float
    a2: float

    def __post_init__(self):
        if not self.m0 > 0:
            raise ValueError(f"m0 must be positive, got {self.m0!r}")
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError(f"decay rates must be positive, got a1={self.a1!r}, a2={self.a2!r}")
        for name in ("g1", "g2", "g3", "g4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of the confining potential.

    ``r`` is the additive constant, ``a`` the constant part of the numerator,
    ``b1``..``b4`` the exponential weights paired with the mass exponentials.
    Any finite reals are admissible.
    """

    r: float
    a: float
    b1: float
    b2: float
    b3: float
    b4: float


@dataclass(frozen=True)
class Model:
    """Complete problem definition: hbar, mass field, potential, ordering."""

    hbar: float
    mass: MassParams
    pot: PotentialParams
    ordering: OrderingParams

    def __post_init__(self):
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar!r}")
        # eps(E) and the channel weights divide by hbar^2.
        if not np.finfo(float).tiny <= self.hbar * self.hbar < np.inf:
            raise ValueError(f"hbar^2 must be a normal finite double, got hbar={self.hbar!r}")


def _exponentials(mass: MassParams, x, y):
    """The four basis exponentials e1..e4 at (x, y), overflow-checked, called inside one
    np.errstate with the caller's sums: an overflow raises one typed error and no warning."""
    e1 = np.exp(-mass.a1 * np.asarray(x, dtype=float))
    e3 = np.exp(-mass.a2 * np.asarray(y, dtype=float))
    e2 = e1 * e1
    e4 = e3 * e3
    finite_field("exp(-2*a1*x)", e2, x, y)
    finite_field("exp(-2*a2*y)", e4, x, y)
    return e1, e2, e3, e4


def exponential_sum(mass: MassParams, w1, w2, w3, w4, x, y):
    """w1 e1 + w2 e2 + w3 e3 + w4 e4 over the basis exponentials at (x, y), overflow-checked
    under the label of its one use, the reduced potential u_eff."""
    with np.errstate(over="ignore", invalid="ignore"):
        e1, e2, e3, e4 = _exponentials(mass, x, y)
        s = w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4
    return finite_field("u_eff", s, x, y)


def mass_at(mass: MassParams, x, y):
    """Pointwise mass M(x, y).

    Accepts scalars or broadcastable arrays; raises
    :class:`~pdmorse.errors.EvaluationOverflow` if an exponential leaves the
    double range (far negative coordinates).
    """
    with np.errstate(over="ignore"):
        e1, e2, e3, e4 = _exponentials(mass, x, y)
        m = mass.m0 * (1.0 + mass.g1 * e1 + mass.g3 * e3 + mass.g2 * e2 + mass.g4 * e4)
    return finite_field("mass", m, x, y)


def mass_derivatives(mass: MassParams, x, y):
    """Exact partials (M, Mx, My, Mxx, Myy) of the mass field at (x, y)."""
    m0, a1, a2 = mass.m0, mass.a1, mass.a2
    with np.errstate(over="ignore"):
        e1, e2, e3, e4 = _exponentials(mass, x, y)
        m = m0 * (1.0 + mass.g1 * e1 + mass.g3 * e3 + mass.g2 * e2 + mass.g4 * e4)
        mx = m0 * (-a1 * mass.g1 * e1 - 2.0 * a1 * mass.g2 * e2)
        my = m0 * (-a2 * mass.g3 * e3 - 2.0 * a2 * mass.g4 * e4)
        mxx = m0 * (a1 * a1 * mass.g1 * e1 + 4.0 * a1 * a1 * mass.g2 * e2)
        myy = m0 * (a2 * a2 * mass.g3 * e3 + 4.0 * a2 * a2 * mass.g4 * e4)
    return tuple(finite_field("mass derivatives", v, x, y) for v in (m, mx, my, mxx, myy))


def potential_at(model: Model, x, y):
    """Confining potential V(x, y).

    The denominator is M(x, y)/m0 >= 1, so the division is always safe; the
    value tends to r + a/m0 when both coordinates grow large.
    """
    mass, pot = model.mass, model.pot
    with np.errstate(over="ignore", invalid="ignore"):
        e1, e2, e3, e4 = _exponentials(mass, x, y)
        s = 1.0 + mass.g1 * e1 + mass.g3 * e3 + mass.g2 * e2 + mass.g4 * e4
        num = pot.a + pot.b1 * e1 + pot.b3 * e3 + pot.b2 * e2 + pot.b4 * e4
        v = pot.r + num / (mass.m0 * s)
    return finite_field("potential", v, x, y)


def solve_ambiguity_free_ordering() -> OrderingParams:
    """Ordering exponents that cancel both mass-gradient effective terms.

    Solves alpha + gamma + 1 = 0 together with
    alpha + gamma + alpha*gamma + 3/4 = 0: substituting the first into the
    second gives alpha*gamma = 1/4 with alpha + gamma = -1, i.e. a double
    root alpha = gamma = -1/2, leaving beta = 0 from the trace condition.
    """
    return OrderingParams(alpha=-0.5, beta=0.0, gamma=-0.5)
