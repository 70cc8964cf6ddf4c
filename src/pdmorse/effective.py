"""Ordering-dependent effective potentials and the constant-mass reduction.

After rescaling the wavefunction by sqrt(M), the variable-mass problem turns
into a constant-mass one whose potential picks up two mass-gradient terms
weighted by the ordering combinations (alpha+gamma+alpha*gamma+3/4) and
(alpha+gamma+1).  For the unique ordering that zeroes both, the reduced
potential collapses to four exponentials with energy-dependent weights
``gamma1``..``gamma4``, which is what makes the model exactly solvable:
``channels_at`` splits it into one Morse channel per axis.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OrderingNotSolvable, finite_field
from .model import Model, OrderingParams, exponential_sum, mass_derivatives, potential_at
from .morse1d import MorseChannel, channel_from_gammas

#: Both coefficient combinations must vanish to within this for the reduction.
REDUCTION_TOL = 1e-12


@dataclass(frozen=True)
class GammaSet:
    """Exponential weights of the reduced potential at a trial energy."""

    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    #: m0 (r - E), the amount by which each weight moves per unit of g_i.
    shift: float


def grad_coefficient(ordering: OrderingParams) -> float:
    """Weight of the (grad M / M)^2 term: alpha + gamma + alpha*gamma + 3/4."""
    return ordering.alpha + ordering.gamma + ordering.alpha * ordering.gamma + 0.75


def laplacian_coefficient(ordering: OrderingParams) -> float:
    """Weight of the (lap M / M) term: alpha + gamma + 1."""
    return ordering.alpha + ordering.gamma + 1.0


def require_reduction_ordering(ordering: OrderingParams) -> None:
    """Raise OrderingNotSolvable unless both mass-gradient coefficients vanish."""
    if not (abs(grad_coefficient(ordering)) <= REDUCTION_TOL and abs(laplacian_coefficient(ordering)) <= REDUCTION_TOL):
        raise OrderingNotSolvable(
            "the reduced problem requires the ordering with vanishing mass-gradient "
            f"coefficients (alpha=gamma=-1/2, beta=0); got {ordering}"
        )


def veff_at(model: Model, x, y):
    """Effective potential seen by the rescaled wavefunction.

    V_eff = V + (hbar^2 / 4M) [ 2 (alpha+gamma+alpha*gamma+3/4) |grad M / M|^2
                                - (alpha+gamma+1) lap(M)/M ].
    Equals V identically when both coefficients vanish.
    """
    m, mx, my, mxx, myy = mass_derivatives(model.mass, x, y)
    v = potential_at(model, x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        grad2 = (mx / m) ** 2 + (my / m) ** 2
        bracket = 2.0 * grad_coefficient(model.ordering) * grad2 - laplacian_coefficient(
            model.ordering
        ) * (mxx + myy) / m
        out = v + (model.hbar * model.hbar) / (4.0 * m) * bracket
    return finite_field("V_eff", out, x, y)


def gammas_at(model: Model, e_trial: float) -> GammaSet:
    """Reduced-potential weights gamma_i = b_i + m0 (r - E) g_i at trial E.

    Elementwise: an array of trial energies gives arrays of weights.  Raises
    OrderingNotSolvable under a non-reducing ordering: every reduced object starts here.
    """
    require_reduction_ordering(model.ordering)
    shift = model.mass.m0 * (model.pot.r - e_trial)
    return GammaSet(
        gamma1=model.pot.b1 + shift * model.mass.g1,
        gamma2=model.pot.b2 + shift * model.mass.g2,
        gamma3=model.pot.b3 + shift * model.mass.g3,
        gamma4=model.pot.b4 + shift * model.mass.g4,
        shift=shift,
    )


def channels_at(model: Model, e: float) -> tuple[MorseChannel, MorseChannel]:
    """Per-axis channels built from the reduced weights at trial energy e."""
    return split_channels(model, gammas_at(model, e))


def split_channels(model: Model, g: GammaSet) -> tuple[MorseChannel, MorseChannel]:
    """The x channel from gamma1, gamma2 and a1, the y channel from gamma3, gamma4 and a2."""
    chx = channel_from_gammas(g.gamma1, g.gamma2, model.mass.a1, model.hbar)
    chy = channel_from_gammas(g.gamma3, g.gamma4, model.mass.a2, model.hbar)
    return chx, chy


def xi_of(model: Model, e: float) -> float:
    """Constant-mass eigenvalue shift xi(E) = -a + m0 (E - r)."""
    return -model.pot.a + model.mass.m0 * (e - model.pot.r)


def epsilon_of(model: Model, e: float) -> float:
    """Reduced eigenvalue 2 xi(E) / hbar^2 of the constant-mass problem."""
    return 2.0 * xi_of(model, e) / (model.hbar * model.hbar)


def ueff_at(model: Model, e_trial: float, x, y):
    """Reduced four-exponential potential at trial energy ``e_trial``.

    Only valid under the ambiguity-free ordering; anything else leaves
    residual mass-gradient terms and is rejected.
    """
    g = gammas_at(model, e_trial)
    return exponential_sum(model.mass, g.gamma1, g.gamma2, g.gamma3, g.gamma4, x, y)
