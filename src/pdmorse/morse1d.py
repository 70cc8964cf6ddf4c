"""Closed-form bound states of -X'' + (eta e^{-ax} + nu e^{-2ax}) X = eps X.

Level m is bound exactly when nu > 0, eta < 0 and |eta| > a sqrt(nu) (2m+1) (P. M.
Morse, Phys. Rev. 34, 57, 1929); :func:`level_epsilon` alone decides it.  In
z = (2 sqrt(nu)/a) e^{-ax} the eigenfunctions are z^mu e^{-z/2} L_m^{2mu}(z)
with mu = sqrt(|eps_m|)/a; :func:`wavefunction_1d` returns them L2-normalized.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLevel, NoBoundStates

#: exp() underflows to zero below this exponent; used to short-circuit tails.
_EXP_UNDERFLOW = -745.0


@dataclass(frozen=True)
class MorseChannel:
    """One separated axis: linear weight eta, quadratic weight nu, decay rate."""

    eta: float
    nu: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"decay rate must be positive, got {self.alpha!r}")

    @property
    def lam(self) -> float:
        """Depth parameter |eta| / (2 a sqrt(nu)); levels need m < lam - 1/2."""
        return -self.eta / (2.0 * self.alpha * math.sqrt(self.nu))

    @property
    def z_scale(self) -> float:
        return 2.0 * math.sqrt(self.nu) / self.alpha

    def potential(self, x):
        """The channel's potential eta e^{-ax} + nu e^{-2ax}, elementwise; inf or NaN, without
        a numpy warning, where an exponential overflows, for the caller's finite_field to report."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.eta * np.exp(-self.alpha * x) + self.nu * np.exp(-2.0 * self.alpha * x)


@dataclass(frozen=True)
class Bound1D:
    """One bound level: quantum number, energy, tail exponent mu."""

    m: int
    epsilon: float
    mu: float


def channel_from_gammas(gamma_lin: float, gamma_quad: float, decay: float, hbar: float) -> MorseChannel:
    """Build the separated channel from reduced-potential weights.

    eta = 2 gamma_lin / hbar^2 and nu = 2 gamma_quad / hbar^2, so the channel
    inherits the energy dependence of the gammas it was built from.  Array
    weights give a channel per element, which the first-principles scan reads.
    """
    h2 = hbar * hbar
    return MorseChannel(eta=2.0 * gamma_lin / h2, nu=2.0 * gamma_quad / h2, alpha=decay)


def m_max(ch: MorseChannel) -> int | None:
    """Largest m that :func:`level_epsilon` admits, or None; searched down from
    ceil(lam - 1/2), since lam may round to either side of the rule at threshold."""
    start = math.ceil(ch.lam - 0.5) if ch.nu > 0.0 else -1
    return next((m for m in range(start, -1, -1) if not math.isnan(level_epsilon(ch, m))), None)


def energy_1d(ch: MorseChannel, m: int) -> Bound1D:
    """Closed-form level m: eps_m = -(1/4nu) [|eta| - a sqrt(nu) (2m+1)]^2.

    Raises NoBoundStates when the channel binds no level, else InvalidLevel when m is not bound.
    """
    eps = float(level_epsilon(ch, m))
    if math.isnan(eps) and m_max(ch) is None:
        raise NoBoundStates(f"channel {ch} binds no level (needs nu > 0 and lam > 1/2)")
    if math.isnan(eps):
        raise InvalidLevel(f"level m={m} is not bound in channel {ch}, which binds m = 0..{m_max(ch)}")
    return Bound1D(m=m, epsilon=eps, mu=math.sqrt(-eps) / ch.alpha)


def level_epsilon(ch: MorseChannel, m: int):
    """eps_m elementwise over array-valued eta and nu; NaN where level m is not bound.

    The one rule for a bound level: level m is bound exactly when nu > 0, m >= 0 and
    -eta > a sqrt(nu) (2m+1), so eta < 0 and m < lam - 1/2.  Strict as computed, it
    keeps every bound eps_m < 0: a level at threshold is not normalizable.
    """
    with np.errstate(all="ignore"):
        bracket = -ch.eta - ch.alpha * np.sqrt(ch.nu) * (2 * m + 1)
        return np.where((ch.nu > 0.0) & (m >= 0) & (bracket > 0.0), -(bracket * bracket) / (4.0 * ch.nu), np.nan)


def _laguerre(n: int, a: float, z):
    """Generalized Laguerre polynomial L_n^a(z) by the three-term recurrence.

    L_k = ((2k - 1 + a - z) L_{k-1} - (k - 1 + a) L_{k-2}) / k, which is the
    numerically stable upward direction for this family.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    z = np.asarray(z, dtype=float)
    prev = np.ones_like(z)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + a - z
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + a - z) * cur - (k - 1.0 + a) * prev) / k
    return cur if cur.ndim else float(cur)


def wavefunction_1d(ch: MorseChannel, state: Bound1D, x):
    """L2-normalized level ``state``: N z^mu e^{-z/2} L_m^{2mu}(z) with
    N^2 = 2a mu m! / Gamma(m + 2mu + 1) (J. P. Dahl and M. Springborg, J. Chem. Phys.
    88, 4535, 1988), for any mu.

    N underflows for deep channels, where the rest overflows, and z = z_scale e^{-ax}
    explodes toward negative x, so the prefactor is evaluated as exp(ln N + mu ln z - z/2)
    with ln N from log-gammas; once that exponent underflows the state is identically
    zero to double precision and 0.0 is returned directly.
    """
    x = np.asarray(x, dtype=float)
    m, mu = state.m, state.mu
    log_norm = 0.5 * (math.log(2.0 * ch.alpha * mu) + math.lgamma(m + 1) - math.lgamma(m + 2.0 * mu + 1.0))
    with np.errstate(over="ignore"):
        z = ch.z_scale * np.exp(-ch.alpha * x)
    zf = np.where(np.isfinite(z), z, 1.0)
    logz_cap = np.log(np.maximum(zf, 1.0))
    dead = ~np.isfinite(z) | (0.5 * zf - (mu + m) * logz_cap - log_norm > -_EXP_UNDERFLOW)
    zs = np.where(dead, 1.0, zf)
    with np.errstate(divide="ignore"):
        exponent = np.where(zs > 0.0, log_norm + mu * np.log(zs), -np.inf) - 0.5 * zs
    val = _laguerre(m, 2.0 * mu, zs) * np.exp(exponent)
    out = np.where(dead, 0.0, val)
    return out if out.ndim else float(out)
