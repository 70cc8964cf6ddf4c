"""Closed-form bound states of -X'' + (eta e^{-ax} + nu e^{-2ax}) X = eps X.

A channel with nu > 0 and eta < 0 holds finitely many bound levels.  In the
variable z = (2 sqrt(nu)/a) e^{-ax} the eigenfunctions are
z^mu e^{-z/2} L_m^{2mu}(z) with mu = sqrt(|eps_m|)/a, and the level count is
capped by |eta| > a sqrt(nu) (2m+1).  Normalization is numerical: the closed
forms are only defined up to scale, so every state reported here carries an
L2 constant obtained by converged composite quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLevel, NoBoundStates, QuadratureNotConverged

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
    def supports_bound_states(self) -> bool:
        return self.nu > 0.0 and self.eta < 0.0

    @property
    def lam(self) -> float:
        """Depth parameter |eta| / (2 a sqrt(nu)); levels need m < lam - 1/2."""
        return -self.eta / (2.0 * self.alpha * math.sqrt(self.nu))

    @property
    def z_scale(self) -> float:
        return 2.0 * math.sqrt(self.nu) / self.alpha


@dataclass
class Bound1D:
    """One bound level: quantum number, energy, shape constants, L2 norm."""

    m: int
    epsilon: float
    mu: float
    lam: float
    z_scale: float
    norm: float | None = None


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-Simpson refinement control for normalization integrals."""

    tol: float = 1e-8
    initial_intervals: int = 256
    max_doublings: int = 18


def channel_from_gammas(gamma_lin: float, gamma_quad: float, decay: float, hbar: float) -> MorseChannel:
    """Build the separated channel from reduced-potential weights.

    eta = 2 gamma_lin / hbar^2 and nu = 2 gamma_quad / hbar^2, so the channel
    inherits the energy dependence of the gammas it was built from.  Array
    weights give a channel per element, which only ``_level_epsilon`` reads.
    """
    h2 = hbar * hbar
    return MorseChannel(eta=2.0 * gamma_lin / h2, nu=2.0 * gamma_quad / h2, alpha=decay)


def m_max(ch: MorseChannel) -> int | None:
    """Largest m with |eta| > a sqrt(nu) (2m+1), or None without bound states.

    The inequality is strict: a level exactly at threshold has zero energy
    and is not normalizable, so it does not count.
    """
    if not ch.supports_bound_states:
        return None
    top = math.ceil(ch.lam - 0.5) - 1
    return top if top >= 0 else None


def energy_1d(ch: MorseChannel, m: int) -> Bound1D:
    """Closed-form level m: eps_m = -(1/4nu) [|eta| - a sqrt(nu) (2m+1)]^2."""
    if not ch.supports_bound_states:
        raise NoBoundStates(f"channel {ch} has no bound states (need nu>0 and eta<0)")
    top = m_max(ch)
    if top is None or m > top:
        raise InvalidLevel(f"level m={m} exceeds m_max={top} for channel {ch}")
    if m < 0:
        raise InvalidLevel(f"quantum number must be non-negative, got {m}")
    eps = float(_level_epsilon(ch, m))
    mu = math.sqrt(-eps) / ch.alpha
    return Bound1D(m=m, epsilon=eps, mu=mu, lam=ch.lam, z_scale=ch.z_scale)


def _level_epsilon(ch: MorseChannel, m: int):
    """eps_m elementwise over array-valued eta and nu; NaN where level m is not bound.

    Level m is bound when nu > 0, eta < 0 and m <= ceil(lam - 1/2) - 1, the
    same cap as :func:`m_max`.
    """
    with np.errstate(all="ignore"):
        root_nu = np.sqrt(ch.nu)
        lam = -ch.eta / (2.0 * ch.alpha * root_nu)
        bound = (ch.nu > 0.0) & (ch.eta < 0.0) & (m <= np.ceil(lam - 0.5) - 1)
        bracket = np.abs(ch.eta) - ch.alpha * root_nu * (2 * m + 1)
        return np.where(bound, -(bracket * bracket) / (4.0 * ch.nu), np.nan)


def laguerre(n: int, a: float, z):
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
    """Unnormalized bound wavefunction X_m(x) = z^mu e^{-z/2} L_m^{2mu}(z).

    z = z_scale e^{-ax} explodes toward negative x, so the prefactor is
    evaluated as exp(mu ln z - z/2); once that exponent underflows the state
    is identically zero to double precision and 0.0 is returned directly.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        z = state.z_scale * np.exp(-ch.alpha * x)
    zf = np.where(np.isfinite(z), z, 1.0)
    logz_cap = np.log(np.maximum(zf, 1.0))
    dead = ~np.isfinite(z) | (0.5 * zf - (state.mu + state.m) * logz_cap > -_EXP_UNDERFLOW)
    zs = np.where(dead, 1.0, zf)
    with np.errstate(divide="ignore"):
        exponent = np.where(zs > 0.0, state.mu * np.log(zs), -np.inf) - 0.5 * zs
    val = laguerre(state.m, 2.0 * state.mu, zs) * np.exp(exponent)
    out = np.where(dead, 0.0, val)
    return out if out.ndim else float(out)


def _simpson(f, a: float, b: float, intervals: int) -> float:
    """Composite Simpson on an even number of uniform intervals."""
    xs = np.linspace(a, b, intervals + 1)
    ys = f(xs)
    h = (b - a) / intervals
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1:-1:2]) + 2.0 * np.sum(ys[2:-2:2]))


def norm_constant(f, a: float, b: float, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Constant N with integral of (N f)^2 over [a, b] equal to one.

    Simpson intervals are doubled until N moves by less than ``quad.tol``;
    failure to settle raises QuadratureNotConverged.
    """
    sq = lambda xs: np.asarray(f(xs)) ** 2
    intervals = quad.initial_intervals
    prev = 1.0 / math.sqrt(_simpson(sq, a, b, intervals))
    for _ in range(quad.max_doublings):
        intervals *= 2
        cur = 1.0 / math.sqrt(_simpson(sq, a, b, intervals))
        if abs(cur - prev) < quad.tol:
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"normalization did not settle below {quad.tol} after {quad.max_doublings} doublings"
    )


def integration_domain(ch: MorseChannel, state: Bound1D, tail: float = 1e-16) -> tuple[float, float]:
    """Interval outside which the squared wavefunction is below ``tail`` of its peak.

    Starts from the peak of the nodeless envelope (z = 2 mu) and widens each
    side geometrically until the integrand has fallen off.
    """
    a = ch.alpha
    x_peak = -math.log(max(2.0 * state.mu, 1e-3) / state.z_scale) / a
    # Sample around the envelope peak: for m > 0 the estimate may sit on a node.
    probe = x_peak + np.linspace(-3.0, 3.0, 25) / a
    peak = max(float(np.max(np.abs(wavefunction_1d(ch, state, probe)))), 1e-300)
    threshold = math.sqrt(tail) * peak

    step = 1.0 / a
    left = x_peak - step
    for _ in range(400):
        if abs(wavefunction_1d(ch, state, left)) < threshold:
            break
        step *= 1.5
        left -= step
    else:  # pragma: no cover - bound states always decay
        raise QuadratureNotConverged("left integration tail did not decay")

    step = 1.0 / a
    right = x_peak + step
    for _ in range(400):
        if abs(wavefunction_1d(ch, state, right)) < threshold:
            break
        step *= 1.5
        right += step
    else:  # pragma: no cover
        raise QuadratureNotConverged("right integration tail did not decay")
    return left, right


def normalize_1d(ch: MorseChannel, state: Bound1D, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """L2-normalize the state; stores and returns the constant N."""
    a, b = integration_domain(ch, state)
    n = norm_constant(lambda xs: wavefunction_1d(ch, state, xs), a, b, quad)
    state.norm = n
    return n
