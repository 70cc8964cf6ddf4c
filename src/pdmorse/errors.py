"""Exception hierarchy shared by all solver components."""

import numpy as np


class PdmorseError(Exception):
    """Base class for every error raised by this package."""


class EvaluationOverflow(PdmorseError):
    """A pointwise field evaluation produced a non-finite value.

    Carries the first offending coordinate so grid sweeps can report
    where the exponentials blew up instead of propagating NaN.
    """

    def __init__(self, what: str, x: float, y: float | None = None):
        self.what = what
        self.x = x
        self.y = y
        at = f"x={x!r}" if y is None else f"x={x!r}, y={y!r}"
        super().__init__(f"{what} overflowed to a non-finite value at {at}")


def finite_field(what: str, values, x, y=None):
    """``values`` if every entry is finite (a float for scalar input), else EvaluationOverflow.

    The one rule for a field evaluation.  The error names the first non-finite
    node in row-major order, with ``x`` (and ``y``) broadcast against ``values``.
    """
    if np.all(np.isfinite(values)):
        # getattr, not np.ndim: about 1 us less on each scalar potential_at check.
        return values if getattr(values, "ndim", 0) else float(values)
    vals, *at = np.broadcast_arrays(values, *(np.asarray(c, dtype=float) for c in (x, y) if c is not None))
    bad = int(np.argmax(~np.isfinite(vals)))
    raise EvaluationOverflow(what, *(float(c.flat[bad]) for c in at))


class OrderingNotSolvable(PdmorseError):
    """The kinetic-ordering parameters do not collapse the reduced problem."""


class NoBoundStates(PdmorseError):
    """The exponential channel does not support any bound state."""


class InvalidLevel(PdmorseError):
    """Requested quantum number exceeds the channel's level count."""


class GridTooSmall(PdmorseError):
    """The finite-difference grid cannot resolve the requested levels."""


class NotConverged(PdmorseError):
    """An iterative numerical routine failed to converge."""


class NoBracket(PdmorseError):
    """No sign change found; refusing to fabricate a root."""


class Unbounded(PdmorseError):
    """The potential keeps decreasing at the scan boundary.

    An axis along which the scanned potential is exactly constant does not
    count: a minimum pinned to the edge along it is degenerate, not unbounded.
    """

    def __init__(self, x: float, y: float, value: float):
        self.x = x
        self.y = y
        self.value = value
        super().__init__(
            f"potential still decreasing at scan boundary ({x!r}, {y!r}), V={value!r}"
        )


class DegenerateWindow(PdmorseError):
    """Potential minimum coincides with its asymptote: no binding interval."""


class UnknownLevel(PdmorseError):
    """Requested (m, n) does not identify an emitted spectrum entry."""


class ConfigError(PdmorseError):
    """Run configuration failed validation."""
