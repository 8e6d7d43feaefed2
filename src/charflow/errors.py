"""Exception types shared across the package."""


class CharflowError(Exception):
    """Base class for all package errors."""


class MeasureError(CharflowError):
    """Invalid measure construction or operation."""


class FieldError(CharflowError):
    """Vector-field evaluation or declaration problem."""


class EnvelopeViolation(FieldError):
    """A sampled velocity exceeded the declared growth envelope."""


class QuadratureError(CharflowError):
    """A cost table failed its sign, slope or concavity check."""


class CostRangeError(CharflowError):
    """Requested value lies outside the range of the cost function."""


class FlowError(CharflowError):
    """Characteristic-flow failure: refused options, times or start points,
    or a stepper that underflowed, ran out of steps or left the float range."""


class TransportError(CharflowError):
    """Transport LP infeasibility, size-cap breach, or pivot-budget guard."""


class ComparisonBoundError(CharflowError):
    """The transport comparison bound does not apply to the given inputs."""


class CutoffError(CharflowError):
    """Cutoff-family construction failure (root bracketing or gradient bound)."""


class MollifierError(CharflowError):
    """Mollifier grid or kernel-mass problem."""


class ScheduleError(CharflowError):
    """The parameter schedule cannot be met: a negative variation integral,
    a log-delta walk that reached its floor or ceiling before it bracketed
    J(delta) = target for brentq, or an underflowed mollifier radius."""


class ConfigError(CharflowError):
    """Invalid scenario configuration."""
