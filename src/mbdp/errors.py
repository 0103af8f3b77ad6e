"""Exception types shared across the toolkit, the argument checks that raise them, and the array cap."""

from numbers import Integral


class MbdpError(Exception):
    """Base class for all toolkit errors."""


class ModelError(MbdpError):
    """Malformed model structure: bad shapes, indices, or distributions."""


class ParseError(MbdpError):
    """Unreadable problem or policy file; message carries line context when known."""


class ImpossibleEvidenceError(MbdpError):
    """Bayes update conditioned on a zero-probability observation."""


class EvaluationError(MbdpError):
    """Joint-policy evaluation hit an incomplete or inconsistent tree."""


class CapacityError(MbdpError):
    """An enumeration would exceed the configured size cap."""


# floats the planner's selection grid, a simulation's per-episode arrays
# or a problem file's tables may take (2 GiB); past it ``CapacityError``
# is raised before they are allocated
MAX_GRID_FLOATS = 1 << 28


class ConfigError(MbdpError):
    """Invalid solver or benchmark configuration."""


def require_count(value, name: str, error: type[MbdpError], least: int = 1) -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def require_seed(value, error: type[MbdpError]) -> int:
    """``value`` as an int, if it is a non-negative integer (not a bool or None)."""
    return require_count(value, "seed", error, least=0)
