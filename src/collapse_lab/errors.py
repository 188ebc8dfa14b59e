"""Semantic exception hierarchy shared across the lab, and the seed rule every config applies."""


class CollapseLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CollapseLabError, ValueError):
    """An input is outside the mathematical domain of an operation."""


class ConfigError(CollapseLabError, ValueError):
    """Invalid configuration: bad parameter combination, unknown key, malformed value."""


class SingularityError(ConfigError):
    """A distribution support touches a non-integrable singularity (1/gamma^2 at 0).

    The distributions and gammas it rejects are user-given, so it is a configuration error.
    """


class UsageError(CollapseLabError, RuntimeError):
    """An API was called out of order (e.g. backward before forward)."""


class DivergenceError(CollapseLabError, RuntimeError):
    """A simulation or training run produced non-finite state.

    Carries whatever partial results were valid at abort time in
    ``partial`` so callers can inspect the last good state.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def require_seed(name: str, value) -> None:
    """Reject a seed that is not an integer in [0, 2^64)."""
    if not isinstance(value, int) or value < 0 or value >= 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2^64), got {value!r}")
