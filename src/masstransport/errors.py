"""Exception types shared across the package."""


class MassTransportError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(MassTransportError):
    """A process description is malformed or violates a constraint.

    ``where`` locates the offending field, either as a JSON path when the
    description came from a file or as a plain field name otherwise.
    """

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        if where is not None:
            message = f"{where}: {message}"
        super().__init__(message)


class NoStationaryDistribution(MassTransportError):
    """The transition matrix has no unique strictly positive stationary law."""


class UnsupportedProcess(MassTransportError):
    """The requested operation needs a capability this process lacks."""


class ExplosionCap(MassTransportError):
    """An exact run would pass its cap: its step laws' branches plus the
    states its folds carry, summed over the steps (``--atom-cap``)."""
