"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ScalarParseError(GeometryError):
    """Syntax error in a scalar expression; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScalarDomainError(GeometryError):
    """Division by zero, a negative power of zero, or a malformed scalar."""


class DegenerateMetric(GeometryError):
    """A Gram matrix required to be invertible has zero determinant."""


class InconsistentSystem(GeometryError):
    """A linear system has no solution."""


class UnderdeterminedSystem(GeometryError):
    """A linear system has more than one solution where one was required."""


class InvalidFrame(GeometryError):
    """A submanifold frame has the wrong shape: labels, dimension or
    dependent tangent vectors."""


class MuZero(GeometryError):
    """``example47`` was asked for at mu = 0.  A model whose frame gives
    mu = 0 fails its radical-phi-image entry instead."""


class ModelError(GeometryError):
    """A model file violates the schema; names the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
