"""Exception types shared across the package.

Argument and shape misuse raises plain ``ValueError``; the classes here
mark conditions the CLI maps to distinct exit codes.
"""


class DataError(Exception):
    """Input data cannot be used as requested (parse, schema, capacity)."""


class SchemaError(DataError):
    """A file's structure or label values violate the expected schema."""


class CapacityError(DataError):
    """A dataset lacks enough instances of a class for the requested setup."""


class CheckpointError(DataError, ValueError):
    """A checkpoint file is unreadable, incomplete or inconsistent. It is
    also a ``ValueError``, so callers that treat a bad file as a bad
    value keep working."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where finite numbers are required."""
