"""Exception types shared across the simulator and the analysis layer."""


class AgesimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AgesimError):
    """A configuration value or document is invalid."""


class EmptySeriesError(AgesimError):
    """An operation that needs at least one sample received none."""


class InsufficientDataError(AgesimError):
    """Not enough samples to compute the requested statistic."""


class MissingPhaseBinError(AgesimError):
    """A required phase bin (first stress, last stress, post-rejuvenation) is absent."""

    def __init__(self, bin_name: str):
        # the bin name alone is the argument, so that unpickling rebuilds the same text
        super().__init__(bin_name)

    def __str__(self) -> str:
        return f"required bin missing: {self.args[0]}"


class LedgerUnderflowError(AgesimError):
    """Attempt to delete an entity kind with no live instances."""


class ParseError(AgesimError):
    """An input file does not conform to its schema.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidSeriesError(ParseError, ValueError):
    """An indicator series breaks its invariants (a unit, increasing timestamps).

    It is a ``ValueError`` too, as the series constructor raised before.
    """


class DuplicateTimestampError(ParseError):
    """Two rows carry the same (metric, timestamp) pair."""


class EmptyFileError(ParseError):
    """The input file contains no data rows."""
