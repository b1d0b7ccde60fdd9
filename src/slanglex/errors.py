"""Exception types shared across the toolkit."""


class SlanglexError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SlanglexError):
    """An input file violated its declared format or a record invariant.

    Its message is the one place an input error's location is written:
    ``<path>:<line>: <reason>``, or ``<path>: <reason>`` without a line.
    """

    def __init__(self, reason, line=None, field=None, path=None):
        where = ":".join(str(part) for part in (path, line) if part is not None)
        super().__init__(f"{where}: {reason}" if where else reason)
        self.reason = reason  # without the location
        self.line = line
        self.field = field
        self.path = path


class AnalysisError(SlanglexError):
    """An operation was invoked with arguments violating its preconditions,
    or failed in a way that invalidates its result."""
