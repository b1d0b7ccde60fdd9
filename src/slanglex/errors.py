"""Exception types shared across the toolkit."""


class SlanglexError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SlanglexError):
    """An input file violated its declared format or a record invariant.

    Carries enough context (line number, field) to point at the offending
    record.
    """

    def __init__(self, message, line=None, field=None):
        self.reason = message  # without the line prefix
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.field = field


class AnalysisError(SlanglexError):
    """An operation was invoked with arguments violating its preconditions,
    or failed in a way that invalidates its result."""
