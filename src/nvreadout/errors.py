"""Exception hierarchy shared by the whole toolkit.

Every error raised on bad data or bad parameters derives from
:class:`ReadoutError`, so callers (and the CLI) can distinguish usage
problems from data/domain problems with a single except clause.  Below it
sit three types, one for each distinction a caller draws: a value, shape,
pair or training set that breaks a rule (:class:`ParameterError`), a
malformed file (:class:`ParseError`) and a sinusoid fit that fails
(:class:`FitFailureError`).  A rule checked on each row of an array names
the first offending row; a file reader turns that row into its line.
"""


class ReadoutError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ReadoutError, ValueError):
    """A value, shape, pair or training set breaks a rule; names the offending
    field, and in ``row`` the first offending row (0-based) of a rule on each row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class FitFailureError(ReadoutError):
    """Sinusoid fitting failed (too few points, no oscillation, short span)."""


class ParseError(ReadoutError):
    """A data file is malformed.

    Carries the 1-based line number when it is known; the message starts
    with the file and the line when they are given.
    """

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line
