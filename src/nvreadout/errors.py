"""Exception hierarchy shared by the whole toolkit.

Every error raised on bad data or bad parameters derives from
:class:`ReadoutError`, so callers (and the CLI) can distinguish usage
problems from data/domain problems with a single except clause.  A type
that checks a rule on each row of an array names the first offending row;
a file reader turns that row into its line.
"""


class ReadoutError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(ReadoutError, ValueError):
    """A parameter is outside its allowed domain; names the offending field,
    and in ``row`` the first offending row (0-based) of a rule on each row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ShapeError(ReadoutError, ValueError):
    """Inputs have mismatched lengths, bin widths or dimensions."""


class DomainError(ReadoutError, ValueError):
    """A value is outside its mathematical domain (e.g. population not in [0,1])."""


class DegenerateBoundaryError(ReadoutError):
    """Boundary sums do not satisfy bright > dark > 0."""


class DegenerateTrainingError(ReadoutError):
    """The training set cannot constrain a model (identical targets/traces)."""


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
