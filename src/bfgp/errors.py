"""Exception types shared across the package."""


class BfgpError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(BfgpError, ValueError):
    """A precondition on an argument was violated."""


class UnsupportedFamilyError(BfgpError):
    """Operation requires a butterfly-family graph."""


class NotConnectedError(BfgpError):
    """Vertices involved are not mutually reachable."""


class GraphParseError(BfgpError):
    """Malformed graph input.  Carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidCycleError(BfgpError):
    """Sequence is not a cycle of the graph.  `position` is the first bad index."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvalidPathError(BfgpError):
    """Sequence is not a path of the graph."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvalidCoverError(BfgpError):
    """Cover contains structural garbage.  `cycle_index` points at the offender."""

    def __init__(self, message: str, cycle_index: int | None = None):
        super().__init__(message)
        self.cycle_index = cycle_index


class UnverifiedCoverError(BfgpError):
    """A bound was requested from a cover that did not pass verification."""


class TooLargeError(BfgpError):
    """Instance refused: it exceeds a hard size guard."""

