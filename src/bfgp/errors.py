"""Exception types shared across the package."""


class BfgpError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(BfgpError, ValueError):
    """A precondition on an argument was violated."""


class NotConnectedError(BfgpError):
    """Vertices involved are not mutually reachable."""


class GraphParseError(BfgpError):
    """Malformed graph, set or cover input; the message says where when it can."""


class InvalidCoverError(BfgpError):
    """A cover member is not a walk of the graph; the message names the member."""


class UnverifiedCoverError(BfgpError):
    """A bound was requested from a cover that did not pass verification."""


class TooLargeError(BfgpError):
    """Instance refused: it exceeds a hard size guard."""

