"""Search budgets.

A node limit is the only control, so two runs with the same inputs and
the same node limit explore the same tree and give the same answer on
any machine.
"""

from .errors import InvalidParameterError
from .records import Record

DEFAULT_SOLVER_NODES = 2_000_000


class Budget(Record):
    __slots__ = ("node_limit",)

    def __init__(self, node_limit: int = DEFAULT_SOLVER_NODES):
        # bools and floats would pass the positivity check and be read as counts
        if type(node_limit) is not int:
            raise InvalidParameterError(f"node_limit must be an integer, got {node_limit!r}")
        if node_limit <= 0:
            raise InvalidParameterError(f"node_limit must be positive, got {node_limit}")
        object.__setattr__(self, "node_limit", node_limit)
