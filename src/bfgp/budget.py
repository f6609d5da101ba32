"""Search budgets.

A node limit is the only control, so two runs with the same inputs and
the same node limit explore the same tree and give the same answer on
any machine.
"""

from dataclasses import dataclass

from .errors import InvalidParameterError

DEFAULT_SOLVER_NODES = 2_000_000


@dataclass(frozen=True)
class Budget:
    node_limit: int = DEFAULT_SOLVER_NODES

    def __post_init__(self):
        if self.node_limit <= 0:
            raise InvalidParameterError(f"node_limit must be positive, got {self.node_limit}")
