"""Search budgets.

Node limits are the determinism-bearing control: two runs with the same
inputs and the same node limit explore the same tree.  Wall-clock limits
are advisory only (machine dependent) and merely mark results non-optimal.
"""

from dataclasses import dataclass

from .errors import InvalidParameterError

DEFAULT_SOLVER_NODES = 2_000_000


@dataclass(frozen=True)
class Budget:
    node_limit: int = DEFAULT_SOLVER_NODES
    time_limit_s: float | None = None

    def __post_init__(self):
        if self.node_limit <= 0:
            raise InvalidParameterError(f"node_limit must be positive, got {self.node_limit}")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise InvalidParameterError(f"time_limit_s must be positive, got {self.time_limit_s}")
