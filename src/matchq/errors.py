"""Exception hierarchy for matchq.

Each class carries the exit code the CLI returns for it as `exit_code`:
2 unless a section heading below says otherwise. Domain restrictions
exit 3 and budget overruns exit 4; certificate parameters the user
chose badly exit 2, like any other input problem.
"""


class MatchQError(Exception):
    """Base class for all matchq errors."""

    exit_code = 2


# -- input and validation problems (CLI exit 2) ---------------------------


class ValidationError(MatchQError):
    """Malformed graph, rates, policy, state, or file input."""


class SelfLoopError(ValidationError):
    def __init__(self, node: int):
        super().__init__(f"edge from node {node} to itself is not allowed")
        self.node = node


class DuplicateEdgeError(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"edge {{{i},{j}}} appears more than once")
        self.edge = (i, j)


class IndexOutOfRangeError(ValidationError):
    def __init__(self, node: int, node_count: int, name: str = "node"):
        super().__init__(f"{name} {node} outside 1..{node_count}")
        self.node = node
        self.node_count = node_count


class NotConnectedError(ValidationError):
    """The operation requires a connected graph with at least one edge."""


class InvalidStateError(ValidationError):
    """Queue vector has adjacent coordinates simultaneously positive."""


class PolicyGraphMismatchError(ValidationError):
    """Priority order lists are not permutations of the neighbor sets."""


class InputFormatError(ValidationError):
    """Unparseable JSON instance file."""


# -- certificate parameters and witnesses (CLI exit 2) ---------------------


class EpsilonOutOfRangeError(MatchQError):
    """Counterexample parameter outside the family's interval."""


class BoundaryDegenerateError(MatchQError):
    """Requested instance sits on the region boundary (zero drift)."""


class NoWitnessFoundError(MatchQError):
    """A connected non-bipartite non-separable graph produced no induced
    pendant and no induced odd cycle. This indicates an implementation bug."""


# -- capability limits and numeric failures (CLI exit 2) -------------------


class TooLargeError(MatchQError):
    """Exhaustive enumeration, or a growth template, refused beyond its cap."""


class InsufficientSamplesError(MatchQError):
    """Too few trace samples inside the requested fit window."""


class NotConvergedError(MatchQError):
    """Stationary solve did not reach the requested residual."""


class ReducibleError(MatchQError):
    """Truncated chain is not irreducible; stationary solve refused."""


# -- domain restrictions (CLI exit 3) --------------------------------------


class UnsupportedPolicyError(MatchQError):
    """No analytical machinery for this policy kind."""

    exit_code = 3


class RatesOutsideRegionError(MatchQError):
    """Closed forms require the geometric ratios to be below one."""

    exit_code = 3


class NotApplicableError(MatchQError):
    """Construction undefined for this graph class."""

    exit_code = 3


# -- resource limits (CLI exit 4) -------------------------------------------


class BudgetExceededError(MatchQError):
    """Simulation budget exhausted before the experiment finished."""

    exit_code = 4
