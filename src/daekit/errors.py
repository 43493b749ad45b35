"""Exception types shared across the toolkit.

Every error carries enough context (position, offending point, exit time)
to locate the failure without re-running the computation.
"""


def point_text(point):
    """A point as the text of a tuple of Python floats, e.g. "(0.0, 1.5)"."""
    return str(tuple(float(c) for c in point))


class DaekitError(Exception):
    """Base class for all toolkit errors."""


class ExprSyntaxError(DaekitError):
    """Malformed formula text; ``position`` is the 0-based offset in the source."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UndeclaredVariableError(DaekitError):
    """A formula references a variable not declared by the owning system."""

    def __init__(self, name, position=None):
        at = f" (position {position})" if position is not None else ""
        super().__init__(f"undeclared variable '{name}'{at}")
        self.name = name
        self.position = position


class ExprDomainError(DaekitError):
    """Evaluation left the domain (log of nonpositive, division by zero, ...)."""

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class SingularMatrixError(DaekitError):
    """A pivot fell below the singularity threshold during factorization."""


class MatrixOverflowError(DaekitError):
    """A matrix function produced entries outside the representable range."""


class HypothesisViolationError(DaekitError):
    """det d2g vanishes or changes sign inside the working box.

    ``witness`` is a point of the box at/near which the constraint Jacobian
    degenerates; ``report`` holds the full validation record.
    """

    def __init__(self, message, witness, report=None):
        super().__init__(f"{message}; witness {point_text(witness)}")
        self.witness = witness
        self.report = report


class ConstraintSolveError(DaekitError):
    """Newton iteration on the constraint failed to reach tolerance."""


class LeavesBoxError(DaekitError):
    """A trajectory exited the working box; ``exit_time`` is the first bad time."""

    def __init__(self, message, exit_time, state=None):
        super().__init__(f"{message} (t = {exit_time})")
        self.exit_time = exit_time
        self.state = state


class DriftExceededError(DaekitError):
    """Per-step constraint drift exceeded the accepted-trajectory bound."""


class DegenerateZeroError(DaekitError):
    """Signed index summation refused: some zero has a singular Jacobian."""

    def __init__(self, points):
        pts = ", ".join(point_text(p) for p in points)
        super().__init__(f"degenerate zero(s) at {pts}; use the boundary oracle")
        self.points = points


class BoundaryZeroError(DaekitError):
    """The field (nearly) vanishes on the box boundary; degree undefined there."""


class InconsistentVoteError(DaekitError):
    """Perturbation votes for the degree of a degenerate configuration disagree."""


class ShootingError(DaekitError):
    """Periodic-orbit shooting failed to converge."""


class SingularShootingError(DaekitError):
    """The shooting Jacobian dP - I is singular (numerical shadow of resonance)."""


class BranchError(DaekitError):
    """Branch continuation could not be started."""


class SystemFileError(DaekitError):
    """Malformed system definition file; ``line`` is 1-based."""

    def __init__(self, message, line=None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{at}")
        self.line = line
