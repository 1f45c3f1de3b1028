"""Exception types shared across the package."""


class HierspectError(Exception):
    """Base class for errors raised by this package."""


class DegenerateGraphError(HierspectError, ValueError):
    """The graph has no edge weight to work with (max degree is zero)."""


class SolverError(HierspectError, RuntimeError):
    """An eigensolve failed, could not prove its count, or had no finite
    operator to run on.

    Carries the residual norms ||M v - lambda v|| of whatever eigenpairs
    were available when it stopped, where there were any.
    """

    def __init__(self, message, residual_norms=None):
        super().__init__(message)
        self.residual_norms = residual_norms


class InfeasibleSNRError(HierspectError, ValueError):
    """Requested signal-to-noise ratio is not achievable at the given degree."""

    def __init__(self, message, max_snr=None, level=None):
        super().__init__(message)
        self.max_snr = max_snr
        self.level = level


class EdgeListError(HierspectError, ValueError):
    """Malformed edge-list input; ``line_no`` is 1-based."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class SchemaError(HierspectError, ValueError):
    """A JSON document does not match its published schema."""

    def __init__(self, message, json_path=None):
        super().__init__(message)
        self.json_path = json_path
