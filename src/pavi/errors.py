"""Exception hierarchy shared across the package.

Each error class carries the process exit code the CLI maps it to:
0 success, 2 configuration/usage, 3 divergence, 4 oracle non-convergence.
"""


class PaviError(Exception):
    exit_code = 1


class ConfigError(PaviError):
    """Invalid configuration: bad constants, violated step-size guard, N < 2."""

    exit_code = 2


class UsageError(PaviError):
    """Invalid call: index out of range, shape mismatch, degenerate inputs."""

    exit_code = 2


class ScaleError(PaviError):
    """Operation requested beyond its feasible size gate."""

    exit_code = 2


class EvaluationError(PaviError):
    """Potential evaluation produced or received a non-finite value."""


class DivergenceError(PaviError):
    """A particle update produced a non-finite entry."""

    exit_code = 3

    def __init__(self, iteration, coordinate, particle):
        self.iteration = int(iteration)
        self.coordinate = int(coordinate)
        self.particle = int(particle)
        super().__init__(
            f"non-finite particle update at iteration {self.iteration}, "
            f"coordinate {self.coordinate}, particle {self.particle}"
        )


class OracleConvergenceError(PaviError):
    """Fixed-point iteration did not reach tolerance within the sweep budget."""

    exit_code = 4

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class GridTooNarrowError(OracleConvergenceError):
    """Probability mass reached the edge of a marginal grid."""

    def __init__(self, message):
        super().__init__(message)


class DegenerateGridError(PaviError):
    """All log-density values on a grid are -inf."""

    exit_code = 4


class ReferenceQuantileError(PaviError):
    """A reference marginal failed to produce finite quantiles."""
