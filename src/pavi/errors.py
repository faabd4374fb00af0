"""The package's exceptions, one class per process exit code.

The CLI prints ``error: <message>`` on stderr and exits with the class's
``exit_code``: 2 for any bad config, file, argument or call, 3 for a
divergence and 4 for an oracle that does not converge.  Exit 1 is the code
of a failed ``pavi check``; nothing raises the base class itself.
"""


class PaviError(Exception):
    exit_code = 1


class ConfigError(PaviError):
    """Invalid input: a bad config key or file, a violated step-size guard, an
    out-of-range call, a size beyond its gate, or a reference whose quantiles
    are non-finite."""

    exit_code = 2


class DivergenceError(PaviError):
    """A particle update produced a non-finite entry; ``seed`` names the run
    or the stacked replication it happened in."""

    exit_code = 3

    def __init__(self, iteration, coordinate, particle, seed):
        self.iteration = int(iteration)
        self.coordinate = int(coordinate)
        self.particle = int(particle)
        self.seed = int(seed)
        super().__init__(
            f"non-finite particle update at iteration {self.iteration}, "
            f"coordinate {self.coordinate}, particle {self.particle}, seed {self.seed}"
        )


class OracleConvergenceError(PaviError):
    """The oracle found no fixed point: the sweep budget ran out, mass reached
    a grid's edge, or a grid density could not be normalized."""

    exit_code = 4

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []
