"""The common base of the errors a solve raises when its numbers fail."""


class SolverFailure(Exception):
    """A solve could not finish on its inputs: an iteration diverged, a value
    turned non-finite, or a read left the grid.

    Each subclass also keeps its own builtin base (RuntimeError or
    ValueError).  A configuration error is not a SolverFailure.
    """
