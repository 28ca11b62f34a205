"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation exhausted its budget.

    Carries the best available estimate so callers can inspect or flag it,
    and optionally the pipeline stage that failed.
    """

    def __init__(self, message, best=None, stage=None):
        super().__init__(message)
        self.best = best
        self.stage = stage
