"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation exhausted its budget; `stage` may name the pipeline stage."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage
