"""Exception types shared across the package, and the rule that names where one came from."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative computation exhausted its budget; its message may start with the stage."""


def named(source: str, call, *args, **kwargs):
    """`call(*args, **kwargs)`, with a failure prefixed by `source`, where it came from.

    A DomainError stays one (`source` is a flag or config field); a ConvergenceError
    or ArithmeticError becomes a ConvergenceError whose message starts with `source`.
    """
    try:
        return call(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"{source}: {exc}") from exc
    except (ConvergenceError, ArithmeticError) as exc:
        raise ConvergenceError(f"{source}: {exc}") from exc
