"""Exception types shared across the package."""


class InputError(ValueError):
    """An operation received malformed or out-of-contract input."""


class UnsupportedBackendError(InputError):
    """An operation requires a state-space backend the theory does not have."""


class ParseError(Exception):
    """A theory or measurement file is syntactically or structurally invalid."""


class ValidationError(Exception):
    """A parsed object violates a semantic invariant (normalization, positivity, ...)."""


class SolverError(RuntimeError):
    """The LP solver failed to reach a trustworthy verdict."""
