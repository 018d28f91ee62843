"""Exception types shared across the package.

Two broad families matter to callers: configuration problems (bad keys,
inconsistent parameters) and numerical-domain problems (an operation was
asked outside the region where its answer is defined). The CLI maps them
to exit codes 2 and 3 respectively.
"""


class HetqError(Exception):
    """Base class for all package errors."""


class ConfigError(HetqError):
    """Invalid configuration: unknown key, bad value, inconsistent setup."""


class DomainError(HetqError):
    """Operation requested outside its mathematical domain."""


class UnstableError(DomainError):
    """Offered load meets or exceeds capacity where stability is required."""


class DegenerateError(DomainError):
    """Conditioning event has (numerically) zero probability."""


class EmptyWindowError(DomainError):
    """The post-warmup observation window contains no samples."""


class NoIdlenessError(DomainError):
    """A saturated path carries no idleness to build a fairness estimate on."""


class WindowError(DomainError):
    """A recorded path is too short for the requested scaling window."""


class BracketError(DomainError):
    """Optimizer could not evaluate the objective across its bracket."""
