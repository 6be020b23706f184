"""Exception types shared across the package.

Every error carries a human-readable message naming the violated rule so
that callers (and the command line front end) can report precisely what
went wrong.  The command line maps each class to one exit code:
``ContractViolationError`` 3, ``ResourceCapError`` 4, ``FormatError`` 5.
The module also holds ``DEFAULT_ORACLE_CAP``, the default size cap behind
``ResourceCapError``, so that the command line can name it in its help
without loading a layer.
"""

DEFAULT_ORACLE_CAP = 24


class ConnsetsError(Exception):
    """Base class for all package-specific errors."""


class ContractViolationError(ConnsetsError):
    """An invalid request: arguments outside an operation's contract, or a
    family or surgery parameter outside its documented bound."""


class ResourceCapError(ConnsetsError):
    """An exact computation would exceed the configured size cap."""


class FormatError(ConnsetsError):
    """Malformed textual input (graph6, edge list, or family spec)."""
