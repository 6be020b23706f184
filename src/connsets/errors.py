"""Exception types shared across the package.

Every error carries a human-readable message naming the violated rule so
that callers (and the command line front end) can report precisely what
went wrong.  The command line maps each class to one exit code:
``ContractViolationError`` 3, ``ResourceCapError`` 4, ``FormatError`` 5.
The module also holds two limits, so that a caller can name them without
loading the layer that enforces them: ``DEFAULT_ORACLE_CAP``, the default
size cap behind ``ResourceCapError``, and ``LABELLED_GUARD_N``.
"""

DEFAULT_ORACLE_CAP = 24

# Largest order of the labelled guard (crosscheck.labeled_bicyclic_classes),
# which the generator's stream runs up to it and never imports above it.
LABELLED_GUARD_N = 8


class ConnsetsError(Exception):
    """Base class for all package-specific errors."""


class ContractViolationError(ConnsetsError):
    """An invalid request: arguments outside an operation's contract, or a
    family or surgery parameter outside its documented bound."""


class ResourceCapError(ConnsetsError):
    """An exact computation would exceed the configured size cap."""


class FormatError(ConnsetsError):
    """Malformed textual input (graph6, edge list, or family spec)."""
