"""Exception hierarchy: one class per audience.

The CLI maps every :class:`QsearchError` to exit code 3 and prints its
message, so a finer class would tell no caller anything the message does
not.  The two subclasses only say whose mistake it was: ``InputError`` is
the caller's (a file, query or flag), ``CircuitError`` the program's (a
builder, the IR or a simulator misused, or a failed exactness check).
"""
from __future__ import annotations


class QsearchError(Exception):
    """Base class for all package errors."""


class InputError(QsearchError):
    """Invalid user-supplied input (database file, query, CLI flags)."""


class CircuitError(QsearchError):
    """Invalid circuit construction or use, or a failed exactness check."""
