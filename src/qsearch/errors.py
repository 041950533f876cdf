"""Exception hierarchy.

``InputError`` subclasses cover everything a caller can get wrong in a file
or query (CLI maps them to exit code 3); ``CircuitError`` subclasses cover
misuse of the circuit/compiler layer.
"""
from __future__ import annotations


class QsearchError(Exception):
    """Base class for all package errors."""


class CircuitError(QsearchError):
    """Invalid circuit construction or use."""


class MacroGateError(CircuitError):
    """A simulator was handed a circuit that still contains macro gates;
    lower it first."""


class OperandOverlapError(CircuitError):
    """Gate operands are not pairwise distinct, or fragments overlap."""


class AncillaBudgetError(CircuitError):
    """A decomposition was given fewer ancilla qubits than it needs."""


class InputError(QsearchError):
    """Invalid user-supplied input (database file, query, CLI flags)."""


class DatabaseFormatError(InputError):
    """Database document is malformed or violates the schema."""


class DuplicateKeyError(InputError):
    """Two records share a key-field value."""


class FieldWidthError(InputError):
    """A bit-string value does not match its declared field width."""


class UnknownFieldError(InputError):
    """A referenced field name is not declared."""


class KeySpaceExhaustedError(InputError):
    """Padding cannot invent enough distinct key values."""


class QueryError(InputError):
    """A search query is inconsistent with the database."""
