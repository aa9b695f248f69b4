"""Exception hierarchy for the SEED reproduction.

All library errors derive from :class:`SeedError`, so callers can catch a
single base class at API boundaries. The subclasses mirror the functional
areas of the paper: schema definition, identifier/name handling, value
typing, consistency enforcement (checked on every update), completeness
analysis (checked on demand), version management, patterns/variants, the
query layer, persistent storage, and the multi-user extension.
"""

from __future__ import annotations


class SeedError(Exception):
    """Base class of every error raised by the SEED library."""


class SchemaError(SeedError):
    """A schema definition is ill-formed (unknown class, bad role, ...)."""


class IdentifierError(SeedError):
    """A name or dotted identifier does not follow SEED naming rules."""


class ValueTypeError(SeedError):
    """A value does not conform to the value sort required by the schema."""


class CardinalityError(SchemaError):
    """A cardinality specification is ill-formed (e.g. min greater than max)."""


class ConsistencyError(SeedError):
    """An update would violate consistency information of the schema.

    Consistency information comprises class and association membership,
    maximum cardinalities, ACYCLIC conditions, and attached procedures
    (paper, section "Incomplete data"). The offending facts are listed in
    :attr:`violations`.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        #: list of :class:`repro.core.consistency.Violation` records
        self.violations = list(violations or [])


class CompletenessError(SeedError):
    """Raised when an operation *requires* complete data and finds gaps.

    Ordinary completeness analysis never raises; it returns a report.
    This error is used by ``require_complete``-style convenience calls.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        #: the :class:`repro.core.completeness.CompletenessReport` that failed
        self.report = report


class ClassificationError(SeedError):
    """An illegal re-classification within a generalization hierarchy."""


class VersionError(SeedError):
    """Illegal version operation (bad id, modifying a frozen version, ...)."""


class PatternError(SeedError):
    """Illegal pattern operation (updating inherited data, cycles, ...)."""


class VariantError(SeedError):
    """Illegal variant-family operation."""


class TransactionError(SeedError):
    """Transaction misuse (nested commit, use after rollback, ...)."""


class QueryError(SeedError):
    """Ill-formed retrieval or algebra expression."""


class StorageError(SeedError):
    """Persistence failure (corrupt record file, unreadable image, ...)."""


class RecoveryWarning(UserWarning):
    """Storage recovered past corruption (salvage scan, skipped deltas).

    Emitted — never silently swallowed — when a load encounters
    mid-journal corruption: records were skipped by the resynchronizing
    salvage scan, a newer checkpoint had been shadowed, or trailing
    deltas could not be safely replayed. A :class:`Warning`
    rather than an error because the load *did* produce a consistent
    committed state; pass ``strict=True`` to the loaders to escalate.
    """


class LockError(SeedError):
    """Multi-user extension: a write lock is already held by another client."""


class SessionError(SeedError):
    """Multi-user extension: an operation presented no live session.

    Raised when a session token is unknown, was closed by ``disconnect``,
    or let its lease expire — the structural fix for the zombie-client
    holes: every check-out, check-in, and renewal authenticates against
    a live session first, so a stale handle (pre-disconnect, or one whose
    lease lapsed) can no longer act on the central database.
    """


class CheckInError(SeedError):
    """Multi-user extension: a client check-in could not be applied."""
