"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers embedding the library can catch a single
base class.  Subclasses separate the main failure domains: invalid user
input, malformed data, codec failures, and queries that reference state
the knowledge base does not hold.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument supplied by the caller is outside its legal domain.

    Also a :class:`ValueError` so that idiomatic ``except ValueError``
    call sites keep working.
    """


class DataFormatError(ReproError, ValueError):
    """Raw input data (transactions, reports, files) is malformed."""


class CodecError(ReproError):
    """Encoding or decoding of an archived byte stream failed."""


class UnknownRuleError(ReproError, KeyError):
    """A rule identifier was requested that the archive does not hold."""


class UnknownWindowError(ReproError, KeyError):
    """A time window was requested that the knowledge base does not cover."""


class QueryError(ReproError):
    """An online query is inconsistent (e.g. empty period set, bad mode)."""


class ProtocolError(ReproError):
    """A network request violates the serving wire protocol.

    Raised by the serving tier (:mod:`repro.serve`) for malformed HTTP
    framing or JSON request bodies — client errors that map to 4xx
    responses, as opposed to :class:`ValidationError`/:class:`QueryError`
    which describe well-formed requests with out-of-domain contents.
    """


class NotBuiltError(ReproError, RuntimeError):
    """An online operation ran before the offline knowledge base was built."""


class BuildInFlightError(ReproError):
    """A snapshot publish was requested while another build is in flight.

    :meth:`repro.core.IncrementalTara.publish` admits one writer at a
    time; the serving tier maps this error to HTTP 409 so admin clients
    can retry once the in-flight build lands.
    """


class RetiredSnapshotError(ReproError, RuntimeError):
    """A pin was attempted on a snapshot whose last reader already drained.

    Unreachable through the supported API — the publisher hands out
    handles only for the current (never-retired) snapshot — but raised
    defensively instead of silently resurrecting freed state.
    """


class UnknownExportError(ReproError, AttributeError):
    """A package was asked for a name it does not export.

    Also an :class:`AttributeError`, as PEP 562 requires of a module
    ``__getattr__``, so ``hasattr`` and ``getattr(..., default)`` keep
    working on lazily resolved packages.
    """
