"""The service's unified error taxonomy — one exception per wire-visible fault.

Every fault a tenant can trigger through the verb surface is a
:class:`ServiceError` subclass carrying a stable, machine-readable
``code`` (the contract the HTTP layer's ``{"error": {"code", "message"}}``
envelope serializes) and the HTTP status it maps onto. The in-process
verbs raise these directly, and :class:`repro.api.client.ServiceClient`
re-raises the *same* classes from a decoded error envelope — so
``except UnknownJob`` (or matching on ``error.code``) behaves
identically whether the service is a Python object or a socket away.

Each taxonomy class also subclasses the bare exception its fault is an
instance of (``UnknownJob`` **is a** ``KeyError``, ``InvalidCandidate``
**is a** ``ValueError``, ``BudgetRejected`` **is a**
:class:`~repro.core.accountant.PrivacyBudgetExceeded`), so ``except
KeyError`` around ``result()`` catches what it always did.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.accountant import PrivacyBudgetExceeded


class ServiceError(Exception):
    """Base of the taxonomy: a fault with a stable wire ``code``."""

    #: Machine-readable identifier — stable across releases; the HTTP
    #: error envelope's ``error.code`` and the client's dispatch key.
    code: str = "service_error"
    #: The HTTP status the front-end maps this fault onto.
    http_status: int = 400

    def __str__(self) -> str:  # KeyError-derived subclasses would repr()-quote
        return Exception.__str__(self)


class UnknownJob(ServiceError, KeyError):
    """A job id the registry has never seen (status/result/model/trace/cancel)."""

    code = "unknown_job"
    http_status = 404


class UnknownTable(ServiceError, KeyError):
    """A submit against a table the catalog does not hold."""

    code = "unknown_table"
    http_status = 404


class InvalidCandidate(ServiceError, ValueError):
    """A candidate option the in-RDBMS dispatch cannot honor
    (currently: iterate averaging)."""

    code = "invalid_candidate"
    http_status = 400


class NotCancellable(ServiceError, ValueError):
    """A cancel that arrived too late: the job is already claimed into a
    window or terminal. (``TrainingService.cancel`` returns ``False``
    for this; the HTTP layer raises so the envelope carries the code.)"""

    code = "not_cancellable"
    http_status = 409


class BudgetRejected(ServiceError, PrivacyBudgetExceeded):
    """An admission-time denial, raised by
    :meth:`~repro.service.ledger.PrivacyBudgetLedger.reserve`: the
    reservation would overflow the cap (or the account does not exist —
    no budget means no spend). The scheduler converts it into a REJECTED
    record at admission, so it only escapes as an *error* when a caller
    reserves directly."""

    code = "budget_rejected"
    http_status = 403


class Unauthorized(ServiceError):
    """HTTP edge: missing, malformed, or unknown bearer token."""

    code = "unauthorized"
    http_status = 401


class PrincipalMismatch(ServiceError):
    """HTTP edge: an authenticated token submitting on behalf of a
    *different* principal — budget identity is enforced at the edge."""

    code = "principal_mismatch"
    http_status = 403


#: Every taxonomy class by its wire code — the client's decode table.
ERROR_CODES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        ServiceError,
        UnknownJob,
        UnknownTable,
        InvalidCandidate,
        NotCancellable,
        BudgetRejected,
        Unauthorized,
        PrincipalMismatch,
    )
}


def error_for_code(code: str, message: str) -> Exception:
    """Rebuild the exception an error envelope describes.

    Taxonomy codes come back as their exact class; the HTTP layer's
    generic fallbacks keep their bare-exception contracts
    (``not_found`` → :class:`KeyError`, ``invalid_request`` →
    :class:`ValueError`); anything unrecognized degrades to a plain
    :class:`ServiceError` so new server codes never crash old clients.
    """
    cls = ERROR_CODES.get(code)
    if cls is not None:
        return cls(message)
    if code == "not_found":
        return KeyError(message)
    if code == "invalid_request":
        return ValueError(message)
    error = ServiceError(message)
    error.code = code  # preserve the server's word for it
    return error
