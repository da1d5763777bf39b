"""The ``repro-api/v2`` wire schema — typed payloads, exact round-trips.

Every request and response body the HTTP front-end speaks is a job
record, an account statement, the ``health()`` dict as it is, or the
submit request here. A job travels as
:meth:`JobRecord.payload() <repro.service.registry.JobRecord.payload>` —
the same JSON the snapshot and the write-ahead log carry — and the
client rebuilds it with ``JobRecord.from_payload``; a budget entry is
:meth:`AccountStatement.payload()
<repro.service.ledger.AccountStatement.payload>`. Floats ride JSON
numbers: Python's ``json`` writes each float64 as its shortest
round-tripping repr, so a model fetched over the wire is
``np.array_equal`` to the in-process release it came from.

Top-level bodies are wrapped in an **envelope** carrying the protocol
tag::

    {"api": "repro-api/v2", "job": {...}}            # success
    {"api": "repro-api/v2", "error": {"code": "unknown_job",
                                      "message": "..."}}  # fault

A reader that sees a foreign ``api`` tag refuses the payload early
(:func:`check_envelope`) instead of misparsing it: ``v2`` changed the
job body, so a ``v1`` peer is refused at the tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.optim.losses import Loss
from repro.service.registry import _loss_from_payload, _loss_payload

#: The protocol tag every envelope carries (reject foreign bodies early).
WIRE_FORMAT = "repro-api/v2"


# -- envelopes --------------------------------------------------------------------


def envelope(body: dict) -> dict:
    """Wrap a response body with the protocol tag."""
    return {"api": WIRE_FORMAT, **body}


def error_envelope(code: str, message: str) -> dict:
    """The fault envelope: ``{"api": ..., "error": {"code", "message"}}``."""
    return {"api": WIRE_FORMAT, "error": {"code": code, "message": message}}


def check_envelope(payload: dict) -> dict:
    """Validate the protocol tag; returns ``payload`` for chaining."""
    if not isinstance(payload, dict) or payload.get("api") != WIRE_FORMAT:
        tag = payload.get("api") if isinstance(payload, dict) else type(payload).__name__
        raise ValueError(
            f"not a {WIRE_FORMAT} payload (api: {tag!r}); "
            "client and server speak different protocol versions"
        )
    return payload


# -- requests ---------------------------------------------------------------------


@dataclass
class SubmitRequest:
    """``POST /v1/jobs``: the same parameters as ``TrainingService.submit``."""

    principal: str
    table: str
    loss: Loss
    epsilon: float
    delta: float = 0.0
    passes: int = 1
    batch_size: int = 50
    eta: Optional[float] = None
    radius: Optional[float] = None
    priority: int = 0
    seed: int = 0

    def to_payload(self) -> dict:
        return {
            "principal": self.principal,
            "table": self.table,
            "loss": _loss_payload(self.loss),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "passes": self.passes,
            "batch_size": self.batch_size,
            "eta": self.eta,
            "radius": self.radius,
            "priority": self.priority,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SubmitRequest":
        return cls(
            principal=payload["principal"],
            table=payload["table"],
            loss=_loss_from_payload(payload["loss"]),
            epsilon=payload["epsilon"],
            delta=payload.get("delta", 0.0),
            passes=payload.get("passes", 1),
            batch_size=payload.get("batch_size", 50),
            eta=payload.get("eta"),
            radius=payload.get("radius"),
            priority=payload.get("priority", 0),
            seed=payload.get("seed", 0),
        )
