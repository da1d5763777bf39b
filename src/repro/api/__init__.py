"""The network API: ``repro-api/v2`` over HTTP, plus the Python client.

The service subsystem (:mod:`repro.service`) is deliberately an
in-process server; this package is the process boundary. Three modules:

* :mod:`repro.api.wire` — the versioned JSON wire schema: the envelope,
  and the request, budget and health payloads. A job travels as
  ``JobRecord.payload()``, the same JSON the snapshot and the
  write-ahead log carry.
* :mod:`repro.api.server` — :class:`ServiceApiServer`, a stdlib
  ``ThreadingHTTPServer`` front-end over the service verbs with
  bearer-token auth mapped to principals at the edge. It speaks
  HTTP/1.1 with keep-alive, one handler thread per open connection.
* :mod:`repro.api.client` — :class:`ServiceClient`, the same verb
  surface over ``http.client``, one persistent connection per calling
  thread, raising the same :mod:`repro.service.errors` taxonomy the
  in-process verbs raise.

The contract the tests enforce: a job submitted through
``ServiceClient`` over a real socket releases weights bitwise-equal to
the same job submitted in process, and every fault carries the same
machine-readable code through both transports.
"""

from repro.api.client import ApiUnreachable, ServiceClient
from repro.api.server import ServiceApiServer
from repro.api.wire import WIRE_FORMAT

__all__ = [
    "ApiUnreachable",
    "ServiceApiServer",
    "ServiceClient",
    "WIRE_FORMAT",
]
