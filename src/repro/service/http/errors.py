"""The single error→status mapper of the serving stack.

Every handler exception in every app — daemon and router alike — funnels
through :func:`map_exception` via :meth:`App.handle
<repro.service.http.app.App.handle>`.  The contract:

=====================================  ======  ==================================
exception                              status  body
=====================================  ======  ==================================
``ModelError`` (malformed input)       400     ``{"error": str(exc)}``
``ServiceOverloadedError``             503     ``{"error": str(exc)}``
``TimeoutError``                       504     ``{"error": "scheduling request
                                               timed out"}``
anything else (``ReproError``, bugs)   500     ``{"error": "Type: message"}``
=====================================  ======  ==================================

A 4xx means the *client* sent something wrong (diagnostic attached); a 503
means back off and retry; a 500 is reserved for genuine server bugs and is
what the benchmarks count as a server error.
``tests/test_http_parity.py`` (``test_error_paths_identical``) pins that
every shared error path answers the same 4xx from the daemon and the
router.
"""

from __future__ import annotations

from ...exceptions import ModelError, ServiceOverloadedError
from .app import MAX_BODY_BYTES, Response

__all__ = ["map_exception", "oversized_body_response"]


def map_exception(exc: BaseException) -> Response:
    """Map one handler exception to its documented JSON error response."""
    if isinstance(exc, ModelError):
        return Response.json(400, {"error": str(exc)})
    if isinstance(exc, ServiceOverloadedError):
        return Response.json(503, {"error": str(exc)})
    if isinstance(exc, TimeoutError):
        return Response.json(504, {"error": "scheduling request timed out"})
    # Anything unexpected (a user-registered scheduler raising a
    # non-ReproError, schedule() after close, ...) must still come back
    # as the documented 500 instead of a reset socket.
    return Response.json(500, {"error": f"{type(exc).__name__}: {exc}"})


def oversized_body_response(limit: int = MAX_BODY_BYTES) -> Response:
    """The 400 for a body the transport refuses to read.

    ``close=True``: the body was rejected *without draining*, so the bytes
    still sitting in the socket would desynchronise a keep-alive
    connection — the transport must drop it after replying.
    """
    return Response.json(
        400, {"error": f"request body larger than {limit} bytes"}, close=True
    )
