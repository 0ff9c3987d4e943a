"""Stdlib-only client for the ``repro serve`` daemon.

A thin, dependency-free wrapper over :mod:`http.client` that speaks
the JSON protocol in :mod:`repro.serve.protocol` over one kept-alive
connection.  The five-line session::

    from repro.serve.client import ServeClient
    c = ServeClient("127.0.0.1", 8265)
    c.load("data/web.graph", name="web")
    dist = c.submit("web", "bfs", source=0)["value"]
    print(c.stats()["coalescer"]["coalescing_hit_rate"])

Structured server errors are re-raised client-side as the matching
:class:`~repro.errors.ServeError` subclass, so ``except
DeadlineExpired:`` works the same over the wire as in-process.

A request is sent at most once: a reused connection found closed
*before* anything is written is reopened, any later failure propagates
(``OSError`` / ``http.client.HTTPException``) — the server may already
have applied it, and a replayed ``/v1/ingest`` would double-apply.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Any, Optional

from repro.errors import (
    AdmissionDenied,
    DeadlineExpired,
    GraphNotResident,
    ProtocolError,
    ServeError,
    ServiceRecovering,
)

__all__ = ["ServeClient"]

_ERROR_TYPES = {
    "bad_request": ProtocolError,
    "graph_not_resident": GraphNotResident,
    "admission_denied": AdmissionDenied,
    "deadline_expired": DeadlineExpired,
    "recovering": ServiceRecovering,
    "serve_error": ServeError,
}


def _raise_structured(doc: Any) -> None:
    """Re-raise a server error envelope as its local exception class."""
    if isinstance(doc, dict) and isinstance(doc.get("error"), dict):
        err = doc["error"]
        cls = _ERROR_TYPES.get(err.get("code"), ServeError)
        raise cls(err.get("message", "server error"))


def _expand_sparse(doc: dict) -> Any:
    """``json.loads`` object hook: a ``sparse`` vector back to its list."""
    if doc.get("type") != "sparse":
        return doc
    dense = [0.0] * doc["n"]
    for i, v in zip(doc["index"], doc["value"]):
        dense[i] = v
    return dense


class ServeClient:
    """HTTP client bound to one ``repro serve`` endpoint: one connection,
    one request at a time.  Sharing it between threads is safe but
    serializes them; callers that want the daemon to coalesce their
    concurrent requests take a client each."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8265, *,
        timeout: float = 300.0,
    ) -> None:
        self._conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Drop the connection (a later request reopens it)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -----------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None,
    ) -> tuple[int, Any]:
        data = None if body is None else json.dumps(body).encode()
        with self._lock:
            conn = self._conn
            if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
                conn.close()  # idle yet readable: the server hung up; nothing sent yet
            try:
                conn.request(
                    method, path, body=data,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                status, payload = resp.status, resp.read()
            except BaseException:
                conn.close()  # never re-sent: the server may have applied it
                raise
        try:
            doc = json.loads(payload or b"{}", object_hook=_expand_sparse)
        except json.JSONDecodeError:
            raise ServeError(f"HTTP {status}: {payload[:200]!r}") from None
        if status >= 400:
            _raise_structured(doc)
            raise ServeError(f"HTTP {status}: {doc}")
        return status, doc

    # -- operations ----------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/v1/health")[1]

    def algorithms(self) -> dict:
        """The server's registry-generated request schema."""
        return self._request("GET", "/v1/algorithms")[1]

    def graphs(self) -> dict:
        return self._request("GET", "/v1/graphs")[1]

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")[1]

    def load(
        self, path: str, *, name: Optional[str] = None,
        directed: bool = False,
    ) -> dict:
        body: dict = {"path": path, "directed": directed}
        if name is not None:
            body["name"] = name
        return self._request("POST", "/v1/load", body)[1]

    def ingest(
        self, graph: str, events: list, *,
        analytics: Optional[list] = None,
        k: Optional[int] = None,
    ) -> dict:
        """Apply edge events (``[t, op, u, v(, w)]`` rows) to a resident
        graph; returns the per-batch incremental-analytics summary."""
        body: dict = {"graph": graph, "events": events}
        if analytics is not None:
            body["analytics"] = list(analytics)
        if k is not None:
            body["k"] = k
        return self._request("POST", "/v1/ingest", body)[1]

    def evict(self, name: str) -> bool:
        return bool(self._request("POST", "/v1/evict", {"name": name})[1]["evicted"])

    def submit(
        self, graph: str, algo: str, *,
        deadline_s: Optional[float] = None,
        wait: bool = True,
        **params: Any,
    ) -> dict:
        """Run ``algo`` on resident ``graph``; returns the result envelope.

        With ``wait=False`` returns ``{"ticket": ...}`` immediately;
        poll with :meth:`result` / :meth:`wait`.
        """
        body: dict = {"graph": graph, "algo": algo, "params": params,
                      "wait": wait}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        return self._request("POST", "/v1/submit", body)[1]

    def result(self, ticket: str) -> Optional[dict]:
        """Fetch a ticket; None while still pending."""
        status, doc = self._request("GET", f"/v1/result/{ticket}")
        return None if status == 202 else doc

    def wait(self, ticket: str, *, poll_s: float = 0.02,
             timeout: Optional[float] = None) -> dict:
        """Poll a ticket to completion."""
        t0 = time.monotonic()
        while True:
            doc = self.result(ticket)
            if doc is not None:
                return doc
            if timeout is not None and time.monotonic() - t0 > timeout:
                raise DeadlineExpired(
                    f"ticket {ticket!r} still pending after {timeout}s"
                )
            time.sleep(poll_s)
