"""``repro serve`` — the long-lived graph-service daemon.

Stdlib-only HTTP/JSON front-end gluing the resident
:class:`~repro.serve.registry.GraphRegistry` and the
:class:`~repro.serve.coalescer.Coalescer` behind a threaded
``http.server``.  Each (kept-alive) connection gets a handler thread;
handler threads *submit* into the coalescer and block on their future,
so concurrency across clients is exactly what creates batching
opportunity.

Routes (all JSON):

======  =======================  ==========================================
method  path                     action
======  =======================  ==========================================
GET     ``/v1/health``           liveness + resident graph count
GET     ``/v1/algorithms``       registry-generated request schema
GET     ``/v1/graphs``           resident graphs + residency stats
GET     ``/v1/stats``            coalescer + registry + pool counters
GET     ``/v1/result/<id>``      fetch an async ticket (202 while pending)
POST    ``/v1/load``             ``{"path": ..., "name"?, "directed"?}``;
                                 ``path`` may be a shard-set directory —
                                 admitted by its manifest byte totals
                                 before any shard data is read
POST    ``/v1/submit``           run a query (``"wait": false`` -> ticket)
POST    ``/v1/ingest``           apply streamed edge events to a resident
                                 graph (incremental analytics per batch)
POST    ``/v1/evict``            ``{"name": ...}``
======  =======================  ==========================================

Failures map onto the structured :class:`~repro.errors.ServeError`
codes (bad_request 400, graph_not_resident 404, deadline_expired 408,
admission_denied 507); anything else is a 500 with the exception type.

With ``profile_path`` set the server accumulates every batch's
span tree (``serve.batch`` → ``serve.request`` spans + the grafted
algorithm spans) and writes one profile JSON document — including the
final coalescing-hit-rate, queue-wait and pool gauges — on shutdown.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro.errors import (
    GraphNotResident,
    ProtocolError,
    ServiceRecovering,
    SnapError,
)
from repro.serve import protocol
from repro.serve.coalescer import Coalescer
from repro.serve.registry import GraphRegistry

__all__ = ["ServeConfig", "ReproServer"]

_STATUS = {
    "bad_request": 400,
    "graph_not_resident": 404,
    "deadline_expired": 408,
    "recovering": 503,
    "admission_denied": 507,
    "serve_error": 500,
}

#: Journal filename under ``--state-dir``.
STATE_JOURNAL_NAME = "registry.journal"

#: Cap on unfetched async tickets; oldest resolved ones are dropped.
MAX_TICKETS = 1024


class ServeConfig:
    """Everything ``repro serve`` needs, CLI- and test-constructible.

    ``options`` is a shared :class:`~repro.cli_options.ExecutionOptions`
    (the same object the other subcommands build from their flags), so
    the daemon's backend / workers / resilience knobs are
    one surface with the rest of the CLI.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 8265,
        options=None,
        max_bytes: Optional[int] = None,
        max_batch_delay: float = 0.005,
        max_batch: int = 64,
        batch_runners: int = 2,
        profile_path: Optional[str] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        from repro.cli_options import ExecutionOptions

        self.host = host
        self.port = int(port)
        self.options = options if options is not None else ExecutionOptions()
        self.max_bytes = max_bytes
        self.max_batch_delay = float(max_batch_delay)
        self.max_batch = int(max_batch)
        self.batch_runners = int(batch_runners)
        self.profile_path = profile_path
        self.state_dir = state_dir


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # Connections are kept alive, so headers and body leave in one send
    # (a buffered wfile, flushed per response) with Nagle off: two small
    # writes on a persistent socket stall ~40 ms on a delayed ACK.
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    # Quiet by default: the daemon prints one line per request only
    # when the server was built with verbose=True.
    def log_message(self, fmt, *args):  # pragma: no cover - logging
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def app(self) -> "ReproServer":
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _fail(self, exc: BaseException) -> None:
        status = _STATUS.get(getattr(exc, "code", None), 500)
        self._send(status, protocol.error_envelope(exc))

    def _body(self, raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise ProtocolError("request body must be a JSON object")
        return doc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/v1/health":
                # Health stays answerable during journal replay so
                # orchestrators can watch the daemon come back.
                self._send(200, {
                    "ok": True,
                    "recovering": self.app.recovering,
                    "resident_graphs": len(self.app.registry.names()),
                    "uptime_s": round(time.monotonic() - self.app.t0, 3),
                })
                return
            self.app.check_ready()
            if self.path == "/v1/algorithms":
                self._send(200, protocol.request_schema())
            elif self.path == "/v1/graphs":
                self._send(200, self.app.registry.stats())
            elif self.path == "/v1/stats":
                self._send(200, self.app.stats())
            elif self.path.startswith("/v1/result/"):
                self._result(self.path.rsplit("/", 1)[1])
            else:
                self._send(404, protocol.error_envelope(
                    ProtocolError(f"unknown path {self.path!r}")
                ))
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._fail(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            # Read the body before any early exit: left unread on a
            # kept-alive connection it is parsed as the next request.
            try:
                raw = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            except ValueError:
                self.close_connection = True  # unknown length: cannot resync
                raise ProtocolError("invalid Content-Length") from None
            self.app.check_ready()
            doc = self._body(raw)
            if self.path == "/v1/load":
                self._load(doc)
            elif self.path == "/v1/submit":
                self._submit(doc)
            elif self.path == "/v1/ingest":
                self._ingest(doc)
            elif self.path == "/v1/evict":
                name = doc.get("name")
                if not isinstance(name, str):
                    raise ProtocolError("evict requires a string 'name'")
                evicted = self.app.registry.evict(name)
                self._send(200, {"evicted": evicted, "name": name})
            else:
                self._send(404, protocol.error_envelope(
                    ProtocolError(f"unknown path {self.path!r}")
                ))
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._fail(exc)

    def _load(self, doc: dict) -> None:
        path = doc.get("path")
        if not isinstance(path, str):
            raise ProtocolError("load requires a string 'path'")
        entry = self.app.registry.load(
            path,
            name=doc.get("name"),
            directed=bool(doc.get("directed", False)),
        )
        self._send(200, entry.describe())

    def _ingest(self, doc: dict) -> None:
        from repro.serve.ingest import ingest_events

        req = protocol.parse_ingest(doc)
        # One batch-application at a time: the engines dict and the
        # registry swap form one logical transaction per graph.
        with self.app.ingest_lock:
            summary = ingest_events(
                self.app.registry,
                self.app.engines,
                req["graph"],
                req["events"],
                ctx=self.app.ctx,
                analytics=req["analytics"],
                k=req["k"],
            )
            # Journaled only after the whole transaction applied: a
            # crash mid-ingest never acknowledges, never journals, and
            # the client's retry applies exactly once.
            if self.app.journal is not None:
                self.app.journal.append({
                    "op": "ingest",
                    "graph": req["graph"],
                    "events": req["events"],
                    "analytics": req["analytics"],
                    "k": req["k"],
                })
        self._send(200, summary)

    def _submit(self, doc: dict) -> None:
        req = protocol.parse_submit(doc)
        fut = self.app.coalescer.submit(
            req["graph"], req["algo"], req["params"],
            deadline_s=req["deadline_s"],
        )
        if not req["wait"]:
            ticket = self.app.register_ticket(fut)
            self._send(202, {"ticket": ticket})
            return
        self._respond_with(fut, req["deadline_s"])

    def _respond_with(self, fut: Future, deadline_s: Optional[float]) -> None:
        # The dispatcher enforces the request deadline; the transport
        # wait gets slack on top so the structured error wins the race.
        timeout = None if deadline_s is None else deadline_s + 30.0
        try:
            result = fut.result(timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - structured or algorithm failure
            self._fail(exc)
            return
        self._send(200, protocol.result_envelope(result))

    def _result(self, ticket: str) -> None:
        fut = self.app.get_ticket(ticket)
        if fut is None:
            raise GraphNotResident(f"unknown or already-fetched ticket {ticket!r}")
        if not fut.done():
            self._send(202, {"ticket": ticket, "pending": True})
            return
        self.app.pop_ticket(ticket)
        self._respond_with(fut, None)


class ReproServer:
    """The composed daemon: context + registry + coalescer + HTTP."""

    def __init__(self, config: ServeConfig, *, verbose: bool = False) -> None:
        self.config = config
        self.t0 = time.monotonic()
        self.ctx = config.options.make_context()
        self.registry = GraphRegistry(max_bytes=config.max_bytes, ctx=self.ctx)
        self._profile_lock = threading.Lock()
        self._batch_spans: list[dict] = []
        self.coalescer = Coalescer(
            self.registry,
            ctx=self.ctx,
            max_batch_delay=config.max_batch_delay,
            max_batch=config.max_batch,
            batch_runners=config.batch_runners,
            trace=config.profile_path is not None,
            on_batch=(
                self._collect_batch if config.profile_path is not None
                else None
            ),
        )
        self._tickets: "OrderedDict[str, Future]" = OrderedDict()
        self._tickets_lock = threading.Lock()
        # Streaming ingestion state: per-resident-graph engines, one
        # ingest transaction at a time (POST /v1/ingest).
        self.engines: dict = {}
        self.ingest_lock = threading.Lock()
        self._ticket_seq = 0
        # Durable daemon state (DESIGN §13): with a state_dir the
        # registry journals loads/evicts and _ingest journals ingests.
        # Until recover() replays the journal, data-plane requests get
        # 503 RECOVERING (check_ready); /v1/health keeps answering.
        self.journal = None
        self._journal_path: Optional[Path] = None
        self.recovering = False
        if config.state_dir is not None:
            state_dir = Path(config.state_dir)
            state_dir.mkdir(parents=True, exist_ok=True)
            self._journal_path = state_dir / STATE_JOURNAL_NAME
            self.recovering = True
        self.httpd = ThreadingHTTPServer(
            (config.host, config.port), _Handler
        )
        self.httpd.daemon_threads = True
        self.httpd.app = self  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._closed = False
        self._serving = False

    # -- durable state -------------------------------------------------
    def check_ready(self) -> None:
        """Raise :class:`ServiceRecovering` while the journal replays."""
        if self.recovering:
            raise ServiceRecovering(
                "daemon is replaying its state journal; retry shortly"
            )

    def recover(self) -> dict:
        """Replay the state journal and attach it for live journaling.

        Must be called once (before or concurrently with serving) when
        the config has a ``state_dir``; without one it is a no-op.
        Re-admits journaled graph loads, re-applies explicit evictions
        and replays ingest transactions in order — the registry ends in
        the same resident state the crashed daemon acknowledged.
        Operations whose inputs disappeared (a source file deleted
        since) are skipped and counted, not fatal.  Replayed operations
        are not re-journaled: they are already in the journal, which
        is appended to — not rewritten — afterwards.
        """
        summary = {"loads": 0, "evicts": 0, "ingests": 0, "skipped": 0}
        if self._journal_path is None:
            self.recovering = False
            return summary
        from repro.durable.journal import Journal, replay_journal
        from repro.serve.ingest import ingest_events

        try:
            for rec in replay_journal(self._journal_path):
                op = rec.get("op")
                try:
                    if op == "load":
                        self.registry.load(
                            rec["path"],
                            name=rec.get("name"),
                            directed=bool(rec.get("directed", False)),
                        )
                        summary["loads"] += 1
                    elif op == "evict":
                        self.registry.evict(rec["name"])
                        summary["evicts"] += 1
                    elif op == "ingest":
                        with self.ingest_lock:
                            ingest_events(
                                self.registry,
                                self.engines,
                                rec["graph"],
                                rec["events"],
                                ctx=self.ctx,
                                analytics=rec.get("analytics"),
                                k=rec.get("k", 10),
                            )
                        summary["ingests"] += 1
                    else:
                        summary["skipped"] += 1
                except (SnapError, OSError):
                    summary["skipped"] += 1
            self.journal = Journal(self._journal_path)
            self.registry.journal = self.journal
        finally:
            self.recovering = False
        return summary

    # -- profile collection -------------------------------------------
    def _collect_batch(self, span_doc: dict) -> None:
        with self._profile_lock:
            self._batch_spans.append(span_doc)

    # -- async tickets -------------------------------------------------
    def register_ticket(self, fut: Future) -> str:
        with self._tickets_lock:
            self._ticket_seq += 1
            ticket = f"t{self._ticket_seq}"
            self._tickets[ticket] = fut
            while len(self._tickets) > MAX_TICKETS:
                self._tickets.popitem(last=False)
            return ticket

    def get_ticket(self, ticket: str) -> Optional[Future]:
        with self._tickets_lock:
            return self._tickets.get(ticket)

    def pop_ticket(self, ticket: str) -> None:
        with self._tickets_lock:
            self._tickets.pop(ticket, None)

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — resolves ``port=0`` ephemeral binds."""
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = False

    def start_background(self) -> threading.Thread:
        """Run the accept loop on a daemon thread (tests, embedding)."""
        t = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        t.start()
        return t

    def stats(self) -> dict:
        return {
            "coalescer": self.coalescer.stats(),
            "registry": self.registry.stats(),
            "pool": self.ctx.pool.as_dict(),
            "backend": self.ctx.backend,
            "n_workers": self.ctx.n_workers,
            "uptime_s": round(time.monotonic() - self.t0, 3),
        }

    def write_profile(self) -> Optional[Path]:
        """Dump the accumulated serve span forest + final counters."""
        if self.config.profile_path is None:
            return None
        with self._profile_lock:
            spans = list(self._batch_spans)
        doc = {
            "serve": self.stats(),
            "batches": spans,
        }
        from repro.durable import write_json_atomic

        path = Path(self.config.profile_path)
        write_json_atomic(path, doc, indent=2, sort_keys=True)
        return path

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # shutdown() blocks on an event only serve_forever() sets; with
        # no accept loop running (embedded use) it would wait forever.
        if self._serving:
            self.httpd.shutdown()
        self.httpd.server_close()
        self.coalescer.close()
        self.write_profile()
        # Detach the journal before the registry teardown evicts every
        # resident graph: shutdown evictions are not state changes the
        # next boot should replay.
        self.registry.journal = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None
        self.registry.close()
        self.ctx.close()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

