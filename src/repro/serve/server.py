"""``repro serve`` — the long-lived graph-service daemon.

Stdlib-only HTTP/JSON front-end: one :class:`~repro.api.Session`
(resident registry, request coalescer, stream engines) behind a
threaded ``http.server``.  Each (kept-alive) connection gets a handler thread;
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

With a profile path (``options.profile``, the ``--profile`` flag) the
server accumulates every counted batch's span tree (a timed
``serve.batch`` → one ``serve.request`` per request + the algorithm's
own spans) and writes one profile JSON document — including the final
coalescing-hit-rate, queue-wait and pool gauges — on shutdown.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro.api import Session
from repro.durable import RecordLog
from repro.errors import (
    AdmissionDenied,
    CorruptCheckpoint,
    GraphFormatError,
    GraphNotResident,
    ProtocolError,
    ServiceRecovering,
    SnapError,
)
from repro.serve import protocol

__all__ = ["ServeConfig", "ReproServer"]

_STATUS = {
    "bad_request": 400,
    "graph_not_resident": 404,
    "deadline_expired": 408,
    "recovering": 503,
    "admission_denied": 507,
    "serve_error": 500,
}

#: The daemon's state log under ``--state-dir`` (a ``RecordLog``).
STATE_LOG_NAME = "state.log"

#: ``RecordLog`` kind of the state log.
STATE_LOG_KIND = "serve-state"

#: ``RecordLog`` params of the state log: the layout of its snapshot
#: record.  Bump it whenever ``Session.state()`` or
#: ``StreamEngine.state()`` changes shape, so an older log is refused by
#: name rather than restored into the wrong attributes.
STATE_LOG_PARAMS = {"snapshot": "session-state/4"}

#: The JSON-lines journal the state log replaced; refused by name.
OLD_JOURNAL_NAME = "registry.journal"

#: Cap on unfetched async tickets: past it the oldest resolved ones are
#: dropped, and while all are pending a ``wait=false`` submit is refused.
MAX_TICKETS = 1024


class ServeConfig:
    """Everything ``repro serve`` needs, CLI- and test-constructible.

    ``options`` is a shared :class:`~repro.cli_options.ExecutionOptions`
    (the same object the other subcommands build from their flags), so
    the daemon's backend / workers / resilience / profile knobs are
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
                # Health stays answerable during state replay so
                # orchestrators can watch the daemon come back.
                self._send(200, {
                    "ok": True,
                    "recovering": self.app.recovering,
                    "resident_graphs": len(self.app.session.registry.names()),
                    "uptime_s": round(time.monotonic() - self.app.t0, 3),
                })
                return
            self.app.check_ready()
            if self.path == "/v1/algorithms":
                self._send(200, protocol.request_schema())
            elif self.path == "/v1/graphs":
                self._send(200, self.app.session.registry.stats())
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
                self._send(200, self.app.ingest(protocol.parse_ingest(doc)))
            elif self.path == "/v1/evict":
                name = doc.get("name")
                if not isinstance(name, str):
                    raise ProtocolError("evict requires a string 'name'")
                self._send(200, {"evicted": self.app.evict(name), "name": name})
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
        try:
            entry = self.app.load(path, name=doc.get("name"),
                                  directed=bool(doc.get("directed", False)))
        except (GraphFormatError, FileNotFoundError, IsADirectoryError,
                PermissionError) as exc:  # the file, not the daemon
            raise ProtocolError(f"cannot load {path!r}: {exc}") from exc
        self._send(200, entry.describe())

    def _submit(self, doc: dict) -> None:
        req = protocol.parse_submit(doc)
        submit = partial(
            self.app.session.coalescer.submit, req["graph"], req["algo"],
            req["params"], deadline_s=req["deadline_s"],
        )
        if not req["wait"]:
            self._send(202, {"ticket": self.app.register_ticket(submit)})
            return
        self._respond_with(submit(), req["deadline_s"])

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
        fut = self.app.take_ticket(ticket)
        if fut is None:
            self._send(202, {"ticket": ticket, "pending": True})
            return
        self._respond_with(fut, None)


class ReproServer:
    """The daemon: a :class:`~repro.api.Session` behind HTTP.

    The session owns the execution context, the registry, the
    coalescer and the stream engines; the server adds only the
    handlers, async tickets, the state log and the profile.
    """

    def __init__(self, config: ServeConfig, *, verbose: bool = False) -> None:
        self.config = config
        self.t0 = time.monotonic()
        self.session = Session(
            options=config.options,
            max_bytes=config.max_bytes,
            max_batch_delay=config.max_batch_delay,
            max_batch=config.max_batch,
            batch_runners=config.batch_runners,
        )
        self._profile_lock = threading.Lock()
        self._batch_spans: list[dict] = []
        if config.options.profile is not None:
            self.session.coalescer.on_batch = self._collect_batch
        self._tickets: dict[str, Future] = {}  # insertion-ordered
        self._tickets_lock = threading.Lock()
        self._ticket_seq = 0
        # Durable daemon state (DESIGN §13): with a state_dir, load /
        # evict / ingest log each applied change, under one lock so the
        # log order is the apply order.  Until recover() replays the
        # log, data-plane requests get 503 RECOVERING (check_ready);
        # /v1/health keeps answering.
        self._state_lock = threading.Lock()
        self.state_log: Optional[RecordLog] = None
        self._compactable = True  # recover() skipped no logged operation
        self.recovering = False
        if config.state_dir is not None:
            state_dir = Path(config.state_dir)
            state_dir.mkdir(parents=True, exist_ok=True)
            self.state_log = RecordLog(
                state_dir / STATE_LOG_NAME, kind=STATE_LOG_KIND,
                params=STATE_LOG_PARAMS,
            )
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
        """Raise :class:`ServiceRecovering` while the state log replays."""
        if self.recovering:
            raise ServiceRecovering(
                "daemon is replaying its state log; retry shortly"
            )

    def load(self, path: str, *, name: Optional[str] = None,
             directed: bool = False):
        """Admit ``path`` into residency and log it."""
        self.check_ready()
        with self._logging():
            entry = self.session.registry.load(path, name=name, directed=directed)
            self._log({"op": "load", "path": str(path), "name": entry.name,
                       "directed": bool(directed)})
        return entry

    def evict(self, name: str) -> bool:
        """Evict ``name``; an eviction that happened is logged."""
        self.check_ready()
        with self._logging():
            evicted = self.session.registry.evict(name)
            if evicted:
                self._log({"op": "evict", "name": name})
        return evicted

    def ingest(self, req: dict) -> dict:
        """Apply a parsed ``/v1/ingest`` request and log it.

        Logged only after the whole transaction applied: a crash
        mid-ingest never acknowledges and never logs, and the client's
        retry applies exactly once.
        """
        self.check_ready()
        with self._logging():
            summary = self.session.ingest(
                req["graph"], req["events"],
                analytics=req["analytics"], k=req["k"],
            )
            self._log({"op": "ingest", **req})
        return summary

    def _logging(self):
        """The lock that makes the log order the apply order; without a
        state log there is nothing to order, so none."""
        return self._state_lock if self.state_log is not None else nullcontext()

    def _log(self, record: dict) -> None:
        """Durably append an applied state change (with a state dir).

        Once the bytes appended since the last snapshot exceed the
        resident graphs' CSR bytes, the log is compacted into one
        snapshot of the session, so replay time is bounded by the
        resident state rather than by history, and compaction costs
        O(1) amortized per appended byte.
        """
        if self.state_log is None:
            return
        self.state_log.append(record)
        if (self._compactable and self.state_log.appended
                > self.session.registry.resident_bytes):
            self.state_log.compact({"op": "snapshot", **self.session.state()})

    def recover(self) -> dict:
        """Replay the state log; then serve and log state changes.

        Must be called once (before or concurrently with serving) when
        the config has a ``state_dir``; without one it is a no-op.
        Restores the last snapshot, then re-admits logged graph loads,
        re-applies explicit evictions and replays ingest transactions in
        order — the registry and its stream engines end in the state the
        crashed daemon acknowledged.  Operations whose inputs
        disappeared (a source file deleted since) are skipped and
        counted, not fatal.  Recovery writes nothing: the replayed tail
        counts toward the next compaction, so replay stays bounded
        across restarts.  After a recovery that skipped an operation the
        log is never compacted, because a snapshot would forget it; a
        later boot re-applies it once its input is back.

        A damaged log, or a journal in the older JSON-lines format,
        raises :class:`~repro.errors.CorruptCheckpoint` naming the file,
        and the daemon stays recovering rather than overwrite it.
        """
        summary = {"loads": 0, "evicts": 0, "ingests": 0, "skipped": 0}
        if self.state_log is None:
            self.recovering = False
            return summary
        old = self.state_log.path.with_name(OLD_JOURNAL_NAME)
        if old.exists():
            raise CorruptCheckpoint(
                f"corrupt checkpoint {old}: older format (a JSON-lines "
                "journal, not a record log); delete it to start with no "
                "resident graphs"
            )
        registry = self.session.registry
        records = self.state_log.load() or []
        with self._state_lock:
            for rec in records:
                op = rec["op"]
                try:
                    if op == "snapshot":
                        summary["loads"] += self.session.restore(rec)
                    elif op == "load":
                        registry.load(rec["path"], name=rec["name"],
                                      directed=rec["directed"])
                        summary["loads"] += 1
                    elif op == "evict":
                        registry.evict(rec["name"])
                        summary["evicts"] += 1
                    elif op == "ingest":
                        self.session.ingest(
                            rec["graph"], rec["events"],
                            analytics=rec["analytics"], k=rec["k"],
                        )
                        summary["ingests"] += 1
                    else:
                        summary["skipped"] += 1
                except (SnapError, OSError):
                    summary["skipped"] += 1
            self._compactable = not summary["skipped"]
        self.recovering = False
        return summary

    # -- profile collection -------------------------------------------
    def _collect_batch(self, span_doc: dict) -> None:
        with self._profile_lock:
            self._batch_spans.append(span_doc)

    # -- async tickets -------------------------------------------------
    def register_ticket(self, submit) -> str:
        """Queue ``submit()`` under a new ticket.  At :data:`MAX_TICKETS`
        the oldest resolved one makes room; if all are pending, refuse."""
        with self._tickets_lock:
            if len(self._tickets) >= MAX_TICKETS:
                done = [t for t, f in self._tickets.items() if f.done()]
                if not done:
                    raise AdmissionDenied(f"{MAX_TICKETS} async tickets pending")
                del self._tickets[done[0]]
            fut = submit()
            self._ticket_seq += 1
            ticket = f"t{self._ticket_seq}"
            self._tickets[ticket] = fut
            return ticket

    def take_ticket(self, ticket: str) -> Optional[Future]:
        """``ticket``'s finished future, removed in the same locked step
        so it is fetched once; None while it is pending."""
        with self._tickets_lock:
            fut = self._tickets.get(ticket)
            if fut is None:
                raise GraphNotResident(f"unknown or already-fetched ticket {ticket!r}")
            return self._tickets.pop(ticket) if fut.done() else None

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
        ctx = self.session.ctx
        return {
            **self.session.stats(),
            "pool": ctx.pool.as_dict(),
            "backend": ctx.backend,
            "n_workers": ctx.n_workers,
            "uptime_s": round(time.monotonic() - self.t0, 3),
        }

    def write_profile(self) -> Optional[Path]:
        """Dump the accumulated serve span forest + final counters."""
        if self.config.options.profile is None:
            return None
        with self._profile_lock:
            spans = list(self._batch_spans)
        doc = {
            "serve": self.stats(),
            "batches": spans,
        }
        from repro.durable import write_json_atomic

        path = Path(self.config.options.profile)
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
        # Closing the coalescer flushes it, so the profile sees every batch.
        self.session.coalescer.close()
        self.write_profile()
        self.session.close()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

