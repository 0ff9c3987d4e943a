"""Wire protocol: request/response schema generated from the registry.

The service speaks plain JSON over HTTP, and the contract is **not**
hand-written: every request schema is derived from the same
``@algorithm`` registry metadata (:func:`repro.obs.api.algorithm_spec`)
that drives in-process validation, so a new registered algorithm is
servable — with correct validation and a published schema — the moment
it is decorated.  One surface, three transports (library call, CLI,
wire).

Request document (``POST /v1/submit``)::

    {"graph": "<resident name>",
     "algo": "<registry name>",
     "params": {...},          # operands included by name
     "deadline_s": 0.5,        # optional per-request deadline
     "wait": true}             # false -> ticket + /v1/result/<id>

Response envelope::

    {"id": ..., "algo": ..., "graph": ..., "value": <jsonable payload>,
     "elapsed_seconds": ..., "backend": ..., "serve": {queue_wait_s,
     batch_size, coalesced}}

Since version 2 a 1-D float array, anywhere in ``value``, with under
``SPARSE_MAX_FILL`` of its entries non-zero (by bit pattern: ``-0.0``
and NaN count) travels zero-suppressed as ``{"type": "sparse", "n":
<length>, "index": [...], "value": [...]}``; ``ServeClient`` expands it
while decoding, so callers always see the dense list.

Errors carry the structured ``code`` from the
:class:`~repro.errors.ServeError` hierarchy plus a human message.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.errors import ProtocolError
from repro.obs.api import (
    algorithm_names, algorithm_spec, get_algorithm, validate_params,
)
from repro.obs.runner import RunResult
from repro.serve.coalescer import MERGEABLE

__all__ = [
    "PROTOCOL_VERSION",
    "to_jsonable",
    "request_schema",
    "parse_submit",
    "parse_ingest",
    "result_envelope",
    "error_envelope",
]

PROTOCOL_VERSION = 2

#: A 1-D float array goes zero-suppressed below this non-zero share.
SPARSE_MAX_FILL = 0.25


def to_jsonable(value: Any) -> Any:
    """Lossless-as-practical JSON projection of any result payload.

    NumPy arrays become nested lists (float64 round-trips exactly
    through ``repr``-based JSON floats; mostly-zero float vectors take
    the ``sparse`` form above), result dataclasses become
    ``{"type": <class>, <field>: ...}`` dicts, and containers recurse.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f":
            # non-zero *bits*: -0.0 and NaN must survive the round trip
            index = np.flatnonzero((value != 0) | np.signbit(value))
            if index.shape[0] < SPARSE_MAX_FILL * value.shape[0]:
                return {
                    "type": "sparse", "n": value.shape[0],
                    "index": index.tolist(), "value": value[index].tolist(),
                }
        return value.tolist()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        doc = {"type": type(value).__name__}
        for f in dataclasses.fields(value):
            doc[f.name] = to_jsonable(getattr(value, f.name))
        return doc
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    # Attribute-bag results (e.g. ClusteringResult): public data attrs.
    attrs = {
        k: v for k, v in vars(value).items()
        if not k.startswith("_") and not callable(v)
    } if hasattr(value, "__dict__") else {}
    if attrs:
        doc = {"type": type(value).__name__}
        doc.update({k: to_jsonable(v) for k, v in attrs.items()})
        return doc
    return repr(value)


def _jsonable_default(entry: dict) -> dict:
    out = dict(entry)
    if "default" in out:
        d = out["default"]
        if d is not None and not isinstance(d, (bool, int, float, str)):
            out["default"] = repr(d)
    return out


def request_schema() -> dict:
    """The full published schema: one entry per registered algorithm.

    ``coalesce`` tells clients how concurrent requests combine:
    ``"merge-sources"`` algorithms fold into one multi-source
    traversal, everything else deduplicates identical runs.
    """
    algorithms = {}
    for name in algorithm_names():
        spec = algorithm_spec(name)
        algorithms[name] = {
            "operands": spec["operands"],
            "params": {
                k: _jsonable_default(v) for k, v in spec["params"].items()
            },
            "uniform": [u for u in spec["uniform"] if u == "seed"],
            "coalesce": (
                "merge-sources" if name in MERGEABLE else "dedup-identical"
            ),
        }
    sparse = {"fields": ["type", "n", "index", "value"], "max_fill": SPARSE_MAX_FILL}
    return {"version": PROTOCOL_VERSION, "algorithms": algorithms,
            "value_encodings": {"sparse": sparse}}


def parse_submit(doc: Any) -> dict:
    """Validate a submit document; returns the normalized request dict.

    Raises :class:`~repro.errors.ProtocolError` on anything malformed —
    wrong field types, an unknown algorithm, parameters the algorithm
    does not accept — *before* the request touches the scheduler.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ProtocolError("request requires a string 'graph' name")
    algo = doc.get("algo")
    if not isinstance(algo, str):
        raise ProtocolError("request requires a string 'algo' name")
    try:
        get_algorithm(algo)  # imports only the packages up to its own
    except KeyError as exc:
        raise ProtocolError(exc.args[0]) from None
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object")
    disallowed = {"ctx", "trace", "rng"} & set(params)
    if disallowed:
        raise ProtocolError(
            f"parameter(s) not accepted over the wire: "
            f"{', '.join(sorted(disallowed))}"
        )
    try:
        validate_params(algo, params)
    except TypeError as exc:
        raise ProtocolError(str(exc)) from None
    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
            raise ProtocolError("'deadline_s' must be a positive number")
    wait = doc.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError("'wait' must be a boolean")
    return {
        "graph": graph,
        "algo": algo,
        "params": params,
        "deadline_s": deadline_s,
        "wait": wait,
    }


def parse_ingest(doc: Any) -> dict:
    """Validate an ingest document (``POST /v1/ingest``).

    Shape::

        {"graph": "<resident name>",
         "events": [[t, "add"|"delete", u, v] | [t, op, u, v, w], ...],
         "analytics": ["components", ...],   # optional
         "k": 10}                            # optional

    Events must carry non-decreasing timestamps (batch boundaries are
    timestamp changes, exactly as in ``.events`` files).
    """
    if not isinstance(doc, dict):
        raise ProtocolError("request body must be a JSON object")
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ProtocolError("ingest requires a string 'graph' name")
    rows = doc.get("events")
    if not isinstance(rows, list) or not rows:
        raise ProtocolError("ingest requires a non-empty 'events' list")
    events = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) not in (4, 5):
            raise ProtocolError(
                f"events[{i}]: expected [t, op, u, v] or [t, op, u, v, w]"
            )
        t, op, u, v = row[:4]
        if not isinstance(t, int) or not isinstance(u, int) or not isinstance(v, int):
            raise ProtocolError(f"events[{i}]: t, u, v must be integers")
        if op not in ("add", "delete", "+", "-"):
            raise ProtocolError(
                f"events[{i}]: op must be 'add'/'delete' (or '+'/'-')"
            )
        w = row[4] if len(row) == 5 else 1.0
        if not isinstance(w, (int, float)):
            raise ProtocolError(f"events[{i}]: weight must be a number")
        events.append(
            {
                "t": t,
                "kind": {"+": "add", "-": "delete"}.get(op, op),
                "u": u,
                "v": v,
                "weight": float(w),
            }
        )
    analytics = doc.get("analytics")
    if analytics is not None:
        if not isinstance(analytics, list) or not all(
            isinstance(a, str) for a in analytics
        ):
            raise ProtocolError("'analytics' must be a list of strings")
    k = doc.get("k")  # omitted: the graph's engine keeps its own
    if k is not None and (not isinstance(k, int) or k < 1):
        raise ProtocolError("'k' must be a positive integer")
    return {"graph": graph, "events": events, "analytics": analytics, "k": k}


def result_envelope(result: RunResult) -> dict:
    """JSON response document for one resolved request."""
    serve = dict(result.extras.get("serve", {}))
    return {
        "id": serve.pop("request_id", None),
        "algo": result.algorithm,
        "graph": serve.pop("graph", None),
        "value": to_jsonable(result.value),
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "backend": result.backend,
        "serve": serve,
    }


def error_envelope(exc: BaseException) -> dict:
    """Structured error document: stable code + class + message."""
    return {
        "error": {
            "code": getattr(exc, "code", "internal_error"),
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
