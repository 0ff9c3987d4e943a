"""Exception hierarchy for the SNAP reproduction.

All library-raised errors derive from :class:`SnapError` so callers can
catch framework failures without swallowing programming errors.
"""

from __future__ import annotations


class SnapError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(SnapError):
    """Raised when a graph file or edge list cannot be parsed or is invalid."""


class GraphStructureError(SnapError):
    """Raised when an operation's structural preconditions are violated.

    Examples: requesting a vertex id outside ``[0, n)``, deleting an edge
    that does not exist, or running an undirected-only kernel on a
    directed graph.
    """


class ConvergenceError(SnapError):
    """Raised when an iterative numerical method fails to converge.

    The spectral partitioner raises this when the Lanczos / RQI eigensolver
    stagnates — mirroring Chaco's failure on the small-world instance in
    Table 1 of the paper.
    """


class PartitioningError(SnapError):
    """Raised when a partitioner cannot produce a valid partition."""


class ClusteringError(SnapError):
    """Raised when a community-detection algorithm cannot proceed."""


class ExecutionError(SnapError):
    """Base class for failures of the parallel execution runtime.

    The fault-tolerant dispatch path (:mod:`repro.parallel.resilience`)
    classifies every failure under this hierarchy: transient errors are
    retried under the active :class:`~repro.parallel.resilience.FaultPolicy`,
    terminal ones propagate.
    """


class TransientWorkerError(ExecutionError):
    """A retryable task failure (flaky I/O, injected chaos, lost worker).

    Tasks raising this (or a subclass) are re-submitted with exponential
    backoff until the policy's retry budget is exhausted, at which point
    :class:`RetryExhausted` propagates instead.
    """


class WorkerCrashError(TransientWorkerError):
    """A worker process died mid-task (or a thread-backend simulation).

    On the process backend this wraps ``BrokenProcessPool`` when the
    policy's ``max_retries`` is 0 (the default without a policy);
    otherwise the pool is rebuilt and only the batches without results
    are re-run.  The chaos harness's ``exit`` planter raises it directly
    on in-process backends where a hard ``os._exit`` would kill the
    interpreter.
    """


class ShmAttachError(TransientWorkerError):
    """Shared-memory segment allocation or worker-side attach failed.

    The batch dispatcher reacts by degrading the graph handoff from
    zero-copy shared memory to per-task pickling and retrying.
    """


class TaskTimeout(ExecutionError):
    """A task exceeded the policy's per-task deadline.

    Retried while the task's ``max_retries`` budget lasts; terminal once
    it is spent (the hung worker's pool is replaced either way).
    """


class PhaseDeadlineExceeded(TaskTimeout):
    """A whole ``map``/``map_batches`` call exceeded its phase deadline.

    Always terminal: the deadline bounds the caller's wall clock, so
    there is no budget left to retry inside.
    """


class RetryExhausted(ExecutionError):
    """Transient failures persisted past the policy's retry budget.

    Chained (``raise ... from exc``) onto the last transient failure so
    the root cause stays visible.
    """


class BackendUnavailable(ExecutionError):
    """An execution backend could not be (re)built.

    Raised when pool construction fails, or when the pool-rebuild budget
    (``max_retries``) is spent, and no lower rung remains or
    ``max_retries`` is 0.
    """


class MemoryBudgetExceeded(SnapError):
    """An out-of-core run's peak-RSS (or admission estimate) broke its cap.

    Raised by :class:`repro.sharded.bsp.MemoryBudget` either up front —
    when the planned working set (largest shard + halos + coordinator
    state) provably cannot fit — or after a superstep whose measured
    peak RSS exceeded the cap.
    """


class CorruptCheckpoint(SnapError):
    """A durable artifact failed integrity validation on read.

    Raised by :mod:`repro.durable` when an envelope or record log shows a
    torn write, truncation, CRC mismatch or bad magic — and by resume
    paths when a structurally valid checkpoint does not match the run
    it is asked to resume (different inputs, parameters or shard set).
    Crash recovery must fail loudly on damaged state, never continue
    silently from garbage.
    """


class ServeError(SnapError):
    """Base class for graph-service (``repro serve``) failures.

    Every subclass carries a stable ``code`` string that the wire
    protocol returns verbatim, so clients can dispatch on error kind
    without parsing messages.
    """

    code = "serve_error"


class ProtocolError(ServeError):
    """A malformed or unvalidatable service request."""

    code = "bad_request"


class GraphNotResident(ServeError):
    """The named graph is not (or no longer) in the resident registry."""

    code = "graph_not_resident"


class AdmissionDenied(ServeError):
    """Loading a graph would exceed the registry's byte budget.

    Raised when the graph alone is larger than the budget, or when
    every resident graph that could be evicted to make room is pinned
    by an in-flight batch.
    """

    code = "admission_denied"


class ServiceRecovering(ServeError):
    """The daemon is replaying its state log after a restart.

    Data-plane requests receive this (HTTP 503) until replay finishes;
    clients should retry.  ``/v1/health`` stays available and reports
    the ``recovering`` flag.
    """

    code = "recovering"


class DeadlineExpired(ServeError):
    """A request's deadline lapsed before (or while) its batch ran.

    Scoped to the one request: the surrounding batch's other requests
    are unaffected and still complete.
    """

    code = "deadline_expired"
