"""One execution-options surface shared by every front-end.

The CLI subcommands (``analyze``/``cluster``/``partition``/…), the
``repro serve`` daemon config and programmatic embedders all describe
the same five knobs — backend, worker count, the two resilience
settings and an optional profile output.  Historically each
subcommand wired its own copy of the argparse flags and its own
``args``-to-``ParallelContext`` translation; this module is the single
definition:

* :class:`ExecutionOptions` — a plain dataclass carrying the knobs,
  constructible from parsed argparse namespaces
  (:meth:`ExecutionOptions.from_args`) or directly in code.
* :func:`add_execution_flags` — installs the canonical argparse flags
  on a subparser.
* :meth:`ExecutionOptions.fault_policy` /
  :meth:`ExecutionOptions.make_context` — the one translation into the
  runtime's :class:`~repro.parallel.resilience.FaultPolicy` and
  :class:`~repro.parallel.runtime.ParallelContext`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional

__all__ = ["ExecutionOptions", "add_execution_flags"]

BACKENDS = ("serial", "thread", "process")


@dataclass
class ExecutionOptions:
    """Backend + resilience + profiling knobs, one surface for all fronts."""

    backend: Optional[str] = None
    workers: int = 1
    timeout: Optional[float] = None
    retries: Optional[int] = None
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ExecutionOptions":
        """Lift the shared flags out of any subcommand's namespace."""
        return cls(
            backend=getattr(args, "backend", None),
            workers=getattr(args, "workers", 1),
            timeout=getattr(args, "timeout", None),
            retries=getattr(args, "retries", None),
            profile=getattr(args, "profile", None),
        )

    def fault_policy(self):
        """FaultPolicy from the resilience knobs; None when untouched."""
        if self.timeout is None and self.retries is None:
            return None
        from repro.parallel.resilience import FaultPolicy

        kw = {}
        if self.timeout is not None:
            kw["task_timeout"] = self.timeout
        if self.retries is not None:
            kw["max_retries"] = self.retries
        return FaultPolicy(**kw)

    def make_context(self, tracer=None):
        """Build the :class:`~repro.parallel.runtime.ParallelContext`."""
        from repro.parallel.runtime import ParallelContext

        return ParallelContext(
            self.workers,
            backend=self.backend or "serial",
            trace=tracer,
            fault_policy=self.fault_policy(),
        )


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Install the canonical execution flags on a (sub)parser."""
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="execution backend (default: serial)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker count for thread/process backends")
    parser.add_argument("--profile", metavar="OUT.json", default=None,
                        help="record a span-tree profile of the run")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-task timeout; hung workers are replaced "
                             "and the task retried")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="per-task retry and per-dispatch pool-rebuild "
                             "budget before degrading process->thread->"
                             "serial (default 2 when resilience is on; 0 "
                             "retries nothing)")
