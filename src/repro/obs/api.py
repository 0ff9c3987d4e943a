"""The canonical algorithm entrypoint surface.

Every public algorithm in this package is normalized to

    fn(graph, <operands...>, *, ctx=None, seed=None, trace=None, ...)

where *operands* are positional data arguments (a source vertex, a part
count ``k``) and everything else is keyword-only.  The
:func:`algorithm` decorator supplies the uniform part:

* ``trace=`` — a :class:`~repro.obs.tracer.Tracer` to record into.
  When omitted, the *ambient* tracer is used (installed by
  :func:`repro.obs.runner.run` or an enclosing algorithm), so nested
  calls — pBD's inner Brandes rescorings, recursive bisections — nest
  as child spans with zero explicit plumbing.  With tracing disabled
  the wrapper is a two-branch fast path that adds no measurable cost.
* ``seed=`` — an integer convenience for algorithms that take an
  ``rng=`` generator; ``seed=7`` is exactly ``rng=default_rng(7)``.
  Passing both is an error.
* **Registry** — each entrypoint self-registers under a stable name so
  :func:`repro.obs.run` can dispatch by string (``run("pbd", g)``) and
  the CLI's ``profile`` subcommand can enumerate what's runnable.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Optional

import numpy as np

from repro.obs.tracer import current_tracer, use_tracer

__all__ = [
    "algorithm",
    "get_algorithm",
    "algorithm_names",
    "algorithm_spec",
    "validate_params",
    "split_operands",
    "ALGORITHMS",
]

ALGORITHMS: dict[str, Callable] = {}
"""Registry: canonical name -> decorated entrypoint."""


def _graph_attrs(graph) -> dict:
    """Best-effort size attributes for the root span."""
    attrs = {}
    for key in ("n_vertices", "n_edges"):
        val = getattr(graph, key, None)
        if isinstance(val, (int, np.integer)):
            attrs[key] = int(val)
    return attrs


def algorithm(
    name: str,
    *,
    operands: int = 0,
    register: bool = True,
):
    """Wrap an entrypoint with the canonical observability surface.

    ``operands`` is how many positional arguments after ``graph`` are
    legitimate data operands (e.g. 1 for ``bfs(g, source)``); positional
    arguments beyond that raise :class:`TypeError`.
    """

    def deco(fn: Callable) -> Callable:
        code_vars = fn.__code__.co_varnames[: fn.__code__.co_argcount + fn.__code__.co_kwonlyargcount]
        accepts_rng = "rng" in code_vars

        @functools.wraps(fn)
        def wrapper(graph, *args, **kwargs):
            trace = kwargs.pop("trace", None)
            seed = kwargs.pop("seed", None)
            if len(args) > operands:
                raise TypeError(
                    f"{name}() takes {operands} positional operand(s) "
                    f"after the graph; pass options as keywords"
                )
            if seed is not None:
                if not accepts_rng:
                    raise TypeError(f"{name}() does not accept seed=")
                if kwargs.get("rng") is not None:
                    raise TypeError(f"{name}(): pass seed= or rng=, not both")
                kwargs["rng"] = np.random.default_rng(seed)
            tracer = trace if trace is not None else current_tracer()
            if not tracer:
                return fn(graph, *args, **kwargs)
            with use_tracer(tracer):
                sp = tracer.begin(name, **_graph_attrs(graph))
                try:
                    return fn(graph, *args, **kwargs)
                finally:
                    tracer.end(sp)

        wrapper.__algorithm__ = name
        wrapper.__wrapped__ = fn
        wrapper.__operands__ = operands
        if register:
            ALGORITHMS[name] = wrapper
        return wrapper

    return deco


def _param_type(p: inspect.Parameter) -> Optional[str]:
    """Best-effort JSON-ish type label from default value / annotation."""
    if p.default is not inspect.Parameter.empty and p.default is not None:
        if isinstance(p.default, bool):
            return "boolean"
        if isinstance(p.default, (int, np.integer)):
            return "integer"
        if isinstance(p.default, (float, np.floating)):
            return "number"
        if isinstance(p.default, str):
            return "string"
        if isinstance(p.default, (list, tuple)):
            return "array"
    ann = p.annotation
    if isinstance(ann, str):
        for label, needles in (
            ("integer", ("int",)),
            ("number", ("float",)),
            ("boolean", ("bool",)),
            ("string", ("str",)),
            ("array", ("Sequence", "list", "ndarray", "tuple")),
        ):
            if any(n in ann for n in needles):
                return label
    return None


def algorithm_spec(name: str) -> dict:
    """Machine-readable call surface of one registered algorithm.

    Derived by introspecting the *undecorated* entrypoint, so the same
    metadata drives in-process validation (:func:`validate_params`),
    the ``repro.api`` facade, and the serve wire protocol — there is no
    hand-written schema to drift.  Returns::

        {"name": ...,
         "operands": [{"name": ..., "type": ...}, ...],   # required
         "params":   {pname: {"default": ..., "type": ...}, ...},
         "uniform":  ["ctx", "trace", "seed"]}

    ``operands`` are the positional data arguments after the graph
    (a BFS source, a part count ``k``); ``params`` are the keyword
    options.  ``rng`` is folded into the uniform ``seed`` surface.
    """
    fn = get_algorithm(name)
    raw = inspect.unwrap(fn)
    n_operands = getattr(fn, "__operands__", 0)
    sig = inspect.signature(raw)
    names = list(sig.parameters)
    operands = []
    params: dict[str, dict] = {}
    for pname in names[1 : 1 + n_operands]:  # names[0] is the graph
        operands.append(
            {"name": pname, "type": _param_type(sig.parameters[pname])}
        )
    for pname in names[1 + n_operands:]:
        p = sig.parameters[pname]
        if pname in ("ctx", "trace", "rng") or p.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            continue
        entry: dict = {"type": _param_type(p)}
        if p.default is not inspect.Parameter.empty:
            entry["default"] = p.default
        params[pname] = entry
    uniform = ["ctx", "trace"]
    if "rng" in names:
        uniform.append("seed")
    return {
        "name": name,
        "operands": operands,
        "params": params,
        "uniform": uniform,
    }


def validate_params(name: str, params: dict) -> dict:
    """Check keyword ``params`` against an algorithm's spec.

    The single validation gate shared by ``repro.api``, the CLI and the
    serve protocol: unknown keywords raise :class:`TypeError` *before*
    any graph work happens (listing what the algorithm accepts), and
    the validated dict is returned unchanged.  Operand names are
    accepted here too — :func:`split_operands` lifts them back into
    positional form at call time.
    """
    spec = algorithm_spec(name)
    allowed = (
        set(spec["params"])
        | set(spec["uniform"])
        | {op["name"] for op in spec["operands"]}
    )
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise TypeError(
            f"{name}() got unexpected parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(sorted(allowed))}"
        )
    return params


def split_operands(name: str, params: dict) -> tuple[tuple, dict]:
    """Split a flat validated param dict into ``(operands, kwargs)``.

    Operands are required: a missing one raises :class:`TypeError`
    naming it.  Lets wire requests and ``api.submit`` address every
    argument by name while the entrypoints keep their positional
    operand convention.
    """
    spec = algorithm_spec(name)
    params = dict(params)
    ops = []
    for op in spec["operands"]:
        if op["name"] not in params:
            raise TypeError(
                f"{name}() missing required operand {op['name']!r}"
            )
        ops.append(params.pop(op["name"]))
    return tuple(ops), params


def get_algorithm(name: str) -> Callable:
    """Registry lookup with a helpful error."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None


def algorithm_names() -> list[str]:
    return sorted(ALGORITHMS)


def resolve_tracer(trace) -> object:
    """Map a user-facing ``trace`` value onto a tracer instance.

    ``None`` -> ambient, ``True`` -> fresh enabled tracer,
    ``False`` -> the null tracer, a Tracer -> itself.
    """
    from repro.obs.tracer import NULL_TRACER, Tracer

    if trace is None:
        return current_tracer()
    if trace is True:
        return Tracer()
    if trace is False:
        return NULL_TRACER
    return trace
