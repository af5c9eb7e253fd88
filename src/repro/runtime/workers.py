"""Picklable work descriptions for the process execution backend.

Process pools ship arguments and results through pickle, so the parallel
pipeline stages describe their work with plain data + top-level functions
from this module:

* **solving** — a batch of connected components travels as bare
  ``(n_elements, weights, set_start, set_elements)`` CSR specs (payloads stripped:
  solvers never read them, and :class:`~repro.fixes.mlf.FixCandidate`
  graphs would dominate the pickle size).  Solvers are named by registry
  key when possible so only a short string crosses the process boundary;
  unregistered callables are pickled by reference and must therefore be
  module-level functions — anything else trips the executor's serial
  fallback.
* **detection** — a batch of constraints travels together with the
  instance.  Detection makes at most one batch per worker, so the
  instance is pickled once per worker, not once per constraint or per
  chunk.

Result shapes are plain tuples; the calling stage reassembles them into
:class:`~repro.setcover.result.Cover` / ``ViolationSet`` values in the
original input order, which keeps the parallel paths byte-identical to the
serial ones.

Tracing crosses the process boundary the same way: each batch payload
optionally ends with a ``trace`` flag.  When set, the worker runs its
batch under a fresh local :class:`~repro.obs.Tracer` and the result
becomes ``(results, remote)`` where ``remote`` is the picklable
:meth:`~repro.obs.Tracer.export_remote` payload; the dispatching stage
folds it back with :meth:`~repro.obs.Tracer.attach_remote`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.setcover.instance import SetCoverInstance
from repro.setcover.result import Cover

#: ``(n_elements, weights, set_start, set_elements)`` — a payload-free component.
ComponentSpec = "tuple[int, list[float], list[int], list[int]]"

#: A solver shipped by registry name (str) or as a module-level callable.
SolverToken = "str | Callable[[SetCoverInstance], Cover]"


def solver_token(solver: Callable) -> "str | Callable":
    """Prefer the registry name over pickling the callable itself."""
    from repro.setcover.solvers import SOLVERS

    for name, registered in SOLVERS.items():
        if registered is solver:
            return name
    return solver


def resolve_solver(token: "str | Callable") -> Callable:
    """Inverse of :func:`solver_token` (runs inside the worker process)."""
    from repro.setcover.solvers import get_solver

    return get_solver(token)


def component_spec(instance: SetCoverInstance) -> tuple:
    """Strip a component instance down to its picklable CSR arrays."""
    return (
        instance.n_elements,
        instance.weights,
        instance.set_start,
        instance.set_elements,
    )


def _instance_from_spec(spec: tuple) -> SetCoverInstance:
    return SetCoverInstance.from_arrays(*spec)


class _WorkerTrace:
    """Context manager running a worker batch under a fresh local tracer.

    ``remote()`` yields the picklable export once the batch finished, or
    ``None`` when tracing was off (so callers can uniformly build their
    result shape).
    """

    __slots__ = ("_enabled", "_tracer", "_activation")

    def __init__(self, enabled: bool) -> None:
        self._enabled = enabled
        self._tracer = None
        self._activation = None

    def __enter__(self) -> "_WorkerTrace":
        if self._enabled:
            from repro.obs import Tracer

            self._tracer = Tracer("worker")
            self._activation = self._tracer.activate()
            self._activation.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._activation is not None:
            self._activation.__exit__(exc_type, exc, tb)
        return False

    def remote(self) -> "dict | None":
        if self._tracer is None:
            return None
        return self._tracer.export_remote()


def solve_component_batch(
    payload: "tuple[Sequence[tuple], Sequence[str | Callable]]",
) -> "list[tuple] | tuple[list[tuple], dict]":
    """Solve one batch of components; one solver token per component.

    ``payload`` is ``(specs, tokens)`` or ``(specs, tokens, trace)``.
    Returns ``[(selected, weight, iterations, stats), ...]`` aligned with
    the input batch — wrapped as ``(results, remote_trace)`` when the
    trace flag is set.
    """
    specs, tokens, trace = (*payload, False)[:3]
    results: list[tuple] = []
    with _WorkerTrace(trace) as wt:
        for spec, token in zip(specs, tokens):
            cover = resolve_solver(token)(_instance_from_spec(spec))
            results.append(
                (cover.selected, cover.weight, cover.iterations, dict(cover.stats))
            )
    if trace:
        return results, wt.remote()
    return results


def detect_constraint_batch(payload: tuple) -> "list[tuple] | tuple[list[tuple], dict]":
    """Run ``find_violations`` for one batch of constraints.

    ``payload`` is ``(instance, constraints, max_violations, engine)`` plus
    an optional trailing ``trace`` flag; the result is one tuple of
    :class:`~repro.violations.detector.ViolationSet` per constraint, in
    batch order — wrapped as ``(results, remote_trace)`` when tracing.  A
    tripped ``max_violations`` safety valve raises
    :class:`~repro.exceptions.ConstraintError`, which the executor
    re-raises in the parent.  Process workers receive a pickled instance
    copy and build their own columnar snapshots for the kernel engine.
    """
    instance, constraints, max_violations, engine, trace = (*payload, False)[:5]
    from repro.violations.detector import find_violations

    with _WorkerTrace(trace) as wt:
        results = [
            find_violations(instance, constraint, max_violations, engine)
            for constraint in constraints
        ]
    if trace:
        return results, wt.remote()
    return results


def detect_planned_batch(payload: tuple) -> "list[tuple] | tuple[list[tuple], dict]":
    """Plan-driven detection for one batch of ``(constraint, chain)`` pairs.

    ``payload`` is ``(instance, work, max_violations)`` plus an optional
    trailing ``trace`` flag, where ``work`` is a list of
    ``(constraint, engine_chain)`` pairs from a
    :class:`~repro.plan.program.CompiledProgram`; the result is one tuple
    of ``ViolationSet`` per pair, in batch order - wrapped as
    ``(results, remote_trace)`` when tracing.  Chain fallback (and its
    ``plan_engine_downgrades`` counter) runs inside the worker, so the
    parallel path records the same downgrades the serial one would.
    """
    instance, work, max_violations, trace = (*payload, False)[:4]
    from repro.plan.runtime import planned_find_violations

    with _WorkerTrace(trace) as wt:
        results = [
            planned_find_violations(instance, constraint, chain, max_violations)
            for constraint, chain in work
        ]
    if trace:
        return results, wt.remote()
    return results


def detect_anchored_batch(payload: tuple) -> "list[tuple] | tuple[list[tuple], dict]":
    """Anchored (incremental) detection for one batch of constraints.

    ``payload`` is ``(instance, constraints, anchors, engine)`` plus an
    optional trailing ``trace`` flag; returns one tuple of
    ``ViolationSet`` per constraint, in batch order — wrapped as
    ``(results, remote_trace)`` when tracing.  Workers build throwaway
    join indexes: the parent's persistent cache is not shipped.
    """
    instance, constraints, anchors, engine, trace = (*payload, False)[:5]
    from repro.violations.detector import violations_involving_constraint

    with _WorkerTrace(trace) as wt:
        results = [
            violations_involving_constraint(instance, constraint, anchors, None, engine)
            for constraint in constraints
        ]
    if trace:
        return results, wt.remote()
    return results


def detection_cost(constraint: Any) -> float:
    """Rough relative cost of detecting one constraint's violations.

    Join width dominates enumeration cost, so the atom count is the load
    signal for balanced batching (a 3-atom denial joins a whole extra
    relation compared to a 2-atom one).
    """
    try:
        return float(max(1, len(constraint.relation_atoms)))
    except Exception:
        return 1.0
