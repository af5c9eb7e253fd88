"""Executor abstraction: serial and process execution backends.

The repair pipeline has two embarrassingly-parallel stages — per-constraint
violation detection and per-component set-cover solving — whose work items
are independent by construction (constraints never share violation sets;
connected components never share candidate fixes).  ``Executor`` gives both
stages one shared dispatch mechanism:

* **serial** — a plain loop, zero overhead, always available;
* **process** — ``ProcessPoolExecutor``; true CPU parallelism for the
  pure-Python solver loops, at the cost of pickling the work description;
* **auto** — the decomposed pipeline, run in-process
  (:attr:`ExecutionPolicy.dispatch_backend`): no measured size makes the
  process pool pay for a repair stage (see :data:`BACKENDS`).

Guarantees, regardless of backend:

* ``map`` preserves input order — results arrive positionally, never in
  completion order, so every parallel pipeline stage is deterministic;
* exceptions raised by the mapped function propagate to the caller
  (``ReproError`` subclasses always — the ``max_violations`` safety valve
  keeps working under fan-out);
* pool-infrastructure failures (unpicklable work, a broken pool, fork
  restrictions) degrade to the serial loop with a logged warning instead
  of failing the repair, unless the policy disables the fallback.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ReproError, RuntimeConfigError

logger = logging.getLogger(__name__)

#: Backends selectable by name.  ``auto`` asks for the decomposed
#: pipeline but dispatches nothing (:attr:`ExecutionPolicy.dispatch_backend`).
#: Detection ships the whole instance per batch, which costs more than
#: the linear-time detection it would spread.  For component solving, a
#: sweep of layer solving by components of census households x 3 (dirty
#: 0.3, seed 7), in-process vs a 2-worker pool, median seconds of 5 (3
#: from 60k households) on a 2-CPU x86-64 Linux container:
#:
#:   households   elements + sets   in-process   pool
#:        4,000             6,779        0.115   0.312
#:       20,000            32,652        1.143   1.347
#:       40,000            65,465        1.960   2.702
#:       60,000            97,482        2.552   2.774
#:       90,000           145,115        3.854   3.792
#:      120,000           193,916        5.766   7.871
#:
#: The pool won no size by more than noise: decomposition and the merge
#: stay in the parent, and a tiny component costs about as much to ship
#: as to solve.  So there is no work size for ``auto`` to switch at.
#:
#: There is no thread backend: the detection kernels and solvers are
#: pure Python, so CPython threads run them one at a time, and on 2 CPUs
#: a thread pool never beat the in-process loop by more than noise.
BACKENDS = ("serial", "process", "auto")

#: Exceptions that indicate the *pool* (not the work) failed: unpicklable
#: payloads, a worker that died, fork not being available.  Anything the
#: library itself raises is re-raised before this filter applies.
_POOL_FAILURES = (
    BrokenExecutor,
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
    RuntimeError,
)


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a pipeline stage should be executed.

    Attributes
    ----------
    backend:
        ``serial``, ``process``, or ``auto``.  Every backend
        but ``serial`` asks for the decomposed pipeline; ``auto`` runs it
        in-process (see :attr:`dispatch_backend`).
    max_workers:
        Worker count; ``None`` means ``os.cpu_count()``.
    chunks_per_worker:
        Over-partitioning factor for size-balanced batching: work is split
        into ``workers * chunks_per_worker`` bins so one oversized item
        cannot straggle a whole worker's share.
    fallback:
        Degrade to serial execution when the pool itself fails (default);
        set ``False`` to surface pool failures (used by tests).
    """

    backend: str = "serial"
    max_workers: int | None = None
    chunks_per_worker: int = 4
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise RuntimeConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"choose from {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise RuntimeConfigError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.chunks_per_worker < 1:
            raise RuntimeConfigError(
                f"chunks_per_worker must be >= 1, got {self.chunks_per_worker}"
            )

    @property
    def workers(self) -> int:
        """Resolved worker count (``max_workers`` or the machine's cores)."""
        if self.max_workers is not None:
            return self.max_workers
        return os.cpu_count() or 1

    @property
    def dispatch_backend(self) -> str:
        """The backend the detect and solve stages fan out over.

        An explicit ``process`` request with more than one worker;
        ``serial`` (in-process) for ``auto`` (see :data:`BACKENDS`)
        and for anything that cannot reach a second worker.  Every stage
        and every report on it resolves through this one property.
        """
        if self.backend == "auto" or self.workers <= 1:
            return "serial"
        return self.backend

    @property
    def is_parallel(self) -> bool:
        """True when this policy dispatches to more than one worker."""
        return self.dispatch_backend != "serial"

    @classmethod
    def resolve(
        cls,
        parallel: "bool | str | ExecutionPolicy | None" = None,
        max_workers: int | None = None,
    ) -> "ExecutionPolicy":
        """Normalize the user-facing ``parallel`` / ``max_workers`` options.

        ``None``/``False`` → serial; ``True`` → ``auto``; a backend name →
        that backend; an existing policy passes through (with
        ``max_workers`` overriding its worker count when given).
        """
        if isinstance(parallel, ExecutionPolicy):
            if max_workers is not None:
                return replace(parallel, max_workers=max_workers)
            return parallel
        if parallel is None or parallel is False:
            backend = "serial"
        elif parallel is True:
            backend = "auto"
        elif isinstance(parallel, str):
            backend = parallel
        else:
            raise RuntimeConfigError(
                f"parallel must be a bool, backend name or ExecutionPolicy, "
                f"got {parallel!r}"
            )
        return cls(backend=backend, max_workers=max_workers)


class Executor:
    """Order-preserving ``map`` over a configured execution backend."""

    def __init__(self, policy: ExecutionPolicy) -> None:
        self.policy = policy

    @property
    def dispatch_backend(self) -> str:
        """See :attr:`ExecutionPolicy.dispatch_backend`."""
        return self.policy.dispatch_backend

    @property
    def workers(self) -> int:
        """The resolved worker count."""
        return self.policy.workers

    @property
    def is_parallel(self) -> bool:
        """True when more than one worker can run concurrently."""
        return self.policy.is_parallel

    def n_chunks(self, n_items: int) -> int:
        """How many balanced bins to split ``n_items`` work items into."""
        if not self.is_parallel:
            return 1
        return max(1, min(n_items, self.workers * self.policy.chunks_per_worker))

    def instance_batches(self, n_items: int) -> int:
        """How many bins to split work into when every bin ships the instance.

        One per worker when parallel (each batch pickles the whole
        instance), else 1.
        """
        if not self.is_parallel:
            return 1
        return max(1, min(n_items, self.workers))

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        Runs on the process pool when :attr:`dispatch_backend` is
        ``process``, else as a plain loop.  Exceptions from ``fn``
        propagate.  Pool failures fall back to the serial loop (see
        module docstring) when the policy allows it.
        """
        items = list(items)
        if not self.is_parallel or len(items) <= 1:
            return [fn(item) for item in items]
        workers = min(self.workers, len(items))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        except ReproError:
            raise
        except _POOL_FAILURES as error:
            if not self.policy.fallback:
                raise
            logger.warning(
                "runtime: process pool failed (%s: %s); falling back to serial",
                type(error).__name__,
                error,
            )
            return [fn(item) for item in items]


def as_executor(
    executor: "Executor | ExecutionPolicy | bool | str | None",
    max_workers: int | None = None,
) -> Executor:
    """Coerce any of the accepted ``executor=`` spellings to an ``Executor``.

    Accepts an :class:`Executor`, an :class:`ExecutionPolicy`, a backend
    name, ``True``/``False``/``None``, optionally combined with a worker
    count override.
    """
    if isinstance(executor, Executor):
        if max_workers is not None:
            return Executor(replace(executor.policy, max_workers=max_workers))
        return executor
    return Executor(ExecutionPolicy.resolve(executor, max_workers))


def balanced_chunks(
    costs: Sequence[float], n_chunks: int
) -> list[list[int]]:
    """Partition item indices into ``<= n_chunks`` bins of near-equal cost.

    Longest-processing-time (LPT) assignment: items are placed heaviest
    first into the currently lightest bin, so one large item cannot
    straggle a bin that also holds many small ones.  Ties break on bin
    index, items inside a bin are sorted by index, and bins are ordered by
    their smallest index — the chunking is fully deterministic.
    """
    if n_chunks < 1:
        raise RuntimeConfigError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, len(costs))
    if n_chunks <= 1:
        return [list(range(len(costs)))] if costs else []
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    bins: list[list[int]] = [[] for _ in range(n_chunks)]
    heap: list[tuple[float, int]] = [(0.0, b) for b in range(n_chunks)]
    for index in order:
        load, bin_index = heappop(heap)
        bins[bin_index].append(index)
        heappush(heap, (load + costs[index], bin_index))
    chunks = [sorted(b) for b in bins if b]
    chunks.sort(key=lambda chunk: chunk[0])
    return chunks
