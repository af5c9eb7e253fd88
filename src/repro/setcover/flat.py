"""Flat-array MWSC core: CSR incidence, bitsets, and lazy-decrease queues.

The object solvers (:mod:`repro.setcover.greedy`, ``modified_greedy``,
``layer``) walk per-set ``dict[int, set[int]]`` structures, which caps
cover computation far below the scale the columnar detection kernels
reach.  This module re-hosts the same five algorithms on flat arrays:

* an **integer-id universe** with both incidence directions stored CSR
  style - ``set_start``/``set_elements`` (set → its element ids) and
  ``element_start``/``element_sets`` (element → ids of sets containing
  it, ascending).  The set → element rows are the instance's own arrays;
  the inversion is a pure-Python counting sort, and for instances of at
  least :data:`NUMPY_MIN_NNZ` incidences, when NumPy is importable (the
  optional ``repro[kernel]`` extra), a stable argsort + bincount
  producing the exact same arrays;
* **bytearray coverage marks** instead of per-set Python sets, with
  per-set *uncovered counters* maintained by walking the element rows of
  a selected set (total work = total incidence, not |S|² rescans);
* a **lazy-decrease priority queue** (``heapq`` with re-push on stale
  pop) for greedy/modified-greedy: effective weights only ever increase,
  so every queue entry is a lower bound and the first up-to-date entry
  popped is the true ``(w_ef, set_id)`` minimum.  Greedy drops from
  O(|S|) per selection to amortized O(log |S|), i.e. near-linear in the
  total incidence;
* **bitset universes** (Python ints) for the exact branch-and-bound.

These are the solvers the registry (:mod:`repro.setcover.solvers`)
runs.  Every one is **byte-identical** to its object reference: the same
cover (same ``selected`` order, same float ``weight``, same
``iterations``) and the same ``Cover.stats`` plus one extra key,
``incidence`` (the CSR size) - the funnel the parity suite enforces.
Wall-clock of the incidence build is *not* a stat (stats must be
run-deterministic); the ``setcover:flat-build`` span times it and it is
exposed as :attr:`FlatSetCover.build_seconds` for the benchmarks.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterator

from repro.exceptions import SetCoverError, UncoverableError
from repro.obs import current_tracer, traced_solver
from repro.setcover.heap import IndexedHeap
from repro.setcover.instance import SetCoverInstance
from repro.setcover.layer import _tolerance
from repro.setcover.result import Cover

#: Least incidence count (nnz) inverted with NumPy.  Below it the
#: fixed cost of the NumPy calls and ``.tolist()`` (~25 us) outweighs the
#: counting sort.  Best of 5 on a 2-CPU x86-64 Linux container, random
#: 1-3-element sets: nnz 8 pure 5.5 us vs NumPy 27 us, nnz 48 16-19 vs
#: 31-34, nnz 64 19-28 vs 33-43, nnz 97 25-40 vs 38-39, nnz 128 49-51
#: vs 42-45, nnz 257 96-103 vs 62-67.
NUMPY_MIN_NNZ = 96


class FlatSetCover:
    """CSR incidence view of a :class:`SetCoverInstance`.

    Immutable after construction and shared by every flat solver run on
    the same instance (:meth:`SetCoverInstance.flat` caches it), so the
    build cost is paid once per instance, not once per solve.
    """

    __slots__ = (
        "n_elements",
        "n_sets",
        "weights",
        "set_start",
        "set_elements",
        "element_start",
        "element_sets",
        "nnz",
        "build_seconds",
        "accelerated",
    )

    def __init__(self, instance: SetCoverInstance) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            self._build(instance)
            return
        with tracer.span(
            "setcover:flat-build",
            category="solver",
            sets=instance.n_sets,
            elements=instance.n_elements,
        ) as span:
            self._build(instance)
            span.tag(
                nnz=self.nnz,
                seconds=self.build_seconds,
                accelerated=self.accelerated,
            )
        tracer.metrics.counter("flat_builds").inc()
        tracer.metrics.gauge("flat_incidence").set_max(self.nnz)

    def _build(self, instance: SetCoverInstance) -> None:
        started = time.perf_counter()
        # set -> elements (CSR) is the instance's own representation; the
        # solvers only read these lists, so they are shared, not copied.
        self.n_elements = instance.n_elements
        self.n_sets = instance.n_sets
        self.weights = instance.weights
        self.set_start = instance.set_start
        self.set_elements = instance.set_elements
        self.nnz = len(self.set_elements)

        self.accelerated = False
        built = None
        if self.nnz >= NUMPY_MIN_NNZ:
            built = self._invert_numpy()
        if built is None:
            built = self._invert_pure()
        self.element_start, self.element_sets = built
        self.build_seconds = time.perf_counter() - started

    # -- element -> sets inversion -----------------------------------------

    def _invert_pure(self) -> tuple[list[int], list[int]]:
        """Counting-sort inversion; rows come out ascending by set id."""
        n = self.n_elements
        counts = [0] * n
        for element in self.set_elements:
            counts[element] += 1
        element_start = [0] * (n + 1)
        for element in range(n):
            element_start[element + 1] = element_start[element] + counts[element]
        element_sets = [0] * self.nnz
        cursor = element_start[:n]
        set_start = self.set_start
        set_elements = self.set_elements
        for set_id in range(self.n_sets):
            for index in range(set_start[set_id], set_start[set_id + 1]):
                element = set_elements[index]
                element_sets[cursor[element]] = set_id
                cursor[element] += 1
        return element_start, element_sets

    def _invert_numpy(self) -> tuple[list[int], list[int]] | None:
        """NumPy inversion (stable argsort); identical arrays, faster.

        Returns ``None`` when NumPy is not importable - the pure-Python
        counting sort is the baseline, NumPy only accelerates it.
        """
        try:
            import numpy as np
        except ImportError:
            return None
        if self.nnz == 0:
            return [0] * (self.n_elements + 1), []
        elements = np.asarray(self.set_elements, dtype=np.int64)
        lengths = np.diff(np.asarray(self.set_start, dtype=np.int64))
        owners = np.repeat(np.arange(self.n_sets, dtype=np.int64), lengths)
        # Stable sort keeps equal elements in set-id order, matching the
        # append order of the object adjacency (and the pure inversion).
        order = np.argsort(elements, kind="stable")
        element_sets = owners[order].tolist()
        counts = np.bincount(elements, minlength=self.n_elements)
        element_start = np.concatenate(
            ([0], np.cumsum(counts))
        ).tolist()
        self.accelerated = True
        return element_start, element_sets

    # -- derived ------------------------------------------------------------

    def set_sizes(self) -> list[int]:
        start = self.set_start
        return [start[i + 1] - start[i] for i in range(self.n_sets)]

    def max_frequency(self) -> int:
        start = self.element_start
        return max(
            (start[e + 1] - start[e] for e in range(self.n_elements)),
            default=0,
        )

    def check_coverable(self) -> None:
        """Raise :class:`UncoverableError` exactly as the object instance."""
        start = self.element_start
        for element in range(self.n_elements):
            if start[element] == start[element + 1]:
                raise UncoverableError(
                    f"element {element} belongs to no set; no cover exists"
                )

    def __repr__(self) -> str:
        return (
            f"FlatSetCover(|U|={self.n_elements}, |S|={self.n_sets}, "
            f"nnz={self.nnz})"
        )


def flat_view(instance: SetCoverInstance) -> FlatSetCover:
    """The (cached) flat incidence view of an instance."""
    return instance.flat()


# ---------------------------------------------------------------------------
# greedy / modified greedy


def _greedy_core(view: FlatSetCover) -> tuple[list[int], float, int, int, int]:
    """One selection loop serving both greedy flavours.

    Greedy and modified greedy provably select the same sequence (both
    take the ``(w_ef, set_id)`` minimum each round); they differ only in
    the bookkeeping they report.  This core runs the selection on the
    lazy-decrease queue and maintains *both* counters - the live-set
    count the plain greedy would have scanned and the heap updates the
    modified greedy would have performed - each in O(1)/O(row) extra.

    Returns ``(selected, weight, iterations, scanned_sets, heap_updates)``.
    """
    n = view.n_elements
    weights = view.weights
    set_start, set_elements = view.set_start, view.set_elements
    element_start, element_sets = view.element_start, view.element_sets

    count = view.set_sizes()
    covered = bytearray(n)
    queue: list[tuple[float, int]] = []
    live = 0
    for set_id in range(view.n_sets):
        size = count[set_id]
        if size:
            live += 1
            queue.append((weights[set_id] / size, set_id))
    heapq.heapify(queue)
    push, pop = heapq.heappush, heapq.heappop

    stamp = [0] * view.n_sets
    touched: list[int] = []
    n_uncovered = n
    selected: list[int] = []
    total_weight = 0.0
    iterations = 0
    scanned_sets = 0
    heap_updates = 0

    while n_uncovered > 0:
        iterations += 1
        scanned_sets += live
        # Lazy-decrease pop: every entry is a lower bound (effective
        # weights only grow), so the first entry whose key matches its
        # current effective weight is the true (w_ef, set_id) minimum.
        while True:
            effective, set_id = pop(queue)
            remaining = count[set_id]
            if remaining == 0:
                continue  # selected or exhausted since pushed
            current = weights[set_id] / remaining
            if current > effective:
                push(queue, (current, set_id))
                continue
            break

        count[set_id] = 0
        live -= 1
        selected.append(set_id)
        total_weight += weights[set_id]

        del touched[:]
        for index in range(set_start[set_id], set_start[set_id + 1]):
            element = set_elements[index]
            if covered[element]:
                continue
            covered[element] = 1
            n_uncovered -= 1
            for cursor in range(element_start[element], element_start[element + 1]):
                other = element_sets[cursor]
                remaining = count[other]
                if remaining == 0:
                    continue  # the selected set itself
                remaining -= 1
                count[other] = remaining
                if remaining == 0:
                    live -= 1
                if stamp[other] != iterations:
                    stamp[other] = iterations
                    touched.append(other)
        # The modified greedy re-keys each still-live touched set once
        # per round (exhausted ones are removed instead).
        for other in touched:
            if count[other]:
                heap_updates += 1

    return selected, total_weight, iterations, scanned_sets, heap_updates


@traced_solver("greedy")
def flat_greedy_cover(instance: SetCoverInstance) -> Cover:
    """Algorithm 1 on the flat core; byte-identical to ``greedy_cover``."""
    view = flat_view(instance)
    view.check_coverable()
    selected, weight, iterations, scanned_sets, _ = _greedy_core(view)
    return Cover(
        selected=tuple(selected),
        weight=weight,
        algorithm="greedy",
        iterations=iterations,
        stats={"scanned_sets": scanned_sets, "incidence": view.nnz},
    )


@traced_solver("modified-greedy")
def flat_modified_greedy_cover(instance: SetCoverInstance) -> Cover:
    """Algorithm 5 on the flat core; byte-identical to the object twin."""
    view = flat_view(instance)
    view.check_coverable()
    selected, weight, iterations, _, heap_updates = _greedy_core(view)
    return Cover(
        selected=tuple(selected),
        weight=weight,
        algorithm="modified-greedy",
        iterations=iterations,
        stats={"heap_updates": heap_updates, "incidence": view.nnz},
    )


# ---------------------------------------------------------------------------
# layer / modified layer


@traced_solver("layer")
def flat_layer_cover(instance: SetCoverInstance) -> Cover:
    """The plain layer algorithm on flat arrays.

    Same per-layer arithmetic as the object version, in the same order
    (live sets ascending by id, zero sets committed in sorted id order),
    so the float residuals - and therefore the cover - are identical;
    the per-set Python-set shrinking is replaced by uncovered counters
    maintained through the element rows.
    """
    view = flat_view(instance)
    view.check_coverable()

    weights = view.weights
    set_start, set_elements = view.set_start, view.set_elements
    element_start, element_sets = view.element_start, view.element_sets
    count = view.set_sizes()
    residual = list(weights)
    covered = bytearray(view.n_elements)
    live = [s for s in range(view.n_sets) if count[s]]

    n_uncovered = view.n_elements
    selected: list[int] = []
    total_weight = 0.0
    iterations = 0

    while n_uncovered > 0:
        iterations += 1
        c = min(residual[s] / count[s] for s in live)
        c = max(c, 0.0)

        zero_sets: list[int] = []
        for s in live:
            residual[s] -= c * count[s]
            if residual[s] <= _tolerance(weights[s]):
                zero_sets.append(s)

        dead = set(zero_sets)
        for s in sorted(zero_sets):
            taken = False
            for index in range(set_start[s], set_start[s + 1]):
                element = set_elements[index]
                if covered[element]:
                    continue
                if not taken:
                    taken = True
                    selected.append(s)
                    total_weight += weights[s]
                covered[element] = 1
                n_uncovered -= 1
                for cursor in range(
                    element_start[element], element_start[element + 1]
                ):
                    count[element_sets[cursor]] -= 1

        live = [s for s in live if s not in dead and count[s] > 0]

    return Cover(
        selected=tuple(selected),
        weight=total_weight,
        algorithm="layer",
        iterations=iterations,
        stats={"frequency": float(view.max_frequency()), "incidence": view.nnz},
    )


@traced_solver("modified-layer")
def flat_modified_layer_cover(instance: SetCoverInstance) -> Cover:
    """The layer algorithm on the indexed heap, over flat incidence.

    The absolute-ratio/global-offset bookkeeping is copied verbatim from
    the object version (same :class:`IndexedHeap` op sequence, same float
    expressions), with the tuple-of-tuples adjacency and per-object set
    structures replaced by the CSR rows.
    """
    view = flat_view(instance)
    view.check_coverable()

    weights = view.weights
    set_start, set_elements = view.set_start, view.set_elements
    element_start, element_sets = view.element_start, view.element_sets
    count = view.set_sizes()
    covered = bytearray(view.n_elements)

    heap = IndexedHeap()
    for set_id in range(view.n_sets):
        size = count[set_id]
        if size:
            heap.push(set_id, (weights[set_id] / size, set_id))

    phi = 0.0
    n_uncovered = view.n_elements
    selected: list[int] = []
    total_weight = 0.0
    iterations = 0

    while n_uncovered > 0:
        iterations += 1
        set_id, (absolute_ratio, _) = heap.pop()
        phi = max(phi, absolute_ratio)

        batch = [set_id]
        while heap:
            next_id, (next_ratio, _) = heap.peek()
            remaining = count[next_id]
            residual = (next_ratio - phi) * remaining
            if residual <= _tolerance(weights[next_id]):
                heap.pop()
                batch.append(next_id)
            else:
                break

        for member in sorted(batch):
            if count[member] == 0:
                continue
            selected.append(member)
            total_weight += weights[member]

            lost: dict[int, int] = {}
            for index in range(set_start[member], set_start[member + 1]):
                element = set_elements[index]
                if covered[element]:
                    continue
                covered[element] = 1
                n_uncovered -= 1
                for cursor in range(
                    element_start[element], element_start[element + 1]
                ):
                    other = element_sets[cursor]
                    if other != member:
                        lost[other] = lost.get(other, 0) + 1

            for other, delta in lost.items():
                before = count[other]
                count[other] = before - delta
                if other not in heap:
                    continue
                remaining = before - delta
                if remaining == 0:
                    heap.remove(other)
                    continue
                old_ratio = heap.key_of(other)[0]
                residual = max((old_ratio - phi) * before, 0.0)
                heap.update(other, (phi + residual / remaining, other))

    return Cover(
        selected=tuple(selected),
        weight=total_weight,
        algorithm="modified-layer",
        iterations=iterations,
        stats={
            "phi": phi,
            "frequency": float(view.max_frequency()),
            "incidence": view.nnz,
        },
    )


# ---------------------------------------------------------------------------
# exact (bitset branch and bound)


def _iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@traced_solver("exact")
def flat_exact_cover(instance: SetCoverInstance, max_elements: int | None = None) -> Cover:
    """Bitset branch-and-bound; byte-identical to ``exact_cover``.

    The universe fits a machine-word-scale Python int (the exact solver
    is capped at :data:`~repro.setcover.exact.MAX_EXACT_ELEMENTS`
    elements), so uncovered tracking, set intersection and the
    ascending-id iteration the object solver's deterministic tie-breaks
    prescribe all become integer bit operations.
    """
    from repro.setcover.exact import MAX_EXACT_ELEMENTS

    if max_elements is None:
        max_elements = MAX_EXACT_ELEMENTS
    if instance.n_elements > max_elements:
        raise SetCoverError(
            f"exact solver limited to {max_elements} elements "
            f"(instance has {instance.n_elements}); use an approximation"
        )
    view = flat_view(instance)
    view.check_coverable()

    weights = view.weights
    set_start, set_elements = view.set_start, view.set_elements
    element_start, element_sets = view.element_start, view.element_sets
    sizes = view.set_sizes()

    # Greedy incumbent: the flat core returns the object greedy's exact
    # cover and float weight, so the pruning threshold matches.
    seed_selected, seed_weight, _, _, _ = _greedy_core(view)
    best_weight = seed_weight
    best_selection = tuple(sorted(seed_selected))

    min_rate = [
        min(
            weights[element_sets[cursor]] / sizes[element_sets[cursor]]
            for cursor in range(element_start[element], element_start[element + 1])
        )
        for element in range(view.n_elements)
    ]
    degree = [
        element_start[element + 1] - element_start[element]
        for element in range(view.n_elements)
    ]
    set_mask = [0] * view.n_sets
    for set_id in range(view.n_sets):
        mask = 0
        for index in range(set_start[set_id], set_start[set_id + 1]):
            mask |= 1 << set_elements[index]
        set_mask[set_id] = mask

    uncovered = (1 << view.n_elements) - 1
    chosen: list[int] = []
    nodes = 0

    def lower_bound() -> float:
        return sum(min_rate[element] for element in _iter_bits(uncovered))

    def branch(current_weight: float) -> None:
        nonlocal best_weight, best_selection, nodes, uncovered
        nodes += 1
        if not uncovered:
            if current_weight < best_weight - 1e-12:
                best_weight = current_weight
                best_selection = tuple(sorted(chosen))
            return
        if current_weight + lower_bound() >= best_weight - 1e-12:
            return
        # Fail-first with the object solver's (degree, id) tie-break.
        element = min(_iter_bits(uncovered), key=lambda e: (degree[e], e))
        candidates = sorted(
            element_sets[element_start[element] : element_start[element + 1]],
            key=lambda s: (weights[s], s),
        )
        for set_id in candidates:
            newly = set_mask[set_id] & uncovered
            uncovered &= ~newly
            chosen.append(set_id)
            branch(current_weight + weights[set_id])
            chosen.pop()
            uncovered |= newly

    branch(0.0)

    return Cover(
        selected=best_selection,
        weight=best_weight,
        algorithm="exact",
        iterations=nodes,
        stats={"nodes": float(nodes), "incidence": view.nnz},
    )
