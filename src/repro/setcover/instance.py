"""Set-cover instance representation ``(U, S, w)``.

Elements of the universe ``U`` are integers ``0 .. n_elements-1``; each
:class:`WeightedSet` lists the element ids it contains, carries a positive
weight, and an opaque ``payload`` (the repair layer stores the
:class:`~repro.fixes.mlf.FixCandidate` there).

The instance itself is array-based: the weights and the set → elements
incidence in CSR form (``set_start``/``set_elements``: the elements of
set ``i`` are ``set_elements[set_start[i]:set_start[i + 1]]``).  That is
what the solvers and :func:`~repro.setcover.decompose.decompose` read.
An instance is built either from :class:`WeightedSet` objects or
straight from the arrays (:meth:`SetCoverInstance.from_arrays`, the
repair reduction's path); in the second case ``sets``, their payloads
and the element -> sets adjacency are only materialized when asked for.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.exceptions import SetCoverError, UncoverableError


@dataclass(frozen=True)
class WeightedSet:
    """One candidate set ``S_i ∈ S`` with weight ``w(S_i)``."""

    set_id: int
    weight: float
    elements: tuple[int, ...]
    payload: Any = None

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise SetCoverError(
                f"set {self.set_id}: weight must be non-negative, got {self.weight}"
            )
        if len(set(self.elements)) != len(self.elements):
            raise SetCoverError(
                f"set {self.set_id}: duplicate element ids {self.elements}"
            )

    def __len__(self) -> int:
        return len(self.elements)


class _LazySets(SequenceABC):
    """``instance.sets`` of an array-built instance: one set per access.

    Each :class:`WeightedSet` (and its payload) is built on first access
    and cached, so ``len()`` is free and a repair that only reads a few
    sets never builds the rest.
    """

    __slots__ = ("_instance", "_built")

    def __init__(self, instance: "SetCoverInstance") -> None:
        self._instance = instance
        self._built: list[WeightedSet | None] = [None] * instance.n_sets

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        weighted_set = self._built[index]
        if weighted_set is None:
            set_id = range(len(self._built))[index]
            instance = self._instance
            start, end = instance.set_start[set_id], instance.set_start[set_id + 1]
            weighted_set = self._built[set_id] = WeightedSet(
                set_id,
                instance.weights[set_id],
                tuple(instance.set_elements[start:end]),
                instance.payload(set_id),
            )
        return weighted_set

    def __iter__(self) -> Iterator[WeightedSet]:
        for index in range(len(self._built)):
            yield self[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} sets>"


def _no_payload(set_id: int) -> None:
    return None


class SetCoverInstance:
    """An MWSCP instance ``(U, S, w)``.

    Parameters
    ----------
    n_elements:
        Size of the universe ``U`` (element ids are ``0..n_elements-1``).
    sets:
        The weighted sets.  Empty sets are allowed but never useful; sets
        referencing out-of-range elements are rejected.
    """

    def __init__(
        self,
        n_elements: int,
        sets: Iterable[WeightedSet],
    ) -> None:
        if n_elements < 0:
            raise SetCoverError(f"n_elements must be >= 0, got {n_elements}")
        sets = tuple(sets)
        weights: list[float] = []
        set_start = [0]
        set_elements: list[int] = []
        for index, weighted_set in enumerate(sets):
            # Ids 0..index-1 are taken once the earlier sets passed.
            if weighted_set.set_id < index:
                raise SetCoverError(
                    f"duplicate set id {weighted_set.set_id}: set ids must "
                    "be unique (duplicate *contents* under distinct ids are "
                    "fine)"
                )
            if weighted_set.set_id != index:
                raise SetCoverError(
                    f"set ids must be consecutive: expected {index}, "
                    f"got {weighted_set.set_id}"
                )
            for element in weighted_set.elements:
                if not 0 <= element < n_elements:
                    raise SetCoverError(
                        f"set {index} references element {element} outside "
                        f"universe of size {n_elements}"
                    )
            weights.append(weighted_set.weight)
            set_elements.extend(weighted_set.elements)
            set_start.append(len(set_elements))
        self._init_arrays(n_elements, weights, set_start, set_elements)
        self._sets: Sequence[WeightedSet] | None = sets
        self._payload_of: Callable[[int], Any] = lambda set_id: sets[set_id].payload

    def _init_arrays(
        self,
        n_elements: int,
        weights: list[float],
        set_start: list[int],
        set_elements: list[int],
    ) -> None:
        self.n_elements = n_elements
        self.weights = weights
        self.set_start = set_start
        self.set_elements = set_elements
        self._payloads: dict[int, Any] = {}
        self._element_to_sets: tuple[tuple[int, ...], ...] | None = None
        self._flat: Any = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_collections(
        cls,
        n_elements: int,
        collections: Sequence[tuple[float, Iterable[int]]],
        payloads: Sequence[Any] | None = None,
    ) -> "SetCoverInstance":
        """Build from ``[(weight, elements), ...]`` pairs."""
        sets = []
        for index, (weight, elements) in enumerate(collections):
            payload = payloads[index] if payloads is not None else None
            sets.append(
                WeightedSet(index, weight, tuple(elements), payload)
            )
        return cls(n_elements, sets)

    @classmethod
    def from_arrays(
        cls,
        n_elements: int,
        weights: list[float],
        set_start: list[int],
        set_elements: list[int],
        payload: Callable[[int], Any] | None = None,
    ) -> "SetCoverInstance":
        """Build straight from CSR arrays; the lists are adopted, not copied.

        ``payload(i)`` produces the payload of set ``i`` on first use (it
        is cached, so ``payload(i) is sets[i].payload``); without it every
        payload is ``None``.  Elements within one set must be distinct.
        """
        if n_elements < 0:
            raise SetCoverError(f"n_elements must be >= 0, got {n_elements}")
        if (
            len(set_start) != len(weights) + 1
            or set_start[0] != 0
            or set_start[-1] != len(set_elements)
        ):
            raise SetCoverError("set_start does not delimit set_elements")
        if weights and min(weights) < 0:
            raise SetCoverError("set weights must be non-negative")
        if set_elements and not (
            0 <= min(set_elements) and max(set_elements) < n_elements
        ):
            raise SetCoverError(
                f"set_elements reference elements outside universe of size "
                f"{n_elements}"
            )
        instance = cls.__new__(cls)
        instance._init_arrays(n_elements, weights, set_start, set_elements)
        instance._payload_of = payload or _no_payload
        instance._sets = None
        return instance

    # -- sets ---------------------------------------------------------------

    @property
    def n_sets(self) -> int:
        """``|S|``, without materializing any set."""
        return len(self.weights)

    @property
    def sets(self) -> Sequence[WeightedSet]:
        """The weighted sets, indexed by set id (array-built: lazy)."""
        if self._sets is None:
            self._sets = _LazySets(self)
        return self._sets

    def payload(self, set_id: int) -> Any:
        """The payload of one set, built on first use and cached."""
        try:
            return self._payloads[set_id]
        except KeyError:
            value = self._payloads[set_id] = self._payload_of(set_id)
            return value

    # -- derived structure ------------------------------------------------------

    @property
    def element_to_sets(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency ``element id -> ids of sets containing it`` (cached).

        This is the link structure of Algorithm 4, shared by the modified
        greedy and modified layer algorithms.
        """
        if self._element_to_sets is None:
            adjacency: list[list[int]] = [[] for _ in range(self.n_elements)]
            set_start, set_elements = self.set_start, self.set_elements
            for set_id in range(self.n_sets):
                for index in range(set_start[set_id], set_start[set_id + 1]):
                    adjacency[set_elements[index]].append(set_id)
            self._element_to_sets = tuple(tuple(a) for a in adjacency)
        return self._element_to_sets

    @property
    def max_frequency(self) -> int:
        """Largest number of sets any element belongs to.

        The layer algorithm approximates within this factor (bounded for
        the repair reduction: a violation set has a bounded number of
        candidate fixes).
        """
        return max((len(a) for a in self.element_to_sets), default=0)

    def flat(self) -> Any:
        """The cached :class:`~repro.setcover.flat.FlatSetCover` view.

        Built on first use and shared by every flat-engine solver run on
        this instance, so the CSR incidence construction is paid once.
        """
        if self._flat is None:
            from repro.setcover.flat import FlatSetCover

            self._flat = FlatSetCover(self)
        return self._flat

    def first_uncovered(self) -> int | None:
        """The smallest element in no set, or ``None`` when all are covered."""
        covered = bytearray(self.n_elements)
        for element in self.set_elements:
            covered[element] = 1
        index = covered.find(0)
        return None if index < 0 else index

    def check_coverable(self) -> None:
        """Raise :class:`UncoverableError` when some element is in no set."""
        element = self.first_uncovered()
        if element is not None:
            raise UncoverableError(
                f"element {element} belongs to no set; no cover exists"
            )

    def __repr__(self) -> str:
        return (
            f"SetCoverInstance(|U|={self.n_elements}, |S|={self.n_sets})"
        )
