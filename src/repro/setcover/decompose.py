"""Connected-component decomposition of set-cover instances.

Repair MWSCP instances are *clustered*: a violation set only shares fixes
with violation sets touching the same tuples, so the element/set incidence
graph splits into many small connected components (one per "infected"
group of tuples - e.g. one per household in the census workload).  The
components are independent subproblems:

* any solver runs on each component separately with identical results for
  greedy-style algorithms (their choices never interact across
  components);
* the **exact** solver becomes feasible on large databases whose
  components are small - optimal repairs for real inconsistency profiles,
  something the monolithic branch-and-bound can never do;
* the layer algorithm actually *improves* under decomposition: its global
  minimum-ratio subtraction couples unrelated components (a cheap set in
  one component delays zeroing in another), so per-component layering can
  only produce lighter covers.

``decompose`` returns the components; ``solve_by_components`` runs a
solver per component, in-process, and stitches the covers back together.
:func:`decomposes` reads the pipeline's ``parallel`` option, which only
chooses between the whole-instance solve and this per-component one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import RuntimeConfigError
from repro.setcover.instance import SetCoverInstance
from repro.setcover.result import Cover

#: ``parallel`` values by name: ``serial`` solves the whole instance,
#: ``auto`` solves per connected component.  Every stage runs in-process
#: either way (DESIGN.md, "Component decomposition", says why there is
#: no worker pool).
BACKENDS = ("serial", "auto")


def decomposes(parallel: "bool | str | None") -> bool:
    """Whether ``parallel`` asks for the per-component solve.

    ``None``, ``False`` and ``"serial"`` mean the undecomposed solve;
    ``True`` and ``"auto"`` mean solving per connected component.  Any
    other value - the retired ``"process"`` and ``"thread"`` backends
    included - raises :class:`~repro.exceptions.RuntimeConfigError`.
    Every entry point that takes ``parallel`` reads it through here.
    """
    if parallel is None or isinstance(parallel, bool):
        return bool(parallel)
    if isinstance(parallel, str):
        if parallel not in BACKENDS:
            raise RuntimeConfigError(
                f"unknown execution backend {parallel!r}; choose from {BACKENDS}"
            )
        return parallel == "auto"
    raise RuntimeConfigError(
        f"parallel must be a bool, None or one of {BACKENDS}, got {parallel!r}"
    )


@dataclass(frozen=True)
class Component:
    """One connected component of an instance, with id mappings back.

    ``element_ids[i]`` / ``set_ids[j]`` give the original ids of the
    component-local element ``i`` / set ``j``.
    """

    instance: SetCoverInstance
    element_ids: tuple[int, ...]
    set_ids: tuple[int, ...]


def decompose(instance: SetCoverInstance) -> tuple[Component, ...]:
    """Split an instance into its connected components.

    Two elements are connected when some set contains both; sets join the
    component of their elements.  Sets with no elements are dropped (they
    can never be part of a sensible cover).  Components are ordered by
    their smallest element id, elements and sets keep relative order, so
    the decomposition is deterministic.
    """
    n_elements = instance.n_elements
    set_start, set_elements = instance.set_start, instance.set_elements
    parent = list(range(n_elements))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for set_id in range(instance.n_sets):
        start, end = set_start[set_id], set_start[set_id + 1]
        if end - start > 1:
            root = find(set_elements[start])
            for index in range(start + 1, end):
                other = find(set_elements[index])
                if other != root:
                    parent[other] = root

    # Elements are visited ascending, so components are numbered by
    # their smallest element and list their elements in order.
    component_of = [0] * n_elements
    local_of = [0] * n_elements
    members: list[list[int]] = []
    number: dict[int, int] = {}
    for element in range(n_elements):
        root = find(element)
        index = number.get(root)
        if index is None:
            index = number[root] = len(members)
            members.append([])
        component_of[element] = index
        local_of[element] = len(members[index])
        members[index].append(element)

    # Every incidence renumbered once; each set then copies its slice.
    local = [local_of[e] for e in set_elements]
    set_weights = instance.weights
    weights: list[list[float]] = [[] for _ in members]
    starts = [[0] for _ in members]
    rows: list[list[int]] = [[] for _ in members]
    set_ids: list[list[int]] = [[] for _ in members]
    for set_id in range(instance.n_sets):
        start, end = set_start[set_id], set_start[set_id + 1]
        if start == end:
            continue  # empty sets join no component
        index = component_of[set_elements[start]]
        row = rows[index]
        row += local[start:end]
        starts[index].append(len(row))
        weights[index].append(set_weights[set_id])
        set_ids[index].append(set_id)

    return tuple(
        Component(
            instance=SetCoverInstance.from_arrays(
                len(members[index]),
                weights[index],
                starts[index],
                rows[index],
                payload=_payload_through(instance, set_ids[index]),
            ),
            element_ids=tuple(members[index]),
            set_ids=tuple(set_ids[index]),
        )
        for index in range(len(members))
    )


def _payload_through(instance: SetCoverInstance, set_ids: list[int]):
    """Component-local payloads, read from the decomposed instance."""
    return lambda local: instance.payload(set_ids[local])


#: Per-component stats that are maxima, not counts (see
#: :func:`solve_by_components`).
_MAX_STATS = frozenset({"frequency", "phi"})


def _solver_name(solver: Callable[[SetCoverInstance], Cover]) -> str:
    # The flat solvers are named ``flat_<reference name>``; the prefix is
    # stripped so decomposed covers carry the reference solver's name in
    # their ``algorithm`` label, e.g. ``by-components(modified_greedy_cover)``.
    name = getattr(solver, "__name__", "solver")
    return name[5:] if name.startswith("flat_") else name


def solve_by_components(
    instance: SetCoverInstance,
    solver: Callable[[SetCoverInstance], Cover],
    max_component_elements: int | None = None,
    fallback: Callable[[SetCoverInstance], Cover] | None = None,
) -> Cover:
    """Solve each connected component independently and merge the covers.

    ``max_component_elements`` + ``fallback`` support the practical
    "exact where feasible" policy: components larger than the limit are
    handed to the fallback approximation instead of the main solver.

    Components are independent subproblems, solved one after another and
    merged in component order, so the cover is deterministic.

    The merged ``stats`` carry the component counts plus the key-wise sum
    of every per-component solver stat (heap operations, layers, B&B
    nodes, ...), so decomposition no longer discards solver bookkeeping.
    The layer algorithm's ``frequency`` (its approximation factor ``f``)
    and ``phi`` (final price offset) are maxima, not counts: they merge
    with ``max``, so a decomposed run reports the factor that holds for
    the whole instance.
    """
    components = decompose(instance)
    oversized = 0
    selected: list[int] = []
    total_weight = 0.0
    iterations = 0
    merged_stats: dict[str, "int | float"] = {}
    for component in components:
        use = solver
        if (
            max_component_elements is not None
            and component.instance.n_elements > max_component_elements
        ):
            if fallback is None:
                raise ValueError(
                    f"component with {component.instance.n_elements} elements "
                    f"exceeds the limit {max_component_elements} and no "
                    "fallback solver was given"
                )
            use = fallback
            oversized += 1
        cover = use(component.instance)
        selected.extend(component.set_ids[i] for i in cover.selected)
        total_weight += cover.weight
        iterations += cover.iterations
        for key, value in cover.stats.items():
            # Int counts stay int (see repro.obs.stats for the schema);
            # any float contribution makes the sum float.
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue  # non-numeric solver stat: nothing sensible to merge
            if key in _MAX_STATS:
                merged_stats[key] = max(merged_stats.get(key, value), value)
            else:
                merged_stats[key] = merged_stats.get(key, 0) + value

    label = _solver_name(solver)
    if oversized:
        label = f"{label}, fallback={_solver_name(fallback)}"
    merged_stats["components"] = len(components)
    merged_stats["oversized_components"] = oversized
    return Cover(
        selected=tuple(selected),
        weight=total_weight,
        algorithm=f"by-components({label})",
        iterations=iterations,
        stats=merged_stats,
    )


def component_size_histogram(
    components: Sequence[Component],
) -> dict[int, int]:
    """``{component element count: how many components}`` for diagnostics."""
    histogram: dict[int, int] = {}
    for component in components:
        size = component.instance.n_elements
        histogram[size] = histogram.get(size, 0) + 1
    return dict(sorted(histogram.items()))
