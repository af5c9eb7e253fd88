"""SQL pushdown detection: run Algorithm 2 inside the storage backend.

The interpreted and kernel engines both materialize the instance in
Python memory (tuple objects, columnar NumPy snapshots) before joining.
The *pushdown* engine instead executes the compiled violation SQL of
:func:`repro.constraints.sql.violation_query` directly inside a SQL
backend (sqlite, DuckDB) and only materializes the witness rows - the
paper's Algorithm 2 taken literally: the DBMS evaluates the view, the
repair system reads back the violating key tuples.  Detection cost then
scales with the number of *witnesses*, not with a Python-side O(|D|)
snapshot build.

Pushdown needs a **backend-resident** instance: one returned by a SQL
backend's ``load_instance`` and unmodified since.  The backend *binds*
itself to the instance it loads (:func:`bind_backend`): the binding
captures a weak backend reference, the instance's per-relation data
versions, and the backend's write generation.  :func:`bound_backend`
re-validates all three, so a mutation on either side silently severs the
binding - ``engine="auto"`` then falls back to the in-memory engines,
``engine="pushdown"`` raises :class:`~repro.exceptions.PushdownError`.

Faithfulness: SQL comparison semantics diverge from Python's exactly
where the kernel's do (order comparisons and offset arithmetic over
non-integer data) plus on NULLs (which never join in SQL but compare
equal as Python ``None``).  The backends therefore refuse, per
constraint, data shapes they cannot execute faithfully - the runtime
analogue of :func:`pushdown_requirements` - and every witness set still
funnels through the detector's shared minimality+ordering funnel, so
pushdown results are byte-identical to the other engines.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.exceptions import PushdownError
from repro.model.instance import DatabaseInstance

if TYPE_CHECKING:
    from repro.constraints.denial import DenialConstraint
    from repro.model.schema import Schema
    from repro.model.tuples import Tuple

#: Attribute slot on :class:`DatabaseInstance` holding the binding.  The
#: instance's ``__getstate__`` drops it, so bindings never travel through
#: pickle (a live DB connection would not survive the trip anyway).
BINDING_ATTR = "_pushdown_binding"


@dataclass
class PushdownBinding:
    """The liveness contract between a loaded instance and its backend.

    ``versions`` snapshots the instance's per-relation data versions at
    load time and ``generation`` the backend's write counter; either side
    mutating invalidates the binding.  ``cache`` memoizes the backend's
    per-column executability scans (typeof / NULL checks) for the
    binding's lifetime - exactly as long as both sides are unchanged.
    """

    backend_ref: "weakref.ReferenceType[Any]"
    versions: dict[str, int]
    generation: int
    cache: dict[Any, bool] = field(default_factory=dict)


def bind_backend(instance: DatabaseInstance, backend: Any) -> None:
    """Bind a freshly loaded instance to the backend it came from."""
    binding = PushdownBinding(
        backend_ref=weakref.ref(backend),
        versions={
            relation.name: instance.data_version(relation.name)
            for relation in instance.schema
        },
        generation=getattr(backend, "generation", 0),
    )
    setattr(instance, BINDING_ATTR, binding)


def unbind_backend(instance: DatabaseInstance) -> None:
    """Sever an instance's backend binding (idempotent)."""
    instance.__dict__.pop(BINDING_ATTR, None)


def _live_binding(instance: DatabaseInstance) -> PushdownBinding | None:
    binding = getattr(instance, BINDING_ATTR, None)
    if binding is None:
        return None
    backend = binding.backend_ref()
    if backend is None or not hasattr(backend, "pushdown_witnesses"):
        return None
    if getattr(backend, "generation", 0) != binding.generation:
        return None
    for name, version in binding.versions.items():
        if instance.data_version(name) != version:
            return None
    return binding


def bound_backend(instance: DatabaseInstance) -> Any | None:
    """The live, unmodified backend bound to ``instance``, or ``None``.

    Returns ``None`` when the instance was never loaded from a SQL
    backend, the backend was garbage-collected, either side was mutated
    since the load, or the backend lacks the pushdown API.
    """
    binding = _live_binding(instance)
    return None if binding is None else binding.backend_ref()


def pushdown_ready(instance: DatabaseInstance) -> bool:
    """True when ``engine="pushdown"`` can serve this instance."""
    return _live_binding(instance) is not None


def _require_binding(instance: DatabaseInstance) -> PushdownBinding:
    binding = _live_binding(instance)
    if binding is None:
        raise PushdownError(
            "instance is not backend-resident: pushdown detection executes "
            "the violation SQL inside a storage backend, so the instance "
            "must come from a SQL backend's load_instance() and stay "
            "unmodified since (engine='auto' falls back automatically)"
        )
    return binding


def pushdown_used_sets(
    instance: DatabaseInstance,
    constraint: "DenialConstraint",
    max_violations: int | None = None,
) -> "set[frozenset[Tuple]]":
    """Witness tuple sets of one constraint, computed inside the backend.

    Raises :class:`PushdownError` when the instance is not backend-
    resident or the constraint is not faithfully executable on the
    resident data; :class:`~repro.exceptions.ConstraintError` when the
    ``max_violations`` safety valve trips (same contract as the other
    engines).  The caller funnels the returned sets through the shared
    minimality+ordering reduction.
    """
    binding = _require_binding(instance)
    backend = binding.backend_ref()
    return backend.pushdown_witnesses(
        instance, constraint, max_violations=max_violations, cache=binding.cache
    )


def pushdown_has_witness(
    instance: DatabaseInstance, constraint: "DenialConstraint"
) -> bool:
    """``LIMIT 1`` consistency probe: does any violation witness exist?"""
    binding = _require_binding(instance)
    backend = binding.backend_ref()
    return backend.pushdown_has_witness(
        instance, constraint, cache=binding.cache
    )


def prescan_columns(instance: DatabaseInstance) -> dict[Any, bool]:
    """Per-column executability verdicts, computed from the loaded image.

    Returns ``{("int"|"null", relation, attribute): clean}`` entries for
    every column: ``"int"`` means all values have type exactly ``int``,
    ``"null"`` means the column is NULL-free.  Both verdicts come from one
    set of value types per column, collected at C speed - the same column
    scan the bulk loader of ``DatabaseInstance.from_rows`` validates with.
    A backend that just loaded the instance can seed the binding's cache
    with these instead of issuing per-column SQL scans at detection time -
    the binding's version checks guarantee the in-memory image still
    mirrors the stored tables, so the verdicts are interchangeable.
    """
    cache: dict[Any, bool] = {}
    for relation in instance.schema:
        rows = [t.values for t in instance.tuples(relation.name)]
        for index, attribute in enumerate(relation.attributes):
            kinds = set(map(type, map(itemgetter(index), rows)))
            # "int" wants type exactly int: a bool (an int subclass) fails.
            cache[("int", relation.name, attribute.name)] = kinds <= {int}
            cache[("null", relation.name, attribute.name)] = (
                type(None) not in kinds
            )
    return cache


def pushdown_requirements(
    constraint: "DenialConstraint",
) -> frozenset[tuple[int, int]]:
    """``(atom_index, position)`` slots needing all-integer columns.

    Identical to :func:`repro.violations.kernels.kernel_requirements` by
    design: SQL engines diverge from Python comparison semantics at
    exactly the slots the kernel cannot vectorize - order comparisons
    (sqlite orders across type classes where Python raises ``TypeError``)
    and offset arithmetic (SQL coerces text operands of ``+`` to 0).
    Equality/``≠`` filters and equality joins are type-strict in both
    worlds and impose nothing; NULL divergence is handled separately by
    the backends' runtime NULL scans over :func:`referenced_columns`.
    """
    from repro.violations.kernels import kernel_requirements

    return kernel_requirements(constraint)


def slot_columns(
    constraint: "DenialConstraint",
    schema: "Schema",
    slots: Iterable[tuple[int, int]],
) -> frozenset[tuple[str, str]]:
    """Map plan slots ``(atom_index, position)`` to ``(relation, attribute)``."""
    pairs: set[tuple[str, str]] = set()
    for atom_index, position in slots:
        atom = constraint.relation_atoms[atom_index]
        relation = schema.relation(atom.relation_name)
        pairs.add((relation.name, relation.attributes[position].name))
    return frozenset(pairs)


def referenced_columns(
    constraint: "DenialConstraint", schema: "Schema"
) -> frozenset[tuple[str, str]]:
    """``(relation, attribute)`` pairs the violation SQL compares.

    These are the columns where a NULL makes SQL and Python disagree
    (``NULL = NULL`` is not true in SQL; ``None == None`` is in Python),
    so the backends scan them for NULLs before trusting a pushdown run.
    Columns bound to variables that are never joined or compared are
    projection-only and impose nothing.
    """
    pairs: set[tuple[str, str]] = set()
    for variable in constraint.variables:
        occurrences = constraint.occurrences(variable)
        used = (
            len(occurrences) > 1
            or any(b.variable == variable for b in constraint.builtins)
            or any(
                variable in (c.left, c.right)
                for c in constraint.variable_comparisons
            )
        )
        if used:
            pairs |= slot_columns(constraint, schema, occurrences)
    return frozenset(pairs)


def comparable_column_groups(
    constraint: "DenialConstraint", schema: "Schema"
) -> tuple[frozenset[tuple[str, str]], ...]:
    """Column groups that the violation SQL compares *to each other*.

    One group per join variable (all its occurrence columns) and one per
    equality/``≠`` variable comparison without offset (both variables'
    columns).  Strictly-typed backends (DuckDB) require each group to
    live in one type class: comparing a VARCHAR column to a BIGINT one
    casts and raises where Python would just answer ``False``.
    """
    groups: list[frozenset[tuple[str, str]]] = []
    for variable in constraint.variables:
        occurrences = constraint.occurrences(variable)
        if len(occurrences) > 1:
            groups.append(slot_columns(constraint, schema, occurrences))
    for comparison in constraint.variable_comparisons:
        if not comparison.is_order and comparison.offset == 0:
            slots = [
                constraint.occurrences(comparison.left)[0],
                constraint.occurrences(comparison.right)[0],
            ]
            groups.append(slot_columns(constraint, schema, slots))
    return tuple(groups)
