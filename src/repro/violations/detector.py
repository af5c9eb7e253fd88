"""Enumerate violation sets ``I(D, ic)`` (Definition 2.4).

A *violation set* for a constraint ``ic`` is a minimal set of tuples that
simultaneously participate in a violation: ``I ⊭ ic`` and every proper
subset satisfies ``ic``.

The detector enumerates all satisfying assignments of the denial body with
a backtracking join: atoms are matched left to right, per-atom candidates
are pre-filtered with the built-ins already decidable on that atom, and
hash indexes on the join positions avoid quadratic scans (this is the
in-memory equivalent of the SQL views of Algorithm 2 - the sqlite backend
in :mod:`repro.storage.sqlite` runs the actual SQL instead).  The used
tuple sets of the assignments are then reduced to the *minimal* ones.

Every public entry point takes an ``engine`` argument naming an engine
chain (:func:`engine_chain`) that one walker (:func:`_walk`) runs:

* ``"interpreted"`` - the backtracking join above, always available;
* ``"kernel"`` - vectorized NumPy execution of the compiled plan; raises
  :class:`~repro.exceptions.KernelError` without NumPy or on data shapes
  with no vectorized form;
* ``"pushdown"`` - the Algorithm-2 SQL executed *inside* the storage
  backend (:mod:`repro.violations.pushdown`); needs a backend-resident
  instance and raises :class:`~repro.exceptions.PushdownError` otherwise
  or where SQL semantics would diverge from Python's on the data;
* ``"auto"`` (default) - the ladder pushdown > kernel > interpreted
  minus the engines that cannot run; a refusing engine hands the
  constraint to the next one.  An explicit engine runs alone.

All engines produce byte-identical results: each computes the same
satisfying-assignment witness sets.  The interpreted and pushdown engines
(and every anchored call) send them through the frozenset funnel of
minimality reduction and deterministic ordering
(:func:`_ordered_violation_sets`).  The kernel engine computes the same
result as arrays (:func:`_kernel_violations`) and returns it as a lazy
:class:`~repro.violations.columns.ViolationColumns` view, which builds a
:class:`ViolationSet` only when indexed; the funnel stays its test
oracle.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.constraints.denial import DenialConstraint
from repro.exceptions import ConfigError, InstanceError, KernelError, PushdownError
from repro.model.columnar import kernel_available, require_numpy
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple
from repro.obs import current_tracer
from repro.violations.columns import (
    Origin,
    ViolationColumns,
    ViolationSet,
    concat_violations,
    rank_rows,
)
from repro.violations.kernels import (
    ENGINES,
    KernelJoin,
    anchored_kernel_witnesses,
    kernel_witnesses,
    too_many_witnesses,
)
from repro.violations.pushdown import (
    pushdown_has_witness,
    pushdown_ready,
    pushdown_used_sets,
)


def _local_predicate(constraint: DenialConstraint, atom_index: int):
    """Predicate testing one atom's locally-decidable conditions on a tuple.

    A var/constant built-in applies when its variable occurs in this atom
    (join equality makes every occurrence carry the same value, so
    filtering any one occurrence is sound); repeated variables *within*
    the atom are intra-tuple equalities.
    """
    atom = constraint.relation_atoms[atom_index]
    local_builtins = [
        (builtin, positions)
        for builtin in constraint.builtins
        if (positions := atom.positions_of(builtin.variable))
    ]
    repeated = [
        positions
        for variable in set(atom.variables)
        if len(positions := atom.positions_of(variable)) > 1
    ]

    def passes(tup: Tuple) -> bool:
        if tup.relation.name != atom.relation_name:
            return False
        values = tup.values
        for builtin, positions in local_builtins:
            if not builtin.evaluate(values[positions[0]]):
                return False
        for positions in repeated:
            if len({values[p] for p in positions}) != 1:
                return False
        return True

    return passes


def _atom_candidates(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    atom_index: int,
    pool: Iterable[Tuple] | None = None,
) -> list[Tuple]:
    """Tuples of the atom's relation passing its locally-decidable built-ins.

    ``pool`` overrides the relation scan with an explicit candidate list
    (anchored detection).
    """
    if pool is None:
        atom = constraint.relation_atoms[atom_index]
        pool = instance.tuples(atom.relation_name)
    passes = _local_predicate(constraint, atom_index)
    return [tup for tup in pool if passes(tup)]


def _satisfying_assignments(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    restrict: dict[int, list[Tuple]] | None = None,
    raw_indexes: "Mapping[tuple[str, tuple[int, ...]], Mapping[tuple, Iterable[Tuple]]] | None" = None,
) -> Iterator[tuple[Tuple, ...]]:
    """Yield every assignment of tuples to atoms that witnesses a violation.

    ``restrict`` optionally replaces the candidate pool of specific atom
    positions (still filtered by that atom's built-ins); the incremental
    detector anchors one atom on the freshly changed tuples this way.

    ``raw_indexes`` optionally supplies persistent hash indexes keyed by
    ``(relation name, attribute positions)`` mapping join-key values to
    the relation's tuples (unfiltered).  When present, join lookups use
    them instead of scanning the relation to build throwaway indexes -
    with every atom either restricted or index-reachable, enumeration
    never touches the full instance (the incremental-repair fast path).

    Values a built-in cannot compare raise :class:`InstanceError`
    (:func:`_incomparable`), caught once per enumeration.
    """
    try:
        yield from _assignments(instance, constraint, restrict or {}, raw_indexes)
    except TypeError as error:
        raise _incomparable(instance, constraint, error) from error


def _assignments(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    restrict: dict[int, list[Tuple]],
    raw_indexes: Mapping | None,
) -> Iterator[tuple[Tuple, ...]]:
    """The backtracking join of :func:`_satisfying_assignments`."""
    constraint.validate(instance.schema)
    n_atoms = len(constraint.relation_atoms)
    predicates = [_local_predicate(constraint, i) for i in range(n_atoms)]

    candidate_cache: dict[int, list[Tuple]] = {}

    def candidates_for(atom_index: int) -> list[Tuple]:
        if atom_index not in candidate_cache:
            candidate_cache[atom_index] = _atom_candidates(
                instance, constraint, atom_index, restrict.get(atom_index)
            )
        return candidate_cache[atom_index]

    # Restricted pools are small; checking them early avoids any other work.
    for atom_index in restrict:
        if not candidates_for(atom_index):
            return

    # For each atom, positions whose variable was already bound by an
    # earlier atom (used to hash-join), and variable->position for new ones.
    bound_by_earlier: list[list[tuple[int, str]]] = []
    seen_variables: set[str] = set()
    for atom in constraint.relation_atoms:
        bound = [
            (position, variable)
            for position, variable in enumerate(atom.variables)
            if variable in seen_variables
        ]
        bound_by_earlier.append(bound)
        seen_variables.update(atom.variables)

    # Variable/variable comparisons become checkable at the atom where the
    # later of their two variables first appears.
    first_atom_of_variable: dict[str, int] = {}
    for atom_index, atom in enumerate(constraint.relation_atoms):
        for variable in atom.variables:
            first_atom_of_variable.setdefault(variable, atom_index)
    comparisons_at: list[list[Any]] = [[] for _ in range(n_atoms)]
    for comparison in constraint.variable_comparisons:
        ready = max(
            first_atom_of_variable[comparison.left],
            first_atom_of_variable[comparison.right],
        )
        comparisons_at[ready].append(comparison)

    # Hash indexes, built lazily per (atom_index, join-positions signature).
    index_cache: dict[tuple[int, tuple[int, ...]], dict[tuple, list[Tuple]]] = {}

    def index_for(
        atom_index: int, positions: tuple[int, ...]
    ) -> dict[tuple, list[Tuple]]:
        cache_key = (atom_index, positions)
        index = index_cache.get(cache_key)
        if index is None:
            index = {}
            for tup in candidates_for(atom_index):
                key = tuple(tup.values[p] for p in positions)
                index.setdefault(key, []).append(tup)
            index_cache[cache_key] = index
        return index

    def matches_for(
        atom_index: int, positions: tuple[int, ...], key: tuple
    ) -> Iterable[Tuple]:
        if raw_indexes is not None and atom_index not in restrict:
            atom = constraint.relation_atoms[atom_index]
            raw = raw_indexes.get((atom.relation_name, positions))
            if raw is not None:
                passes = predicates[atom_index]
                return [t for t in raw.get(key, ()) if passes(t)]
        return index_for(atom_index, positions).get(key, ())

    bindings: dict[str, Any] = {}
    assignment: list[Tuple] = []

    def extend(atom_index: int) -> Iterator[tuple[Tuple, ...]]:
        if atom_index == n_atoms:
            yield tuple(assignment)
            return
        atom = constraint.relation_atoms[atom_index]
        bound = bound_by_earlier[atom_index]
        if bound:
            positions = tuple(p for p, _ in bound)
            key = tuple(bindings[v] for _, v in bound)
            matches = matches_for(atom_index, positions, key)
        else:
            matches = candidates_for(atom_index)
        for tup in matches:
            new_variables: list[str] = []
            ok = True
            for position, variable in enumerate(atom.variables):
                value = tup.values[position]
                if variable in bindings:
                    if bindings[variable] != value:
                        ok = False
                        break
                else:
                    bindings[variable] = value
                    new_variables.append(variable)
            if ok:
                for comparison in comparisons_at[atom_index]:
                    if not comparison.evaluate(
                        bindings[comparison.left], bindings[comparison.right]
                    ):
                        ok = False
                        break
            if ok:
                assignment.append(tup)
                yield from extend(atom_index + 1)
                assignment.pop()
            for variable in new_variables:
                del bindings[variable]

    yield from extend(0)


def _incomparable(
    instance: DatabaseInstance, constraint: DenialConstraint, error: TypeError
) -> InstanceError:
    """The structured form of a built-in's ``TypeError``.

    Runs once, after an enumeration failed, and replays the built-ins
    value by value; the types it prints are the replayed ``TypeError``'s
    own.  A constant built-in ``x θ c`` blames the first value that does
    not compare with ``c``.  An order or offset comparison ``x θ y + c``
    blames the first value of a column that mixes types (one that does
    not compare with the column's most common type), or, when every
    column is uniform, names the two columns it cannot compare.
    """

    def columns(variable: str) -> Iterator[tuple[str, list[Any]]]:
        for atom in constraint.relation_atoms:
            relation = instance.schema.relation(atom.relation_name)
            for position in atom.positions_of(variable):
                name = f"{relation.name}.{relation.attributes[position].name}"
                yield name, [t.values[position] for t in instance.tuples(relation.name)]

    def replays() -> Iterator[tuple[str, Callable[..., Any], tuple]]:
        for builtin in constraint.builtins:
            for column, values in columns(builtin.variable):
                for value in values:
                    yield f"{column} holds {value!r}", builtin.evaluate, (value,)
        for comparison in constraint.variable_comparisons:
            if not (comparison.is_order or comparison.offset):
                continue
            sides = (list(columns(comparison.left)), list(columns(comparison.right)))
            for column, values in sides[0] + sides[1]:
                types = [type(value) for value in values]
                common = max(dict.fromkeys(types), key=types.count, default=None)
                for value in values:
                    if type(value) is not common:
                        reference = values[types.index(common)]
                        yield f"{column} holds {value!r}", operator.lt, (value, reference)
            for left, left_values in sides[0]:
                for right, right_values in sides[1]:
                    if left_values and right_values:
                        culprit = f"{left} and {right} do not compare by {comparison}"
                        yield culprit, comparison.evaluate, (left_values[0], right_values[0])

    for culprit, replay, args in replays():
        try:
            replay(*args)
        except TypeError as replayed:
            return InstanceError(f"{constraint.label}: {culprit}: {replayed}")
    return InstanceError(f"{constraint.label}: cannot evaluate the body: {error}")


def _minimal_sets(used_sets: set[frozenset[Tuple]]) -> list[frozenset[Tuple]]:
    """Keep only sets with no proper subset among ``used_sets``.

    A set ``I`` violates the constraint iff some used-set is contained in
    it, so minimality (Definition 2.4) is exactly "no proper subset is a
    used-set".  Candidate sets have at most as many tuples as the denial
    has atoms (2-4 in practice), so the powerset walk is constant work —
    but it runs once per witness of the constraint, so the constants
    matter on hot detection loops.  Two pre-passes cut the allocation
    churn:

    * singleton used-sets are collapsed into one plain membership set, so
      the overwhelmingly common "a 1-tuple witness kills the pair" case
      is an intersection test instead of a frozenset build per mask;
    * only subset sizes that actually occur among ``used_sets`` are
      enumerated (a mask whose popcount matches no witness size cannot
      hit), which skips the whole powerset walk for uniform-size witness
      populations — the usual shape, since every witness of one denial
      has one tuple per atom unless self-joins collapse.

    Micro-benchmark (Client/Buy, 50k clients / ~150k tuples, ~31k
    witnesses): the isolated ``_minimal_sets`` pass drops from ~65ms to
    ~31ms (~2.1x), shrinking its share of the ~1.0s detection run from
    ~6.5% to ~3%.  At 2000 clients the isolated ratio is ~2.5x.
    """
    if not used_sets:
        return []
    sizes_present = {len(used) for used in used_sets}
    if len(sizes_present) == 1:
        # Uniform-size witnesses (the usual shape: one tuple per atom, no
        # self-join collapse): a proper subset would be a strictly smaller
        # witness, and none exists.  Skip the per-set checks entirely.
        return list(used_sets)
    singleton_members: set[Tuple] = (
        {member for used in used_sets if len(used) == 1 for member in used}
        if 1 in sizes_present
        else set()
    )
    proper_sizes = sizes_present - {1}
    minimal: list[frozenset[Tuple]] = []
    for used in used_sets:
        if len(used) > 1:
            if singleton_members and not singleton_members.isdisjoint(used):
                continue
            if _has_proper_subset(used, used_sets, proper_sizes):
                continue
        minimal.append(used)
    return minimal


def _has_proper_subset(
    candidate: frozenset[Tuple],
    used_sets: set[frozenset[Tuple]],
    sizes_present: set[int] | None = None,
) -> bool:
    """True when some proper, non-singleton subset of ``candidate`` is used.

    ``sizes_present`` restricts the enumeration to subset sizes that occur
    in ``used_sets`` (singletons are pre-checked by the caller via plain
    membership; passing ``None`` enumerates every proper subset).
    """
    members = tuple(candidate)
    n = len(members)
    if sizes_present is not None and not any(1 < k < n for k in sizes_present):
        return False
    for mask in range(1, (1 << n) - 1):
        if sizes_present is not None:
            size = mask.bit_count()
            if size not in sizes_present or size == 1:
                continue
        subset = frozenset(
            members[i] for i in range(n) if mask & (1 << i)
        )
        if subset in used_sets:
            return True
    return False


def _ordered_violation_sets(
    used_sets: set[frozenset[Tuple]], constraint: DenialConstraint
) -> tuple[ViolationSet, ...]:
    """Minimality reduction + the deterministic output order.

    The interpreted and pushdown engines funnel their witness sets through
    here; the kernel's array form (:func:`_kernel_violations`) must give
    the same sets in the same order, which is what makes the engines'
    results byte-identical.

    The canonical order is by the sorted list of member ``sort_key``\\ s.
    The hot path compares :attr:`TupleRef.flat_sort_key` instead - a flat
    string with the identical order - so the sort runs on C string
    comparisons rather than nested-tuple walks; key tuples of different
    lengths follow the same prefix rule as the key lists they replace, and
    the trailing index is never compared because distinct sets have
    distinct key tuples.  Any ref without a flat form (NUL in a rendered
    key value) falls back to comparing ``sort_key`` directly.
    """
    minimal = _minimal_sets(used_sets)
    keyed: list[tuple[tuple[str, ...], int]] = []
    flat_ok = True
    for index, used in enumerate(minimal):
        keys = []
        for tup in used:
            flat = tup.ref.flat_sort_key
            if flat is None:
                flat_ok = False
                break
            keys.append(flat)
        if not flat_ok:
            break
        keys.sort()
        keyed.append((tuple(keys), index))
    if flat_ok:
        keyed.sort()
        ordered = [minimal[index] for _, index in keyed]
    else:
        ordered = sorted(minimal, key=lambda s: sorted(t.ref.sort_key for t in s))
    return tuple(ViolationSet(s, constraint) for s in ordered)


def _kernel_violations(join: KernelJoin, constraint: DenialConstraint) -> ViolationColumns:
    """``I(D, ic)`` straight from a kernel join, as a :class:`ViolationColumns`.

    The array form of :func:`_ordered_violation_sets`, with the same
    result:

    * the involved rows of each relation are ranked once in canonical ref
      order (:meth:`~repro.model.columnar.ColumnarRelation.ref_order`),
      relations in name order, so a witness becomes a row of ranks;
    * each row is sorted and deduplicated (self-joins can bind one tuple
      twice), padding with ``-1`` on the right - the ``-1`` sorts before
      every rank, which is the prefix rule of comparing sorted key lists;
    * one ``lexsort`` orders the rows, and adjacent duplicates are
      dropped;
    * minimality (:func:`_minimal_sets`) runs only when rows differ in
      size, which needs a relation bound by two atoms.
    """
    np = require_numpy()
    if join.size == 0:
        return ViolationColumns((), np.empty((0, 0), dtype=np.int64), (constraint,), (0, 0))
    segments: dict[str, tuple[Any, list[Any]]] = {}
    for snapshot, rows in zip(join.snapshots, join.rows):
        segments.setdefault(snapshot.relation_name, (snapshot, []))[1].append(rows)
    tuples, ranked, rank_of_row = rank_rows(segments)
    origin: Origin | None = ranked
    matrix = np.stack(
        [
            rank_of_row[snapshot.relation_name][rows]
            for snapshot, rows in zip(join.snapshots, join.rows)
        ],
        axis=1,
    )
    matrix.sort(axis=1)
    self_join = len(segments) < len(join.snapshots)
    if self_join:
        repeated = matrix[:, 1:] == matrix[:, :-1]
        if repeated.any():
            matrix[:, 1:][repeated] = len(tuples)
            matrix.sort(axis=1)
            matrix[matrix == len(tuples)] = -1
    matrix = matrix[np.lexsort(matrix.T[::-1])]
    distinct = np.ones(len(matrix), dtype=bool)
    distinct[1:] = (matrix[1:] != matrix[:-1]).any(axis=1)
    matrix = matrix[distinct]
    if self_join:
        sizes = (matrix >= 0).sum(axis=1)
        if sizes.min() != sizes.max():
            rows = [
                frozenset(row[:size])
                for row, size in zip(matrix.tolist(), sizes.tolist())
            ]
            minimal = set(_minimal_sets(set(rows)))
            matrix = matrix[np.array([row in minimal for row in rows], dtype=bool)]
            kept = np.zeros(len(tuples), dtype=bool)
            kept[matrix[matrix >= 0]] = True
            if not kept.all():
                # Drop the members only non-minimal witnesses had; the
                # view then merges by tuple ref, not by snapshot row.
                remap = np.full(len(tuples) + 1, -1, dtype=np.int64)
                remap[kept] = np.arange(int(kept.sum()))
                matrix = remap[matrix]
                tuples = [tup for tup, keep in zip(tuples, kept.tolist()) if keep]
                origin = None
    return ViolationColumns(
        tuples, matrix, (constraint,), (0, len(matrix)), origin
    )


#: The ``auto`` ladder, fastest engine first.
AUTO_CHAIN = ("pushdown", "kernel", "interpreted")


def engine_chain(
    engine: str = "auto",
    *,
    pushdown: bool = True,
    kernel: bool | None = None,
) -> tuple[str, ...]:
    """The engines one detection call tries, most preferred first.

    An explicit engine is a one-entry chain.  ``auto`` is
    :data:`AUTO_CHAIN` with pushdown only when ``pushdown`` is true (a
    backend-resident instance) and the kernel only when ``kernel`` is
    true (default: NumPy importable); ``interpreted`` takes any data.
    An unknown name raises :class:`~repro.exceptions.ConfigError`.
    """
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown detection engine {engine!r}; "
            f"choose from {'|'.join(ENGINES)}"
        )
    if engine != "auto":
        return (engine,)
    if kernel is None:
        kernel = kernel_available()
    return tuple(
        name for name, ok in zip(AUTO_CHAIN, (pushdown, kernel, True)) if ok
    )


def _full_chain(engine: str, instance: DatabaseInstance | None) -> tuple[str, ...]:
    """The chain of a whole-instance query: pushdown needs residency."""
    resident = engine == "auto" and instance is not None and pushdown_ready(instance)
    return engine_chain(engine, pushdown=resident)


def resolve_engine(engine: str, instance: DatabaseInstance | None = None) -> str:
    """The first engine a whole-instance detection call with ``engine``
    tries (pushdown only for a backend-resident ``instance``).  An
    explicit ``kernel`` request without NumPy raises :class:`KernelError`
    (NumPy is the optional ``repro[kernel]`` extra).
    """
    head = _full_chain(engine, instance)[0]
    if head == "kernel":
        require_numpy()  # raises KernelError with the install hint
    return head


def _walk(
    chain: Sequence[str],
    run: Callable[..., Any],
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    *args: Any,
) -> Any:
    """The one detection dispatch: ``run(engine, instance, constraint,
    *args)`` down ``chain``.  A refusal (:class:`KernelError` /
    :class:`PushdownError`) moves on to the next engine and bumps
    ``engine_downgrades{constraint, engine}``; the last one propagates.
    """
    for engine in chain[:-1]:
        try:
            return run(engine, instance, constraint, *args)
        except (KernelError, PushdownError):
            current_tracer().metrics.counter(
                "engine_downgrades", constraint=constraint.label, engine=engine
            ).inc()
    return run(chain[-1], instance, constraint, *args)


def _detect(
    chain: Sequence[str],
    run: Callable[..., Any],
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    *args: Any,
    **tags: Any,
) -> Sequence[ViolationSet]:
    """:func:`_walk` in a ``detect:<label>`` span (``tags`` plus the
    violation count) that bumps ``violations_found`` when tracing."""
    tracer = current_tracer()
    if not tracer.enabled:
        return _walk(chain, run, instance, constraint, *args)
    with tracer.span(
        f"detect:{constraint.label}", category="detect", **tags
    ) as span:
        violations = _walk(chain, run, instance, constraint, *args)
        span.tag(violations=len(violations))
        tracer.metrics.counter(
            "violations_found", constraint=constraint.label
        ).inc(len(violations))
        return violations


def _violations_by(
    engine: str,
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    max_violations: int | None,
) -> Sequence[ViolationSet]:
    """``I(D, ic)`` computed by one engine."""
    if engine == "pushdown":
        used_sets = pushdown_used_sets(instance, constraint, max_violations)
        return _ordered_violation_sets(used_sets, constraint)
    if engine == "kernel":
        join = kernel_witnesses(instance, constraint, max_violations=max_violations)
        return _kernel_violations(join, constraint)
    used_sets = set()
    for count, assignment in enumerate(
        _satisfying_assignments(instance, constraint), start=1
    ):
        if max_violations is not None and count > max_violations:
            raise too_many_witnesses(constraint, max_violations)
        used_sets.add(frozenset(assignment))
    return _ordered_violation_sets(used_sets, constraint)


def find_violations(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    max_violations: int | None = None,
    engine: str = "auto",
) -> Sequence[ViolationSet]:
    """Compute ``I(D, ic)``: all minimal violation sets of one constraint.

    ``max_violations`` bounds the number of satisfying assignments explored
    (a safety valve against accidentally cartesian constraints); exceeding
    it raises :class:`ConstraintError`.  ``engine`` names the engine
    chain (see the module docstring).

    Under an active tracer each call records a ``detect:<label>`` span
    tagged with the chain's first engine and the violation count, and
    bumps the ``violations_found{constraint=<label>}`` counter.
    """
    return find_all_violations(instance, (constraint,), max_violations, engine)


def find_all_violations(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    max_violations: int | None = None,
    engine: str = "auto",
) -> Sequence[ViolationSet]:
    """Compute ``I(D, IC)`` across all constraints, in constraint order.

    ``max_violations`` and ``engine`` apply per constraint (see
    :func:`find_violations`); results concatenate in constraint order.
    """
    chain = _full_chain(engine, instance)
    return concat_violations(
        [
            _detect(
                chain, _violations_by, instance, constraint, max_violations,
                engine=chain[0],
            )
            for constraint in constraints
        ]
    )


def violations_of_tuple(
    violations: Iterable[ViolationSet], tup: Tuple
) -> tuple[ViolationSet, ...]:
    """Filter ``I(D, IC)`` down to ``I(D, ic, t)`` for every ic: sets containing ``t``."""
    return tuple(v for v in violations if tup in v)


def _anchored_first(constraint: DenialConstraint, atom_index: int) -> DenialConstraint:
    """The same denial with one atom moved to the front.

    Violation witnesses are order-independent (the used tuple *set* is
    what matters), but putting the anchored atom first lets the join start
    from the small changed set and reach the rest through hash lookups.
    """
    if atom_index == 0:
        return constraint
    atoms = list(constraint.relation_atoms)
    atoms.insert(0, atoms.pop(atom_index))
    return DenialConstraint(
        atoms,
        constraint.builtins,
        constraint.variable_comparisons,
        name=constraint.name,
    )


def _anchored_chain(engine: str, raw_indexes: Mapping | None) -> tuple[str, ...]:
    """The chain of an anchored (Δ-proportional) query.

    A pushdown query would re-scan the whole backend, so anchored calls
    never push down: an explicit ``pushdown`` runs the ``auto`` chain.
    The kernel rebuilds whole-relation snapshots per call, while
    ``raw_indexes`` (read only by the interpreted engine) keep the work
    proportional to the change set, so with them ``auto`` is interpreted
    alone.  ``engine="kernel"`` forces the kernel anyway.
    """
    if engine == "pushdown":
        engine = "auto"
    return engine_chain(
        engine, pushdown=False, kernel=None if raw_indexes is None else False
    )


def _anchored_violations_by(
    engine: str,
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    anchors: Sequence[Tuple],
    raw_indexes: Mapping | None,
) -> tuple[ViolationSet, ...]:
    """One constraint's anchored violation sets, computed by one engine.

    The interpreted engine rotates each atom to the front in turn,
    restricted to the anchors of its relation, and collects the used
    tuple set of every satisfying assignment.
    """
    if engine == "kernel":
        used_sets = anchored_kernel_witnesses(instance, constraint, anchors)
    else:
        used_sets = set()
        for atom_index, atom in enumerate(constraint.relation_atoms):
            relevant = [t for t in anchors if t.relation.name == atom.relation_name]
            if relevant:
                used_sets.update(
                    frozenset(assignment)
                    for assignment in _satisfying_assignments(
                        instance,
                        _anchored_first(constraint, atom_index),
                        restrict={0: relevant},
                        raw_indexes=raw_indexes,
                    )
                )
    return _ordered_violation_sets(used_sets, constraint)


def find_violations_involving(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    anchors: Iterable[Tuple],
    raw_indexes: Mapping | None = None,
    engine: str = "auto",
) -> Sequence[ViolationSet]:
    """Violation sets that involve at least one of the ``anchors``.

    Used for *incremental* repair: when a consistent database receives a
    batch of inserts/updates, every new violation must involve a changed
    tuple (old tuples alone were consistent), so detection anchors one
    atom at a time on the changed set instead of re-joining the whole
    database.  The anchored atom is moved to the front of the join order;
    with ``raw_indexes`` (see :class:`repro.violations.indexes.JoinIndexCache`)
    the remaining atoms are reached by hash lookups and the full instance
    is never scanned.  See :func:`_anchored_chain` for the engines tried.

    Output is in constraint order, then the deterministic
    within-constraint order.

    Minimality is computed within the returned candidates, which is exact
    under the stated precondition (the instance minus the anchors is
    consistent); with an inconsistent base instance the result still lists
    violating sets but may include sets whose minimal core avoids the
    anchors.
    """
    anchor_list = list(anchors)
    chain = _anchored_chain(engine, raw_indexes)
    return concat_violations(
        [
            _detect(
                chain, _anchored_violations_by, instance, constraint,
                anchor_list, raw_indexes, anchors=len(anchor_list),
            )
            for constraint in constraints
        ]
    )


def _has_witness_by(
    engine: str, instance: DatabaseInstance, constraint: DenialConstraint
) -> bool:
    """Whether one engine finds any violation of ``constraint``."""
    if engine == "pushdown":
        return pushdown_has_witness(instance, constraint)
    if engine == "kernel":
        return kernel_witnesses(instance, constraint).size > 0
    return any(True for _ in _satisfying_assignments(instance, constraint))


def is_consistent(
    instance: DatabaseInstance,
    constraints: Iterable[DenialConstraint],
    engine: str = "auto",
) -> bool:
    """True when ``D |= IC`` (no satisfying assignment for any denial body).

    The pushdown engine answers this with a ``LIMIT 1`` probe per
    constraint - the backend stops at the first witness row, so a
    consistent backend-resident database is verified without
    materializing anything in Python.
    """
    chain = _full_chain(engine, instance)
    return not any(
        _walk(chain, _has_witness_by, instance, constraint)
        for constraint in constraints
    )
