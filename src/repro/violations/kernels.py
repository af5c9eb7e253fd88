"""Columnar detection kernels: vectorized violation-witness retrieval.

The interpreted detector walks a denial's join tree tuple-by-tuple through
Python closures; these kernels execute the *compiled* plan
(:func:`repro.constraints.plan.compile_plan`) over the columnar snapshots
of :mod:`repro.model.columnar` instead:

* local built-ins and intra-atom equalities become **vectorized masks**
  over int64 (or object) column arrays;
* equality joins run as **array sort joins** (argsort + searchsorted +
  range expansion) over factorized key codes;
* cross-atom order comparisons ``x θ y + c`` use **sorted interval
  lookups**: the new atom's column is sorted once and every bound value
  selects a contiguous prefix/suffix of it - no candidate-list scan;
* atoms are joined in the **selectivity-driven order** of
  :func:`repro.constraints.plan.order_atoms`, measured on the actual
  post-filter candidate counts.

The kernels return the final join state (:class:`KernelJoin`: per atom
its snapshot and row array) holding exactly the assignments the
interpreted enumeration yields.  No tuple set is built here: the
detector ranks the rows and sorts the witnesses as arrays
(:func:`repro.violations.detector._kernel_violations`), which gives the
``I(D, ic)`` of the interpreted frozenset path, byte for byte.

Data shapes without a vectorized form (an order comparison over a column
holding non-integers, an offset over non-numeric data) raise
:class:`~repro.exceptions.KernelError`; the detector's ``auto`` engine
catches it and falls back to the interpreted path per constraint.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Sequence

from repro.constraints.atoms import Comparator
from repro.constraints.denial import DenialConstraint
from repro.constraints.plan import (
    ConstraintPlan,
    ResolvedComparison,
    compile_plan,
    order_atoms,
)
from repro.exceptions import ConstraintError, KernelError
from repro.model.columnar import ColumnarRelation, require_numpy, store_for
from repro.model.instance import DatabaseInstance
from repro.model.tuples import Tuple

ENGINES = ("auto", "kernel", "interpreted", "pushdown")

#: Largest single-key code the mixed-radix combiner lets through before
#: re-factorizing (keeps multi-column join keys inside int64).
_RADIX_LIMIT = 1 << 31


def kernel_requirements(
    constraint: DenialConstraint,
) -> frozenset[tuple[int, int]]:
    """``(atom_index, position)`` slots that must hold all-integer columns.

    The static form of this module's :class:`KernelError` raise sites:
    the compiled plan executes unconditionally on the kernel engine
    exactly when every returned slot's column is all-integer at runtime.
    Slots are required by

    * **order local filters** (``x θ c`` with an order comparator) - the
      vectorized mask needs a numeric column (``_candidate_rows``);
    * **order variable comparisons and offset forms** (``x θ y + c``
      with an order comparator or ``c ≠ 0``) - interval joins, offset
      shifts and order residuals need int64 on both sides (``_shift``,
      ``_interval_join``, ``_compare_arrays``); every slot of both
      variables is required because the side gathered first depends on
      the runtime join order.

    Equality/``≠`` filters, intra-atom equalities and equality joins run
    on object columns and impose nothing.  Used by
    :mod:`repro.lint.compilability` to classify constraints statically.
    """
    plan = compile_plan(constraint)
    required: set[tuple[int, int]] = set()
    for atom_plan in plan.atoms:
        for filt in atom_plan.filters:
            if filt.comparator not in (Comparator.EQ, Comparator.NE):
                required.add((atom_plan.atom_index, filt.position))
    for comparison in plan.comparisons:
        if comparison.is_order or comparison.offset != 0:
            for variable in (comparison.left, comparison.right):
                required.update(plan.var_slots[variable])
    return frozenset(required)


# ---------------------------------------------------------------------------
# candidate masks


def _compare_const(np, column, comparator: Comparator, constant: int):
    if comparator is Comparator.EQ:
        return column == constant
    if comparator is Comparator.NE:
        return column != constant
    if comparator is Comparator.LT:
        return column < constant
    if comparator is Comparator.GT:
        return column > constant
    if comparator is Comparator.LE:
        return column <= constant
    return column >= constant


def _candidate_rows(snapshot: ColumnarRelation, atom_plan):
    """Row indices of one atom's relation passing its local conditions."""
    np = require_numpy()
    n = len(snapshot)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    for filt in atom_plan.filters:
        numeric = snapshot.numeric(filt.position)
        if numeric is not None:
            mask &= _compare_const(np, numeric, filt.comparator, filt.constant)
        elif filt.comparator in (Comparator.EQ, Comparator.NE):
            column = snapshot.column(filt.position)
            mask &= _compare_const(
                np, column, filt.comparator, filt.constant
            ).astype(bool)
        else:
            raise KernelError(
                f"order built-in at position {filt.position} of "
                f"{snapshot.relation_name!r} needs an all-integer column"
            )
    for positions in atom_plan.intra_equalities:
        base = positions[0]
        base_numeric = snapshot.numeric(base)
        for position in positions[1:]:
            other_numeric = snapshot.numeric(position)
            if base_numeric is not None and other_numeric is not None:
                mask &= base_numeric == other_numeric
            else:
                mask &= (
                    snapshot.column(base) == snapshot.column(position)
                ).astype(bool)
    return np.nonzero(mask)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# join machinery


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _shift(np, values, offset: int):
    """``values + offset`` on the int64 fast path, KernelError otherwise.

    NumPy int64 addition wraps silently, so a shift that would leave the
    int64 range is refused (the interpreted engine compares unbounded
    Python ints).  Only the extreme the offset pushes on needs checking.
    """
    if offset == 0:
        return values
    if values.dtype != np.int64:
        raise KernelError("comparison offsets need all-integer columns")
    if not _INT64_MIN <= offset <= _INT64_MAX:
        raise KernelError(f"comparison offset {offset} does not fit in int64")
    if len(values):
        extreme = int(values.max()) if offset > 0 else int(values.min())
        if not _INT64_MIN <= extreme + offset <= _INT64_MAX:
            raise KernelError(f"comparison offset {offset} overflows int64")
    return values + np.int64(offset)


def _encode_pair(np, left, right):
    """Factorize one (left, right) value-array pair into joinable codes.

    Both int64: the values themselves are the codes.  Otherwise a shared
    dict assigns dense codes with Python ``==``/``hash`` semantics (so
    ``1 == 1.0 == True`` exactly as the interpreted join sees it);
    right-side values unseen on the left get ``-1``, which matches no
    left code.
    """
    if left.dtype == np.int64 and right.dtype == np.int64:
        return left, right
    codes: dict = {}
    left_codes = np.empty(len(left), dtype=np.int64)
    for i, value in enumerate(left.tolist()):
        left_codes[i] = codes.setdefault(value, len(codes))
    right_codes = np.empty(len(right), dtype=np.int64)
    for i, value in enumerate(right.tolist()):
        right_codes[i] = codes.get(value, -1)
    return left_codes, right_codes


def _compact(np, left, right):
    """Re-factorize a code pair into dense non-negative codes."""
    merged = np.concatenate([left, right])
    _, inverse = np.unique(merged, return_inverse=True)
    inverse = inverse.astype(np.int64)
    return inverse[: len(left)], inverse[len(left):]


def _combine_keys(np, pairs):
    """Collapse multi-column join keys into one int64 key per side."""
    left, right = _encode_pair(np, *pairs[0])
    for raw_left, raw_right in pairs[1:]:
        next_left, next_right = _encode_pair(np, raw_left, raw_right)
        left, right = _compact(np, left, right)
        next_left, next_right = _compact(np, next_left, next_right)
        radix = np.int64(
            max(
                int(next_left.max()) if len(next_left) else 0,
                int(next_right.max()) if len(next_right) else 0,
            )
            + 2
        )
        high = max(
            int(left.max()) if len(left) else 0,
            int(right.max()) if len(right) else 0,
        )
        if high >= _RADIX_LIMIT:  # pragma: no cover - needs ~2^31 keys
            raise KernelError("join key cardinality exceeds the kernel radix")
        left = left * radix + next_left
        right = right * radix + next_right
    return left, right


def _expand_ranges(np, lo, counts, order):
    """Expand per-left-row match ranges of a sorted right side into pairs."""
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if total == 0:
        return left_idx, np.empty(0, dtype=np.int64)
    prefix = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, counts)
    right_pos = order[np.repeat(lo, counts) + within]
    return left_idx, right_pos


def _sort_join(np, left_key, right_key):
    """Match ranges of an array sort join: ``(lo, counts, order)``.

    Left row ``i`` matches the right positions ``order[lo[i]:lo[i] +
    counts[i]]`` (all equal keys); :func:`_expand_ranges` turns the ranges
    into pairs.
    """
    order = np.argsort(right_key, kind="stable")
    sorted_right = right_key[order]
    lo = np.searchsorted(sorted_right, left_key, side="left")
    hi = np.searchsorted(sorted_right, left_key, side="right")
    return lo, hi - lo, order


def _interval_join(np, thresholds, new_values, comparator, bound_on_left):
    """Sorted-interval join for one order comparison: ``(lo, counts, order)``.

    ``thresholds`` are the bound side's values with the offset already
    folded in; ``new_values`` is the new atom's (int64) column over its
    candidate rows.  Each bound row matches a contiguous prefix or suffix
    of the sorted new column - the "sorted interval index" replacing the
    interpreted candidate-list scan.
    """
    order = np.argsort(new_values, kind="stable")
    sorted_new = new_values[order]
    n = len(sorted_new)
    if bound_on_left:
        # B θ N: rewrite onto N.
        suffix = comparator in (Comparator.LT, Comparator.LE)
        side = (
            "right" if comparator in (Comparator.LT, Comparator.GE) else "left"
        )
    else:
        # N θ B: the new side carries the comparator directly.
        suffix = comparator in (Comparator.GT, Comparator.GE)
        side = (
            "right" if comparator in (Comparator.GT, Comparator.LE) else "left"
        )
    split = np.searchsorted(sorted_new, thresholds, side=side)
    if suffix:
        return split, n - split, order
    return np.zeros(len(split), dtype=np.int64), split, order


def _compare_arrays(np, left, comparator: Comparator, right, offset: int):
    """Vectorized ``left θ (right + offset)`` over two gathered sides."""
    right = _shift(np, right, offset)
    if left.dtype != np.int64 or right.dtype != np.int64:
        if comparator not in (Comparator.EQ, Comparator.NE):
            raise KernelError(
                "order comparison needs all-integer columns on both sides"
            )
        if left.dtype != right.dtype:
            left = left.astype(object)
            right = right.astype(object)
    if comparator is Comparator.EQ:
        return (left == right).astype(bool)
    if comparator is Comparator.NE:
        return (left != right).astype(bool)
    if comparator is Comparator.LT:
        return left < right
    if comparator is Comparator.GT:
        return left > right
    if comparator is Comparator.LE:
        return left <= right
    return left >= right


# ---------------------------------------------------------------------------
# plan execution


class _JoinState:
    """Aligned per-atom row arrays of the partial join results."""

    def __init__(self, np, plan: ConstraintPlan, snapshots) -> None:
        self._np = np
        self._plan = plan
        self._snapshots = snapshots
        self.rows: dict[int, object] = {}
        self.join_order: list[int] = []

    def start(self, atom_index: int, candidate_rows) -> None:
        self.rows[atom_index] = candidate_rows
        self.join_order.append(atom_index)

    @property
    def size(self) -> int:
        return len(self.rows[self.join_order[0]])

    def bound_slot(self, variable: str) -> tuple[int, int]:
        """The earliest-joined ``(atom, position)`` slot of a bound variable."""
        slots = self._plan.var_slots[variable]
        for atom_index in self.join_order:
            for slot_atom, position in slots:
                if slot_atom == atom_index:
                    return slot_atom, position
        raise KeyError(variable)

    def values(self, variable: str):
        """Value array of a bound variable, aligned with the result rows."""
        atom_index, position = self.bound_slot(variable)
        snapshot = self._snapshots[atom_index]
        numeric = snapshot.numeric(position)
        column = numeric if numeric is not None else snapshot.column(position)
        return column[self.rows[atom_index]]

    def is_bound(self, variable: str) -> bool:
        bound = set(self.join_order)
        return any(a in bound for a, _ in self._plan.var_slots[variable])

    def select(self, keep) -> None:
        """Apply a boolean mask or index array to every aligned column."""
        for atom_index in self.join_order:
            self.rows[atom_index] = self.rows[atom_index][keep]

    def extend(self, atom_index: int, left_idx, right_rows) -> None:
        """Append one joined atom: reindex the result and add its rows."""
        for bound_atom in self.join_order:
            self.rows[bound_atom] = self.rows[bound_atom][left_idx]
        self.rows[atom_index] = right_rows
        self.join_order.append(atom_index)


def _new_atom_values(snapshot, position, rows, np):
    numeric = snapshot.numeric(position)
    column = numeric if numeric is not None else snapshot.column(position)
    return column[rows]


def _gather_side(state: _JoinState, snapshot, plan, variable, atom_index, rows, np):
    """Values of one comparison side: bound result column or new-atom column."""
    if state.is_bound(variable):
        return state.values(variable), True
    position = next(p for a, p in plan.var_slots[variable] if a == atom_index)
    return _new_atom_values(snapshot, position, rows, np), False


def _apply_residuals(
    np,
    state: _JoinState,
    plan: ConstraintPlan,
    snapshot,
    atom_index: int,
    left_idx,
    right_rows,
    residuals: Sequence[ResolvedComparison],
):
    """Filter freshly joined pairs by the remaining ready comparisons."""
    if len(left_idx) == 0 or not residuals:
        return left_idx, right_rows
    mask = np.ones(len(left_idx), dtype=bool)
    for comparison in residuals:
        left_values, left_bound = _gather_side(
            state, snapshot, plan, comparison.left, atom_index, right_rows, np
        )
        if left_bound:
            left_values = left_values[left_idx]
        right_values, right_bound = _gather_side(
            state, snapshot, plan, comparison.right, atom_index, right_rows, np
        )
        if right_bound:
            right_values = right_values[left_idx]
        mask &= _compare_arrays(
            np, left_values, comparison.comparator, right_values, comparison.offset
        )
    return left_idx[mask], right_rows[mask]


def too_many_witnesses(constraint: DenialConstraint, limit: int) -> ConstraintError:
    """The ``max_violations`` safety-valve error, shared by every engine."""
    return ConstraintError(
        f"{constraint.label}: more than {limit} violation "
        "witnesses; refusing to enumerate further"
    )


class KernelJoin(NamedTuple):
    """The final join state of one kernel run: the satisfying assignments.

    Atom ``i`` of the denial ranges over ``snapshots[i]`` (its relation's
    columnar snapshot); assignment ``j`` binds it to row ``rows[i][j]``.
    No tuple object is touched: the detector ranks the rows and builds the
    violation-set slot matrix straight from these arrays.
    """

    snapshots: tuple[ColumnarRelation, ...]
    rows: tuple[Any, ...]

    @property
    def size(self) -> int:
        """Number of satisfying assignments (what the valve counts)."""
        return len(self.rows[0]) if self.rows else 0

    def used_sets(self) -> set[frozenset[Tuple]]:
        """The distinct used tuple sets, for the frozenset funnel."""
        columns = []
        for snapshot, rows in zip(self.snapshots, self.rows):
            atom_tuples = snapshot.tuples
            columns.append([atom_tuples[row] for row in rows.tolist()])
        return set(map(frozenset, zip(*columns)))


def kernel_witnesses(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    restrict: "dict[int, list[Tuple]] | None" = None,
    forced_first: int | None = None,
    max_violations: int | None = None,
) -> KernelJoin:
    """All satisfying assignments of one denial, columnar execution.

    Returns the final :class:`KernelJoin`; its ``size`` is the number of
    satisfying assignments.  ``restrict`` overrides the candidate pool of
    specific atom positions exactly like the interpreted
    ``_satisfying_assignments``; ``forced_first`` pins the join order's
    first atom (anchored detection).

    ``max_violations`` is the safety valve: more satisfying assignments
    raise :class:`~repro.exceptions.ConstraintError`.  The last join step
    counts its matches before expanding them when no residual comparison
    can drop any, so an accidentally cartesian constraint is refused
    without materializing its pairs.
    """
    np = require_numpy()
    constraint.validate(instance.schema)
    plan = compile_plan(constraint)
    store = store_for(instance)
    restrict = restrict or {}

    snapshots: list[ColumnarRelation] = []
    for atom_plan in plan.atoms:
        pool = restrict.get(atom_plan.atom_index)
        if pool is None:
            snapshots.append(store.relation(instance, atom_plan.relation_name))
        else:
            snapshots.append(
                ColumnarRelation(
                    atom_plan.relation_name,
                    tuple(
                        t for t in pool
                        if t.relation.name == atom_plan.relation_name
                    ),
                )
            )
    empty = KernelJoin(
        tuple(snapshots),
        tuple(np.empty(0, dtype=np.int64) for _ in snapshots),
    )

    def check(count: int) -> None:
        if max_violations is not None and count > max_violations:
            raise too_many_witnesses(constraint, max_violations)

    candidates = [
        _candidate_rows(snapshot, atom_plan)
        for snapshot, atom_plan in zip(snapshots, plan.atoms)
    ]
    if any(len(c) == 0 for c in candidates):
        return empty

    order = order_atoms(plan, [len(c) for c in candidates], forced_first)
    state = _JoinState(np, plan, snapshots)

    first = order[0]
    state.start(first, candidates[first])
    ready = plan.comparisons_ready_at(set(), first)
    if ready:
        mask = np.ones(state.size, dtype=bool)
        for comparison in ready:
            mask &= _compare_arrays(
                np,
                state.values(comparison.left),
                comparison.comparator,
                state.values(comparison.right),
                comparison.offset,
            )
        state.select(mask)

    for atom_index in order[1:]:
        if state.size == 0:
            return empty
        bound = set(state.join_order)
        snapshot = snapshots[atom_index]
        cand = candidates[atom_index]
        ready = list(plan.comparisons_ready_at(bound, atom_index))

        key_pairs = []
        for variable, _slot, position in plan.join_variables_with(
            bound, atom_index
        ):
            key_pairs.append(
                (
                    state.values(variable),
                    _new_atom_values(snapshot, position, cand, np),
                )
            )
        for comparison in list(ready):
            if not comparison.is_equality:
                continue
            left_bound = state.is_bound(comparison.left)
            if left_bound == state.is_bound(comparison.right):
                # Both variables live in the new atom: a residual mask,
                # not a join key.
                continue
            if left_bound:
                left_values = state.values(comparison.left)
                position = next(
                    p for a, p in plan.var_slots[comparison.right]
                    if a == atom_index
                )
                right_values = _shift(
                    np,
                    _new_atom_values(snapshot, position, cand, np),
                    comparison.offset,
                )
            else:
                left_values = _shift(
                    np, state.values(comparison.right), comparison.offset
                )
                position = next(
                    p for a, p in plan.var_slots[comparison.left]
                    if a == atom_index
                )
                right_values = _new_atom_values(snapshot, position, cand, np)
            key_pairs.append((left_values, right_values))
            ready.remove(comparison)

        if key_pairs:
            left_key, right_key = _combine_keys(np, key_pairs)
            lo, counts, positions = _sort_join(np, left_key, right_key)
        else:
            driver = next(
                (
                    c
                    for c in ready
                    if c.is_order
                    and state.is_bound(c.left) != state.is_bound(c.right)
                ),
                None,
            )
            if driver is not None:
                ready.remove(driver)
                bound_on_left = state.is_bound(driver.left)
                if bound_on_left:
                    bound_var, new_var = driver.left, driver.right
                else:
                    bound_var, new_var = driver.right, driver.left
                position = next(
                    p for a, p in plan.var_slots[new_var] if a == atom_index
                )
                new_values = _new_atom_values(snapshot, position, cand, np)
                bound_values = state.values(bound_var)
                if (
                    new_values.dtype != np.int64
                    or bound_values.dtype != np.int64
                ):
                    raise KernelError(
                        "order comparison needs all-integer columns on "
                        "both sides"
                    )
                if bound_on_left:
                    # B θ (N + c)  ⇔  B - c θ N
                    thresholds = _shift(np, bound_values, -driver.offset)
                else:
                    # N θ (B + c): threshold is B + c directly.
                    thresholds = _shift(np, bound_values, driver.offset)
                lo, counts, positions = _interval_join(
                    np, thresholds, new_values, driver.comparator, bound_on_left
                )
            else:
                # Cross product: every bound row meets every candidate.
                lo = np.zeros(state.size, dtype=np.int64)
                counts = np.full(state.size, len(cand), dtype=np.int64)
                positions = np.arange(len(cand), dtype=np.int64)
        if atom_index == order[-1] and not ready:
            # The last step with nothing left to filter: its match count
            # is the final assignment count.
            check(int(counts.sum()))
        left_idx, right_pos = _expand_ranges(np, lo, counts, positions)
        right_rows = cand[right_pos]
        left_idx, right_rows = _apply_residuals(
            np, state, plan, snapshot, atom_index, left_idx, right_rows, ready
        )
        state.extend(atom_index, left_idx, right_rows)

    check(state.size)
    return KernelJoin(
        tuple(snapshots), tuple(state.rows[i] for i in range(plan.n_atoms))
    )


def anchored_kernel_witnesses(
    instance: DatabaseInstance,
    constraint: DenialConstraint,
    anchors: Iterable[Tuple],
) -> set[frozenset[Tuple]]:
    """Witnesses involving at least one anchor tuple (kernel execution).

    Mirrors the interpreted anchored loop: one kernel run per atom with
    that atom's candidates restricted to the anchors of its relation and
    the join order forced to start there; the union of witnesses is what
    :func:`~repro.violations.detector.find_violations_involving` reduces
    to minimal sets.
    """
    anchor_list = list(anchors)
    used_sets: set[frozenset[Tuple]] = set()
    for atom_index, atom in enumerate(constraint.relation_atoms):
        relevant = [
            t for t in anchor_list if t.relation.name == atom.relation_name
        ]
        if not relevant:
            continue
        join = kernel_witnesses(
            instance,
            constraint,
            restrict={atom_index: relevant},
            forced_first=atom_index,
        )
        used_sets |= join.used_sets()
    return used_sets
