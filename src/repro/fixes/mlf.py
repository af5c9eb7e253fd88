"""Mono-local fixes ``MLF(t, ic, A)`` (Definitions 2.6 and 2.8).

A *local fix* of a tuple keeps its hard attributes, solves at least one
violation set, and is distance-minimal among fixes solving the same sets.
A *mono-local* fix changes exactly one attribute; Proposition 2.7 states it
is unique per ``(t, ic, A)``, and Definition 2.8 constructs it:

* normalize ``≤``/``≥`` to strict comparisons over ℤ (footnote 2);
* if ``ic`` contains ``A < c₁, …, A < c_n``, replace ``A`` with
  ``min{c₁, …, c_n}`` (raise the value to the smallest upper bound - the
  tightest atom is falsified, hence the whole conjunction);
* if ``ic`` contains ``A > c₁, …, A > c_n``, replace with ``max{cᵢ}``.

Locality condition (c) guarantees the two cases never mix for one flexible
attribute, so every attribute has one global fix direction and fixes
compose monotonically (moving further never re-satisfies a falsified atom).

:func:`mono_local_fix` and :func:`solved_violations` state the definitions
tuple by tuple.  :func:`fix_descriptors` compiles the same construction
once per ``(constraint, relation)``: the repair reduction reads fixes and
the closed-form ``S(t, t′)`` test off the descriptors instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.constraints.atoms import Comparator
from repro.constraints.denial import DenialConstraint
from repro.exceptions import LocalityError
from repro.model.schema import Relation, Schema
from repro.model.tuples import Tuple, TupleRef
from repro.obs import current_tracer
from repro.violations.detector import ViolationSet


def mono_local_fix(
    tup: Tuple,
    constraint: DenialConstraint,
    attribute_name: str,
    schema: Schema,
) -> Tuple | None:
    """Compute ``MLF(t, ic, A)`` or ``None`` when no fix on ``A`` exists.

    Returns ``None`` when the constraint has no strict comparison over the
    attribute, or when the computed replacement would not move the value in
    the attribute's fix direction (which happens only when ``t`` does not
    actually violate the comparisons - such a candidate solves nothing).
    Raises :class:`LocalityError` if the attribute occurs in both ``<`` and
    ``>`` comparisons within ``ic`` (non-local input).
    """
    relation = tup.relation
    attribute = relation.attribute(attribute_name)
    if not attribute.is_flexible:
        return None
    comparisons = constraint.comparisons_on(schema, relation.name, attribute_name)
    lt_bounds = [
        c.constant for c in comparisons if c.comparator is Comparator.LT
    ]
    gt_bounds = [
        c.constant for c in comparisons if c.comparator is Comparator.GT
    ]
    if lt_bounds and gt_bounds:
        raise LocalityError(
            f"{constraint.label}: attribute {relation.name}.{attribute_name} "
            "occurs in both '<' and '>' comparisons; the constraint is not local"
        )
    old_value = tup[attribute_name]
    if lt_bounds:
        new_value = min(lt_bounds)          # Definition 2.8 case (a)
        if new_value <= old_value:
            return None
    elif gt_bounds:
        new_value = max(gt_bounds)          # Definition 2.8 case (b)
        if new_value >= old_value:
            return None
    else:
        return None
    return tup.replace({attribute_name: new_value})


def mono_local_fixes_for_tuple(
    tup: Tuple,
    constraint: DenialConstraint,
    schema: Schema,
) -> dict[str, Tuple]:
    """All mono-local fixes of ``t`` wrt one constraint, keyed by attribute.

    Iterates the flexible attributes of ``t``'s relation that occur in
    ``A_B(ic)`` - exactly the triple loop of Algorithm 3.
    """
    fixes: dict[str, Tuple] = {}
    builtin_attributes = constraint.attributes_in_builtins(schema)
    for attribute in tup.relation.flexible_attributes:
        if (tup.relation.name, attribute.name) not in builtin_attributes:
            continue
        fixed = mono_local_fix(tup, constraint, attribute.name, schema)
        if fixed is not None:
            fixes[attribute.name] = fixed
    current_tracer().metrics.counter("mlf_evaluations").inc(len(fixes))
    return fixes


def solved_violations(
    old: Tuple,
    new: Tuple,
    violations: Sequence[ViolationSet],
    candidate_indices: Iterable[int] | None = None,
) -> tuple[int, ...]:
    """Indices of violation sets solved by replacing ``old`` with ``new``.

    This computes ``S(t, t′)`` of Definition 2.6(b): a violation set
    ``(I, ic)`` with ``t ∈ I`` is solved when ``(I \\ {t}) ∪ {t'} ⊨ ic``.
    The check is cross-constraint (Algorithm 4): a fix generated for one
    constraint may also solve violation sets of another (Example 3.3).

    ``candidate_indices`` restricts the scan to the given positions - the
    repair builder passes the precomputed ``I(D, IC, t)`` index so the
    overall construction stays linear when the degree of inconsistency is
    bounded.
    """
    if candidate_indices is None:
        candidate_indices = range(len(violations))
    solved: list[int] = []
    for index in candidate_indices:
        violation = violations[index]
        if old not in violation:
            continue
        substituted = [t for t in violation.tuples if t != old]
        substituted.append(new)
        if not violation.constraint.violated_by(substituted):
            solved.append(index)
    return tuple(solved)


class FixDescriptor:
    """Definition 2.8 compiled for one (constraint, relation, flexible attribute).

    ``MLF(t, ic, A)`` depends on ``t`` only through ``t[A]``: the fix
    moves ``A`` to ``bound`` - upward (``A < cᵢ``, case (a)) or downward
    (``A > cᵢ``, case (b)) - when that moves it at all.  ``conflict`` holds
    the :class:`LocalityError` message when ``A`` occurs in both
    directions (non-local input), raised when a fix is asked for.

    ``closed_form`` marks when ``S(t, t′)`` needs no substitution: the
    constraint names the relation in exactly one atom, and the variable
    at ``A`` occurs nowhere else and in no variable comparison.  A
    violation set of the constraint containing ``t`` is then solved by
    ``t[A] := v`` exactly when some built-in on ``A`` fails at ``v``
    (:meth:`solved_at`; ``builtins`` are those built-ins, normalized).
    """

    __slots__ = (
        "attribute",
        "position",
        "alpha",
        "bound",
        "upward",
        "conflict",
        "builtins",
        "closed_form",
        "_equal",
        "_unequal",
    )

    def __init__(
        self,
        constraint: DenialConstraint,
        relation: Relation,
        position: int,
    ) -> None:
        attribute = relation.attributes[position]
        self.attribute = attribute.name
        self.position = position
        self.alpha = float(attribute.weight)
        atoms = [
            atom
            for atom in constraint.relation_atoms
            if atom.relation_name == relation.name
        ]
        variables = {
            atom.variables[position]
            for atom in atoms
            if position < len(atom.variables)
        }
        self.builtins = tuple(
            normalized
            for builtin in constraint.builtins
            if builtin.variable in variables
            for normalized in builtin.normalized()
        )
        by_comparator: dict[Comparator, list[int]] = {c: [] for c in Comparator}
        for builtin in self.builtins:
            by_comparator[builtin.comparator].append(builtin.constant)
        lt_bounds, gt_bounds = by_comparator[Comparator.LT], by_comparator[Comparator.GT]
        self.conflict: str | None = None
        if lt_bounds and gt_bounds:
            self.conflict = (
                f"{constraint.label}: attribute {relation.name}.{attribute.name} "
                "occurs in both '<' and '>' comparisons; the constraint is not local"
            )
        self.upward = bool(lt_bounds)
        self.bound: int | None = (
            min(lt_bounds) if lt_bounds else max(gt_bounds) if gt_bounds else None
        )
        compared = {
            variable
            for comparison in constraint.variable_comparisons
            for variable in (comparison.left, comparison.right)
        }
        self.closed_form = (
            len(atoms) == 1
            and len(variables) == 1
            and len(constraint.occurrences(next(iter(variables)))) == 1
            and not variables & compared
        )
        self._equal = frozenset(by_comparator[Comparator.EQ])
        self._unequal = frozenset(by_comparator[Comparator.NE])

    def fix(self, value: int) -> int | None:
        """``MLF(t, ic, A)[A]`` for ``t[A] = value``; ``None``: no fix."""
        if self.conflict is not None:
            raise LocalityError(self.conflict)
        bound = self.bound
        if bound is None:
            return None
        if bound > value if self.upward else bound < value:
            return bound
        return None

    def solved_at(self, value: int) -> bool:
        """Closed-form ``S(t, t′)`` membership: a built-in on ``A`` fails.

        Only meaningful when :attr:`closed_form` holds and there is no
        ``conflict`` (the order built-ins then all point one way, and
        ``bound`` is the tightest of them).
        """
        bound = self.bound
        if bound is not None and (value >= bound if self.upward else value <= bound):
            return True
        if value in self._unequal:
            return True
        return any(value != constant for constant in self._equal)


def fix_descriptors(
    constraint: DenialConstraint, relation: Relation
) -> dict[str, FixDescriptor]:
    """The :class:`FixDescriptor` of every flexible attribute of ``relation``.

    Keyed by attribute name, in declaration order (Algorithm 3's loop
    order).  Memoized on the constraint per relation, so repeated
    reductions (incremental commit rounds) compile once.
    """
    cache = constraint.__dict__.get("_fix_descriptors")
    if cache is None:
        cache = {}
        object.__setattr__(constraint, "_fix_descriptors", cache)
    descriptors = cache.get(relation)
    if descriptors is None:
        descriptors = cache[relation] = {
            attribute.name: FixDescriptor(constraint, relation, position)
            for position, attribute in enumerate(relation.attributes)
            if attribute.is_flexible
        }
    return descriptors


@dataclass(frozen=True)
class FixCandidate:
    """A weighted mono-local fix - one *set* of the MWSCP (Definition 3.1(b)).

    Attributes
    ----------
    ref:
        Identity of the tuple being fixed.
    old:
        The original tuple (its mono-local fix ``t′`` is :attr:`new`).
    attribute:
        The single attribute the fix updates.
    new_value:
        The replacement value.
    weight:
        ``w(S(t,t′)) = Δ({t}, {t′})`` under the chosen metric
        (Definition 3.1(c)).
    solves:
        Indices (into the violation-set universe) of the elements this fix
        covers - ``S(t, t′)``.
    sources:
        Labels of the constraints whose Definition-2.8 construction produced
        this fix (several constraints can induce the same fix, e.g. ``t₁¹``
        in Example 2.10).
    """

    ref: TupleRef
    old: Tuple
    attribute: str
    new_value: int
    weight: float
    solves: tuple[int, ...]
    sources: tuple[str, ...] = ()

    @property
    def new(self) -> Tuple:
        """The mono-local fix ``t′``: ``old`` with the one cell replaced."""
        return self.old.replace({self.attribute: self.new_value})

    def describe(self) -> str:
        """One-line human-readable description of the update."""
        return (
            f"{self.ref.relation_name}{list(self.ref.key_values)}: "
            f"{self.attribute} {self.old[self.attribute]} -> {self.new_value} "
            f"(weight {self.weight:g}, solves {len(self.solves)})"
        )
