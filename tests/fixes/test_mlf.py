"""Unit tests for mono-local fixes (Definitions 2.6/2.8, Example 2.10)."""

import pytest

from repro import (
    LocalityError,
    find_all_violations,
    mono_local_fix,
    parse_denial,
)
from repro.fixes.mlf import (
    FixCandidate,
    mono_local_fixes_for_tuple,
    solved_violations,
)


class TestMonoLocalFix:
    def test_lt_direction_moves_up_to_min_bound(self, paper):
        """Definition 2.8(a): PRC < 50 gives MLF prc := 50."""
        t1 = paper.instance.get("Paper", ("B1",))
        ic1 = paper.constraints[0]
        fixed = mono_local_fix(t1, ic1, "prc", paper.schema)
        assert fixed["prc"] == 50
        assert fixed["ef"] == 1 and fixed["cf"] == 0   # only prc changes

    def test_gt_direction_moves_down_to_max_bound(self, paper):
        """Definition 2.8(b): EF > 0 gives MLF ef := 0."""
        t1 = paper.instance.get("Paper", ("B1",))
        ic1 = paper.constraints[0]
        fixed = mono_local_fix(t1, ic1, "ef", paper.schema)
        assert fixed["ef"] == 0

    def test_example_210_all_fixes_of_t1(self, paper):
        """Example 2.10: the four mono-local fixes of t1."""
        t1 = paper.instance.get("Paper", ("B1",))
        ic1, ic2 = paper.constraints
        assert mono_local_fix(t1, ic1, "ef", paper.schema).values == ("B1", 0, 40, 0)
        assert mono_local_fix(t1, ic2, "ef", paper.schema).values == ("B1", 0, 40, 0)
        assert mono_local_fix(t1, ic1, "prc", paper.schema).values == ("B1", 1, 50, 0)
        assert mono_local_fix(t1, ic2, "cf", paper.schema).values == ("B1", 1, 40, 1)

    def test_attribute_not_in_constraint_returns_none(self, paper):
        t1 = paper.instance.get("Paper", ("B1",))
        ic1 = paper.constraints[0]   # mentions ef and prc, not cf
        assert mono_local_fix(t1, ic1, "cf", paper.schema) is None

    def test_hard_attribute_returns_none(self, paper_pub):
        p1 = paper_pub.instance.get("Pub", (235,))
        ic3 = paper_pub.constraints[2]
        assert mono_local_fix(p1, ic3, "pid", paper_pub.schema) is None

    def test_non_violating_tuple_returns_none(self, paper):
        """A tuple already above the bound gets no (useless) fix."""
        t3 = paper.instance.get("Paper", ("E3",))   # prc=70, not < 50
        ic1 = paper.constraints[0]
        assert mono_local_fix(t3, ic1, "prc", paper.schema) is None

    def test_le_bound_normalization(self, paper):
        constraint = parse_denial("NOT(Paper(x, y, z, w), z <= 49, y > 0)")
        t1 = paper.instance.get("Paper", ("B1",))
        fixed = mono_local_fix(t1, constraint, "prc", paper.schema)
        assert fixed["prc"] == 50      # z <= 49 normalizes to z < 50

    def test_multiple_bounds_take_min_for_lt(self, paper):
        constraint = parse_denial("NOT(Paper(x, y, z, w), z < 50, z < 90)")
        t1 = paper.instance.get("Paper", ("B1",))
        assert mono_local_fix(t1, constraint, "prc", paper.schema)["prc"] == 50

    def test_multiple_bounds_take_max_for_gt(self, paper):
        constraint = parse_denial("NOT(Paper(x, y, z, w), z > 10, z > 20)")
        t1 = paper.instance.get("Paper", ("B1",))   # prc=40 > both
        assert mono_local_fix(t1, constraint, "prc", paper.schema)["prc"] == 20

    def test_conflicting_directions_raise(self, paper):
        constraint = parse_denial("NOT(Paper(x, y, z, w), z > 10, z < 90)")
        t1 = paper.instance.get("Paper", ("B1",))
        with pytest.raises(LocalityError):
            mono_local_fix(t1, constraint, "prc", paper.schema)

    def test_fixes_for_tuple_keyed_by_attribute(self, paper):
        t1 = paper.instance.get("Paper", ("B1",))
        ic1 = paper.constraints[0]
        fixes = mono_local_fixes_for_tuple(t1, ic1, paper.schema)
        assert set(fixes) == {"ef", "prc"}

    def test_fix_is_idempotent(self, paper):
        """Applying MLF to an already-fixed tuple yields no further fix."""
        t1 = paper.instance.get("Paper", ("B1",))
        ic1 = paper.constraints[0]
        fixed = mono_local_fix(t1, ic1, "prc", paper.schema)
        assert mono_local_fix(fixed, ic1, "prc", paper.schema) is None


class TestSolvedViolations:
    def test_cross_constraint_solving(self, paper_pub):
        """Example 3.3: MLF(t1, ic3, PRC)=70 also solves ({t1}, ic1)."""
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        t1 = paper_pub.instance.get("Paper", ("B1",))
        ic3 = paper_pub.constraints[2]
        fixed = mono_local_fix(t1, ic3, "prc", paper_pub.schema)
        assert fixed["prc"] == 70
        solved = solved_violations(t1, fixed, violations)
        solved_labels = {
            (
                violations[i].constraint.name,
                tuple(sorted((t.relation.name, t.key) for t in violations[i])),
            )
            for i in solved
        }
        assert solved_labels == {
            ("ic1", (("Paper", ("B1",)),)),
            ("ic3", (("Paper", ("B1",)), ("Pub", (235,)))),
        }

    def test_ef_fix_solves_ic1_and_ic2(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        t1 = paper_pub.instance.get("Paper", ("B1",))
        ic1 = paper_pub.constraints[0]
        fixed = mono_local_fix(t1, ic1, "ef", paper_pub.schema)
        solved = solved_violations(t1, fixed, violations)
        names = sorted(violations[i].constraint.name for i in solved)
        assert names == ["ic1", "ic2"]

    def test_candidate_indices_restriction(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        t1 = paper_pub.instance.get("Paper", ("B1",))
        fixed = mono_local_fix(t1, paper_pub.constraints[0], "ef", paper_pub.schema)
        all_solved = solved_violations(t1, fixed, violations)
        restricted = solved_violations(
            t1, fixed, violations, candidate_indices=[all_solved[0]]
        )
        assert restricted == (all_solved[0],)

    def test_unrelated_tuple_solves_nothing(self, paper_pub):
        violations = find_all_violations(paper_pub.instance, paper_pub.constraints)
        t3 = paper_pub.instance.get("Paper", ("E3",))
        assert solved_violations(t3, t3.replace(ef=0), violations) == ()


class TestFixCandidate:
    def test_new_is_derived_from_old(self, paper):
        t1 = paper.instance.get("Paper", ("B1",))
        candidate = FixCandidate(
            ref=t1.ref,
            old=t1,
            attribute="ef",
            new_value=0,
            weight=1.0,
            solves=(0, 2),
            sources=("ic1", "ic2"),
        )
        assert candidate.new == t1.replace({"ef": 0})
        assert candidate.new.ref == t1.ref
        assert "ef 1 -> 0" in candidate.describe()
