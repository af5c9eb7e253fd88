"""Unit tests for the end-to-end repair engine (Algorithm 6)."""

import pytest

from repro import (
    DatabaseInstance,
    database_delta,
    is_consistent,
    repair_database,
)
from repro.setcover import (
    exact_cover,
    greedy_cover,
    layer_cover,
    modified_greedy_cover,
    modified_layer_cover,
)
from repro.setcover.solvers import SOLVERS

APPROXIMATIONS = ["greedy", "modified-greedy", "layer", "modified-layer"]

#: Registry name -> the object reference solver its flat solver mirrors.
REFERENCE_SOLVERS = {
    "greedy": greedy_cover,
    "modified-greedy": modified_greedy_cover,
    "layer": layer_cover,
    "modified-layer": modified_layer_cover,
    "exact": exact_cover,
}


class TestRepairDatabase:
    @pytest.mark.parametrize("algorithm", APPROXIMATIONS + ["exact"])
    def test_repair_is_consistent(self, paper_pub, algorithm):
        result = repair_database(
            paper_pub.instance, paper_pub.constraints, algorithm=algorithm
        )
        assert result.verified
        assert is_consistent(result.repaired, paper_pub.constraints)

    @pytest.mark.parametrize("algorithm", APPROXIMATIONS + ["exact"])
    def test_distance_matches_database_delta(self, paper_pub, algorithm):
        result = repair_database(
            paper_pub.instance, paper_pub.constraints, algorithm=algorithm
        )
        assert result.distance == pytest.approx(
            database_delta(paper_pub.instance, result.repaired)
        )

    def test_greedy_achieves_optimal_on_paper_example(self, paper):
        """Examples 2.3/3.4: the optimal repair distance is 2."""
        result = repair_database(paper.instance, paper.constraints, algorithm="greedy")
        assert result.distance == 2.0
        assert result.cover_weight == 2.0

    def test_exact_on_paper_pub_example(self, paper_pub):
        result = repair_database(
            paper_pub.instance, paper_pub.constraints, algorithm="exact"
        )
        # minimal cover weight per Definition 3.1 weights: S1+S5+S7 = 2.5.
        assert result.cover_weight == pytest.approx(2.5)

    @pytest.mark.parametrize("algorithm", APPROXIMATIONS + ["exact"])
    def test_solver_engines_repair_identically(self, paper_pub, algorithm):
        """The registry's flat solver repairs exactly like its object
        reference passed in as a callable."""
        flat = repair_database(
            paper_pub.instance, paper_pub.constraints, algorithm=algorithm
        )
        obj = repair_database(
            paper_pub.instance,
            paper_pub.constraints,
            algorithm=REFERENCE_SOLVERS[algorithm],
        )
        assert flat.repaired == obj.repaired
        assert flat.changes == obj.changes
        assert flat.cover_weight == obj.cover_weight
        assert flat.distance == obj.distance
        assert flat.algorithm == obj.algorithm
        assert flat.solver_iterations == obj.solver_iterations
        assert "solver_engine" not in flat.solver_stats
        stripped = {
            k: v for k, v in flat.solver_stats.items() if k != "incidence"
        }
        assert stripped == obj.solver_stats

    def test_consistent_input_returns_zero_repair(self, paper):
        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        result = repair_database(consistent, paper.constraints)
        assert result.distance == 0.0
        assert result.changes == ()
        assert result.violations_before == 0
        assert result.verified
        assert result.repaired == consistent

    def test_input_never_mutated(self, paper):
        snapshot = paper.instance.copy()
        repair_database(paper.instance, paper.constraints)
        assert paper.instance == snapshot

    def test_result_metadata(self, paper):
        result = repair_database(
            paper.instance, paper.constraints, algorithm="modified-greedy"
        )
        assert result.algorithm == "modified-greedy"
        assert result.metric == "L1"
        assert result.violations_before == 3
        assert result.tuples_changed == 2
        assert set(result.elapsed_seconds) == {
            "detect",
            "reduce",
            "solve",
            "apply",
            "verify",
        }
        assert result.solver_iterations > 0

    def test_summary_renders(self, paper):
        result = repair_database(paper.instance, paper.constraints)
        text = result.summary()
        assert "violations before: 3" in text
        assert "verified" in text

    def test_verify_can_be_disabled(self, paper):
        result = repair_database(paper.instance, paper.constraints, verify=False)
        assert not result.verified
        assert is_consistent(result.repaired, paper.constraints)

    def test_l2_metric_changes_choices(self, paper):
        # under L2 the prc move costs (1/20)*100 = 5 while ef costs 1:
        # the cheap repair flips ef on both tuples.
        result = repair_database(paper.instance, paper.constraints, metric="l2")
        updated = {(c.ref.key_values, c.attribute) for c in result.changes}
        assert ((("B1",), "ef")) in updated
        assert is_consistent(result.repaired, paper.constraints)

    @pytest.mark.parametrize("algorithm", APPROXIMATIONS)
    def test_workload_repairs_verify(self, small_clientbuy, algorithm):
        result = repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            algorithm=algorithm,
        )
        assert result.verified
        assert result.violations_before > 0

    def test_census_workload_repairs(self, small_census):
        result = repair_database(small_census.instance, small_census.constraints)
        assert result.verified
        assert result.distance <= result.cover_weight + 1e-9

    def test_greedy_and_modified_greedy_identical_results(self, small_clientbuy):
        a = repair_database(
            small_clientbuy.instance, small_clientbuy.constraints, algorithm="greedy"
        )
        b = repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            algorithm="modified-greedy",
        )
        assert a.cover_weight == b.cover_weight
        assert a.repaired == b.repaired

    def test_unknown_algorithm_rejected(self, paper):
        from repro import SetCoverError

        with pytest.raises(SetCoverError):
            repair_database(paper.instance, paper.constraints, algorithm="nope")

    def test_registry_is_exercised(self):
        assert len(SOLVERS) == 9


class TestSimplifyOption:
    def test_simplify_preserves_result(self, paper):
        from repro import parse_denials

        redundant = parse_denials(
            """
            ic1: NOT(Paper(x, y, z, w), y > 0, z < 50, z < 90)
            ic2: NOT(Paper(x, y, z, w), y > 0, w < 1)
            dup: NOT(Paper(x, y, z, w), y > 0, w < 1)
            dead: NOT(Paper(x, y, z, w), z > 9, z < 5)
            """
        )
        plain = repair_database(paper.instance, paper.constraints)
        simplified = repair_database(paper.instance, redundant, simplify=True)
        assert simplified.cover_weight == plain.cover_weight
        assert simplified.repaired == plain.repaired

    def test_simplify_conflicts_with_precomputed_violations(self, paper):
        from repro import RepairError, find_all_violations

        violations = find_all_violations(paper.instance, paper.constraints)
        with pytest.raises(RepairError):
            repair_database(
                paper.instance,
                paper.constraints,
                violations=violations,
                simplify=True,
            )


class TestSolverResolution:
    """The solver is resolved once, before detection, on every input."""

    BAD_ALGORITHMS = ["no-such-solver", None, 7]

    @pytest.fixture
    def consistent(self, paper):
        repaired = repair_database(paper.instance, paper.constraints).repaired
        assert is_consistent(repaired, paper.constraints)
        return repaired, paper.constraints

    @pytest.mark.parametrize("parallel", [None, "auto"])
    @pytest.mark.parametrize("algorithm", BAD_ALGORITHMS)
    def test_bad_algorithm_fails_on_consistent_input(
        self, consistent, algorithm, parallel
    ):
        from repro import SetCoverError

        instance, constraints = consistent
        with pytest.raises(SetCoverError, match="unknown set-cover algorithm"):
            repair_database(
                instance, constraints, algorithm=algorithm, parallel=parallel
            )

    @pytest.mark.parametrize("parallel", [None, "auto"])
    @pytest.mark.parametrize("algorithm", BAD_ALGORITHMS)
    def test_incremental_constructor_rejects_bad_algorithm(
        self, consistent, algorithm, parallel
    ):
        from repro import IncrementalRepairer, SetCoverError

        instance, constraints = consistent
        with pytest.raises(SetCoverError, match="unknown set-cover algorithm"):
            IncrementalRepairer(
                instance, constraints, algorithm=algorithm, parallel=parallel
            )

    @pytest.mark.parametrize("parallel", [None, "auto"])
    def test_problem_cover_rejects_bad_algorithm(self, paper, parallel):
        from repro import SetCoverError
        from repro.repair.builder import build_repair_problem
        from repro.repair.engine import repair_problem_cover

        problem = build_repair_problem(paper.instance, paper.constraints)
        with pytest.raises(SetCoverError, match="unknown set-cover algorithm"):
            repair_problem_cover(problem, algorithm=None, parallel=parallel)


class TestDecomposedSolverStats:
    @pytest.mark.parametrize("algorithm", ["layer", "modified-layer"])
    def test_decomposed_layer_reports_serial_frequency(self, algorithm):
        """``frequency`` (the layer factor f) is a maximum, not a sum."""
        from repro.workloads import census_workload

        workload = census_workload(300)
        serial = repair_database(
            workload.instance, workload.constraints, algorithm=algorithm
        )
        decomposed = repair_database(
            workload.instance,
            workload.constraints,
            algorithm=algorithm,
            parallel="auto",
            max_workers=2,
        )
        assert decomposed.solver_stats["components"] > 1
        assert (
            decomposed.solver_stats["frequency"]
            == serial.solver_stats["frequency"]
        )
        if algorithm == "modified-layer":
            # Each component's final offset is at most the global one.
            assert decomposed.solver_stats["phi"] <= serial.solver_stats["phi"]
