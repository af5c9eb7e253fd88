"""Integration: tracing through the engine, runtimes, config and CLI.

The trace a repair produces is part of the public surface: a ``repair``
root span with the Figure-1 stage children, per-constraint detection
spans, per-solver spans, and the metric snapshot -
``RepairResult.elapsed_seconds`` is a thin view over exactly that tree.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import DatabaseInstance, IncrementalRepairer, repair_database
from repro.cardinality.engine import cardinality_repair
from repro.exceptions import ConfigError
from repro.obs import Tracer, load_trace
from repro.system.cli import main, repro_main, trace_main
from repro.system.config import RepairConfig

STAGES = ["detect", "reduce", "solve", "apply", "verify"]


class TestEngineTrace:
    def test_span_tree_shape(self, paper_pub):
        result = repair_database(
            paper_pub.instance,
            paper_pub.constraints,
            algorithm="modified-greedy",
            trace=True,
        )
        trace = result.trace
        assert len(trace.roots) == 1
        root = trace.roots[0]
        assert root.name == "repair" and root.category == "pipeline"
        assert root.tags["algorithm"] == "modified-greedy"
        assert root.tags["engine"] in ("kernel", "interpreted")
        stage_names = [c.name for c in root.children if c.category == "stage"]
        assert stage_names == STAGES
        labels = {c.label for c in paper_pub.constraints}
        detect = root.find("detect")
        assert {s.name for s in detect.children} == {
            f"detect:{label}" for label in labels
        }
        assert trace.find("solve:modified-greedy") is not None

    def test_elapsed_seconds_is_a_view_over_the_trace(self, paper_pub):
        result = repair_database(
            paper_pub.instance, paper_pub.constraints, trace=True
        )
        root = result.trace.roots[0]
        by_name = {c.name: c for c in root.children if c.category == "stage"}
        assert result.elapsed_seconds["detect"] == by_name["detect"].duration
        assert result.elapsed_seconds["reduce"] == by_name["reduce"].duration
        assert result.elapsed_seconds["solve"] == by_name["solve"].duration
        assert result.elapsed_seconds["apply"] == by_name["apply"].duration
        assert result.elapsed_seconds["verify"] == by_name["verify"].duration

    def test_metrics_snapshot(self, paper_pub):
        result = repair_database(
            paper_pub.instance, paper_pub.constraints, trace=True
        )
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in result.trace.metrics["counters"]
        }
        total_violations = sum(
            value
            for (name, _), value in counters.items()
            if name == "violations_found"
        )
        assert total_violations == result.violations_before
        gauges = {g["name"]: g["value"] for g in result.trace.metrics["gauges"]}
        assert gauges["inconsistency_degree"] >= 1

    def test_consistent_input_traces_detect_and_reduce_only(self, paper):
        consistent = DatabaseInstance.from_rows(
            paper.schema, {"Paper": [("E3", 1, 70, 1)]}
        )
        result = repair_database(consistent, paper.constraints, trace=True)
        root = result.trace.roots[0]
        assert root.tags.get("consistent") is True
        stage_names = [c.name for c in root.children if c.category == "stage"]
        assert stage_names == ["detect", "reduce"]

    def test_caller_supplied_tracer_stays_open(self, paper_pub):
        tracer = Tracer("caller")
        with tracer.activate():
            with tracer.span("session"):
                first = repair_database(
                    paper_pub.instance, paper_pub.constraints, trace=tracer
                )
                second = repair_database(
                    paper_pub.instance, paper_pub.constraints, trace=tracer
                )
        assert first.trace is None and second.trace is None
        trace = tracer.finish()
        session = trace.roots[0]
        assert [c.name for c in session.children] == ["repair", "repair"]


class TestRuntimeTrace:
    @pytest.mark.parametrize("backend", ["auto"])
    def test_parallel_backends_fill_the_same_tree(self, small_clientbuy, backend):
        result = repair_database(
            small_clientbuy.instance,
            small_clientbuy.constraints,
            algorithm="modified-greedy",
            parallel=backend,
            trace=True,
        )
        trace = result.trace
        detect = trace.find("detect")
        assert any(s.name.startswith("detect:") for s in detect.walk())
        assert any(
            s.name.startswith("solve:") for s in trace.find("solve").walk()
        )
        # Every span respects the containment invariants.
        def check(span):
            for child in span.children:
                assert child.duration >= 0.0
                assert child.start >= span.start - 1e-9
                assert child.end <= span.end + 1e-9
                check(child)

        for root in trace.roots:
            check(root)


class TestIncrementalTrace:
    def test_rounds_become_pipeline_spans(self, small_clientbuy):
        repairer = IncrementalRepairer(
            small_clientbuy.instance, small_clientbuy.constraints, trace=True
        )
        repairer.insert("Client", (900, 15, 80))   # minor with credit > 50
        repairer.commit()
        trace = repairer.finish_trace()
        names = [root.name for root in trace.roots]
        assert names[0] == "initial-repair"
        assert "commit" in names
        commit = trace.find("commit")
        assert commit.tags["round"] == 1
        stage_names = [c.name for c in commit.children if c.category == "stage"]
        assert stage_names[0] == "detect"

    def test_untraced_by_default(self, small_clientbuy):
        repairer = IncrementalRepairer(
            small_clientbuy.instance, small_clientbuy.constraints
        )
        assert not repairer.tracer.enabled
        assert len(repairer.finish_trace()) == 0


class TestCardinalityTrace:
    def test_deletion_pipeline_nests_the_inner_repair(self, deletion_demo):
        result = cardinality_repair(
            deletion_demo.instance, deletion_demo.constraints, trace=True
        )
        trace = result.trace
        root = trace.roots[0]
        assert root.name == "cardinality-repair"
        child_names = [c.name for c in root.children]
        assert "transform" in child_names
        assert "project" in child_names
        assert trace.find("repair") is not None  # the nested inner run

    def test_untraced_by_default(self, deletion_demo):
        result = cardinality_repair(
            deletion_demo.instance, deletion_demo.constraints
        )
        assert result.trace is None


@pytest.fixture
def config_data():
    return {
        "schema": {
            "relations": [
                {
                    "name": "Client",
                    "key": ["id"],
                    "attributes": [
                        {"name": "id"},
                        {"name": "a", "flexible": True},
                        {"name": "c", "flexible": True},
                    ],
                }
            ]
        },
        "constraints": ["ic1: NOT(Client(id, a, c), a < 18, c > 50)"],
        "source": {
            "backend": "memory",
            "rows": {"Client": [[1, 15, 60], [2, 30, 10]]},
        },
    }


@pytest.fixture
def config_path(tmp_path, config_data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_data))
    return str(path)


class TestConfigTraceBlock:
    def test_defaults_off(self, config_data):
        config = RepairConfig.from_dict(config_data)
        assert config.trace_enabled is False
        assert config.trace_out is None
        assert config.trace_format == "chrome"

    def test_boolean_form(self, config_data):
        config_data["runtime"] = {"trace": True}
        config = RepairConfig.from_dict(config_data)
        assert config.trace_enabled is True

    def test_object_form(self, config_data, tmp_path):
        out = str(tmp_path / "trace.json")
        config_data["runtime"] = {
            "trace": {"enabled": True, "out": out, "format": "json"}
        }
        config = RepairConfig.from_dict(config_data)
        assert config.trace_enabled is True
        assert config.trace_out == out
        assert config.trace_format == "json"

    @pytest.mark.parametrize(
        "trace",
        [
            "yes",
            {"enabled": 3},
            {"out": 5},
            {"format": "xml"},
        ],
    )
    def test_invalid_blocks_rejected(self, config_data, trace):
        config_data["runtime"] = {"trace": trace}
        with pytest.raises(ConfigError):
            RepairConfig.from_dict(config_data)

    def test_traced_program_attaches_trace(self, config_data):
        from repro.system.pipeline import RepairProgram

        config_data["runtime"] = {"trace": True}
        config = RepairConfig.from_dict(config_data)
        report = RepairProgram(config).run(export=False)
        assert report.trace is not None
        assert "spans, not written" in report.trace_note
        assert "trace" in report.summary()

    def test_traced_program_writes_file(self, config_data, tmp_path):
        from repro.system.pipeline import RepairProgram

        out = str(tmp_path / "trace.json")
        config_data["runtime"] = {"trace": {"out": out}}
        config = RepairConfig.from_dict(config_data)
        report = RepairProgram(config).run(export=False)
        assert os.path.exists(out)
        assert "written to" in report.trace_note
        assert len(load_trace(out)) == len(report.trace)


class TestCliTrace:
    def test_trace_flag_prints_span_tree(self, config_path, capsys):
        assert main([config_path, "--trace", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "repair" in out and "detect" in out
        assert "metrics:" in out

    def test_no_tree_without_flag(self, config_path, capsys):
        assert main([config_path, "--dry-run"]) == 0
        assert "metrics:" not in capsys.readouterr().out

    def test_trace_out_writes_loadable_file(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run.trace.json")
        assert main([config_path, "--dry-run", "--trace-out", out]) == 0
        trace = load_trace(out)
        assert trace.find("repair") is not None
        assert "written to" in capsys.readouterr().out

    def test_trace_subcommand_summary(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run.trace.json")
        main([config_path, "--dry-run", "--trace-out", out])
        capsys.readouterr()
        assert repro_main(["trace", out]) == 0
        text = capsys.readouterr().out
        assert "span" in text and "share" in text

    def test_trace_subcommand_tree(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "run.trace.json")
        main([config_path, "--dry-run", "--trace-out", out, "--trace-format", "json"])
        capsys.readouterr()
        assert trace_main([out, "--tree"]) == 0
        assert "repair" in capsys.readouterr().out

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err
