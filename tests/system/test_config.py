"""Unit tests for the repair-program configuration (Figure 1)."""

import json

import pytest

from repro import ConfigError
from repro.storage.base import ExportMode
from repro.system import RepairConfig


def minimal_config():
    return {
        "schema": {
            "relations": [
                {
                    "name": "Client",
                    "key": ["id"],
                    "attributes": [
                        {"name": "id"},
                        {"name": "a", "flexible": True},
                        {"name": "c", "flexible": True, "weight": 2.0},
                    ],
                }
            ]
        },
        "constraints": ["ic1: NOT(Client(id, a, c), a < 18, c > 50)"],
        "source": {"backend": "memory", "rows": {"Client": [[1, 15, 60]]}},
    }


class TestParsing:
    def test_minimal_config(self):
        config = RepairConfig.from_dict(minimal_config())
        assert config.schema.relation("Client").attribute("c").weight == 2.0
        assert config.constraints[0].name == "ic1"
        assert config.algorithm == "modified-greedy"
        assert config.metric == "l1"
        assert config.export_mode is ExportMode.UPDATE

    def test_string_attributes_are_hard(self):
        data = minimal_config()
        data["schema"]["relations"][0]["attributes"][0] = "id"
        config = RepairConfig.from_dict(data)
        assert not config.schema.relation("Client").attribute("id").is_flexible

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_config()))
        config = RepairConfig.from_file(path)
        assert config.source["backend"] == "memory"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RepairConfig.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RepairConfig.from_file(path)


class TestValidation:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("schema"), "schema"),
            (lambda d: d.pop("constraints"), "constraints"),
            (lambda d: d.update(constraints=[]), "constraints"),
            (lambda d: d.update(algorithm="quantum"), "algorithm"),
            (lambda d: d.update(metric="hamming"), "metric"),
            (lambda d: d.update(violation_detection="psychic"), "violation_detection"),
            (lambda d: d.update(source={"backend": "oracle"}), "backend"),
            (lambda d: d.update(source={"backend": "sqlite"}), "path"),
            (lambda d: d.update(export={"mode": "teleport"}), "mode"),
            (lambda d: d.update(export={"mode": "dump"}), "destination"),
        ],
    )
    def test_rejections(self, mutate, message):
        data = minimal_config()
        mutate(data)
        with pytest.raises(ConfigError, match=message):
            RepairConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("violation_detection", "sql"),
            ("violation_detection", "memory"),
            ("detection_engine", "pushdown"),
        ],
    )
    def test_violation_detection_points_to_runtime_engine(self, key, value):
        """The retired key (or a top-level look-alike) fails with the
        migration hint: in-database detection is runtime.engine
        "pushdown"."""
        data = minimal_config()
        data[key] = value
        with pytest.raises(ConfigError, match="runtime.engine") as exc:
            RepairConfig.from_dict(data)
        assert "pushdown" in str(exc.value)

    def test_unknown_top_level_key_rejected(self):
        data = minimal_config()
        data["algoritm"] = "greedy"
        with pytest.raises(ConfigError, match="algoritm") as exc:
            RepairConfig.from_dict(data)
        assert "'algorithm'" in str(exc.value)

    def test_every_documented_top_level_key_accepted(self):
        data = minimal_config()
        data.update(
            algorithm="greedy",
            metric="l1",
            export={"mode": "update"},
            repair_semantics="update",
            table_weights={},
            runtime={"engine": "auto"},
            lint={"preflight": False},
            plan=False,
            service=False,
        )
        assert RepairConfig.from_dict(data).algorithm == "greedy"

    def test_bad_constraint_text(self):
        data = minimal_config()
        data["constraints"] = ["NOT(Client(id, a, c), a <"]
        with pytest.raises(ConfigError, match="bad constraint"):
            RepairConfig.from_dict(data)

    def test_constraint_arity_checked(self):
        data = minimal_config()
        data["constraints"] = ["NOT(Client(id, a), a < 18)"]
        with pytest.raises(ConfigError):
            RepairConfig.from_dict(data)

    def test_relation_missing_key_field(self):
        data = minimal_config()
        del data["schema"]["relations"][0]["key"]
        with pytest.raises(ConfigError, match="key"):
            RepairConfig.from_dict(data)

    def test_flexible_key_rejected(self):
        data = minimal_config()
        data["schema"]["relations"][0]["attributes"][0] = {
            "name": "id",
            "flexible": True,
        }
        with pytest.raises(ConfigError):
            RepairConfig.from_dict(data)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            RepairConfig.from_dict(["not", "an", "object"])

    def test_export_modes_accepted(self):
        for mode, extra in [("update", {}), ("insert", {}), ("dump", {"destination": "x.txt"})]:
            data = minimal_config()
            data["export"] = {"mode": mode, **extra}
            config = RepairConfig.from_dict(data)
            assert config.export_mode is ExportMode.from_name(mode)


class TestRuntimeBlock:
    def test_default_is_serial(self):
        config = RepairConfig.from_dict(minimal_config())
        assert config.runtime_backend == "serial"
        assert not hasattr(config, "runtime_workers")

    def test_runtime_block_parsed(self):
        data = minimal_config()
        data["runtime"] = {"backend": "auto", "engine": "interpreted"}
        config = RepairConfig.from_dict(data)
        assert config.runtime_backend == "auto"
        assert config.detection_engine == "interpreted"

    @pytest.mark.parametrize(
        "runtime, message",
        [
            ({"backend": "gpu"}, "backend"),
            ({"max_workers": 0}, "max_workers"),
            ({"max_workers": True}, "max_workers"),
            ({"max_workers": "four"}, "max_workers"),
            ({"solver_engine": "vectorized"}, "solver_engine"),
            ("process", "runtime"),
        ],
    )
    def test_bad_runtime_rejected(self, runtime, message):
        data = minimal_config()
        data["runtime"] = runtime
        with pytest.raises(ConfigError, match=message):
            RepairConfig.from_dict(data)

    @pytest.mark.parametrize(
        "runtime, unknown",
        [
            ({"solver_engine": "flat"}, "solver_engine"),
            ({"max_worker": 2}, "max_worker"),
        ],
    )
    def test_unknown_runtime_key_rejected(self, runtime, unknown):
        """A retired key or a typo is an error, not silently ignored."""
        data = minimal_config()
        data["runtime"] = runtime
        with pytest.raises(ConfigError) as exc:
            RepairConfig.from_dict(data)
        message = str(exc.value)
        assert f"unknown runtime key(s) ['{unknown}']" in message
        for valid in ("backend", "engine", "trace", "streaming"):
            assert repr(valid) in message
        assert not hasattr(RepairConfig, "solver_engine")

    @pytest.mark.parametrize(
        "runtime, message",
        [
            ({"backend": "thread"}, "runtime.backend must be one of"),
            (
                {"streaming": {"enabled": True, "shards": 4}},
                "unknown runtime.streaming key(s) ['shards']",
            ),
        ],
        ids=["backend-thread", "streaming-shards"],
    )
    def test_removed_thread_inputs_rejected(self, runtime, message):
        """The retired thread backend and its shards key are config errors."""
        data = minimal_config()
        data["runtime"] = runtime
        with pytest.raises(ConfigError) as exc:
            RepairConfig.from_dict(data)
        assert message in str(exc.value)
        assert not hasattr(RepairConfig, "streaming_shards")

    def test_detection_engine_parsed(self):
        data = minimal_config()
        assert RepairConfig.from_dict(data).detection_engine == "auto"
        for engine in ("kernel", "interpreted", "pushdown"):
            data["runtime"] = {"engine": engine}
            assert RepairConfig.from_dict(data).detection_engine == engine

    def test_unknown_detection_engine_rejected(self):
        data = minimal_config()
        data["runtime"] = {"engine": "vectorized"}
        with pytest.raises(ConfigError, match="pushdown") as exc:
            RepairConfig.from_dict(data)
        assert "runtime.engine" in str(exc.value)


class TestStreamingBlock:
    def test_default_is_off(self):
        config = RepairConfig.from_dict(minimal_config())
        assert config.streaming_enabled is False
        assert config.streaming_max_pending == 1024
        assert config.streaming_commit_interval == 256
        assert config.streaming_backpressure == "block"

    def test_boolean_form(self):
        data = minimal_config()
        data["runtime"] = {"streaming": True}
        config = RepairConfig.from_dict(data)
        assert config.streaming_enabled is True
        assert config.streaming_backpressure == "block"

    def test_object_form(self):
        data = minimal_config()
        data["runtime"] = {
            "streaming": {
                "enabled": True,
                "max_pending": 64,
                "commit_interval": None,
                "backpressure": "error",
            }
        }
        config = RepairConfig.from_dict(data)
        assert config.streaming_enabled is True
        assert config.streaming_max_pending == 64
        assert config.streaming_commit_interval is None
        assert config.streaming_backpressure == "error"

    @pytest.mark.parametrize(
        "streaming, message",
        [
            ("yes", "boolean or an object"),
            ({"enabled": True, "backpressure": "drop"}, "backpressure"),
            ({"enabled": True, "max_pending": 0}, "max_pending"),
            ({"enabled": True, "commit_interval": -5}, "commit_interval"),
            ({"enabled": True, "shards": 0}, "shards"),
            ({"enabled": True, "nope": 1}, "unknown"),
        ],
    )
    def test_bad_streaming_rejected(self, streaming, message):
        data = minimal_config()
        data["runtime"] = {"streaming": streaming}
        with pytest.raises(ConfigError, match=message):
            RepairConfig.from_dict(data)

    def test_streaming_requires_update_semantics(self):
        data = minimal_config()
        data["repair_semantics"] = "delete"
        data["runtime"] = {"streaming": True}
        with pytest.raises(ConfigError, match="repair_semantics"):
            RepairConfig.from_dict(data)


class TestDuckdbSource:
    def test_duckdb_source_parsed(self):
        data = minimal_config()
        data["source"] = {"backend": "duckdb", "path": "clients.duckdb"}
        config = RepairConfig.from_dict(data)
        assert config.source["backend"] == "duckdb"

    def test_duckdb_source_needs_path(self):
        data = minimal_config()
        data["source"] = {"backend": "duckdb"}
        with pytest.raises(ConfigError, match="path"):
            RepairConfig.from_dict(data)


class TestLintBlock:
    def test_default_is_off(self):
        config = RepairConfig.from_dict(minimal_config())
        assert config.lint_preflight is False
        assert config.lint_fail_on == "error"

    def test_lint_block_parsed(self):
        data = minimal_config()
        data["lint"] = {"preflight": True, "fail_on": "warning"}
        config = RepairConfig.from_dict(data)
        assert config.lint_preflight is True
        assert config.lint_fail_on == "warning"

    @pytest.mark.parametrize(
        "lint, message",
        [
            ({"preflight": "yes"}, "preflight"),
            ({"fail_on": "fatal"}, "fail_on"),
            ("strict", "lint"),
        ],
    )
    def test_bad_lint_rejected(self, lint, message):
        data = minimal_config()
        data["lint"] = lint
        with pytest.raises(ConfigError, match=message):
            RepairConfig.from_dict(data)

    def test_unknown_lint_key_rejected(self):
        data = minimal_config()
        data["lint"] = {"prefight": True}
        with pytest.raises(ConfigError) as exc:
            RepairConfig.from_dict(data)
        message = str(exc.value)
        assert "unknown lint key(s) ['prefight']" in message
        assert "'fail_on'" in message and "'preflight'" in message
