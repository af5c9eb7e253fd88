"""Unit tests for the repro-repair and repro lint command-line interfaces."""

import json

import pytest

from repro.setcover.decompose import BACKENDS
from repro.system.cli import build_parser, lint_main, main, repro_main


@pytest.fixture
def config_path(tmp_path):
    data = {
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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestCli:
    def test_successful_run(self, config_path, capsys):
        assert main([config_path]) == 0
        out = capsys.readouterr().out
        assert "violations before: 1" in out
        assert "verified D'|=IC  : True" in out

    def test_dry_run(self, config_path, capsys):
        assert main([config_path, "--dry-run"]) == 0
        assert "dry run" in capsys.readouterr().out

    def test_changes_flag(self, config_path, capsys):
        assert main([config_path, "--changes"]) == 0
        assert "Client[1]" in capsys.readouterr().out

    def test_algorithm_override(self, config_path, capsys):
        assert main([config_path, "--algorithm", "layer", "--dry-run"]) == 0
        assert "layer" in capsys.readouterr().out

    def test_metric_override(self, config_path, capsys):
        assert main([config_path, "--metric", "l2", "--dry-run"]) == 0
        assert "L2" in capsys.readouterr().out

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_algorithm_fails(self, config_path, capsys):
        assert main([config_path, "--algorithm", "quantum"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parser_help_mentions_algorithms(self):
        parser = build_parser()
        assert "modified-greedy" in parser.format_help()

    def test_parallel_override(self, config_path, capsys):
        assert main([config_path, "--parallel", "auto", "--dry-run"]) == 0
        capsys.readouterr()

    def test_parallel_choices_are_the_runtime_backends(self):
        (action,) = [
            a for a in build_parser()._actions if a.dest == "parallel"
        ]
        assert tuple(action.choices) == BACKENDS

    def test_removed_thread_backend_exits_2(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([config_path, "--parallel", "thread", "--dry-run"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--parallel", "process"], "invalid choice: 'process'"),
            (["--max-workers", "2"], "--max-workers"),
        ],
        ids=["process-backend", "max-workers"],
    )
    def test_removed_pool_options_exit_2(self, config_path, capsys, args, flag):
        with pytest.raises(SystemExit) as exc:
            main([config_path, *args, "--dry-run"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_parallel_rejects_unknown_backend(self, config_path, capsys):
        with pytest.raises(SystemExit):
            main([config_path, "--parallel", "gpu"])

    def test_solver_engine_flag_removed(self, config_path, capsys):
        """There is one set-cover engine; the old flag is a usage error."""
        for engine in ("flat", "object", "auto"):
            with pytest.raises(SystemExit) as exc:
                main([config_path, "--solver-engine", engine, "--dry-run"])
            assert exc.value.code == 2
            assert "--solver-engine" in capsys.readouterr().err

    def test_solver_engine_rejects_unknown(self, config_path, capsys):
        with pytest.raises(SystemExit):
            main([config_path, "--solver-engine", "vectorized"])

    def test_engine_rejects_unknown(self, config_path, capsys):
        with pytest.raises(SystemExit):
            main([config_path, "--engine", "vectorized"])
        assert "pushdown" in capsys.readouterr().err

    def test_pushdown_engine_over_sqlite_source(self, tmp_path, capsys):
        from repro.storage import SqliteBackend
        from repro.workloads import client_buy_workload

        workload = client_buy_workload(30, inconsistency_ratio=0.4, seed=8)
        db_path = tmp_path / "clients.db"
        SqliteBackend.from_instance(workload.instance, str(db_path)).close()
        data = {
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
                    },
                    {
                        "name": "Buy",
                        "key": ["id", "i"],
                        "attributes": [
                            {"name": "id"},
                            {"name": "i"},
                            {"name": "p", "flexible": True},
                        ],
                    },
                ]
            },
            "constraints": ["ic1: NOT(Client(id, a, c), a < 18, c > 50)"],
            "source": {"backend": "sqlite", "path": str(db_path)},
        }
        config = tmp_path / "pushdown.json"
        config.write_text(json.dumps(data))
        assert main([str(config), "--engine", "pushdown", "--dry-run"]) == 0
        assert "verified D'|=IC  : True" in capsys.readouterr().out


class TestStreamingCli:
    def test_stream_flag_runs_pipeline(self, config_path, capsys):
        assert main([config_path, "--stream", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "streaming" in out
        assert "round(s)" in out

    def test_max_pending_implies_stream(self, config_path, capsys):
        assert main([config_path, "--max-pending", "8", "--dry-run"]) == 0
        assert "streaming" in capsys.readouterr().out

    def test_commit_interval_implies_stream(self, config_path, capsys):
        assert main([config_path, "--commit-interval", "2", "--dry-run"]) == 0
        assert "streaming" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--max-pending", "--commit-interval"])
    def test_nonpositive_values_fail(self, config_path, flag, capsys):
        assert main([config_path, flag, "0", "--dry-run"]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_streamed_run_matches_batch_run(self, config_path, capsys):
        assert main([config_path, "--dry-run", "--changes"]) == 0
        batch = capsys.readouterr().out
        assert main([config_path, "--stream", "--dry-run", "--changes"]) == 0
        streamed = capsys.readouterr().out
        # same repaired cells, streaming just adds its pipeline note.
        batch_changes = [line for line in batch.splitlines() if "->" in line]
        stream_changes = [line for line in streamed.splitlines() if "->" in line]
        assert stream_changes == batch_changes

    def test_trace_latency_flag(self, config_path, tmp_path, capsys):
        from repro.system.cli import trace_main

        out = str(tmp_path / "stream.trace.json")
        assert main(
            [config_path, "--stream", "--dry-run", "--trace-out", out,
             "--trace-format", "json"]
        ) == 0
        capsys.readouterr()
        assert trace_main([out, "--latency"]) == 0
        text = capsys.readouterr().out
        assert "p50" in text and "p99" in text
        assert "commit" in text


@pytest.fixture
def nonlocal_config_path(tmp_path, config_path):
    data = json.loads((tmp_path / "config.json").read_text())
    # Equality on a flexible attribute: locality condition (a) error.
    data["constraints"] = ["ic1: NOT(Client(id, a, c), a = 17)"]
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestLintCli:
    def test_clean_workload_exits_zero(self, capsys):
        assert lint_main(["--workload", "clientbuy"]) == 0
        out = capsys.readouterr().out
        assert "workload:clientbuy" in out
        assert "LINT040" in out

    def test_all_bundled_workloads_pass_error_gate(self, capsys):
        args = []
        for name in ("clientbuy", "finance", "census", "paperdemo"):
            args += ["--workload", name]
        assert lint_main(args) == 0
        capsys.readouterr()

    def test_config_file_source(self, config_path, capsys):
        assert lint_main([config_path]) == 0
        assert config_path in capsys.readouterr().out

    def test_error_diagnostics_gate_exit_code(self, nonlocal_config_path, capsys):
        assert lint_main([nonlocal_config_path]) == 1
        assert "LINT030" in capsys.readouterr().out

    def test_fail_on_never_reports_without_gating(self, nonlocal_config_path, capsys):
        assert lint_main([nonlocal_config_path, "--fail-on", "never"]) == 0
        assert "LINT030" in capsys.readouterr().out

    def test_fail_on_info_gates_clean_workload(self, capsys):
        # clientbuy emits an info-level LINT040, enough for --fail-on info.
        assert lint_main(["--workload", "clientbuy", "--fail-on", "info"]) == 1
        capsys.readouterr()

    def test_json_format_round_trips(self, nonlocal_config_path, capsys):
        assert lint_main([nonlocal_config_path, "--format", "json"]) == 1
        documents = json.loads(capsys.readouterr().out)
        (document,) = documents
        assert document["source"] == nonlocal_config_path
        assert document["summary"]["errors"] >= 1
        assert any(
            d["code"] == "LINT030" for d in document["diagnostics"]
        )

    def test_pass_selection(self, nonlocal_config_path, capsys):
        args = [nonlocal_config_path, "--pass", "satisfiability"]
        assert lint_main(args) == 0
        assert "LINT030" not in capsys.readouterr().out

    def test_no_sources_is_usage_error(self, capsys):
        assert lint_main([]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestReproMain:
    def test_dispatches_repair(self, config_path, capsys):
        assert repro_main(["repair", config_path, "--dry-run"]) == 0
        assert "dry run" in capsys.readouterr().out

    def test_dispatches_lint(self, capsys):
        assert repro_main(["lint", "--workload", "paperdemo"]) == 0
        assert "workload:paperdemo" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert repro_main(["polish"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_no_arguments_prints_usage(self, capsys):
        assert repro_main([]) == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_help_flag(self, capsys):
        assert repro_main(["--help"]) == 0
        assert "usage: repro" in capsys.readouterr().out
