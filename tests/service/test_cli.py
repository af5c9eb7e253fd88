"""The ``repro serve`` subcommand: batch runs, fault specs, gates."""

from __future__ import annotations

import json

import pytest

from repro.system.cli import repro_main, serve_main


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
        "service": {"workers": 2, "max_retries": 1},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestServeWorkload:
    def test_clean_batch_exits_zero(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "3", "--size", "25",
                "--expect-clean"]
        assert serve_main(args) == 0
        out = capsys.readouterr().out
        assert "3 job(s): 3 succeeded" in out
        assert "artifact cache:" in out

    def test_shared_instance_reuses_artifacts(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "3", "--size", "25",
                "--workers", "1"]
        assert serve_main(args) == 0
        out = capsys.readouterr().out
        # jobs 1 and 2 reuse job 0's plan + violations
        assert "4 hit(s), 2 miss(es)" in out

    def test_distinct_data_splits_violation_entries(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "3", "--size", "25",
                "--workers", "1", "--distinct-data"]
        assert serve_main(args) == 0
        out = capsys.readouterr().out
        # plan is shared; each seed misses its own violations entry
        assert "2 hit(s), 4 miss(es)" in out

    def test_json_format_round_trips(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "2", "--size", "20",
                "--format", "json"]
        assert serve_main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["by_status"] == {"succeeded": 2}
        assert len(document["jobs"]) == 2
        assert document["jobs"][0]["label"] == "job0"
        assert document["cache"]["misses"] >= 2

    def test_tpch_workload_runs(self, capsys):
        args = ["--workload", "tpch", "--jobs", "1", "--size", "50",
                "--expect-clean"]
        assert serve_main(args) == 0
        capsys.readouterr()


class TestServeFaults:
    def test_recoverable_kill_stays_clean(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "2", "--size", "20",
                "--inject-kill", "0:detect", "--retry-backoff", "0",
                "--expect-clean"]
        assert serve_main(args) == 0
        assert "attempts=2" in capsys.readouterr().out

    def test_exhausted_kill_reported_but_exit_zero(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "2", "--size", "20",
                "--workers", "1", "--inject-kill", "0:start:99",
                "--retries", "1", "--retry-backoff", "0"]
        assert serve_main(args) == 0
        out = capsys.readouterr().out
        assert "[worker-crash]" in out
        assert "1 failed, 1 succeeded" in out

    def test_expect_clean_gates_on_failure(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "2", "--size", "20",
                "--workers", "1", "--inject-kill", "0:start:99",
                "--retries", "0", "--retry-backoff", "0", "--expect-clean"]
        assert serve_main(args) == 1
        assert "--expect-clean" in capsys.readouterr().err

    def test_stall_plus_timeout_times_out(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "1", "--size", "20",
                "--inject-stall", "0:repair:30", "--job-timeout", "0.3"]
        assert serve_main(args) == 0
        assert "[timeout]" in capsys.readouterr().out

    def test_poison_fails_the_reader(self, capsys):
        args = ["--workload", "clientbuy", "--jobs", "3", "--size", "20",
                "--workers", "1", "--inject-poison", "0:violations"]
        assert serve_main(args) == 0
        out = capsys.readouterr().out
        assert "[poisoned-artifact]" in out
        assert "1 poisoned" in out


class TestServeConfig:
    def test_config_batch(self, config_path, capsys):
        assert serve_main([config_path, "--jobs", "2", "--expect-clean"]) == 0
        assert "2 succeeded" in capsys.readouterr().out

    def test_missing_config_is_service_error(self, tmp_path, capsys):
        assert serve_main([str(tmp_path / "missing.json"), "--jobs", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeUsage:
    def test_requires_exactly_one_source(self, config_path, capsys):
        assert serve_main([]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert serve_main([config_path, "--workload", "clientbuy"]) == 2
        capsys.readouterr()

    def test_jobs_must_be_positive(self, capsys):
        assert serve_main(["--workload", "clientbuy", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("workload", ["clientbuy", "tpch"])
    @pytest.mark.parametrize("size", ["0", "-50"])
    def test_size_must_be_positive(self, workload, size, capsys):
        args = ["--workload", workload, "--jobs", "1", "--size", size]
        assert serve_main(args) == 2
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            ["--inject-kill", "0"],
            ["--inject-stall", "0:repair"],
            ["--inject-poison", "0:plan:extra"],
        ],
    )
    def test_malformed_fault_specs(self, spec, capsys):
        assert serve_main(["--workload", "clientbuy", *spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repro_main_dispatches_serve(self, capsys):
        args = ["serve", "--workload", "clientbuy", "--jobs", "1",
                "--size", "20", "--expect-clean"]
        assert repro_main(args) == 0
        capsys.readouterr()

    def test_usage_mentions_serve(self, capsys):
        assert repro_main([]) == 2
        assert "serve" in capsys.readouterr().err
