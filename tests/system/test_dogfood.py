"""CI dogfood: lint + strict plan compilation over every bundled workload.

The constraint-lint CI leg runs ``repro lint`` and ``repro compile
--strict`` over all bundled workloads and asserts specific exit codes.
This suite pins the same matrix in-process so a behavior change that
would break the CI leg fails the tier-1 suite first, with a readable
diff of which workload moved.

Expected matrix (exit codes):

==========  ====================  ===============  =======================
workload    lint --fail-on error  compile          compile --strict
==========  ====================  ===============  =======================
clientbuy   0                     0                0
finance     0                     0                0
census      0                     0                0
paperdemo   0                     0                0
tpch        0                     0                1  (tq6 is conditional)
==========  ====================  ===============  =======================

``repro-repair CONFIG`` with a retired worker-pool option
(``--parallel process``, ``--max-workers N``) is a usage error: exit 2.
A config that still carries the retired ``violation_detection`` key, or
data a constraint's built-in cannot compare (``Buy.i = "0"`` against
``i < 1``), exits 1 with a one-line ``error:`` and no traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.system.cli import LINT_WORKLOADS, main, repro_main

#: workload -> (lint rc, compile rc, compile --strict rc)
EXPECTED = {
    "clientbuy": (0, 0, 0),
    "finance": (0, 0, 0),
    "census": (0, 0, 0),
    "paperdemo": (0, 0, 0),
    # tq6's kernel/pushdown execution is data-dependent (LINT050/051):
    # plain compilation succeeds (the runtime falls back to the
    # interpreted engine), strict compilation refuses with exit 1.
    "tpch": (0, 0, 1),
}


def test_matrix_covers_every_bundled_workload() -> None:
    assert set(EXPECTED) == set(LINT_WORKLOADS)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_lint_exit_code(workload: str, capsys: pytest.CaptureFixture) -> None:
    rc = repro_main(["lint", "--workload", workload, "--fail-on", "error"])
    capsys.readouterr()
    assert rc == EXPECTED[workload][0]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_compile_exit_code(workload: str, capsys: pytest.CaptureFixture) -> None:
    rc = repro_main(["compile", "--workload", workload])
    capsys.readouterr()
    assert rc == EXPECTED[workload][1]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_compile_strict_exit_code(
    workload: str, capsys: pytest.CaptureFixture
) -> None:
    rc = repro_main(["compile", "--workload", workload, "--strict"])
    captured = capsys.readouterr()
    assert rc == EXPECTED[workload][2]
    if rc == 1:
        # The refusal must be a structured strict-compilation error that
        # names the offending constraint, not a crash or usage error.
        assert "strict compilation failed" in captured.err
        assert "LINT061" in captured.err


def test_compile_all_workloads_in_one_invocation(
    capsys: pytest.CaptureFixture,
) -> None:
    args = ["compile"]
    for workload in LINT_WORKLOADS:
        args += ["--workload", workload]
    rc = repro_main(args)
    captured = capsys.readouterr()
    assert rc == 0
    for workload in LINT_WORKLOADS:
        assert f"workload:{workload}" in captured.out


@pytest.mark.parametrize(
    "args",
    [["--parallel", "process"], ["--max-workers", "2"], ["--max-workers", "0"]],
    ids=["parallel-process", "max-workers-2", "max-workers-0"],
)
def test_retired_pool_options_exit_2(
    args: "list[str]", tmp_path, capsys: pytest.CaptureFixture
) -> None:
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema": {
                    "relations": [
                        {
                            "name": "Client",
                            "key": ["id"],
                            "attributes": [
                                {"name": "id"},
                                {"name": "a", "flexible": True},
                            ],
                        }
                    ]
                },
                "constraints": ["ic1: NOT(Client(id, a), a < 18)"],
                "source": {"backend": "memory", "rows": {"Client": [[1, 15]]}},
            }
        )
    )
    with pytest.raises(SystemExit) as exc:
        main([str(config), *args])
    capsys.readouterr()
    assert exc.value.code == 2


BUY_SCHEMA = {
    "relations": [
        {
            "name": "Buy",
            "key": ["id", "i"],
            "attributes": [
                {"name": "id"},
                {"name": "i"},
                {"name": "p", "flexible": True},
            ],
        }
    ]
}


@pytest.mark.parametrize(
    "extra, rows, needle",
    [
        ({"violation_detection": "sql"}, [[1, 0, 50]], "runtime.engine"),
        ({}, [[1, "0", 50], [2, 1, 50]], "Buy.i"),
    ],
    ids=["violation-detection-key", "incomparable-buy-i"],
)
def test_structured_errors_exit_1(
    extra: "dict", rows: "list", needle: str, tmp_path, capsys: pytest.CaptureFixture
) -> None:
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "schema": BUY_SCHEMA,
                "constraints": ["h1: NOT(Buy(id, i, p), i < 1, p > 40)"],
                "source": {"backend": "memory", "rows": {"Buy": rows}},
                **extra,
            }
        )
    )
    rc = main([str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert needle in lines[0]
    assert "Traceback" not in captured.err + captured.out
