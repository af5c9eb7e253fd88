"""Sales audit: the full Figure-1 pipeline against a sqlite database.

Uses the paper's experimental Client/Buy schema (Section 4): minors must
not hold credit above 50 nor make purchases above 25.  The example

1. generates a dirty sales database and stores it in a sqlite file,
2. writes the JSON configuration file the repair program consumes,
3. runs the program (config parser -> connectivity -> mapping -> MWSCP
   solver -> export), detecting violations with the SQL of Algorithm 2
   run inside sqlite (the ``pushdown`` engine),
4. updates the database in place and proves it is consistent afterwards.

Run:  python examples/sales_audit.py [n_clients]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro.storage import SqliteBackend
from repro.system import RepairConfig, RepairProgram
from repro.violations import find_all_violations, is_consistent
from repro.workloads import client_buy_workload

CONFIG_TEMPLATE = {
    "schema": {
        "relations": [
            {
                "name": "Client",
                "key": ["id"],
                "attributes": [
                    {"name": "id"},
                    {"name": "a", "flexible": True, "weight": 1.0},
                    {"name": "c", "flexible": True, "weight": 1.0},
                ],
            },
            {
                "name": "Buy",
                "key": ["id", "i"],
                "attributes": [
                    {"name": "id"},
                    {"name": "i"},
                    {"name": "p", "flexible": True, "weight": 1.0},
                ],
            },
        ]
    },
    "constraints": [
        "ic1: NOT(Buy(id, i, p), Client(id, a, c), a < 18, p > 25)",
        "ic2: NOT(Client(id, a, c), a < 18, c > 50)",
    ],
    "algorithm": "modified-greedy",
    "metric": "l1",
    "runtime": {"engine": "pushdown"},
    "export": {"mode": "update"},
}


def main(n_clients: int = 1500) -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-sales-"))
    db_path = workdir / "sales.db"
    config_path = workdir / "repair-config.json"

    # 1. materialize a dirty sales database in sqlite
    workload = client_buy_workload(n_clients, inconsistency_ratio=0.3, seed=42)
    SqliteBackend.from_instance(workload.instance, str(db_path)).close()
    print(f"created {db_path} with {workload.size} tuples")

    # 2. write the configuration file (Figure 1's input)
    config_data = dict(CONFIG_TEMPLATE)
    config_data["source"] = {"backend": "sqlite", "path": str(db_path)}
    config_path.write_text(json.dumps(config_data, indent=2), encoding="utf-8")
    print(f"wrote {config_path}")

    # 3. run the repair program
    config = RepairConfig.from_file(config_path)
    program = RepairProgram(config)
    report = program.run()
    print("\n== repair program report ==")
    print(report.summary())

    # 4. the sqlite file now satisfies the constraints
    backend = SqliteBackend(str(db_path))
    repaired = backend.load_instance(config.schema)
    assert is_consistent(repaired, config.constraints, engine="pushdown")
    leftover = find_all_violations(repaired, config.constraints, engine="pushdown")
    assert not leftover
    backend.close()
    print("\nsqlite database verified consistent after in-place update")
    print(f"(artifacts kept in {workdir})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1500)
