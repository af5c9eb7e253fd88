"""Storage backends: the database-connectivity component of Figure 1.

The paper's system loads tuples from a DBMS (Oracle 10g via JDBC) and
evaluates per-constraint SQL violation views inside it.  We provide the
same seam behind a small protocol: an in-memory backend (the default for
library use) and a sqlite backend that executes the Algorithm-2 SQL for
the ``pushdown`` detection engine and implements the three repair-export
modes of the configuration file (update in place / insert into new
tables / dump to text).
"""

from repro.storage.base import Backend, ExportMode
from repro.storage.memory import MemoryBackend
from repro.storage.sqlite import SqliteBackend
from repro.storage.csvdir import CsvBackend
from repro.storage.duckdb import DuckDBBackend, duckdb_available
from repro.storage.witnesses import DEFAULT_BATCH_ROWS, stream_witness_sets

__all__ = [
    "Backend",
    "CsvBackend",
    "DEFAULT_BATCH_ROWS",
    "DuckDBBackend",
    "ExportMode",
    "MemoryBackend",
    "SqliteBackend",
    "duckdb_available",
    "stream_witness_sets",
]
