"""The ``solver_stats`` schema: the one place its keys and types live.

``RepairResult.solver_stats`` accumulates bookkeeping from three layers
(the set-cover solver, the component decomposition, the engine), and
historically each layer coerced values ad hoc - counts came back as
``float`` from the decomposition's merge loop while the engine stored
others as ``int``.  :func:`normalize_solver_stats` applied at the
result boundary makes the schema uniform:

==========================  =======  =====================================
key                         type     meaning
==========================  =======  =====================================
``scanned_sets``            int      greedy: candidate sets scanned
``heap_updates``            int      modified greedy/layer: heap operations
``nodes``                   int      exact: branch-and-bound nodes
``phi``                     float    modified layer: final price offset (max)
``frequency``               int      max element frequency f (bound factor, max)
``components``              int      decomposition: connected components
``oversized_components``    int      components solved by the fallback
``detection_engine``        str      ``kernel`` / ``interpreted`` / ``pushdown``
``incidence``               int      CSR incidence size (nnz)
==========================  =======  =====================================

Unknown keys pass through unchanged (solvers may add new counters before
this table learns about them); unknown *count-like* values (floats with
no fractional part under a key listed in :data:`COUNT_KEYS`) are
converted to ``int``.  Stage wall-clock timings are deliberately *not*
part of ``solver_stats``: they live in ``RepairResult.elapsed_seconds``,
which a traced run derives from the span tree (see
:mod:`repro.obs.spans`).
"""

from __future__ import annotations

from typing import Any, Mapping

#: Keys whose values are counts and therefore always ``int``.
COUNT_KEYS = frozenset(
    {
        "scanned_sets",
        "heap_updates",
        "nodes",
        "frequency",
        "components",
        "oversized_components",
        "incidence",
    }
)

#: Keys whose values are labels and therefore ``str``.
LABEL_KEYS = frozenset({"detection_engine"})


def normalize_solver_stats(stats: Mapping[str, Any]) -> dict[str, Any]:
    """Coerce a raw stats mapping onto the documented schema.

    Count keys become ``int`` (a float count like ``4.0`` is the
    decomposition merge loop's summation artifact); label keys become
    ``str``; everything else passes through untouched.
    """
    normalized: dict[str, Any] = {}
    for key, value in stats.items():
        if key in COUNT_KEYS and isinstance(value, float) and value.is_integer():
            normalized[key] = int(value)
        elif key in LABEL_KEYS:
            normalized[key] = str(value)
        else:
            normalized[key] = value
    return normalized
