"""Execution engines (S6+S7 in DESIGN.md).

In-memory relational storage, the DSP runtime that hosts data services
and executes XQuery, and the write path that runs DML on it. (The
naive SQL-92 oracle that checks translations lives with the tests.)
"""

from .dml import MutationPlan, mutation_parameter_count, plan_mutation
from .dsp import (
    DSPRuntime,
    callable_function,
    csv_function,
    import_source,
    import_tables,
    logical_function,
    source_function,
)
from .faults import FaultProfile, FaultyBinding, install_fault, make_faulty
from .lifecycle import (
    AdmissionController,
    AdmissionSlot,
    CancellationToken,
    QueryContext,
    RetryPolicy,
)
from .table import Storage, Table, coerce_value
from .txn import TransactionManager

__all__ = [
    "AdmissionController",
    "AdmissionSlot",
    "CancellationToken",
    "DSPRuntime",
    "FaultProfile",
    "FaultyBinding",
    "MutationPlan",
    "QueryContext",
    "RetryPolicy",
    "Storage",
    "Table",
    "TransactionManager",
    "callable_function",
    "csv_function",
    "coerce_value",
    "import_source",
    "import_tables",
    "install_fault",
    "logical_function",
    "make_faulty",
    "mutation_parameter_count",
    "plan_mutation",
    "source_function",
]
