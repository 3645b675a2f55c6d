"""Execution engines (S6+S7 in DESIGN.md).

In-memory relational storage, the reference SQL-92 executor used as the
translator's correctness oracle and benchmark baseline, and the DSP
runtime that hosts data services and executes XQuery.
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
    TenantQuota,
    TenantSlot,
)
from .sqlexec import (
    ResultTable,
    SQLExecutor,
    TableProvider,
    canonical_value,
    row_key,
    sql_cast,
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
    "ResultTable",
    "RetryPolicy",
    "SQLExecutor",
    "Storage",
    "Table",
    "TableProvider",
    "TenantQuota",
    "TenantSlot",
    "TransactionManager",
    "callable_function",
    "canonical_value",
    "csv_function",
    "coerce_value",
    "import_source",
    "import_tables",
    "install_fault",
    "logical_function",
    "make_faulty",
    "mutation_parameter_count",
    "plan_mutation",
    "row_key",
    "source_function",
    "sql_cast",
]
