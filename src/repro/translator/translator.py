"""The SQL-to-XQuery translator facade.

Runs the three stages of section 3.4.1 — (i) validate the SQL and capture
semantic information, (ii) move it to XQuery-relevant locations, (iii)
generate the XQuery — and packages the result with the computed result
schema the driver needs to build result sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .. import clock
from ..catalog import MetadataAPI, MetadataCache
from ..obs import NULL_TRACER, MetricsRegistry, Tracer
from ..sql.types import SQLType
from ..xquery import ast as xq
from ..xquery.printer import print_module
from .rsn import ResultColumn
from .stage1 import Stage1Result, run_stage1
from .stage2 import Binder, TranslationUnit
from .stage3 import Generator
from .wrapper import wrap_delimited

#: Result formats (section 4): "recordset" materializes XML, "delimited"
#: uses the text wrapper query.
FORMATS = ("recordset", "delimited")


@dataclass
class TranslationResult:
    """The product of a translation: the XQuery as the tree stage
    three built, which the runtime compiles as it is."""

    sql: str
    module: xq.Module
    format: str
    columns: list[ResultColumn]
    parameter_types: dict[int, SQLType] = field(default_factory=dict)
    #: The stage-one/two state the module was generated from, for
    #: EXPLAIN; None on a result served by a connection's statement
    #: cache, which keeps only what execution needs.
    unit: TranslationUnit | None = None
    #: Per-stage wall time in seconds ("stage1", "stage2", "stage3",
    #: "total"), populated by the full ``translate`` pipeline.
    stage_timings: dict[str, float] = field(default_factory=dict)

    @cached_property
    def xquery(self) -> str:
        """The query text: *module* printed, on first use."""
        return print_module(self.module)

    def parameter_variables(self, values) -> dict[str, object]:
        """Bind positional parameter values to the generated external
        variables ($p1, $p2, ...)."""
        expected = len(self.parameter_types)
        values = list(values)
        if len(values) != expected:
            from ..errors import ProgrammingError
            raise ProgrammingError(
                f"statement takes {expected} parameters, "
                f"{len(values)} given")
        return {f"p{index}": value
                for index, value in enumerate(values, start=1)}


class SQLToXQueryTranslator:
    """Translates SQL-92 SELECT statements into XQuery (sections 3.4-3.5).

    The translator owns a driver-side metadata cache over the remote
    metadata API ("Fetched table metadata is cached locally for further
    use").
    """

    def __init__(self, metadata: MetadataAPI | MetadataCache,
                 tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None):
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = MetricsRegistry() if registry is None else registry
        if isinstance(metadata, MetadataAPI):
            metadata = MetadataCache(metadata, tracer=self.tracer,
                                     registry=self.metrics)
        self.metadata = metadata
        self._translated = self.metrics.counter("queries.translated")
        self._stage_seconds = {
            stage: self.metrics.histogram(f"translate.{stage}.seconds")
            for stage in ("stage1", "stage2", "stage3", "total")
        }

    # Individual stages are exposed for tests, tools, and the stage
    # breakdown benchmark (experiment E13).

    def stage1(self, sql: str) -> Stage1Result:
        return run_stage1(sql)

    def stage2(self, stage1: Stage1Result) -> TranslationUnit:
        return Binder(stage1, self.metadata).bind()

    def stage3(self, unit: TranslationUnit,
               format: str = "recordset") -> TranslationResult:
        generator = Generator(unit)
        columns = unit.bound.result_columns
        if format == "recordset":
            module = generator.generate()
        elif format == "delimited":
            module = generator.generate(
                lambda body: wrap_delimited(body, columns))
        else:
            raise ValueError(
                f"unknown format {format!r}; expected one of {FORMATS}")
        return TranslationResult(
            sql="", module=module, format=format, columns=columns,
            parameter_types=dict(unit.param_types), unit=unit)

    def translate(self, sql: str,
                  format: str = "recordset") -> TranslationResult:
        """Full pipeline: SQL text in, XQuery tree + result schema out.

        Opens a ``translate`` span with ``stage1``/``stage2``/``stage3``
        children (stage two nests one ``metadata.fetch`` span per
        remote table resolution) and records per-stage wall time both
        on ``result.stage_timings`` and in the
        ``translate.<stage>.seconds`` histograms.
        """
        ticks = clock.monotonic
        with self.tracer.span("translate", sql=sql, format=format):
            started = ticks()
            with self.tracer.span("stage1"):
                stage1 = self.stage1(sql)
            after_stage1 = ticks()
            with self.tracer.span("stage2"):
                unit = self.stage2(stage1)
            after_stage2 = ticks()
            with self.tracer.span("stage3"):
                result = self.stage3(unit, format=format)
            finished = ticks()
        result.sql = sql
        result.stage_timings = {
            "stage1": after_stage1 - started,
            "stage2": after_stage2 - after_stage1,
            "stage3": finished - after_stage2,
            "total": finished - started,
        }
        self._translated.increment()
        for stage, seconds in result.stage_timings.items():
            self._stage_seconds[stage].observe(seconds)
        return result
