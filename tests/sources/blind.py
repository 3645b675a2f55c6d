"""The no-pushdown reference of the differential tests.

A source whose ``capabilities()`` is ``SourceCapabilities()`` accepts
no predicate and no projection, so ``filter_request`` asks it for
nothing: every scan is a plain full scan, which a pushed scan's result
must equal.
"""

from repro.sources.spi import SourceCapabilities


def without_pushdown(runtime):
    """*runtime* with every registered source made blind to pushed
    requests (its ``capabilities()`` returns ``SourceCapabilities()``).
    Returns *runtime*."""
    for source in runtime.sources.values():
        source.capabilities = SourceCapabilities
    return runtime
