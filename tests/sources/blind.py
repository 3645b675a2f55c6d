"""The no-pushdown reference of the differential tests.

Each source is wrapped so that every ``scan`` is sent no request: every
scan is a plain full scan, which a pushed scan's result must equal.
"""


def _blind(scan):
    def blind_scan(table, request=None, context=None, **options):
        return scan(table, None, context, **options)
    return blind_scan


def without_pushdown(runtime):
    """*runtime* with every registered source's ``scan`` wrapped to
    drop the request (``scan(table, None, ...)``). Returns *runtime*."""
    for source in runtime.sources.values():
        source.scan = _blind(source.scan)
    return runtime
