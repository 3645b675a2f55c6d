"""Neutralize the executor-shape env overrides for this package.

Every test in here pins ``batch_size`` (and, in the parallel
differentials, ``parallelism``/``parallel_min_rows``) explicitly on
the batched side of a differential whose other leg is the Evaluator
(``harness.evaluator_leg``) or a true serial leg (``parallelism=0``),
so the env knobs — which win over the config for A/B runs of the rest
of the suite — must not leak in. The CI ``REPRO_BATCH_SIZE=1`` and
``REPRO_PARALLELISM=2`` legs therefore run the committed differentials
unchanged while reshaping everything else.
"""

import pytest


@pytest.fixture(autouse=True)
def _pin_executor_shape(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
    monkeypatch.delenv("REPRO_PARALLELISM", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_MIN_ROWS", raising=False)
