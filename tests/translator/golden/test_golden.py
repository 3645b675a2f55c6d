"""The generated XQuery text is frozen: ``corpus.json`` is what stage
three emitted before it was rebuilt to construct AST nodes, and every
statement must still come out byte for byte (see ``freeze.py`` for what
the corpus holds and how to regenerate it)."""

from __future__ import annotations

import functools
import json

import pytest

from .freeze import CORPUS, FORMATS, demo_translator, fuzz_translator

ENTRIES = json.loads(CORPUS.read_text())


@functools.lru_cache(maxsize=2)
def translator_for(schema):
    return demo_translator() if schema == "demo" \
        else fuzz_translator(schema)


def test_corpus_is_what_the_freeze_asked_for():
    groups = [entry["id"].split("-")[0] for entry in ENTRIES]
    assert groups.count("fuzz") == 200
    assert {"C1", "C2", "C3", "C4", "C5", "shape"} <= set(groups)
    assert len({entry["id"] for entry in ENTRIES}) == len(ENTRIES)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["id"])
def test_text_is_byte_identical(entry):
    translator = translator_for(entry["schema"])
    for fmt in FORMATS:
        text = translator.translate(entry["sql"], format=fmt).xquery
        assert text == "\n".join(entry[fmt]), (fmt, entry["sql"])
