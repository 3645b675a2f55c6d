"""XML character escaping and unescaping.

These are the primitives behind both the XML serializer and the
``fn-bea:xml-escape`` function the paper's result-wrapper queries use.
"""

from __future__ import annotations

import re

from ..errors import XMLParseError

_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
}
_ATTR_ESCAPES = {**_ESCAPES, '"': "&quot;"}

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_ENTITY_RE = re.compile(r"&(#x[0-9A-Fa-f]+|#[0-9]+|[A-Za-z]+);")


def has_specials(text: str) -> bool:
    """Whether :func:`escape_text` would change *text*."""
    return "&" in text or "<" in text or ">" in text


def escape_text(text: str) -> str:
    """Escape character data for use as element content."""
    if not has_specials(text):
        return text
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def escape_attribute(text: str) -> str:
    """Escape character data for use inside a double-quoted attribute."""
    if "&" not in text and "<" not in text and ">" not in text \
            and '"' not in text:
        return text
    return "".join(_ATTR_ESCAPES.get(ch, ch) for ch in text)


def unescape(text: str) -> str:
    """Replace entity and character references with their characters."""

    def _sub(match: re.Match[str]) -> str:
        body = match.group(1)
        if body.startswith("#x") or body.startswith("#X"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        try:
            return _NAMED_ENTITIES[body]
        except KeyError:
            raise XMLParseError(f"unknown entity reference &{body};") from None

    return _ENTITY_RE.sub(_sub, text)
