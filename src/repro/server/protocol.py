"""The DSP wire protocol: length-prefixed JSON frames plus value codecs.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object). JSON keeps the protocol inspectable
and dependency-free; the length prefix keeps framing trivial in both the
asyncio server and the blocking client. A frame larger than *max_frame*
is a protocol error on whichever side reads it — the server must not let
one client balloon its memory, and the client must not trust a confused
server.

A result page travels as the paper's §4 encoding: a slice of the
engine's **delimited text**, cut on a row boundary and never decoded
server-side, beside its row count (``{"text", "rows", "exhausted",
"rowcount"}``). The column kinds travel once per cursor, in the execute
reply's ``description``, and the remote cursor decodes each page with
the decoder the embedded cursor runs (``repro.driver.codec``) — so
``Decimal`` stays ``Decimal``, ``datetime.date`` stays a date, and the
remote-vs-embedded differential can demand type identity.

Statement parameters travel the other way as **tagged lexical values**
(:func:`encode_value` / :func:`decode_value`): they have no schema to
be decoded by until the statement is translated.

Errors cross the wire as ``{"cls": <PEP 249 class name>, "message":
...}`` and are re-raised client-side as the same class
(:func:`raise_error`), so exception-handling code is transport-agnostic.
"""

from __future__ import annotations

import datetime
import json
import socket
import struct
from decimal import Decimal, InvalidOperation

from .. import errors
from ..errors import DRIVER_ERROR_CLASSES, InterfaceError, OperationalError

#: Protocol revision; the handshake rejects a mismatched major.
#: v2 added the write path: the transaction verbs (``begin`` /
#: ``commit`` / ``rollback`` / ``autocommit``) and the ``lastrowid``
#: field in execute replies. v3 changed the ``fetch`` reply from
#: ``"rows": [[tagged cells]]`` to ``"text"`` + ``"rows": n`` and made
#: ``description`` carry each column's own SQL kind; a v2 peer is
#: refused at ``hello``.
PROTOCOL_VERSION = 3

#: Default ceiling on one frame's JSON payload (16 MiB).
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Request verbs a session may send after the handshake.
VERBS = ("hello", "execute", "executemany", "fetch", "close_cursor",
         "metadata", "stats", "health", "close", "cancel",
         "begin", "commit", "rollback", "autocommit")


# ---------------------------------------------------------------------------
# Frame packing / blocking-socket IO (client side; the server reads
# frames with asyncio primitives, see repro.server.core)
# ---------------------------------------------------------------------------


def pack_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire form."""
    payload = json.dumps(message, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


def unpack_payload(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InterfaceError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(message, dict):
        raise InterfaceError(
            f"protocol frame must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def send_frame(sock: socket.socket, message: dict) -> int:
    """Send one frame on a blocking socket; returns bytes written."""
    data = pack_frame(message)
    sock.sendall(data)
    return len(data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise InterfaceError(
                "connection closed by peer mid-frame"
                if chunks or count != _LENGTH.size
                else "connection closed by peer")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_payload(sock: socket.socket,
                 max_frame: int = MAX_FRAME) -> bytes:
    """Read one frame's JSON bytes from a blocking socket (the frame
    occupied ``len(payload) + 4`` bytes of the wire).

    Raises ``InterfaceError`` on EOF, a short read, or an oversized
    length prefix (a corrupt or hostile peer).
    """
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_frame:
        raise InterfaceError(
            f"protocol frame of {length} bytes exceeds the "
            f"{max_frame}-byte limit")
    return _recv_exact(sock, length)


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME) -> dict:
    """Read one frame from a blocking socket (:func:`recv_payload`,
    parsed)."""
    return unpack_payload(recv_payload(sock, max_frame))


# ---------------------------------------------------------------------------
# Typed value codec (statement parameters)
# ---------------------------------------------------------------------------

#: Tag characters for non-string scalars; strings ride as bare JSON
#: strings (the common case pays no wrapper) and NULL as JSON null.
_TAG_ENCODERS = (
    (bool, "b", lambda v: "1" if v else "0"),  # before int: bool is int
    (int, "i", str),
    (float, "f", repr),  # repr round-trips the float exactly
    (Decimal, "d", str),
    (datetime.datetime, "T", lambda v: v.isoformat()),  # before date
    (datetime.date, "D", lambda v: v.isoformat()),
    (datetime.time, "t", lambda v: v.isoformat()),
)

_TAG_DECODERS = {
    "b": lambda text: text == "1",
    "i": int,
    "f": float,
    "d": Decimal,
    "T": datetime.datetime.fromisoformat,
    "D": datetime.date.fromisoformat,
    "t": datetime.time.fromisoformat,
}


def encode_value(value: object):
    """One parameter to its wire form: ``None`` for NULL, a bare
    string for text, else a ``[tag, lexical]`` pair."""
    if value is None:
        return None
    if isinstance(value, str):
        return value
    for kind, tag, render in _TAG_ENCODERS:
        if isinstance(value, kind):
            return [tag, render(value)]
    raise InterfaceError(
        f"cannot send a {type(value).__name__} value over the wire")


def decode_value(wire) -> object:
    """Inverse of :func:`encode_value`."""
    if wire is None or isinstance(wire, str):
        return wire
    if (isinstance(wire, list) and len(wire) == 2
            and isinstance(wire[0], str) and isinstance(wire[1], str)):
        decoder = _TAG_DECODERS.get(wire[0])
        if decoder is not None:
            try:
                return decoder(wire[1])
            except (ValueError, InvalidOperation) as exc:
                raise InterfaceError(
                    f"malformed wire value {wire!r}: {exc}") from exc
    raise InterfaceError(f"malformed wire value {wire!r}")


def encode_row(row) -> list:
    return [encode_value(cell) for cell in row]


def decode_row(wire_row) -> tuple:
    if not isinstance(wire_row, list):
        raise InterfaceError(f"malformed wire row {wire_row!r}")
    return tuple(decode_value(cell) for cell in wire_row)


# ---------------------------------------------------------------------------
# Description and error transport
# ---------------------------------------------------------------------------


def encode_description(columns) -> list:
    """A result schema (``ResultColumn``s) to wire form: per column
    ``[label, kind, precision, scale, nullable]``. *kind* is the
    column's own SQL kind: the client rebuilds the PEP 249 description
    from it and decodes every page of the cursor by it."""
    return [[column.label, column.sql_type.kind, column.sql_type.precision,
             column.sql_type.scale, column.nullable]
            for column in columns]


#: Every class an error frame may name. The server only ever sends PEP
#: 249 classes (``to_driver_error`` runs server-side); the registry
#: itself lives in ``repro.errors`` (``DRIVER_ERROR_CLASSES``) so the
#: wire codec and the rest of the driver share one table instead of
#: ``getattr``-ing the errors module with attacker-chosen names.
ERROR_CLASSES = DRIVER_ERROR_CLASSES


def encode_error(exc: BaseException) -> dict:
    """An exception to its wire form; non-driver classes degrade to
    ``DatabaseError`` so the client never sees an unmappable name."""
    name = type(exc).__name__
    if name not in ERROR_CLASSES:
        name = "DatabaseError"
    return {"cls": name, "message": str(exc)}


def raise_error(payload) -> None:
    """Re-raise a wire error as its PEP 249 class."""
    if not isinstance(payload, dict):
        raise OperationalError(f"server error: {payload!r}")
    cls = ERROR_CLASSES.get(payload.get("cls"), errors.DatabaseError)
    raise cls(payload.get("message", "server error"))
