"""One DSN grammar for both connect modes (embedded and remote).

The driver historically parsed ``repro://`` URLs inline in ``connect``;
with the network server there are now two transports behind one API, so
the grammar lives here as a single parsed :class:`DSN` value:

* ``repro://<application>/<project>?format=xml&timeout=5`` — embedded:
  the application resolves against the in-process runtime registry
  (``repro.driver.register_runtime``).
* ``repro+tcp://<host>[:<port>]/<application>/<project>?token=...`` —
  remote: the application is hosted by a ``repro.server`` instance at
  *host:port* (default port :data:`DEFAULT_PORT`) and the connection
  speaks the length-prefixed JSON frame protocol.

Query parameters are scheme-checked and type-coerced here; an unknown
key is an ``InterfaceError``, never silently ignored — a typo in
``?timeuot=5`` must not become an unbounded query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from ..errors import InterfaceError

#: Default TCP port of ``repro.server`` (``python -m repro.server``).
DEFAULT_PORT = 9944

EMBEDDED_SCHEME = "repro"
REMOTE_SCHEME = "repro+tcp"
SCHEMES = (EMBEDDED_SCHEME, REMOTE_SCHEME)

#: Query parameters understood by *both* transports, with their
#: coercions and the ``RuntimeConfig`` field they map to.
_COMMON_PARAMS = {
    "format": (str, "format"),
    "timeout": (float, "default_timeout"),
}

#: Parameters that only make sense in-process (they tune caches the
#: client never sees when the statement cache lives server-side).
_EMBEDDED_PARAMS = {
    "statement_cache_capacity": (int, "statement_cache_capacity"),
    "metadata_cache_capacity": (int, "metadata_cache_capacity"),
}

#: Parameters that only make sense over the wire.
_REMOTE_PARAMS = {
    "token": (str, None),  # credential, not a config field
    "connect_timeout": (float, "remote_connect_timeout"),
}


@dataclass(frozen=True)
class DSN:
    """A parsed data-source name: where to connect and how.

    ``options`` holds the coerced query parameters keyed by their
    :class:`repro.RuntimeConfig` field name, ready for
    ``config.replace(**dsn.options)``; credentials (``token``) stay out
    of the config and live on the DSN itself.
    """

    scheme: str
    application: str
    project: str = ""
    host: Optional[str] = None
    port: Optional[int] = None
    options: dict = field(default_factory=dict)
    token: Optional[str] = None

    @property
    def remote(self) -> bool:
        return self.scheme == REMOTE_SCHEME

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` endpoint (remote DSNs only)."""
        if not self.remote:
            raise InterfaceError(
                f"embedded DSN repro://{self.application} has no "
                f"network address")
        return self.host, self.port if self.port is not None \
            else DEFAULT_PORT

    def display(self) -> str:
        """The DSN back as a string, with the token redacted."""
        if self.remote:
            where = f"{self.host}:{self.port or DEFAULT_PORT}"
            path = "/".join(p for p in (self.application, self.project)
                            if p)
            return f"{REMOTE_SCHEME}://{where}/{path}"
        path = self.project and f"/{self.project}" or ""
        return f"{EMBEDDED_SCHEME}://{self.application}{path}"


def parse_dsn(dsn: str) -> DSN:
    """Parse a ``repro://`` or ``repro+tcp://`` DSN string.

    Raises :class:`repro.InterfaceError` for an unknown scheme, a
    missing application/host, an unknown query key, a query key that
    belongs to the other transport, or a value that fails coercion.
    """
    parts = urlsplit(dsn)
    if parts.scheme not in SCHEMES:
        raise InterfaceError(
            f"unsupported DSN scheme {parts.scheme!r}; expected "
            f"repro://<application>/<project> or "
            f"repro+tcp://<host>:<port>/<application>/<project>")
    remote = parts.scheme == REMOTE_SCHEME
    if remote:
        host = parts.hostname
        if not host:
            raise InterfaceError(f"DSN {dsn!r} names no host")
        try:
            port = parts.port  # urlsplit validates the int
        except ValueError:
            raise InterfaceError(
                f"DSN {dsn!r} has a malformed port") from None
        segments = [s for s in parts.path.split("/") if s]
        if not segments:
            raise InterfaceError(f"DSN {dsn!r} names no application")
        if len(segments) > 2:
            raise InterfaceError(
                f"DSN {dsn!r} has extra path segments; expected "
                f"/<application>/<project>")
        application = segments[0]
        project = segments[1] if len(segments) > 1 else ""
        params = dict(_COMMON_PARAMS, **_REMOTE_PARAMS)
        wrong_side = _EMBEDDED_PARAMS
    else:
        host = port = None
        application = parts.netloc
        if not application:
            raise InterfaceError(f"DSN {dsn!r} names no application")
        project = parts.path.strip("/")
        if "/" in project:
            raise InterfaceError(
                f"DSN {dsn!r} has extra path segments; expected "
                f"repro://<application>/<project>")
        params = dict(_COMMON_PARAMS, **_EMBEDDED_PARAMS)
        wrong_side = _REMOTE_PARAMS
    options: dict = {}
    token: Optional[str] = None
    for key, raw in parse_qsl(parts.query, keep_blank_values=True):
        spec = params.get(key)
        if spec is None:
            if key in wrong_side:
                other = EMBEDDED_SCHEME if remote else REMOTE_SCHEME
                this = REMOTE_SCHEME if remote else EMBEDDED_SCHEME
                raise InterfaceError(
                    f"DSN parameter {key!r} applies to {other}:// DSNs, "
                    f"not {this}://")
            raise InterfaceError(
                f"unknown DSN parameter {key!r}; expected one of "
                f"{sorted(params)}")
        coerce, target = spec
        try:
            value = coerce(raw)
        except ValueError:
            raise InterfaceError(
                f"bad value {raw!r} for DSN parameter {key!r}") from None
        if target is None:
            token = value
        else:
            options[target] = value
    return DSN(scheme=parts.scheme, application=application,
               project=project, host=host, port=port, options=options,
               token=token)
