"""A minimal HTTP/1.1 layer on asyncio streams — stdlib only.

The service needs exactly enough HTTP to be a good citizen: request
line + headers + ``Content-Length`` bodies in, status line + JSON out,
keep-alive by default, and hard caps on header and body sizes so a
misbehaving client cannot balloon memory (the same bounded-resource
discipline the admission queue applies to well-formed traffic).
Anything fancier — chunked encoding, TLS, HTTP/2 — is out of scope on
purpose; the point is a dependency-free serving surface for the
batched kernels. A request that names a ``Transfer-Encoding`` is
refused with a 501 and the connection closed: reading it as an empty
body would parse the chunk bytes as the next request.

The router contract is tiny: an async callable
``route(method, path, body_bytes) -> (status, payload_dict, headers)``
— :class:`~repro.serve.service.SweepService` provides it, and tests
can provide a stub.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Mapping

__all__ = ["STATUS_REASONS", "read_request", "write_response", "serve_connection"]

#: Reason phrases for every status the service emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_HEADER_LINES = 100


class _HttpError(Exception):
    """A malformed request that still deserves a structured reply."""

    def __init__(
        self, status: int, detail: str, error: str = "bad_request"
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.error = error


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int
) -> "tuple[str, str, bytes, bool] | None":
    """Parse one request: ``(method, path, body, keep_alive)``.

    Returns ``None`` on a clean EOF before a request line (the client
    closed an idle keep-alive connection). Raises :class:`_HttpError`
    for anything malformed or oversized.
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as error:
        raise _HttpError(400, f"request line too long: {error}") from error
    if not request_line:
        return None
    try:
        method, path, version = request_line.decode("ascii").split()
    except ValueError as error:
        raise _HttpError(
            400, f"malformed request line: {request_line[:80]!r}"
        ) from error
    if not version.startswith("HTTP/1."):
        raise _HttpError(400, f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise _HttpError(400, f"header line too long: {error}") from error
        if line in (b"\r\n", b"\n", b""):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise _HttpError(400, f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, f"more than {_MAX_HEADER_LINES} header lines")
    if "transfer-encoding" in headers:
        raise _HttpError(
            501,
            f"transfer-encoding {headers['transfer-encoding']!r} is not "
            f"supported; send a content-length body",
            "not_implemented",
        )
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as error:
        raise _HttpError(
            400, f"malformed content-length: {length_text!r}"
        ) from error
    if length < 0:
        raise _HttpError(400, f"negative content-length: {length}")
    if length > max_body:
        raise _HttpError(
            413, f"body of {length} bytes exceeds the {max_body}-byte cap"
        )
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise _HttpError(
                400, f"body truncated at {len(error.partial)}/{length} bytes"
            ) from error
    return method, path, body, keep_alive


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    headers: "Mapping[str, str] | None" = None,
) -> None:
    """Serialize ``payload`` as JSON and write one HTTP/1.1 response."""
    body = json.dumps(payload, default=repr).encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
    await writer.drain()


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    route: Callable[[str, str, bytes], "Awaitable[tuple[int, Any, dict]]"],
    *,
    max_body: int,
    closing: Callable[[], bool] = lambda: False,
) -> None:
    """Serve one keep-alive connection until EOF, error, or drain.

    ``closing()`` is polled after each response; once it reports true
    the connection is told ``Connection: close`` and the loop exits —
    the request that was already read is still answered (the drain
    zero-loss guarantee extends down to the socket).
    """
    try:
        while True:
            try:
                parsed = await read_request(reader, max_body=max_body)
            except _HttpError as error:
                await write_response(
                    writer,
                    error.status,
                    {"error": error.error, "detail": error.detail},
                    keep_alive=False,
                )
                break
            if parsed is None:
                break
            method, path, body, keep_alive = parsed
            status, payload, extra_headers = await route(method, path, body)
            keep_alive = keep_alive and not closing()
            await write_response(
                writer,
                status,
                payload,
                keep_alive=keep_alive,
                headers=extra_headers,
            )
            if not keep_alive:
                break
    except (ConnectionError, asyncio.CancelledError):
        pass  # client went away or the server is tearing down
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass
