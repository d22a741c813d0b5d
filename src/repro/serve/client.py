"""Minimal async client for the job server.

Speaks the server's one-request-per-connection HTTP/1.1 dialect over
asyncio streams (TCP or unix socket) — enough for the load-test
harness, the CI smoke driver, and the tests, with zero dependencies.

Wait-mode submission (the default) resolves to the final job snapshot;
:meth:`ServeClient.stream_job` yields the NDJSON event feed
(``queued`` ... ``chunk`` ... ``done``) as the server emits it.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from .body import MAX_BODY_BYTES, decode_json, encode_json

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServeClient:
    """One server endpoint: ``ServeClient(host, port)`` or
    ``ServeClient(unix_socket=path)``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 unix_socket: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.unix_socket = unix_socket

    async def _connect(self, **stream_kw) -> Tuple[asyncio.StreamReader,
                                                   asyncio.StreamWriter]:
        if self.unix_socket:
            return await asyncio.open_unix_connection(self.unix_socket,
                                                      **stream_kw)
        return await asyncio.open_connection(self.host, self.port,
                                             **stream_kw)

    async def _send(self, writer: asyncio.StreamWriter, method: str,
                    path: str, payload: Optional[Dict[str, Any]]) -> None:
        body = b"" if payload is None else encode_json(payload)
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    @staticmethod
    async def _read_head(reader: asyncio.StreamReader
                         ) -> Tuple[int, Dict[str, str]]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        return status, headers

    async def request(self, method: str, path: str,
                      payload: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        """One JSON request/response round trip.  Raises
        :class:`ServeError` on non-2xx."""
        reader, writer = await self._connect()
        try:
            await self._send(writer, method, path, payload)
            status, headers = await self._read_head(reader)
            length = int(headers.get("content-length", 0) or 0)
            raw = await reader.readexactly(length) if length \
                else await reader.read()
            obj = decode_json(raw or b"{}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
        if status >= 400:
            raise ServeError(status, obj)
        return obj

    # ------------------------------------------------------------------
    # the API surface
    # ------------------------------------------------------------------
    async def health(self) -> Dict[str, Any]:
        return await self.request("GET", "/v1/health")

    async def stats(self) -> Dict[str, Any]:
        return await self.request("GET", "/v1/stats")

    async def job(self, job_id: int) -> Dict[str, Any]:
        return await self.request("GET", f"/v1/jobs/{job_id}")

    async def upload_operand(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Materialize + cache an operand; returns ``{"hash", "cached"}``."""
        return await self.request("POST", "/v1/operands", {"spec": spec})

    async def submit_job(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Wait-mode submission: resolves to the final job snapshot."""
        return await self.request("POST", "/v1/jobs", payload)

    async def stream_job(self, payload: Dict[str, Any]
                         ) -> AsyncIterator[Dict[str, Any]]:
        """Submit with ``stream=true`` and yield each NDJSON event."""
        payload = dict(payload)
        payload["stream"] = True
        # an event is one line, as long as a body may be; the wait-mode
        # connections keep asyncio's limit, which paces their reads
        reader, writer = await self._connect(limit=MAX_BODY_BYTES)
        try:
            await self._send(writer, "POST", "/v1/jobs", payload)
            status, headers = await self._read_head(reader)
            if "ndjson" not in headers.get("content-type", ""):
                length = int(headers.get("content-length", 0) or 0)
                raw = await reader.readexactly(length) if length \
                    else await reader.read()
                raise ServeError(status, decode_json(raw or b"{}"))
            while True:
                line = await reader.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield decode_json(line)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
