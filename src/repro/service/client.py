"""Blocking client for the hardening service.

Used by the ``query`` CLI verb and the test/bench harnesses; any
program that can open a TCP socket and speak line-delimited JSON can
do without it.

:meth:`ServiceClient.call` returns the ``result`` object of a
successful response and raises
:class:`~repro.service.protocol.ServiceError` otherwise, so call sites
dispatch on typed codes.  ``RETRY_LATER`` is retried automatically up
to ``retries`` times, honouring the server's ``retry_after_ms`` hint —
the polite-client half of the admission-control contract.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.service.protocol import (
    ErrorCode,
    Request,
    Response,
    ServiceError,
)


def wait_for_service(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> bool:
    """Poll until a TCP listener answers at (host, port)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=interval * 4):
                return True
        except OSError:
            time.sleep(interval)
    return False


class ServiceClient:
    """One connection to the daemon; safe for sequential use."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7411,
        timeout: float = 120.0,
        retries: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 0

    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(
        self,
        op: str,
        params: Optional[dict] = None,
        deadline_ms: Optional[float] = None,
    ) -> Response:
        """One round trip; returns the decoded response envelope."""
        self.connect()
        self._next_id += 1
        request = Request(
            op=op,
            params=params or {},
            id=f"c{self._next_id}",
            deadline_ms=deadline_ms,
        )
        assert self._file is not None
        self._file.write(request.encode())
        self._file.flush()
        line = self._file.readline()
        if not line:
            self.close()
            raise ConnectionError("service closed the connection")
        return Response.decode(line)

    def call(
        self,
        op: str,
        params: Optional[dict] = None,
        deadline_ms: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> dict:
        """The result of a successful response, retrying RETRY_LATER."""
        attempts = (self.retries if retries is None else retries) + 1
        last: Optional[ServiceError] = None
        for attempt in range(attempts):
            response = self.request(op, params, deadline_ms)
            if response.ok:
                return response.result or {}
            error = response.error or {}
            last = ServiceError(
                error.get("code", ErrorCode.INTERNAL),
                error.get("message", "unknown error"),
                error.get("retry_after_ms"),
            )
            if last.code != ErrorCode.RETRY_LATER or attempt + 1 >= attempts:
                raise last
            time.sleep((last.retry_after_ms or 100) / 1000.0)
        raise last  # pragma: no cover - loop always raises or returns

    # ------------------------------------------------------------------
    def declaration(self, function: str, semi_auto: bool = False, **kw) -> dict:
        return self.call(
            "declaration", {"function": function, "semi_auto": semi_auto}, **kw
        )

    def inject(self, function: str, **kw) -> dict:
        return self.call("inject", {"function": function}, **kw)

    def harden(
        self,
        functions: Optional[list[str]] = None,
        semi_auto: bool = False,
        include_source: bool = False,
        **kw,
    ) -> dict:
        params: dict[str, object] = {
            "semi_auto": semi_auto, "include_source": include_source
        }
        if functions is not None:
            params["functions"] = list(functions)
        return self.call("harden", params, **kw)

    def ballista(
        self,
        functions: list[str],
        configurations: Optional[list[str]] = None,
        **kw,
    ) -> dict:
        params: dict[str, object] = {"functions": list(functions)}
        if configurations is not None:
            params["configurations"] = list(configurations)
        return self.call("ballista", params, **kw)

    def validate(
        self,
        calls: list[dict],
        semi_auto: bool = False,
        policy: str = "robust",
        execute: bool = False,
        fault_models: Optional[list[str]] = None,
        **kw,
    ) -> dict:
        """Batch-validate ``[{"function", "args"}, ...]`` in one
        request (one admission ticket for the whole batch)."""
        params: dict[str, object] = {
            "calls": list(calls),
            "semi_auto": semi_auto,
            "policy": policy,
            "execute": execute,
        }
        if fault_models is not None:
            params["fault_models"] = list(fault_models)
        return self.call("validate", params, **kw)

    def status(self, **kw) -> dict:
        return self.call("status", **kw)

    def metrics_text(self, **kw) -> str:
        return str(self.call("metrics", **kw).get("body", ""))
