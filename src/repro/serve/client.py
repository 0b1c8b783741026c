"""The blocking client for the mapping service.

Stdlib-only: :class:`ServeClient` rides :mod:`http.client` (keep-alive
per connection; give each thread its own instance).  It returns
:class:`ServeResponse` — the decoded response document plus the
per-request headers the server keeps *out* of the body (source, batch
size, digest, answering shard) — and raises :class:`ServeError`
carrying the service's typed error code for non-2xx answers.

Backpressure is a client concern too: ``retries=N`` (opt-in, default
off) makes ``experiment()``/``batch()`` honor the server's
``Retry-After`` on 429/503 with capped, jittered exponential backoff
instead of surfacing the error — the polite way to ride out a
saturated or draining shard.  The same client talks to a single
``repro serve`` and to a shard cluster's router; the protocol is
identical by construction.

Used by the ``repro request`` CLI, the shard cluster's start-up health
poll, the serve/shard tests and ``benchmarks/bench_serve.py`` /
``bench_shard.py``.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.serve.protocol import (
    ERROR_RECORD,
    batch_request_doc,
    encode_doc,
    request_doc,
)

__all__ = ["ServeError", "ServeResponse", "ServeClient"]

#: Ceiling on a single backoff sleep (seconds).
MAX_BACKOFF_S = 30.0


def _retryable(exc: "ServeError") -> bool:
    """Overload (429) and drain (503) answers carrying Retry-After."""
    return exc.http_status in (429, 503) and exc.retry_after_s is not None


def _backoff_s(attempt: int, retry_after_s: float | None, cap: float) -> float:
    """Capped, jittered exponential backoff seeded by ``Retry-After``.

    The server's hint is the *base*; each retry doubles it, the cap
    bounds it, and the 50–100% jitter de-synchronises the thundering
    herd a 429 storm would otherwise re-create on the retry boundary.
    """
    base = max(float(retry_after_s or 1.0), 0.05)
    return min(cap, base * (2.0 ** attempt)) * random.uniform(0.5, 1.0)


class ServeError(Exception):
    """A typed error answer (or transport-level failure) from the service."""

    def __init__(
        self,
        code: str,
        message: str,
        http_status: int = 0,
        retry_after_s: float | None = None,
        request_id: str = "",
        shard: str = "",
    ):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.http_status = http_status
        self.retry_after_s = retry_after_s
        #: Correlation id — the server stamps X-Repro-Request-Id on
        #: error responses too, so failures are traceable.
        self.request_id = request_id
        #: X-Repro-Shard header — which member (or "router") answered.
        self.shard = shard


@dataclass(frozen=True)
class ServeResponse:
    """One successful answer: body document + serving metadata."""

    doc: dict[str, Any]
    status: int
    #: Raw response body — what byte-identity assertions compare.
    body: bytes
    #: "simulated" | "coalesced" | "cache" (X-Repro-Source header).
    source: str = ""
    #: Per-item sources of a batch answer (X-Repro-Sources header).
    sources: tuple[str, ...] = ()
    batch_size: int = 0
    digest: str = ""
    #: X-Repro-Request-Id header — the trace id of this request's span
    #: tree on the server.
    request_id: str = ""
    #: X-Repro-Shard header — which member (or "router") answered.
    shard: str = ""

    @property
    def result(self) -> dict[str, Any]:
        return self.doc.get("result", {})

    @property
    def items(self) -> list[dict[str, Any]]:
        """Per-item documents of a batch answer (empty for singles)."""
        return self.doc.get("items", [])


def _raise_for_error(status: int, body: bytes, headers: Mapping[str, str]):
    request_id = headers.get("x-repro-request-id", "")
    shard = headers.get("x-repro-shard", "")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        doc = {}
    if isinstance(doc, dict) and doc.get("record") == ERROR_RECORD:
        err = doc.get("error", {})
        retry = doc.get("retry_after_s")
        raise ServeError(
            err.get("code", "internal"),
            err.get("message", "unknown error"),
            http_status=status,
            retry_after_s=retry,
            request_id=request_id,
            shard=shard,
        )
    raise ServeError(
        "internal",
        f"HTTP {status}: {body[:200]!r}",
        http_status=status,
        request_id=request_id,
        shard=shard,
    )


def _decode(status: int, body: bytes, headers: Mapping[str, str]) -> Any:
    """A successful answer's JSON document.

    Error statuses raise their typed :class:`ServeError`, and so does a
    body that does not decode.
    """
    if status >= 400:
        _raise_for_error(status, body, headers)
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServeError("internal", f"undecodable response body: {exc}") from None


def _build_response(
    status: int, body: bytes, headers: Mapping[str, str]
) -> ServeResponse:
    return ServeResponse(
        doc=_decode(status, body, headers),
        status=status,
        body=body,
        source=headers.get("x-repro-source", ""),
        sources=tuple(
            s for s in headers.get("x-repro-sources", "").split(",") if s
        ),
        batch_size=int(headers.get("x-repro-batch-size") or 0),
        digest=headers.get("x-repro-digest", ""),
        request_id=headers.get("x-repro-request-id", ""),
        shard=headers.get("x-repro-shard", ""),
    )


def _split_url(url: str) -> tuple[str, int]:
    parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
    if parsed.scheme not in ("", "http"):
        raise ValueError(f"only http:// urls are supported, got {url!r}")
    return parsed.hostname or "127.0.0.1", parsed.port or 80


class ServeClient:
    """Blocking client over one keep-alive connection.

    Not thread-safe (http.client connections aren't); give each load-
    generator thread its own instance.
    """

    def __init__(self, url: str, timeout: float = 600.0):
        self.host, self.port = _split_url(url)
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        extra_headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        reused = self._conn is not None
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body else {}
        if extra_headers:
            headers.update(extra_headers)
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            # Only a reused keep-alive connection that the server dropped
            # between requests earns one re-send on a fresh connection.
            # A timeout is not that case: re-sending would post the
            # request twice and wait a second full timeout.
            if not reused or isinstance(exc, TimeoutError):
                raise
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
        return (
            resp.status,
            payload,
            {k.lower(): v for k, v in resp.getheaders()},
        )

    def _post_with_retries(
        self,
        path: str,
        body: bytes,
        extra: Mapping[str, str] | None,
        retries: int,
    ) -> ServeResponse:
        attempt = 0
        while True:
            try:
                return _build_response(*self._request("POST", path, body, extra))
            except ServeError as exc:
                if attempt >= retries or not _retryable(exc):
                    raise
                time.sleep(_backoff_s(attempt, exc.retry_after_s, MAX_BACKOFF_S))
                attempt += 1

    def experiment(
        self,
        workload: str = "",
        version: str = "",
        scale: int = 0,
        config: Mapping[str, Any] | None = None,
        engine: Mapping[str, Any] | None = None,
        scenario: str | Mapping[str, Any] | None = None,
        request_id: str = "",
        retries: int = 0,
    ) -> ServeResponse:
        body = encode_doc(
            request_doc(workload, version, scale, config, engine, scenario)
        )
        extra = {"X-Repro-Request-Id": request_id} if request_id else None
        return self._post_with_retries(
            "/v1/experiment", body, extra, retries
        )

    def batch(
        self,
        requests: Sequence[Mapping[str, Any]],
        request_id: str = "",
        retries: int = 0,
    ) -> ServeResponse:
        """POST /v1/batch.  Each item is ``experiment()`` kwargs."""
        body = encode_doc(
            batch_request_doc([request_doc(**item) for item in requests])
        )
        extra = {"X-Repro-Request-Id": request_id} if request_id else None
        return self._post_with_retries(
            "/v1/batch", body, extra, retries
        )

    def admin_drain(self, shard: str) -> dict[str, Any]:
        """POST /admin/drain — remove one member from a shard cluster."""
        return _decode(
            *self._request("POST", "/admin/drain", encode_doc({"shard": shard}))
        )

    def debugz(self) -> dict[str, Any]:
        return _decode(*self._request("GET", "/debugz"))

    def health(self) -> dict[str, Any]:
        return _decode(*self._request("GET", "/healthz"))

    def statusz(self) -> dict[str, Any]:
        return _decode(*self._request("GET", "/statusz"))
