"""ServeClient transport: when a failed request is sent again.

The client re-sends a request once, on a fresh connection, only when
the failed attempt ran on a reused keep-alive connection that the
server dropped between requests.  A timeout is never re-sent: the
server may still be working on the first copy, and a second attempt
would wait a second full timeout.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.serve.client import ServeClient


class RawListener:
    """A TCP listener that records request lines and answers by script.

    ``answers`` holds one entry per accepted connection: ``None`` keeps
    the connection open without answering; otherwise the listener sends
    that many ``200`` keep-alive answers and then closes the connection.
    """

    def __init__(self, answers):
        self.answers = list(answers)
        self.request_lines = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(5.0)
        self._held = []
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def url(self):
        return f"http://127.0.0.1:{self._sock.getsockname()[1]}"

    def _serve(self):
        for answer in self.answers:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            conn.settimeout(5.0)
            if answer is None:
                self._read_request(conn)
                self._held.append(conn)
                continue
            with conn:
                for _ in range(answer):
                    if not self._read_request(conn):
                        break
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 16\r\n\r\n"
                        b'{"status": "ok"}'
                    )

    def _read_request(self, conn):
        data = b""
        try:
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return False
                data += chunk
        except OSError:
            return False
        self.request_lines.append(data.split(b"\r\n", 1)[0].decode("ascii"))
        return True

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a pending accept
        self._sock.close()
        self._thread.join(10.0)
        for conn in self._held:
            conn.close()


def test_timed_out_request_is_sent_once():
    with RawListener([None, None]) as listener:
        client = ServeClient(listener.url, timeout=0.5)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            client.experiment("hf", "inter")
        elapsed = time.monotonic() - start
        client.close()
        time.sleep(0.2)  # a re-sent copy would have arrived by now
    assert listener.request_lines == ["POST /v1/experiment HTTP/1.1"]
    assert elapsed < 0.9


def test_dropped_keep_alive_connection_is_resent_once():
    # The first connection answers one request, then closes: the
    # client's second request fails on it and goes out again fresh.
    with RawListener([1, 1]) as listener, ServeClient(listener.url, timeout=5.0) as c:
        assert c.health() == {"status": "ok"}
        time.sleep(0.1)  # let the close reach the client's socket
        assert c.health() == {"status": "ok"}
    assert listener.request_lines == ["GET /healthz HTTP/1.1"] * 2

