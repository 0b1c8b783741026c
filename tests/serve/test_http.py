"""Lifecycle tests for the HTTP plumbing shared by server and router."""

import asyncio
import socket
import threading

from repro.serve.http import AsyncHttpServer


class RecordingServer(AsyncHttpServer):
    """Bare server that records every call of the loop's exception handler."""

    def __init__(self):
        super().__init__(port=0)
        self.loop_errors = []

    async def _startup(self) -> None:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: self.loop_errors.append(context)
        )


def _read_response(sock) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, "server hung up before answering"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        body += sock.recv(4096)
    return head


class TestShutdown:
    def test_stop_with_idle_keepalive_connection_is_quiet(self):
        server = RecordingServer()
        exit_code = []
        thread = threading.Thread(
            target=lambda: exit_code.append(server.serve_forever(install_signals=False)),
            daemon=True,
        )
        thread.start()
        assert server.ready.wait(30.0)
        with socket.create_connection(("127.0.0.1", server.port), timeout=30.0) as sock:
            sock.sendall(b"GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n")
            head = _read_response(sock)
            assert head.startswith(b"HTTP/1.1 404")
            assert b"Connection: keep-alive" in head
            # The connection now idles between keep-alive requests; the
            # drain cancels its handler task.
            server.request_shutdown()
            thread.join(30.0)
        assert not thread.is_alive()
        assert exit_code == [0]
        assert server.loop_errors == []


def test_uptime_is_zero_before_start():
    # The monotonic clock's origin is arbitrary; an unstarted server has
    # no uptime rather than the host's.
    assert AsyncHttpServer().uptime_s == 0.0
