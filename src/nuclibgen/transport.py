"""The HTTP transport of a `DataStore`, over the standard library's ``http.client``.

A store imports this module on its first network request, so offline runs,
cache hits and registry skips never load ``http.client`` or ``ssl``.

Each thread that sends requests keeps one keep-alive connection, made on its
first request and closed by `Transport.close`. A request that fails on a
reused connection before any answer arrives, because the server closed the
idle connection, is sent once more on a new one; no other failure is retried
and no redirect is followed. Every request carries ``User-Agent:
nuclibgen/<version>`` and no ``Accept-Encoding``, so bodies come back
unencoded. TLS is checked by ``ssl.create_default_context()``. The proxy for
the base URL is read from the environment when the transport is made: an HTTP
proxy gets absolute-form targets, an HTTPS one a ``CONNECT`` tunnel.
"""

from __future__ import annotations

import http.client
import ssl
import threading
import urllib.request
from urllib.parse import urlencode, urlsplit

from . import __version__

USER_AGENT = f"nuclibgen/{__version__}"


class Transport:
    """Sends a store's GETs to its base URL, each thread on its own
    connection. ``timeout`` is the seconds a request may wait to connect, and
    then between bytes."""

    def __init__(self, base_url: str, timeout: float):
        url = urlsplit(base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http or https URL: {base_url!r}")
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            self.proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        else:
            self.proxy = None
        self.url = url
        self.timeout = timeout
        self.context = ssl.create_default_context() if url.scheme == "https" else None
        self._local = threading.local()  # each thread's connection
        self._connections: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def get(self, params: dict[str, str]) -> tuple[http.client.HTTPResponse, bytes]:
        """One GET with the query ``params``: the answer and its body. A
        failure leaves this thread's connection closed, to be opened again by
        its next request."""
        conn = self.connection()
        reused = conn.sock is not None
        try:
            try:
                resp = self._send(conn, self.target(params))
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()  # the server closed the idle connection: once more
                resp = self._send(conn, self.target(params))
            return resp, resp.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # a request cut short leaves it unusable
            raise

    @staticmethod
    def _send(conn: http.client.HTTPConnection, target: str) -> http.client.HTTPResponse:
        """Send a GET and read the answer's head."""
        conn.putrequest("GET", target, skip_accept_encoding=True)
        conn.putheader("User-Agent", USER_AGENT)
        conn.endheaders()
        return conn.getresponse()

    def connection(self) -> http.client.HTTPConnection:
        """This thread's connection, made on its first use and listed for
        close()."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            with self._lock:
                self._connections.append(conn)
        return conn

    def _connect(self) -> http.client.HTTPConnection:
        server = self.proxy or self.url
        port = server.port or (80 if self.proxy else None)  # a proxy defaults to 80
        if self.url.scheme == "http":
            return http.client.HTTPConnection(server.hostname, port, timeout=self.timeout)
        conn = http.client.HTTPSConnection(
            server.hostname, port, timeout=self.timeout, context=self.context
        )
        if self.proxy:
            conn.set_tunnel(self.url.hostname, self.url.port)
        return conn

    def target(self, params: dict[str, str]) -> str:
        """A GET's target: the absolute URL through an HTTP proxy, else the
        path and query. The query follows any query of the base URL."""
        query = "&".join(filter(None, (self.url.query, urlencode(params))))
        path = f"{self.url.path or '/'}?{query}"
        if self.proxy and self.url.scheme == "http":
            return f"http://{self.url.netloc}{path}"
        return path

    def close(self) -> None:
        """Close every connection made so far; a later request opens a new
        one."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()
