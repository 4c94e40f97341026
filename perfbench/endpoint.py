"""Mock dataset endpoint for the cold-cache workload.

Serves a fixture corpus over HTTP the way the test suite's in-process
``MockServer`` does (same query mapping, "0" for unknown datasets), but as a
separate process so that it does not compete with the client for the
interpreter lock. Every dataset request sleeps a fixed latency before it is
answered, and its arrival and finish times are recorded.

Control paths, not counted as requests:
  GET /_stats  -> {"requests": n, "intervals": [[arrival, finish], ...]}
  GET /_reset  -> clears the count and the intervals

Run: python3 perfbench/endpoint.py --corpus fixtures --latency 0.02
It prints "port <n>" once it listens on 127.0.0.1, and exits when its
standard input closes or on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

_KINDS = {"levels": "lv", "gammas": "tr"}


def resolve(corpus: Path, query: dict[str, list[str]]) -> str:
    """Body for one dataset query: the corpus file, or "0" when absent."""
    nuclide = query.get("nuclides", [""])[0]
    fields = query.get("fields", [""])[0]
    if fields == "decay_rads":
        kind = "dr-" + query.get("rad_types", [""])[0]
    elif fields in _KINDS:
        kind = _KINDS[fields]
    else:
        return "0"
    path = corpus / f"{nuclide}_{kind}.csv"
    if path.is_file():
        return path.read_text(encoding="utf-8")
    return "0"


class _Handler(BaseHTTPRequestHandler):
    server_version = "MockNucData/1.0"

    def do_GET(self):  # noqa: N802 (stdlib naming)
        state = self.server.state
        url = urlparse(self.path)
        if url.path == "/_stats":
            with state["lock"]:
                payload = {"requests": state["requests"],
                           "intervals": list(state["intervals"])}
            self._send(json.dumps(payload), "application/json")
            return
        if url.path == "/_reset":
            with state["lock"]:
                state["requests"] = 0
                state["intervals"] = []
            self._send("ok", "text/plain")
            return
        arrival = time.monotonic()
        time.sleep(state["latency"])
        body = resolve(state["corpus"], parse_qs(url.query))
        self._send(body, "text/csv")
        finish = time.monotonic()
        with state["lock"]:
            state["requests"] += 1
            state["intervals"].append((arrival, finish))

    def _send(self, text: str, content_type: str) -> None:
        data = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--latency", required=True, type=float, help="seconds")
    args = parser.parse_args(argv)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.state = {"corpus": args.corpus, "latency": args.latency, "requests": 0,
                   "intervals": [], "lock": threading.Lock()}

    def watch_stdin():
        sys.stdin.read()  # returns when the parent closes the pipe or exits
        httpd.shutdown()

    threading.Thread(target=watch_stdin, daemon=True).start()
    print(f"port {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
