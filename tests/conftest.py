"""Shared test infrastructure.

Two fixture corpora are committed: fixtures/ (actinide series and the other
demonstration nuclides) and tests/data/mini (a three-nuclide Sr-90 chain for
the timing harnesses). Tests either prime a cache directory from a corpus or
serve it from the in-process mock HTTP server.
"""

from __future__ import annotations

import csv
import io
import shutil
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from nuclibgen.dataaccess import AccessConfig, DataStore, DatasetKey, RawDataset
from nuclibgen.nuclide import Nuclide, parse_nuclide_id
from nuclibgen.records import parse_level_scheme

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "fixtures"
MINI_CORPUS = Path(__file__).resolve().parent / "data" / "mini"

DR_COLUMNS = (
    "energy", "unc_en", "intensity", "unc_i", "p_symbol", "p_a", "p_energy",
    "unc_pe", "half_life_sec", "unc_hls", "decay", "decay_%", "unc_d",
    "d_symbol", "d_a", "daughter_level_energy", "start_level_energy",
    "end_level_energy",
)
LV_COLUMNS = (
    "symbol", "a", "energy", "unc_e", "jp", "half_life_sec", "unc_hls",
    "decay_1", "decay_1_%", "decay_2", "decay_2_%", "decay_3", "decay_3_%",
)
TR_COLUMNS = (
    "symbol", "a", "start_level_energy", "unc_sl", "end_level_energy",
    "unc_el", "energy", "unc_en", "intensity", "unc_i",
)


def _csv_body(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return out.getvalue()


def dr_body(rows) -> str:
    return _csv_body(DR_COLUMNS, rows)


def lv_body(rows) -> str:
    return _csv_body(LV_COLUMNS, rows)


def tr_body(rows) -> str:
    return _csv_body(TR_COLUMNS, rows)


def parse_scheme(nuclide: Nuclide, levels, transitions=()):
    """The LevelScheme that parse_level_scheme builds from level energies and
    (start, end) transition energies, in keV, written as dataset text."""
    cells = {"symbol": nuclide.element, "a": nuclide.mass_number}
    lv = lv_body([dict(cells, energy=kev) for kev in levels])
    tr = tr_body([dict(cells, start_level_energy=start, end_level_energy=end,
                       energy=start - end) for start, end in transitions])
    scheme, _ = parse_level_scheme(RawDataset(DatasetKey.levels(nuclide), lv, "cache"),
                                   RawDataset(DatasetKey.transitions(nuclide), tr, "cache"))
    return scheme


def tree_edges(tree) -> list[tuple[str, str]]:
    """The (parent, daughter) id pairs of a LineageTree, depth first from a
    stack: the last child is walked first."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        for _, child in node.children:
            out.append((str(node.root), str(child.root)))
            stack.append(child)
    return out


def dr_row(p, d, *, mode="B-", pct=100.0, energy=100.0, intensity=10.0,
           p_energy=0.0, fed=0.0, start="", end="", hl=1000.0, unc_i=0.1):
    psym, pa = p
    dsym, da = d
    return {
        "energy": energy, "unc_en": 0.1, "intensity": intensity,
        "unc_i": unc_i, "p_symbol": psym, "p_a": pa, "p_energy": p_energy,
        "unc_pe": 0.1, "half_life_sec": hl, "unc_hls": 1.0, "decay": mode,
        "decay_%": pct, "unc_d": "", "d_symbol": dsym, "d_a": da,
        "daughter_level_energy": fed, "start_level_energy": start,
        "end_level_energy": end,
    }


class FakeSource:
    """In-memory DatasetSource for synthetic graphs: serialized key -> body."""

    def __init__(self, bodies: dict[str, str]):
        self.bodies = dict(bodies)
        self.requests: list[str] = []

    def fetch_dataset(self, key: DatasetKey) -> RawDataset | None:
        serialized = key.serialize()
        self.requests.append(serialized)
        body = self.bodies.get(serialized)
        if body is None:
            return None
        return RawDataset(key, body, "cache")


def simple_chain_source(links: dict[str, list[tuple[str, float]]],
                        stable: set[str]) -> FakeSource:
    """Build a FakeSource for a bare-bones decay graph.

    ``links`` maps a nuclide id to (daughter id, branching percent) pairs;
    every listed nuclide decays by beta minus with one 100 keV gamma-less
    record per daughter. ``stable`` nuclides get no datasets at all.
    """
    bodies: dict[str, str] = {}
    ids = set(links) | stable | {d for lst in links.values() for d, _ in lst}
    for nid in ids:
        nuclide = parse_nuclide_id(nid)
        sym, a = nuclide.element, nuclide.mass_number
        bodies[f"{nid}:lv"] = lv_body([
            {"symbol": sym, "a": a, "energy": 0.0, "unc_e": 0.0, "jp": "0+",
             "half_life_sec": "STABLE" if nid in stable else 1000.0,
             "unc_hls": "", "decay_1": "" if nid in stable else "B-",
             "decay_1_%": "" if nid in stable else 100.0},
        ])
    for nid, daughters in links.items():
        nuclide = parse_nuclide_id(nid)
        rows = []
        for did, pct in daughters:
            dn = parse_nuclide_id(did)
            rows.append(dr_row((nuclide.element, nuclide.mass_number),
                               (dn.element, dn.mass_number), pct=pct))
        bodies[f"{nid}:dr-bm"] = dr_body(rows)
    return FakeSource(bodies)


def prime_cache(corpus: Path, target: Path) -> Path:
    target.mkdir(parents=True, exist_ok=True)
    for f in corpus.glob("*.csv"):
        shutil.copy(f, target / f.name)
    registry = corpus / "absent_registry.txt"
    if registry.exists():
        shutil.copy(registry, target / "absent_registry.txt")
    return target


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS.exists(), "run tools/generate_fixtures.py first"
    return CORPUS


@pytest.fixture(scope="session")
def mini_corpus_dir() -> Path:
    assert MINI_CORPUS.exists(), "run tools/generate_fixtures.py first"
    return MINI_CORPUS


@pytest.fixture(scope="session")
def primed_store(corpus_dir, tmp_path_factory) -> DataStore:
    """Offline store over a fully primed cache, shared by every test. Its
    dataset files are only read, but its runs store parses under ``parsed/``
    that later runs load: a test that counts parser calls uses
    ``fresh_primed_store``."""
    cache = prime_cache(corpus_dir, tmp_path_factory.mktemp("primed_cache"))
    return DataStore(AccessConfig(cache_dir=cache, offline=True))


@pytest.fixture()
def warning_cache(tmp_path, corpus_dir):
    """A primed cache whose 225Ac levels and 213Bi alpha rows each carry one
    bad row, so every job reaching them reports parse warnings."""
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    with (cache / "225ac_lv.csv").open("a", encoding="utf-8") as fh:
        fh.write("Ac,225,nan,0,,,,,,,,,\n")
    with (cache / "213bi_dr-a.csv").open("a", encoding="utf-8") as fh:
        fh.write("abc,1.5,1.94,0.0582,Bi,213,0,0.1,2735.4,3.6,A,2.2,,Tl,209,0,,\n")
    return cache


@pytest.fixture()
def fresh_primed_store(corpus_dir, tmp_path) -> DataStore:
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    return DataStore(AccessConfig(cache_dir=cache, offline=True))


class _CorpusHandler(BaseHTTPRequestHandler):
    """Answers each request and closes the connection (HTTP/1.0)."""

    server_version = "MockNucData/1.0"

    def setup(self):
        super().setup()
        with self.server.cfg["lock"]:
            self.server.cfg["connections"] += 1

    def do_GET(self):  # noqa: N802 (stdlib naming)
        cfg = self.server.cfg
        key = self._key(parse_qs(urlparse(self.path).query))
        with cfg["lock"]:
            cfg["requests"] += 1
            cfg["keys"].append(key)
            cfg["heads"].append((self.path, self.headers))
            cfg["inflight"] += 1
            cfg["max_inflight"] = max(cfg["max_inflight"], cfg["inflight"])
        try:
            if cfg["latency"]:
                time.sleep(cfg["latency"])
            failed = cfg["fail"] or key in cfg["fail_keys"]
            body = None if failed else self._resolve(key)
        finally:
            # Before the answer goes out, so a client's next request cannot
            # overlap this one.
            with cfg["lock"]:
                cfg["inflight"] -= 1
        if body is None:
            self.send_response(503)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = body if isinstance(body, bytes) else body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", cfg["content_type"])
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    @staticmethod
    def _key(params) -> str | None:
        """The serialized dataset key of a query, None for an unknown one."""
        nuclide = params.get("nuclides", [""])[0]
        fields = params.get("fields", [""])[0]
        if fields == "decay_rads":
            kind = "dr-" + params.get("rad_types", [""])[0]
        elif fields == "levels":
            kind = "lv"
        elif fields == "gammas":
            kind = "tr"
        else:
            return None
        return f"{nuclide}:{kind}"

    def _resolve(self, key: str | None) -> str:
        cfg = self.server.cfg
        if key is None:
            return "0"
        if key in cfg["overrides"]:
            return cfg["overrides"][key]
        path = cfg["corpus"] / (key.replace(":", "_") + ".csv")
        if path.exists():
            return path.read_text(encoding="utf-8")
        return "0"

    def log_message(self, *args):  # keep test output clean
        pass


class KeepAliveHandler(_CorpusHandler):
    """Keeps each connection open for the client's next request (HTTP/1.1).
    An idle connection is dropped after ``timeout`` seconds."""

    protocol_version = "HTTP/1.1"
    timeout = 10


class DroppingHandler(KeepAliveHandler):
    """Drops each connection after one answer, which says nothing of it: the
    client takes the connection for kept alive."""

    def do_GET(self):  # noqa: N802 (stdlib naming)
        super().do_GET()
        self.close_connection = True


class MockServer:
    """Serves a fixture corpus over HTTP with optional latency/failure.

    ``fail`` answers every request with HTTP 503, ``fail_keys`` only those
    serialized keys; ``overrides`` maps a serialized key to a body (text is
    sent as UTF-8, bytes as they are) and ``content_type`` is the header
    every body is sent with. It records the key, target and headers of every
    request, the connections made and the most requests in flight at once.
    ``handler`` may be `KeepAliveHandler` or `DroppingHandler`; a server
    with either must be stopped after its clients close their connections.
    With a ``certfile`` (certificate and key) it serves HTTPS.
    """

    def __init__(self, corpus: Path, latency: float = 0.0, handler=_CorpusHandler,
                 certfile: Path | None = None):
        self.cfg = {
            "corpus": corpus, "latency": latency, "fail": False, "fail_keys": set(),
            "requests": 0, "keys": [], "heads": [], "connections": 0, "inflight": 0,
            "max_inflight": 0, "overrides": {}, "content_type": "text/csv",
            "lock": threading.Lock(),
        }
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self._httpd.cfg = self.cfg
        self._scheme = "http"
        if certfile is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(certfile)
            self._httpd.socket = context.wrap_socket(self._httpd.socket, server_side=True)
            self._scheme = "https"
        # A short poll lets stop() return at once instead of after up to 0.5 s.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self._scheme}://{host}:{port}/data"

    @property
    def requests(self) -> int:
        with self.cfg["lock"]:
            return self.cfg["requests"]

    @property
    def keys(self) -> list[str | None]:
        with self.cfg["lock"]:
            return list(self.cfg["keys"])

    @property
    def heads(self) -> list[tuple[str, object]]:
        """The target and the headers (an ``email.message.Message``) of every
        request."""
        with self.cfg["lock"]:
            return list(self.cfg["heads"])

    @property
    def connections(self) -> int:
        with self.cfg["lock"]:
            return self.cfg["connections"]

    @property
    def max_inflight(self) -> int:
        with self.cfg["lock"]:
            return self.cfg["max_inflight"]

    def reset(self) -> None:
        with self.cfg["lock"]:
            self.cfg["requests"] = 0
            self.cfg["keys"] = []

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture()
def mock_server(corpus_dir):
    server = MockServer(corpus_dir)
    yield server
    server.stop()


@pytest.fixture()
def mini_server(mini_corpus_dir):
    server = MockServer(mini_corpus_dir)
    yield server
    server.stop()


# --- brute-force oracles (independent of the package's parsing path) ---------

def brute_rows(corpus: Path, nid: str) -> list[dict]:
    rows = []
    for kind in ("a", "bm", "bp", "g", "e", "x"):
        path = corpus / f"{nid}_dr-{kind}.csv"
        if not path.exists():
            continue
        with path.open(encoding="utf-8") as fh:
            rows.extend(csv.DictReader(fh))
    return rows


def brute_daughters(corpus: Path, nid: str) -> dict[str, float]:
    """daughter id -> branching percent, straight from the CSV files."""
    out: dict[str, float] = {}
    for row in brute_rows(corpus, nid):
        did = f"{row['d_a']}{row['d_symbol'].lower()}"
        if did == nid:
            continue
        pct = float(row["decay_%"])
        out[did] = max(out.get(did, 0.0), pct)
    return out


def brute_reachable(corpus: Path, root: str) -> set[str]:
    """All nuclide ids reachable from root, root included."""
    seen = {root}
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for daughter in brute_daughters(corpus, current):
            if daughter not in seen:
                seen.add(daughter)
                frontier.append(daughter)
    return seen


def brute_radioactive(corpus: Path, nid: str) -> bool:
    return bool(brute_rows(corpus, nid))


def brute_edges(corpus: Path, root: str) -> set[tuple[str, str]]:
    edges = set()
    for parent in brute_reachable(corpus, root):
        for daughter in brute_daughters(corpus, parent):
            edges.add((parent, daughter))
    return edges
