import concurrent.futures
import http.client
import multiprocessing
import shutil
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import nuclibgen
import nuclibgen.dataaccess as dataaccess
from nuclibgen.chains import assemble_subset
from nuclibgen.dataaccess import (
    MAX_PARALLEL,
    AbsenceRegistry,
    AccessConfig,
    DataStore,
    DatasetKey,
)
from nuclibgen.errors import (
    CacheWriteError, HeaderMismatch, NetworkError, OfflineMiss, RegistryIoError,
)
from nuclibgen.nuclide import Nuclide, RadiationType, parse_nuclide_id
from nuclibgen.records import parse_level_scheme

from conftest import DroppingHandler, KeepAliveHandler, MockServer, lv_body, prime_cache


def key_for(nid="225ac", rad=RadiationType.ALPHA) -> DatasetKey:
    sym = "".join(ch for ch in nid if ch.isalpha()).capitalize()
    a = int("".join(ch for ch in nid if ch.isdigit()))
    return DatasetKey.decay_rads(Nuclide(sym, a), rad)


def test_key_serialization_covers_all_kinds():
    n = Nuclide("Ac", 225)
    codes = {DatasetKey.decay_rads(n, rad).serialize() for rad in RadiationType}
    assert codes == {"225ac:dr-a", "225ac:dr-bm", "225ac:dr-bp", "225ac:dr-g",
                     "225ac:dr-e", "225ac:dr-x"}
    assert DatasetKey.levels(n).serialize() == "225ac:lv"
    assert DatasetKey.transitions(n).serialize() == "225ac:tr"
    assert DatasetKey.levels(n).filename() == "225ac_lv.csv"
    assert DatasetKey.decay_rads(n, RadiationType.ALPHA).filename() == "225ac_dr-a.csv"


def test_key_is_level_erased():
    from nuclibgen.nuclide import LevelSpec

    iso = Nuclide("Tc", 99, LevelSpec.meta(1))
    assert DatasetKey.levels(iso).serialize() == "99tc:lv"


def test_registry_load_missing_file_is_empty(tmp_path):
    reg = AbsenceRegistry.load(tmp_path / "absent_registry.txt")
    assert not reg.entries
    assert not (tmp_path / "absent_registry.txt").exists()


def test_registry_record_idempotent(tmp_path):
    path = tmp_path / "absent_registry.txt"
    reg = AbsenceRegistry.load(path)
    reg.record("225ac:dr-x")
    reg.record("225ac:dr-x")
    assert path.read_text() == "225ac:dr-x\n"


def test_registry_normalizes_unsorted_duplicates(tmp_path):
    path = tmp_path / "absent_registry.txt"
    path.write_text("b:lv\na:lv\na:lv\n")
    reg = AbsenceRegistry.load(path)
    assert reg.entries == {"a:lv", "b:lv"}
    assert path.read_text() == "a:lv\nb:lv\n"


def test_two_stores_on_one_cache_keep_each_others_absences(tmp_path):
    store_a = DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
    store_b = DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
    store_a.registry.record(DatasetKey.levels(Nuclide("H", 1)))
    store_b.registry.record(DatasetKey.levels(Nuclide("H", 2)))
    assert (tmp_path / "absent_registry.txt").read_text() == "1h:lv\n2h:lv\n"


def test_concurrent_stores_lose_no_absences(tmp_path):
    workers = 4
    stores = [DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
              for _ in range(workers)]
    keys = [DatasetKey.levels(Nuclide("H", a)) for a in range(1, 41)]

    def record_share(start):
        for key in keys[start::workers]:
            stores[start].registry.record(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(record_share, i) for i in range(workers)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    recorded = (tmp_path / "absent_registry.txt").read_text().splitlines()
    assert recorded == sorted(key.serialize() for key in keys)


def _record_in_process(path, masses, barrier):
    registry = AbsenceRegistry.load(path)
    barrier.wait(timeout=60)
    for mass in masses:
        registry.record(DatasetKey.levels(Nuclide("H", mass)))


def test_processes_sharing_a_registry_lose_no_absences(tmp_path):
    """Four processes each record 60 keys into one registry file; the
    read-merge-replace of each record is locked across processes."""
    context = multiprocessing.get_context("spawn")
    path = tmp_path / "absent_registry.txt"
    barrier = context.Barrier(4)
    workers = [context.Process(target=_record_in_process,
                               args=(path, list(range(1 + i, 241, 4)), barrier))
               for i in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert [worker.exitcode for worker in workers] == [0] * 4
    expected = sorted(DatasetKey.levels(Nuclide("H", a)).serialize() for a in range(1, 241))
    assert path.read_text().splitlines() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["absent_registry.txt"]


def test_stores_writing_one_cache_file_do_not_collide(tmp_path):
    """Stores on one cache directory that write one key at the same time
    each write through their own temp file."""
    workers, rounds = 4, 25
    stores = [DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
              for _ in range(workers)]
    key = key_for("225ac")
    body = "energy,intensity\n5830.0,50.0\n"
    data = body.encode()
    barrier = threading.Barrier(workers)

    def write(store):
        barrier.wait(timeout=30)
        for _ in range(rounds):
            dataaccess.write_atomically(store.cache_path(key), lambda out: out.write(data))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(write, store) for store in stores]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(p.name for p in tmp_path.iterdir()) == [key.filename()]
    assert stores[0].cache_path(key).read_text() == body


def test_failed_cache_write_removes_its_temp_file(tmp_path):
    store = DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
    path = store.cache_path(key_for("225ac"))
    path.mkdir()  # os.replace onto a directory fails
    with pytest.raises(CacheWriteError):
        dataaccess.write_atomically(path, lambda out: out.write(b"energy\n1.0\n"))
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize("write, error", [
    (lambda path: AbsenceRegistry(path).record("238u:dr-a"), RegistryIoError),
    (lambda path: dataaccess.write_atomically(path, lambda out: out.write(b"x\n")),
     CacheWriteError),
], ids=["registry", "cache-file"])
def test_write_under_a_regular_file_raises_the_package_error(tmp_path, write, error):
    """The temp file's directory is a regular file, so removing the temp file
    fails too: that failure does not replace the package error."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    with pytest.raises(error):
        write(afile / "absent_registry.txt")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_text() == "kept\n"

def test_registry_short_circuits_before_cache_and_network(tmp_path):
    server = MockServer(tmp_path)  # empty corpus; any hit would count
    try:
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "absent_registry.txt").write_text("209bi:dr-x\n")
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        assert store.fetch_dataset(key_for("209bi", RadiationType.XRAY)) is None
        assert server.requests == 0
        assert store.stats.registry_skips == 1
    finally:
        server.stop()


def test_cache_hit_makes_no_network_call(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = prime_cache(corpus_dir, tmp_path / "cache")
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        raw = store.fetch_dataset(key_for("225ac"))
        assert raw is not None and raw.origin == "cache"
        assert server.requests == 0
    finally:
        server.stop()


def test_remote_fetch_writes_cache_file(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        raw = store.fetch_dataset(key_for("225ac"))
        assert raw is not None and raw.origin == "remote"
        assert (cache / "225ac_dr-a.csv").exists()
        assert server.requests == 1
        # second fetch now comes from disk
        again = store.fetch_dataset(key_for("225ac"))
        assert again.origin == "cache"
        assert server.requests == 1
    finally:
        server.stop()


def test_no_data_response_recorded_in_registry(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        key = key_for("208pb", RadiationType.ALPHA)  # stable: no dataset
        assert store.fetch_dataset(key) is None
        assert key.serialize() in store.registry
        assert "208pb:dr-a" in (cache / "absent_registry.txt").read_text()
        # replay is screened out without touching the network
        server.reset()
        assert store.fetch_dataset(key) is None
        assert server.requests == 0
    finally:
        server.stop()


def test_transport_failure_raises_and_is_not_registered(tmp_path):
    server = MockServer(tmp_path)
    try:
        server.cfg["fail"] = True
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        with pytest.raises(NetworkError):
            store.fetch_dataset(key_for("225ac"))
        assert not store.registry.entries
        assert not (cache / "absent_registry.txt").exists()
    finally:
        server.stop()


def test_offline_miss(tmp_path):
    store = DataStore(AccessConfig(cache_dir=tmp_path / "cache", offline=True))
    with pytest.raises(OfflineMiss):
        store.fetch_dataset(key_for("225ac"))


LEVELS_BODY = "symbol,a,energy,jp\nAc,225,40.1,(3/2\u2212)\n"


@pytest.mark.parametrize("content_type, payload, body", [
    # No charset: UTF-8, not the ISO-8859-1 that HTTP/1.1 assumes for text.
    ("text/csv", LEVELS_BODY.encode("utf-8"), LEVELS_BODY),
    ("text/csv; charset=ISO-8859-1", "a\n\u00b5\u00e9\n".encode("latin-1"),
     "a\n\u00b5\u00e9\n"),
], ids=["no-charset", "declared-charset"])
def test_fetched_body_is_decoded_with_its_charset(tmp_path, corpus_dir, content_type,
                                                  payload, body):
    server = MockServer(corpus_dir)
    try:
        key = DatasetKey.levels(Nuclide("Ac", 225))
        server.cfg["overrides"][key.serialize()] = payload
        server.cfg["content_type"] = content_type
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        assert store.fetch_dataset(key).body == body
        assert store.cache_path(key).read_text(encoding="utf-8") == body
    finally:
        server.stop()


@pytest.mark.parametrize("content_type", ["text/csv", "text/csv; charset=no-such-codec"],
                         ids=["bad-utf8", "unknown-charset"])
def test_body_that_does_not_decode_is_a_network_error(tmp_path, corpus_dir,
                                                      content_type):
    server = MockServer(corpus_dir)
    try:
        key = DatasetKey.levels(Nuclide("Ac", 225))
        server.cfg["overrides"][key.serialize()] = b"symbol,a\n\xff\xfe,225\n"
        server.cfg["content_type"] = content_type
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        with pytest.raises(NetworkError, match="does not decode"):
            store.fetch_dataset(key)
        assert not store.cache_path(key).exists()
        assert key not in store.registry
    finally:
        server.stop()


# Blank files, and files that are not valid UTF-8, are no cached copy.
UNUSABLE = [b"", b" \n\n", b"energy\n\xff\n", b"\xfe\xff"]
UNUSABLE_IDS = ["empty", "whitespace", "not-utf8", "not-utf8-start"]


@pytest.mark.parametrize("blank", UNUSABLE, ids=UNUSABLE_IDS)
def test_blank_cache_file_is_refetched_and_overwritten(tmp_path, corpus_dir, blank):
    server = MockServer(corpus_dir)
    try:
        key = key_for("225ac")
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        store.cache_path(key).write_bytes(blank)
        raw = store.fetch_dataset(key)
        expected = (corpus_dir / key.filename()).read_text(encoding="utf-8")
        assert raw.origin == "remote" and raw.body == expected
        assert store.cache_path(key).read_text(encoding="utf-8") == expected
        assert server.requests == 1
        assert store.stats.cache_hits == 0
    finally:
        server.stop()


@pytest.mark.parametrize("blank", UNUSABLE, ids=UNUSABLE_IDS)
def test_blank_cache_file_is_an_offline_miss(tmp_path, blank):
    key = key_for("225ac")
    store = DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
    store.cache_path(key).write_bytes(blank)
    with pytest.raises(OfflineMiss, match="225ac:dr-a"):
        store.fetch_dataset(key)
    assert store.cache_path(key).read_bytes() == blank  # left as it was


def test_unreadable_cache_entry_is_an_offline_miss(tmp_path):
    key = key_for("99mo", RadiationType.GAMMA)
    store = DataStore(AccessConfig(cache_dir=tmp_path, offline=True))
    store.cache_path(key).mkdir()  # exists, but cannot be read as a file
    with pytest.raises(OfflineMiss, match="99mo:dr-g"):
        store.fetch_dataset(key)
    assert store.cache_path(key).is_dir()  # left as it was


def test_unreadable_cache_entry_is_refetched_and_its_overwrite_fails(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        key = key_for("99mo", RadiationType.GAMMA)
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        store.cache_path(key).mkdir()
        with pytest.raises(CacheWriteError, match="99mo_dr-g.csv"):
            store.fetch_dataset(key)
        assert server.requests == 1
        assert store.stats.cache_hits == 0
    finally:
        server.stop()


def test_cached_body_is_the_fetched_body_byte_for_byte(tmp_path, corpus_dir):
    """A warm run parses the text the cold run fetched: a lone carriage return
    stays one rather than becoming a line break."""
    server = MockServer(corpus_dir)
    try:
        key = DatasetKey.levels(Nuclide("Tc", 99))
        body = lv_body([{"symbol": "Tc", "a": 99, "energy": 0.0},
                        {"symbol": "Tc", "a": 99, "energy": 140.511}])
        body = body.replace("\nTc,99,140.511", "\rTc,99,140.511")
        server.cfg["overrides"][key.serialize()] = body.encode("utf-8")
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            cold = store.fetch_dataset(key)
    finally:
        server.stop()
    with DataStore(AccessConfig(cache_dir=tmp_path, offline=True)) as store:
        warm = store.fetch_dataset(key)
    assert (cold.origin, warm.origin) == ("remote", "cache")
    assert warm.body == cold.body == body
    for raw in (cold, warm):
        with pytest.raises(HeaderMismatch, match="^99tc:lv line 2: new-line character"):
            parse_level_scheme(raw, None)


def test_no_partial_cache_files_left_behind(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        store.fetch_dataset(key_for("225ac"))
        leftovers = [p.name for p in cache.iterdir()
                     if p.suffix not in (".csv", ".txt")]
        assert leftovers == []
    finally:
        server.stop()


def test_concurrent_fetches_of_same_key_make_one_network_call(tmp_path, corpus_dir):
    server = MockServer(corpus_dir, latency=0.15)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        key = key_for("225ac")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: store.fetch_dataset(key), range(8)))
        assert all(r is not None for r in results)
        assert server.requests == 1
    finally:
        server.stop()


def test_replay_against_dead_server_uses_cache_and_registry(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    cache = tmp_path / "cache"
    store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
    keys = [key_for("225ac"), key_for("225ac", RadiationType.GAMMA),
            key_for("208pb", RadiationType.ALPHA),  # absent
            DatasetKey.levels(Nuclide("Ac", 225))]
    first = [store.fetch_dataset(k) for k in keys]
    server.stop()

    replay_store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
    second = [replay_store.fetch_dataset(k) for k in keys]
    assert [r is None for r in first] == [r is None for r in second]
    assert [r.body for r in first if r] == [r.body for r in second if r]
    assert replay_store.stats.network_calls == 0


def test_never_both_cached_and_registered(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache))
        keys = [key_for("225ac"), key_for("208pb", RadiationType.ALPHA),
                key_for("221fr", RadiationType.XRAY)]
        for key in keys:
            store.fetch_dataset(key)
        for key in keys:
            cached = store.cache_path(key).exists()
            registered = key.serialize() in store.registry
            assert not (cached and registered)
    finally:
        server.stop()


def test_no_registry_mode_disables_screening_and_recording(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = tmp_path / "cache"
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=cache,
                                       registry_enabled=False))
        key = key_for("208pb", RadiationType.ALPHA)
        assert store.fetch_dataset(key) is None
        assert store.fetch_dataset(key) is None
        assert server.requests == 2  # re-probed: screening disabled
        assert store.stats.registry_skips == 0
    finally:
        server.stop()


@pytest.mark.parametrize("prefetch_first", [True, False])
def test_prefetch_racing_fetch_makes_one_network_call(tmp_path, corpus_dir,
                                                      prefetch_first):
    server = MockServer(corpus_dir, latency=0.2)
    try:
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        key = key_for("225ac")
        if prefetch_first:
            store.prefetch([key])
        fetch = ThreadPoolExecutor(max_workers=1)
        result = fetch.submit(store.fetch_dataset, key)
        if not prefetch_first:
            time.sleep(0.05)  # the inline fetch is waiting on the endpoint
            store.prefetch([key])
        raw = result.result(timeout=30)
        fetch.shutdown()
        store.close()
        assert raw is not None and raw.origin == "remote"
        assert server.requests == 1
        assert store.stats.network_calls == 1
        assert store.stats.cache_hits == 0
    finally:
        server.stop()


def test_prefetched_result_is_collected_once(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            key = key_for("225ac")
            store.prefetch([key, key])
            assert store.fetch_dataset(key).origin == "remote"
            assert store.fetch_dataset(key).origin == "cache"
            assert server.requests == 1
            assert store.stats.snapshot()["cache_hits"] == 1
    finally:
        server.stop()


def test_prefetch_skips_registered_and_cached_keys(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        cache = prime_cache(corpus_dir, tmp_path / "cache")
        with DataStore(AccessConfig(base_url=server.url, cache_dir=cache)) as store:
            store.prefetch([key_for("225ac"), key_for("208pb", RadiationType.ALPHA)])
        assert server.requests == 0
    finally:
        server.stop()


def test_offline_store_never_submits_to_its_pool(monkeypatch, tmp_path, corpus_dir):
    def no_pool(*args, **kwargs):
        raise AssertionError("an offline store started a fetch pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    empty = DataStore(AccessConfig(cache_dir=tmp_path / "empty", offline=True))
    empty.prefetch([key_for("225ac")])
    with pytest.raises(OfflineMiss):
        empty.fetch_dataset(key_for("225ac"))
    primed = DataStore(AccessConfig(cache_dir=prime_cache(corpus_dir, tmp_path / "cache"),
                                    offline=True))
    assemble_subset([parse_nuclide_id("232th")], [parse_nuclide_id("213bi")], [], primed)
    assert primed.stats.cache_hits > 0


def test_store_opens_connections_only_for_the_network(monkeypatch, tmp_path, corpus_dir):
    """No connection for screening; at most MAX_PARALLEL for eight prefetched
    keys, kept alive until close() closes them all. After a close, an inline
    fetch opens a new connection, which the next close closes."""
    made = []

    class CountingConnection(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(http.client, "HTTPConnection", CountingConnection)
    server = MockServer(corpus_dir, latency=0.02, handler=KeepAliveHandler)
    try:
        ac = Nuclide("Ac", 225)
        keys = ([DatasetKey.decay_rads(ac, rad) for rad in RadiationType]
                + [DatasetKey.levels(ac), DatasetKey.transitions(ac)])
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "absent_registry.txt").write_text("209bi:dr-x\n")
        shutil.copy(corpus_dir / "221fr_dr-a.csv", cache)
        with DataStore(AccessConfig(base_url=server.url, cache_dir=cache)) as store:
            assert store.fetch_dataset(key_for("209bi", RadiationType.XRAY)) is None
            assert store.fetch_dataset(key_for("221fr")).origin == "cache"
            store.prefetch([key_for("221fr")])
            assert made == [] and server.connections == 0
            store.prefetch(keys)
            results = [store.fetch_dataset(key) for key in keys]
            assert 1 <= len(made) <= MAX_PARALLEL
            assert store.fetch_dataset(key_for("217at")).origin == "remote"  # inline
            assert all(conn.sock is not None for conn in made)  # kept alive
        assert sum(r is not None for r in results) == 5  # no dr-bm, dr-bp or dr-x
        assert server.requests == 9 and server.connections == len(made)
        assert all(conn.sock is None for conn in made)
        with store:
            assert store.fetch_dataset(key_for("213bi")).origin == "remote"
        assert server.connections == len(made)
        assert all(conn.sock is None for conn in made)
    finally:
        server.stop()


@pytest.mark.parametrize("base, key, target", [
    ("", key_for("225ac"), "/data?fields=decay_rads&nuclides=225ac&rad_types=a"),
    ("", DatasetKey.levels(Nuclide("Tc", 99)), "/data?fields=levels&nuclides=99tc"),
    ("", DatasetKey.transitions(Nuclide("Tc", 99)), "/data?fields=gammas&nuclides=99tc"),
    ("?api=1", DatasetKey.levels(Nuclide("Tc", 99)),
     "/data?api=1&fields=levels&nuclides=99tc"),
], ids=["decay", "levels", "transitions", "base-query"])
def test_request_target_and_headers(tmp_path, corpus_dir, base, key, target):
    """The query string is the one query_params builds, after any query of
    the base URL; every request names its client and asks for no encoding."""
    server = MockServer(corpus_dir)
    try:
        with DataStore(AccessConfig(base_url=server.url + base, cache_dir=tmp_path)) as store:
            store.fetch_dataset(key)
        [(path, headers)] = server.heads
        assert path == target
        assert headers["User-Agent"] == f"nuclibgen/{nuclibgen.__version__}"
        assert "Accept-Encoding" not in headers
    finally:
        server.stop()


def test_timeout_applies_to_connect_and_read(monkeypatch, tmp_path, corpus_dir):
    connects = []
    real_connect = socket.create_connection

    def recording_connect(address, timeout, *args, **kwargs):
        connects.append(timeout)
        return real_connect(address, timeout, *args, **kwargs)

    monkeypatch.setattr(dataaccess, "TIMEOUT_S", 0.1)
    monkeypatch.setattr(socket, "create_connection", recording_connect)
    server = MockServer(corpus_dir, latency=0.5)
    try:
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            with pytest.raises(NetworkError, match="^request failed for 225ac:dr-a: timed out"):
                store.fetch_dataset(key_for("225ac"))
            server.cfg["latency"] = 0.0  # the cut-short connection is not reused
            assert store.fetch_dataset(key_for("225ac")).origin == "remote"
        assert connects == [0.1, 0.1]
    finally:
        server.stop()


@pytest.mark.parametrize("handler, connections", [
    (KeepAliveHandler, 1), (DroppingHandler, 3),
], ids=["kept-alive", "dropped"])
def test_a_connection_the_server_dropped_is_replaced(tmp_path, corpus_dir, handler,
                                                     connections):
    """A server that drops each connection after one answer, without saying
    so, makes every later request fail on its reused connection before any
    answer arrives; each is sent once more on a new one and counted once."""
    server = MockServer(corpus_dir, handler=handler)
    try:
        keys = [key_for("225ac"), key_for("221fr"), DatasetKey.levels(Nuclide("Ac", 225))]
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            results = [store.fetch_dataset(key) for key in keys]
            assert store.stats.network_calls == 3
        assert all(raw.origin == "remote" for raw in results)
        assert server.requests == 3
        assert server.connections == connections
    finally:
        server.stop()


class _NoAnswer(KeepAliveHandler):
    def do_GET(self):  # noqa: N802
        self.close_connection = True


class _Garbage(KeepAliveHandler):
    def do_GET(self):  # noqa: N802
        self.wfile.write(b"garbage\r\n\r\n")
        self.close_connection = True


class _Moved(KeepAliveHandler):
    def do_GET(self):  # noqa: N802
        self.send_response(301)
        self.send_header("Location", "https://elsewhere.invalid/data")
        self.send_header("Content-Length", "0")
        self.end_headers()


@pytest.mark.parametrize("handler, message", [
    (None, "Connection refused"),
    (_NoAnswer, "closed connection without response"),
    (_Garbage, "garbage"),
    (_Moved, "HTTP 301, redirect to https://elsewhere.invalid/data not followed"),
], ids=["refused", "no-answer", "garbage-status", "redirect"])
def test_transport_errors_are_network_errors_naming_the_key(tmp_path, corpus_dir,
                                                            handler, message):
    """A refused port, a connection closed without an answer, a garbage
    status line and a redirect each fail once, as a NetworkError; nothing is
    sent again and nothing is recorded."""
    if handler is None:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            base = f"http://127.0.0.1:{sock.getsockname()[1]}/data"
        server = None
    else:
        server = MockServer(corpus_dir, handler=handler)
        base = server.url
    try:
        with DataStore(AccessConfig(base_url=base, cache_dir=tmp_path)) as store:
            with pytest.raises(NetworkError, match="^request failed for 225ac:dr-a: ") as err:
                store.fetch_dataset(key_for("225ac"))
            assert store.stats.network_calls == 1
            assert not store.registry.entries
        assert message in str(err.value)
        assert server is None or server.connections == 1
    finally:
        if server is not None:
            server.stop()


@pytest.mark.parametrize("base", [
    "ftp://127.0.0.1/data", "nds.iaea.org/relnsd/v1/data", "http://127.0.0.1:port/data",
], ids=["scheme", "no-scheme", "port"])
def test_a_base_url_that_is_no_http_url_is_a_network_error(tmp_path, base):
    with DataStore(AccessConfig(base_url=base, cache_dir=tmp_path)) as store:
        with pytest.raises(NetworkError, match="^request failed for 225ac:dr-a: "):
            store.fetch_dataset(key_for("225ac"))


TLS = Path(__file__).resolve().parent / "data" / "tls"


@pytest.mark.parametrize("trusted", [False, True], ids=["unknown-ca", "ssl-cert-file"])
def test_tls_certificates_are_verified(monkeypatch, tmp_path, corpus_dir, trusted):
    """The server's certificate must chain to a trusted CA: the test CA is
    unknown to the system trust store, and trusted through SSL_CERT_FILE."""
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    if trusted:
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS / "ca.pem"))
    else:
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    server = MockServer(corpus_dir, certfile=TLS / "server.pem")
    try:
        key = key_for("225ac")
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            if trusted:
                raw = store.fetch_dataset(key)
                assert raw.body == (corpus_dir / key.filename()).read_text(encoding="utf-8")
            else:
                with pytest.raises(NetworkError, match="CERTIFICATE_VERIFY_FAILED"):
                    store.fetch_dataset(key)
        assert server.requests == trusted
    finally:
        server.stop()


@pytest.fixture()
def proxy_env(monkeypatch):
    """Sets proxy variables over an environment cleared of them, and fails
    any lookup of an ``.invalid`` host, which only a proxy may reach."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    real_lookup = socket.getaddrinfo

    def lookup(host, *args, **kwargs):
        assert not str(host).endswith(".invalid"), f"{host} was looked up"
        return real_lookup(host, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", lookup)
    return lambda **variables: [monkeypatch.setenv(k, v) for k, v in variables.items()]


def test_http_proxy_gets_absolute_targets(proxy_env, tmp_path, corpus_dir):
    proxy = MockServer(corpus_dir)
    try:
        proxy_env(HTTP_PROXY=proxy.url)
        key = key_for("225ac")
        base = "http://nucdata.invalid/relnsd/v1/data"
        with DataStore(AccessConfig(base_url=base, cache_dir=tmp_path)) as store:
            raw = store.fetch_dataset(key)
        assert raw.body == (corpus_dir / key.filename()).read_text(encoding="utf-8")
        [(target, headers)] = proxy.heads
        assert target == f"{base}?fields=decay_rads&nuclides=225ac&rad_types=a"
        assert headers["Host"] == "nucdata.invalid"
    finally:
        proxy.stop()


def test_no_proxy_host_goes_direct(proxy_env, tmp_path, corpus_dir):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        refused = f"http://127.0.0.1:{sock.getsockname()[1]}"
    server = MockServer(corpus_dir)
    try:
        proxy_env(HTTP_PROXY=refused, NO_PROXY="localhost,127.0.0.1")
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            assert store.fetch_dataset(key_for("225ac")).origin == "remote"
        [(target, _)] = server.heads
        assert target.startswith("/data?")
    finally:
        server.stop()


@pytest.mark.parametrize("proxy, port", [
    ("http://127.0.0.1:3128", 3128), ("127.0.0.1", 80),
], ids=["port", "no-scheme-no-port"])
def test_https_proxy_tunnels_to_the_host(proxy_env, tmp_path, proxy, port):
    """An https base URL goes through a CONNECT tunnel to the host, over a
    connection to the proxy; inspected without connecting."""
    proxy_env(HTTPS_PROXY=proxy)
    with DataStore(AccessConfig(base_url="https://nucdata.invalid/data",
                                cache_dir=tmp_path)) as store:
        transport = store._open_session()
        conn = transport.connection()
        assert transport.target({"fields": "levels"}) == "/data?fields=levels"
    assert isinstance(conn, http.client.HTTPSConnection)
    assert (conn.host, conn.port) == ("127.0.0.1", port)
    assert (conn._tunnel_host, conn._tunnel_port) == ("nucdata.invalid", 443)
    assert conn.sock is None


def test_endpoint_sees_at_most_max_parallel_requests(tmp_path, corpus_dir):
    server = MockServer(corpus_dir, latency=0.02)
    try:
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            assemble_subset([parse_nuclide_id("232th")], [], [], store)
        assert 1 < server.max_inflight <= MAX_PARALLEL
    finally:
        server.stop()


def test_close_stops_every_worker_and_store_stays_usable(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    try:
        store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
        store.prefetch([key_for("225ac", rad) for rad in RadiationType])
        store.close()
        store.close()
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("nuclibgen-fetch")]
        assert store.fetch_dataset(key_for("225ac")) is not None
        store.prefetch([key_for("221fr")])
        assert store.fetch_dataset(key_for("221fr")) is not None
        store.close()
    finally:
        server.stop()


def test_prefetch_and_fetch_stress_one_request_per_key(tmp_path, corpus_dir):
    server = MockServer(corpus_dir)
    workers = 6
    keys = [key_for(nid, rad) for nid in ("225ac", "221fr", "217at", "208pb")
            for rad in RadiationType]
    results = []

    def client(start):
        order = keys[start:] + keys[:start]
        store.prefetch(order[::2])
        got = [store.fetch_dataset(key) for key in order]
        results.extend(got)

    store = DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(client, i * 3) for i in range(workers)]
            for future in futures:
                future.result(timeout=60)
        store.close()
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert len(results) == workers * len(keys)
    assert sorted(server.keys) == sorted(key.serialize() for key in keys)
    assert store.stats.network_calls == len(keys)
    assert store.stats.cache_hits == sum(r is not None and r.origin == "cache"
                                         for r in results)
