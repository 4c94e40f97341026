"""Two-stage screened retrieval of nuclear datasets.

Every dataset request passes two screening tests before any network access:
the absence registry (datasets known to have no data) and the disk cache.
Only a miss on both triggers one HTTP GET; a data-bearing response is written
to the cache atomically, a no-data response is recorded in the registry.
Transport failures are never recorded as absence. Each writer writes through
its own temp file (named by process and thread) and renames it into place,
so stores and processes sharing a cache directory never collide.

A store owns one pool of MAX_PARALLEL worker threads, created on first use.
`DataStore.prefetch` screens keys inline and hands only the misses to the
pool; `DataStore.fetch_dataset` collects a pending fetch's result, or screens
and fetches inline when nothing is pending. An offline store never prefetches.
`DataStore.close` (or leaving a ``with`` block) shuts the pool down.

The HTTP stack (`transport`, over the standard library's ``http.client``)
is imported, and the store's one transport made, only when the store first
goes to the network: offline stores, cache hits and registry skips never load
it. Each fetching thread (a pool worker, or the caller of an inline fetch)
keeps its own keep-alive connection; `DataStore.close` closes them. Likewise
``concurrent.futures`` is imported only when a pool is made, so an offline
store never loads it.

Stored parses. `DataStore.stored_parse` runs a parser on datasets the store
returned. When all of them were read back from the disk cache, it first loads
their parse from ``cache_dir/parsed/``, and on a miss parses and stores it
there. There is one file per parse the caller makes: `chains` parses a
nuclide's decay datasets together (``225ac_dr.pickle``) and its levels with
its transitions (``225ac_lv.pickle``). A
stale, foreign or damaged file, or one stored by other code, is a miss that
the new parse overwrites; a failed write is skipped. Datasets fetched from the
network are parsed as always, so a cold run stores nothing and never imports
``pickle``.
``cache_dir/parsed/`` may be deleted at any time; `parsecache` has the format.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None

from .errors import CacheWriteError, InvalidInput, NetworkError, OfflineMiss, RegistryIoError
from .nuclide import Nuclide, RadiationType

REGISTRY_FILENAME = "absent_registry.txt"
# The subdirectory of the cache that holds stored parses.
PARSED_DIRNAME = "parsed"
# Worker threads of one store's fetch pool. Each keeps its own connection to
# the endpoint, so a store holds at most one more (an inline fetch's).
MAX_PARALLEL = 8
# Seconds an HTTP request may wait to connect, and then between bytes.
TIMEOUT_S = 30.0

# Serializes every registry file's read-merge-rewrite within this process;
# a flock on the registry's directory serializes it across processes.
_REGISTRY_WRITE_LOCK = threading.Lock()

KIND_LEVELS = "lv"
KIND_TRANSITIONS = "tr"

_DECAY_KINDCODES = {rad: f"dr-{rad.code}" for rad in RadiationType}
_KINDCODES = frozenset(_DECAY_KINDCODES.values()) | {KIND_LEVELS, KIND_TRANSITIONS}


class _DatasetKeyFields(NamedTuple):
    nuclide: Nuclide
    kindcode: str


class DatasetKey(_DatasetKeyFields):
    """Identity of one retrievable dataset: a level-erased nuclide plus kind.

    ``kindcode`` is one of dr-a, dr-bm, dr-bp, dr-g, dr-e, dr-x, lv, tr. A key
    is a tuple with a validating ``__new__``, like the types of ``nuclide``.
    """

    __slots__ = ()

    def __new__(cls, nuclide: Nuclide, kindcode: str):
        nuclide = nuclide.ground_state
        if kindcode not in _KINDCODES:
            raise ValueError(f"unknown dataset kind: {kindcode!r}")
        return tuple.__new__(cls, (nuclide, kindcode))

    @staticmethod
    def decay_rads(nuclide: Nuclide, rad: RadiationType) -> "DatasetKey":
        return DatasetKey(nuclide, _DECAY_KINDCODES[rad])

    @staticmethod
    def levels(nuclide: Nuclide) -> "DatasetKey":
        return DatasetKey(nuclide, KIND_LEVELS)

    @staticmethod
    def transitions(nuclide: Nuclide) -> "DatasetKey":
        return DatasetKey(nuclide, KIND_TRANSITIONS)

    @property
    def radiation(self) -> RadiationType | None:
        if self.kindcode.startswith("dr-"):
            return RadiationType.from_code(self.kindcode[3:])
        return None

    def serialize(self) -> str:
        n = self.nuclide
        return f"{n.mass_number}{n.element.lower()}:{self.kindcode}"

    def filename(self) -> str:
        # Colon is not portable in filenames; the cache layout maps it to "_".
        return self.serialize().replace(":", "_") + ".csv"


@dataclass(frozen=True)
class RawDataset:
    """One fetched dataset body (CSV text with a header row)."""

    key: DatasetKey
    body: str
    origin: str  # "cache" | "remote"

    def __post_init__(self):
        if not self.body.strip():
            raise InvalidInput(f"{self.key.serialize()}: dataset body must be non-empty")


class AbsenceRegistry:
    """Persisted set of dataset keys authoritatively known to have no data.

    The backing file is sorted, newline-delimited, duplicate-free UTF-8 text.
    A rewrite first merges the file's current entries into the in-memory set,
    under a lock that holds across threads and processes, so registries
    sharing one file keep each other's keys; after every mutation the file
    holds at least the in-memory set.
    """

    def __init__(self, backing_path: Path, entries: set[str] | None = None):
        self.backing_path = Path(backing_path)
        self.entries: set[str] = set(entries or ())

    @classmethod
    def load(cls, path: Path | str) -> "AbsenceRegistry":
        path = Path(path)
        if not path.exists():
            return cls(path)  # absent file: empty registry, nothing created yet
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise RegistryIoError(f"cannot read registry {path}: {exc}") from exc
        reg = cls(path, {ln.strip() for ln in lines if ln.strip()})
        normalized = "".join(f"{entry}\n" for entry in sorted(reg.entries))
        if normalized != "\n".join(lines) + ("\n" if lines else ""):
            reg._rewrite()  # normalize hand-edited files: sorted, duplicate-free
        return reg

    def __contains__(self, key: DatasetKey | str) -> bool:
        serialized = key.serialize() if isinstance(key, DatasetKey) else key
        return serialized in self.entries

    def record(self, key: DatasetKey | str) -> None:
        """Add a key; idempotent. Rewrites the backing file on change."""
        serialized = key.serialize() if isinstance(key, DatasetKey) else key
        if serialized in self.entries:
            return
        self.entries.add(serialized)
        self._rewrite()

    def _rewrite(self) -> None:
        tmp = _temp_name(self.backing_path, "tmp")
        try:
            self.backing_path.parent.mkdir(parents=True, exist_ok=True)
            with _REGISTRY_WRITE_LOCK, _directory_lock(self.backing_path.parent):
                if self.backing_path.exists():
                    lines = self.backing_path.read_text(encoding="utf-8").splitlines()
                    self.entries.update(ln.strip() for ln in lines if ln.strip())
                tmp.write_text(
                    "".join(f"{entry}\n" for entry in sorted(self.entries)),
                    encoding="utf-8",
                    newline="\n",
                )
                os.replace(tmp, self.backing_path)
        except (OSError, UnicodeDecodeError) as exc:
            with suppress(OSError):  # a failed clean-up must not hide the error
                tmp.unlink(missing_ok=True)
            raise RegistryIoError(
                f"cannot write registry {self.backing_path}: {exc}"
            ) from exc


def _temp_name(path: Path, suffix: str) -> Path:
    """A temp file beside ``path``, unique to this process and thread, so that
    concurrent writers of one file never share a temp file."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.{suffix}")


def write_atomically(path: Path, write: Callable[[IO[bytes]], object]) -> None:
    """Write ``path`` with ``write(file)`` through a temp file renamed into
    place, so that a crash mid-write never leaves a truncated file that would
    pass for a whole one. A failed write removes its temp file and raises
    CacheWriteError."""
    tmp = _temp_name(path, "part")
    try:
        with open(tmp, "wb") as out:
            write(out)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise CacheWriteError(f"cannot write cache file {path}: {exc}") from exc


@contextmanager
def _directory_lock(directory: Path):
    """Hold an exclusive flock on ``directory`` itself: it serializes the
    processes that rewrite a file in it and leaves no lock file behind.
    Without fcntl (not POSIX) only the callers' in-process lock applies."""
    if fcntl is None:
        yield
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


@dataclass(frozen=True)
class AccessConfig:
    """Connection and screening settings for dataset retrieval."""

    base_url: str = "https://nds.iaea.org/relnsd/v1/data"
    cache_dir: Path = Path("nucdata_cache")
    offline: bool = False
    registry_enabled: bool = True


def query_params(key: DatasetKey) -> dict[str, str]:
    """The IAEA-style CSV endpoint's query for one dataset:
    nuclides=<A><element> with fields=levels, fields=gammas (transitions) or
    fields=decay_rads and rad_types=a|bm|bp|g|e|x."""
    n = key.nuclide
    nuclide_q = f"{n.mass_number}{n.element.lower()}"
    if key.kindcode == KIND_LEVELS:
        return {"fields": "levels", "nuclides": nuclide_q}
    if key.kindcode == KIND_TRANSITIONS:
        return {"fields": "gammas", "nuclides": nuclide_q}
    return {
        "fields": "decay_rads",
        "nuclides": nuclide_q,
        "rad_types": key.radiation.code,
    }


def is_no_data(body: str) -> bool:
    """True when the endpoint authoritatively reports no such dataset.

    The endpoint answers "0" (or an empty body, or a bare header) for
    unknown datasets; those responses are safe to register as absent.
    """
    stripped = body.strip()
    if not stripped or stripped == "0":
        return True
    return len(stripped.splitlines()) < 2  # header only, no data rows


@dataclass
class AccessStats:
    """Counters for one store instance; all mutations are lock-protected."""

    network_calls: int = 0
    cache_hits: int = 0
    registry_skips: int = 0
    absences_recorded: int = 0
    parses_loaded: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def bump(self, attr: str) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + 1)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "network_calls": self.network_calls,
                "cache_hits": self.cache_hits,
                "registry_skips": self.registry_skips,
                "absences_recorded": self.absences_recorded,
                "parses_loaded": self.parses_loaded,
            }


class DataStore:
    """Thread-safe screened access to nuclear datasets.

    Fetches may run concurrently; a per-key lock guarantees at most one
    network call per dataset, and registry mutations are serialized behind
    a single writer lock. Counters are bumped when a result is collected, so
    a prefetch that nobody collects counts only its network call.
    """

    def __init__(self, cfg: AccessConfig):
        self.cfg = cfg
        self.cache_dir = Path(cfg.cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise CacheWriteError(f"cannot create {self.cache_dir}: {exc}") from exc
        self.registry = AbsenceRegistry.load(self.cache_dir / REGISTRY_FILENAME)
        self.stats = AccessStats()
        self._transport = None  # a transport.Transport, made by the first request
        self._transport_lock = threading.Lock()
        self._registry_lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._key_locks_guard = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._pending: dict[DatasetKey, Future] = {}
        self._pending_lock = threading.Lock()

    def __enter__(self) -> "DataStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the fetch pool down (fetches in flight finish, queued ones are
        dropped), then close every connection. Idempotent; a later fetch opens
        a new connection and a later prefetch starts a new pool."""
        with self._pending_lock:
            pool, self._pool = self._pool, None
            self._pending.clear()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if self._transport is not None:
            self._transport.close()

    def _lock_for(self, key: DatasetKey) -> threading.Lock:
        serialized = key.serialize()
        with self._key_locks_guard:
            lock = self._key_locks.get(serialized)
            if lock is None:
                lock = self._key_locks[serialized] = threading.Lock()
            return lock

    def cache_path(self, key: DatasetKey) -> Path:
        return self.cache_dir / key.filename()

    def _registered(self, key: DatasetKey) -> bool:
        if not self.cfg.registry_enabled:
            return False
        with self._registry_lock:
            return key in self.registry

    def prefetch(self, keys: Iterable[DatasetKey]) -> None:
        """Start fetching, in the store's pool, every key that is neither
        registered absent nor cached nor already pending; fetch_dataset
        collects the results. Does nothing offline."""
        if self.cfg.offline:
            return
        for key in keys:
            if self._registered(key) or self.cache_path(key).exists():
                continue
            with self._pending_lock:
                if key in self._pending:
                    continue
                if self._pool is None:
                    from concurrent.futures import ThreadPoolExecutor

                    self._pool = ThreadPoolExecutor(
                        max_workers=MAX_PARALLEL, thread_name_prefix="nuclibgen-fetch"
                    )
                self._pending[key] = self._pool.submit(self._load, key)

    def fetch_dataset(self, key: DatasetKey) -> RawDataset | None:
        """Fetch one dataset; None means authoritatively absent.

        Returns a pending prefetch's result when there is one. Otherwise the
        screening order is absence registry, disk cache, then (unless
        offline) one HTTP GET. Raises NetworkError on transport failure,
        OfflineMiss when offline with no cached copy, CacheWriteError on a
        failed write.
        """
        with self._pending_lock:
            pending = self._pending.pop(key, None)
        raw, counter = pending.result() if pending is not None else self._load(key)
        if counter is not None:
            self.stats.bump(counter)
        return raw

    def _load(self, key: DatasetKey) -> tuple[RawDataset | None, str | None]:
        """Screen and, on a miss, download one dataset. Returns the dataset
        and the counter its collection bumps (None for a network answer)."""
        with self._lock_for(key):
            if self._registered(key):
                return None, "registry_skips"
            path = self.cache_path(key)
            try:  # byte-exact, as write_atomically wrote it: no newline translation
                with open(path, encoding="utf-8", newline="") as cached:
                    body = cached.read()
            except (OSError, UnicodeDecodeError):
                body = ""  # missing, unreadable or undecodable: no cached copy
            if body.strip():  # a blank file is no cached copy: refetch it
                return RawDataset(key, body, "cache"), "cache_hits"

            if self.cfg.offline:
                raise OfflineMiss(f"offline and not cached: {key.serialize()}")

            body = self._http_get(key)
            if is_no_data(body):
                if self.cfg.registry_enabled:
                    self._record_absent(key)
                return None, None

            write_atomically(path, lambda out: out.write(body.encode("utf-8")))
            return RawDataset(key, body, "remote"), None

    def stored_parse(self, parse: Callable, *raws: RawDataset | None):
        """``parse(*raws)`` for datasets this store returned (None for an absent
        one). When every one was read back from the disk cache, their stored
        parse under ``cache_dir/parsed/`` is loaded instead, which counts as
        ``parses_loaded``, or on a miss the parse is stored there."""
        if any(raw.origin != "cache" for raw in raws if raw is not None):
            return parse(*raws)
        from .parsecache import load_or_parse  # imports pickle: cold runs never do

        # One file per parse: <nuclide>_dr for decay datasets, <nuclide>_lv for levels.
        nuclide, kindcode = raws[0].key.serialize().split(":")
        path = self.cache_dir / PARSED_DIRNAME / f"{nuclide}_{kindcode[:2]}.pickle"
        result, loaded = load_or_parse(path, parse, *raws)
        if loaded:
            self.stats.bump("parses_loaded")
        return result

    def _open_session(self):
        """The store's `transport.Transport`, made on the first request: that
        imports the HTTP stack and reads the proxy from the environment."""
        with self._transport_lock:
            if self._transport is None:
                from .transport import Transport

                self._transport = Transport(self.cfg.base_url, TIMEOUT_S)
            return self._transport

    def _http_get(self, key: DatasetKey) -> str:
        from http.client import HTTPException

        failed = f"request failed for {key.serialize()}"
        self.stats.bump("network_calls")
        try:  # ValueError: a bad host or port in the base or proxy URL
            resp, data = self._open_session().get(query_params(key))
        except (OSError, ValueError, HTTPException) as exc:
            raise NetworkError(f"{failed}: {exc}") from exc
        if resp.status != 200:
            location = resp.getheader("Location")
            moved = f", redirect to {location} not followed" if location else ""
            raise NetworkError(f"{failed}: HTTP {resp.status}{moved}")
        # The declared charset, else UTF-8 (the cache's encoding), not the
        # ISO-8859-1 that HTTP/1.1 assumes for text/* without a charset.
        charset = resp.msg.get_content_charset("utf-8")
        try:
            return data.decode(charset)
        except (LookupError, UnicodeDecodeError) as exc:
            raise NetworkError(f"{failed}: body does not decode as {charset}: {exc}") from exc

    def _record_absent(self, key: DatasetKey) -> None:
        with self._registry_lock:
            if key not in self.registry:
                self.registry.record(key)
                self.stats.bump("absences_recorded")
