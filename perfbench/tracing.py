"""Traced-run instrumentation, installed from outside the package.

``Tracer.install`` wraps the public functions of every ``nuclibgen`` module
(plus ``DataStore._http_get``, the one place the store waits on the network).
A wrapped call records a span: name, start, end, thread and the span that
was open in the same thread when it began. Hot predicates
(``energies_match``, ``FlattenedLevels.contains``) are only counted. A
function is replaced in its defining module and in every module that
imported it by name, since ``chains``, ``levels``, ``library`` and
``records`` hold their own references to ``energies_match`` and the
parsers. ``uninstall`` puts every original back.

Spans stay in memory; ``layer_metrics`` turns one repeat's spans and counts
into the per-layer metrics. Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

_PACKAGE = "nuclibgen"


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # (id, parent id or None, name, start, end, thread id)
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.keys: dict[str, set] = defaultdict(set)
        self._tickers: dict[str, itertools.count] = {}
        self._tick_base: dict[str, int] = {}
        # Targets a later version of the package no longer has, and count
        # callbacks that failed on a changed signature: reported, not fatal.
        self.missing: set[str] = set()
        self.callback_errors: set[str] = set()

    def reset(self) -> None:
        """Drop what was recorded; the installed wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()
        self.keys.clear()
        for name, ticker in self._tickers.items():
            self._tick_base[name] = next(ticker) + 1

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def note(self, name: str, key) -> None:
        with self._lock:
            self.keys[name].add(key)

    # --- wrappers ------------------------------------------------------------

    def timed(self, name, after=None):
        """Wrapper factory: a span per call; ``name`` is a string or a function
        of (args, kwargs); ``after(args, kwargs, result)`` records counts."""
        ids, local, spans = self._ids, self._local, self.spans

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                span_id = next(ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    label = name if isinstance(name, str) else name(args, kwargs)
                    spans.append(
                        (span_id, parent, label, start, end, threading.get_ident()))
                if after is not None:
                    self._after(after, args, kwargs, result)
                return result

            return wrapper

        return make

    def after_only(self, after):
        """Wrapper factory: no span, only ``after(args, kwargs, result)``."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._after(after, args, kwargs, result)
                return result

            return wrapper

        return make

    def _after(self, after, args, kwargs, result) -> None:
        try:
            after(args, kwargs, result)
        except Exception as exc:  # the program under test must not see it
            with self._lock:
                self.callback_errors.add(f"{after.__name__}: {exc!r}")

    def counted(self, name):
        """Wrapper factory: count calls only. ``next`` on an itertools.count
        is one C call, so the count stays exact across threads at a fraction
        of the cost of a lock."""
        ticker = self._tickers.setdefault(name, itertools.count())
        self._tick_base.setdefault(name, 0)
        tick = next

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tick(ticker)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def ticks(self, name: str) -> int:
        """Calls counted under ``name`` since the last reset."""
        ticker = self._tickers.get(name)
        if ticker is None:
            return 0
        self._tick_base[name] += 1  # this read consumes one value too
        return next(ticker) - self._tick_base[name] + 1

    # --- patching --------------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace a module-level function wherever the package refers to it."""
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.add(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name != _PACKAGE and not name.startswith(_PACKAGE + "."):
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, module_name: str, qualname: str, make) -> None:
        cls_name, attr = qualname.split(".")
        try:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.add(f"{module_name}.{qualname}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the layer boundaries of every module of the package."""
        add, note = self.add, self.note
        pkg = _PACKAGE

        def parsed_decay(args, kwargs, result):
            raw = args[0] if args else kwargs["raw"]
            add("records.datasets_parsed")
            note("records.parsed", raw.key.serialize())
            add("records.rows_parsed", len(result[0]))

        def parsed_levels(args, kwargs, result):
            for raw in list(args[:2]) + list(kwargs.values()):
                if raw is not None:
                    add("records.datasets_parsed")
                    note("records.parsed", raw.key.serialize())
            scheme = result[0]
            add("records.rows_parsed", len(scheme.levels) + len(scheme.transitions))

        def fetched(args, kwargs, result):
            key = args[1] if len(args) > 1 else kwargs["key"]
            note("dataaccess.fetched", key.serialize())
            if result is not None:
                add("dataaccess.bytes_read", len(result.body.encode("utf-8")))

        def bumped(args, kwargs, result):
            add("dataaccess." + (args[1] if len(args) > 1 else kwargs["attr"]))

        def built(args, kwargs, result):
            add("chains.nodes_visited", len(result.order))
            for nuclide in result.order:
                note("chains.nodes", str(nuclide))

        def entries(counter):
            return lambda args, kwargs, result: add(counter, len(result.entries))

        def file_bytes(counter):
            return lambda args, kwargs, result: add(counter, result.stat().st_size)

        def compared(args, kwargs, result):
            peaks = args[0] if args else kwargs["peaks"]
            lib = args[1] if len(args) > 1 else kwargs["lib"]
            add("identify.comparisons", len(peaks.peaks) * len(lib.entries))

        def export_name(args, kwargs):
            return "export." + (args[1] if len(args) > 1 else kwargs["fmt"])

        timed, fn, method = self.timed, self.patch_function, self.patch_method
        fn(f"{pkg}.config", "load_config", timed("config.load_config"))
        method(f"{pkg}.dataaccess", "DataStore.fetch_many", timed("dataaccess.fetch_many"))
        method(f"{pkg}.dataaccess", "DataStore.fetch_dataset",
               timed("dataaccess.fetch_dataset", fetched))
        method(f"{pkg}.dataaccess", "DataStore._http_get", timed("dataaccess.http_get"))
        method(f"{pkg}.dataaccess", "AccessStats.bump", self.after_only(bumped))
        fn(f"{pkg}.records", "parse_decay_records",
           timed("records.parse_decay_records", parsed_decay))
        fn(f"{pkg}.records", "parse_level_scheme",
           timed("records.parse_level_scheme", parsed_levels))
        method(f"{pkg}.records", "LevelScheme.find_level", timed("records.find_level"))
        fn(f"{pkg}.nuclide", "energies_match", self.counted("nuclide.energies_match"))
        fn(f"{pkg}.levels", "cascade_visit", timed("levels.cascade_visit"))
        fn(f"{pkg}.levels", "flatten_levels", timed("levels.flatten_levels"))
        fn(f"{pkg}.levels", "infer_level_outcomes", timed("levels.infer_level_outcomes"))
        method(f"{pkg}.levels", "FlattenedLevels.contains",
               self.counted("levels.contains"))
        fn(f"{pkg}.chains", "build_progeny", timed("chains.build_progeny", built))
        fn(f"{pkg}.chains", "assemble_subset", timed("chains.assemble_subset"))
        fn(f"{pkg}.chains", "render_lineage", timed("chains.render_lineage"))
        fn(f"{pkg}.library", "assemble_library",
           timed("library.assemble_library", entries("library.entries_pre")))
        fn(f"{pkg}.library", "prune", timed("library.prune", entries("library.entries_post")))
        fn(f"{pkg}.export", "export_table",
           timed(export_name, file_bytes("export.bytes")))
        fn(f"{pkg}.export", "import_library_csv", timed("export.import_library_csv"))
        fn(f"{pkg}.plot", "plot_library",
           timed("plot.plot_library", file_bytes("plot.svg_bytes")))
        fn(f"{pkg}.identify", "qualify_peaks", timed("identify.qualify_peaks", compared))
        fn(f"{pkg}.cli", "run_job", timed("cli.run_job"))


# --- interval arithmetic -------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def max_overlap(intervals) -> int:
    """Largest number of intervals open at one instant."""
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
                    key=lambda ev: (ev[0], ev[1]))
    best = depth = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best


# --- per-layer metrics ---------------------------------------------------------

# name -> (unit, better); the order is the order they are printed in.
PER_LAYER = {
    "records.find_level_calls": ("count", "lower"),
    "records.find_level_s": ("s", "lower"),
    "nuclide.energies_match_calls": ("count", "lower"),
    "levels.cascade_calls": ("count", "lower"),
    "levels.cascade_s": ("s", "lower"),
    "levels.flatten_s": ("s", "lower"),
    "levels.infer_outcomes_s": ("s", "lower"),
    "levels.contains_calls": ("count", "lower"),
    "records.parse_decay_calls": ("count", "lower"),
    "records.parse_level_calls": ("count", "lower"),
    "records.rows_parsed": ("count", "lower"),
    "records.parse_s": ("s", "lower"),
    "records.parse_repeat_ratio": ("ratio", "lower"),
    "dataaccess.fetch_calls": ("count", "lower"),
    "dataaccess.fetch_repeat_ratio": ("ratio", "lower"),
    "dataaccess.fetch_s": ("s", "lower"),
    "dataaccess.cache_hits": ("count", "lower"),
    "dataaccess.registry_skips": ("count", "lower"),
    "dataaccess.bytes_read": ("B", "lower"),
    "dataaccess.network_calls": ("count", "lower"),
    "dataaccess.absences_recorded": ("count", "lower"),
    "dataaccess.serial_round_trips": ("count", "lower"),
    "dataaccess.max_inflight": ("count", "higher"),
    "dataaccess.http_wait_s": ("s", "lower"),
    "endpoint_requests": ("count", "lower"),
    "chains.build_progeny_calls": ("count", "lower"),
    "chains.nodes_visited": ("count", "lower"),
    "chains.distinct_nodes": ("count", "lower"),
    "chains.build_s": ("s", "lower"),
    "chains.assemble_subset_s": ("s", "lower"),
    "chains.render_lineage_s": ("s", "lower"),
    "library.assemble_s": ("s", "lower"),
    "library.prune_s": ("s", "lower"),
    "library.entries_pre": ("count", "lower"),
    "library.entries_post": ("count", "lower"),
    "export.csv_s": ("s", "lower"),
    "export.html_s": ("s", "lower"),
    "export.xml_s": ("s", "lower"),
    "export.tex_s": ("s", "lower"),
    "export.json_s": ("s", "lower"),
    "export.bytes": ("B", "lower"),
    "export.import_csv_s": ("s", "lower"),
    "plot.svg_s": ("s", "lower"),
    "plot.svg_bytes": ("B", "lower"),
    "identify.qualify_s": ("s", "lower"),
    "identify.comparisons": ("count", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.run_job_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Inclusive span time per metric.
_TOTAL_S = {
    "records.find_level_s": ("records.find_level",),
    "levels.cascade_s": ("levels.cascade_visit",),
    "levels.flatten_s": ("levels.flatten_levels",),
    "levels.infer_outcomes_s": ("levels.infer_level_outcomes",),
    "records.parse_s": ("records.parse_decay_records", "records.parse_level_scheme"),
    "chains.render_lineage_s": ("chains.render_lineage",),
    "library.assemble_s": ("library.assemble_library",),
    "library.prune_s": ("library.prune",),
    "export.csv_s": ("export.csv",),
    "export.html_s": ("export.html",),
    "export.xml_s": ("export.xml",),
    "export.tex_s": ("export.tex",),
    "export.json_s": ("export.json",),
    "export.import_csv_s": ("export.import_library_csv",),
    "plot.svg_s": ("plot.plot_library",),
    "identify.qualify_s": ("identify.qualify_peaks",),
    "config.load_s": ("config.load_config",),
}
# Self time: duration minus the time covered by child spans.
_SELF_S = {
    "chains.build_s": "chains.build_progeny",
    "chains.assemble_subset_s": "chains.assemble_subset",
    "cli.run_job_s": "cli.run_job",
}
_CALLS = {
    "records.find_level_calls": "records.find_level",
    "levels.cascade_calls": "levels.cascade_visit",
    "records.parse_decay_calls": "records.parse_decay_records",
    "records.parse_level_calls": "records.parse_level_scheme",
    "dataaccess.fetch_calls": "dataaccess.fetch_dataset",
    "chains.build_progeny_calls": "chains.build_progeny",
}
_TICKS = {
    "nuclide.energies_match_calls": "nuclide.energies_match",
    "levels.contains_calls": "levels.contains",
}
_COUNTS = {
    "records.rows_parsed": "records.rows_parsed",
    "dataaccess.cache_hits": "dataaccess.cache_hits",
    "dataaccess.registry_skips": "dataaccess.registry_skips",
    "dataaccess.bytes_read": "dataaccess.bytes_read",
    "dataaccess.network_calls": "dataaccess.network_calls",
    "dataaccess.absences_recorded": "dataaccess.absences_recorded",
    "chains.nodes_visited": "chains.nodes_visited",
    "library.entries_pre": "library.entries_pre",
    "library.entries_post": "library.entries_post",
    "export.bytes": "export.bytes",
    "plot.svg_bytes": "plot.svg_bytes",
    "identify.comparisons": "identify.comparisons",
}


def layer_metrics(tracer: Tracer, endpoint_stats: dict | None,
                  latency_s: float | None) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (generate plus qualify); the
    endpoint figures are 0 when no endpoint served the repeat."""
    spans = tracer.spans
    names = {sid: name for sid, _, name, _, _, _ in spans}
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    fetch_s = 0.0
    http = []
    for sid, parent, name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
        # Data-access time on the caller's critical path: the outermost
        # data-access spans opened by another layer in the same thread.
        if (name.startswith("dataaccess.") and parent is not None
                and not names.get(parent, "").startswith("dataaccess.")):
            fetch_s += end - start
        if name == "dataaccess.http_get":
            http.append((start, end))
    self_time: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        self_time[name] += (end - start) - child_time[sid]

    metrics: dict[str, float] = {}
    for metric, span_names in _TOTAL_S.items():
        metrics[metric] = sum(total[n] for n in span_names)
    for metric, span_name in _SELF_S.items():
        metrics[metric] = self_time[span_name]
    for metric, span_name in _CALLS.items():
        metrics[metric] = calls[span_name]
    for metric, counter in _COUNTS.items():
        metrics[metric] = tracer.counts.get(counter, 0)
    for metric, counter in _TICKS.items():
        metrics[metric] = tracer.ticks(counter)

    parsed = len(tracer.keys["records.parsed"])
    fetched = len(tracer.keys["dataaccess.fetched"])
    metrics["records.parse_repeat_ratio"] = (
        tracer.counts.get("records.datasets_parsed", 0) / parsed if parsed else 0.0)
    metrics["dataaccess.fetch_repeat_ratio"] = (
        calls["dataaccess.fetch_dataset"] / fetched if fetched else 0.0)
    metrics["dataaccess.fetch_s"] = fetch_s
    metrics["dataaccess.http_wait_s"] = union_length(http)
    metrics["chains.distinct_nodes"] = len(tracer.keys["chains.nodes"])

    endpoint_stats = endpoint_stats or {"requests": 0, "intervals": []}
    intervals = endpoint_stats["intervals"]
    metrics["endpoint_requests"] = endpoint_stats["requests"]
    metrics["dataaccess.serial_round_trips"] = (
        union_length(intervals) / latency_s if intervals else 0.0)
    metrics["dataaccess.max_inflight"] = max_overlap(intervals)
    return metrics
