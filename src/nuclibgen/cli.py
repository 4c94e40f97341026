"""Batch command-line interface.

``generate`` runs every job of a YAML configuration: subset construction,
level validation, library assembly, pruning, exports, lineage files, and
plots, then reports per-phase timings and exact retrieval counters. The jobs
of one run share a parse memo, so each nuclide is parsed once per run, and
each distinct subset (progenitors, statics, exclusions) is assembled once per
run: a job that reuses one reads no dataset and opens no data store.
``qualify`` matches located spectrum peaks against an exported library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .chains import ParseMemo, RadionuclideSubset, assemble_subset, render_lineage
from .config import JobConfig, RunConfig, load_config
from .dataaccess import AccessConfig, DataStore
from .errors import InvalidInput, NuclibError
from .export import export_table, import_library_csv, table_rows, write_text
from .identify import PeakList, qualify_peaks
from .library import assemble_library, prune
from .nuclide import display_name, format_nuclide_id
from .plot import MarkerRegistry, plot_library


@dataclass
class JobReport:
    name: str
    ok: bool = True
    error: str | None = None
    subset_size: int = 0
    entries_pre_prune: int = 0
    entries_post_prune: int = 0
    network_calls: int = 0
    cache_hits: int = 0
    registry_skips: int = 0
    absences_recorded: int = 0
    nuclides_parsed: int = 0
    nuclides_reused: int = 0
    parses_loaded: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    outputs: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    jobs: list[JobReport] = field(default_factory=list)
    source_id: str = ""
    started_at: str = ""
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(job.ok for job in self.jobs)

    def as_dict(self) -> dict:
        return {
            "source": self.source_id,
            "started_at": self.started_at,
            "total_seconds": self.total_seconds,
            "ok": self.ok,
            "jobs": [asdict(job) for job in self.jobs],
        }

    def as_text(self) -> str:
        lines = [f"run report ({'ok' if self.ok else 'FAILED'})"]
        for job in self.jobs:
            status = "ok" if job.ok else f"FAILED: {job.error}"
            lines.append(f"  job {job.name}: {status}")
            lines.append(
                f"    subset {job.subset_size} members; entries "
                f"{job.entries_pre_prune} -> {job.entries_post_prune} after prune"
            )
            lines.append(
                f"    network_calls {job.network_calls}, cache_hits {job.cache_hits}, "
                f"registry_skips {job.registry_skips}, "
                f"absences_recorded {job.absences_recorded}"
            )
            lines.append(
                f"    nuclides_parsed {job.nuclides_parsed}, "
                f"nuclides_reused {job.nuclides_reused}, "
                f"parses_loaded {job.parses_loaded}"
            )
            phases = ", ".join(
                f"{name} {seconds:.3f}s" for name, seconds in job.phase_seconds.items()
            )
            lines.append(f"    phases: {phases or 'n/a'}; total {job.total_seconds:.3f}s")
            for warning in job.warnings[:10]:
                lines.append(f"    warning: {warning}")
            if len(job.warnings) > 10:
                lines.append(f"    ... {len(job.warnings) - 10} more warnings")
        return "\n".join(lines) + "\n"


@contextmanager
def _phase(report: JobReport, name: str):
    """Record the wall time of the enclosed block as one of the job's phases."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        report.phase_seconds[name] = round(time.perf_counter() - t0, 6)


def run_job(job: JobConfig, access: AccessConfig, out_dir: Path, memo: ParseMemo,
            subsets: dict[tuple, RadionuclideSubset]) -> JobReport:
    """Execute one job; failures are captured, not propagated. ``memo`` and
    ``subsets`` are the run's parse memo and assembled subsets. A job whose
    progenitors, statics and exclusions an earlier job assembled reuses that
    subset: it reads no dataset, opens no store, and reports what a walk
    served from the memo reports. Otherwise it assembles the subset through a
    store of its own, closed when the subset phase ends."""
    report = JobReport(name=job.name)
    key = (tuple(job.recursive_progenitors), tuple(job.static_nuclides), tuple(job.exclusions))
    subset = subsets.get(key)
    store = DataStore(access) if subset is None else None
    t_start = time.perf_counter()
    try:
        with _phase(report, "subset"):
            if store is None:
                report.nuclides_reused = subset.nuclides_parsed + subset.nuclides_reused
            else:
                try:
                    built = assemble_subset(job.recursive_progenitors, job.static_nuclides,
                                            job.exclusions, store, memo=memo)
                finally:
                    store.close()  # waits for fetches in flight: final counters
                    vars(report).update(store.stats.snapshot())
                report.nuclides_parsed = built.nuclides_parsed
                report.nuclides_reused = built.nuclides_reused
                subset = subsets.setdefault(key, built)  # racing jobs built equal ones
        report.subset_size = len(subset.members)
        report.warnings.extend(subset.warnings)

        with _phase(report, "library"):
            library = assemble_library(subset, job.radiation, report.warnings)
        report.entries_pre_prune = len(library.entries)

        with _phase(report, "prune"):
            library = prune(library, job.prune)
        report.entries_post_prune = len(library.entries)

        with _phase(report, "export"):
            stem = f"library_{job.name}_{job.radiation.code}"
            rows = table_rows(library)
            for fmt in job.outputs:
                out = export_table(library, fmt, out_dir / f"{stem}.{fmt}", rows)
                report.outputs.append(str(out))
            if job.lineage:
                for chain, tree in zip(subset.recursive_chains, subset.trees):
                    name = format_nuclide_id(chain.progenitor)
                    path = write_text(out_dir / f"lineage_{name}.txt", render_lineage(tree))
                    report.outputs.append(str(path))

        if job.plot.enabled:
            with _phase(report, "plot"):
                markers = (
                    MarkerRegistry.load_csv(job.plot.marker_registry)
                    if job.plot.marker_registry
                    else MarkerRegistry()
                )
                windows = job.plot.windows or None
                out = plot_library(library, markers, windows, out_dir / f"{stem}.svg")
                report.outputs.append(str(out))
    except NuclibError as exc:
        report.ok = False
        report.error = f"{type(exc).__name__}: {exc}"
    report.total_seconds = round(time.perf_counter() - t_start, 6)
    return report


def run(config: RunConfig, *, jobs_parallel: int = 1) -> RunReport:
    """Execute all jobs of a run configuration and write the reports.

    Per-job failures are isolated: remaining jobs still execute, and the
    run's exit status reflects the aggregate.
    """
    report = RunReport(
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    out_dir = Path(config.out_dir)

    # The config (where the CLI flags are written), else the environment, else the default.
    access = AccessConfig(
        base_url=config.base_url or os.environ.get("NUCLIBGEN_BASE_URL")
        or AccessConfig.base_url,
        cache_dir=Path(config.cache_dir or os.environ.get("NUCLIBGEN_CACHE_DIR")
                       or AccessConfig.cache_dir),
        offline=config.offline,
        registry_enabled=config.registry_enabled,
    )
    report.source_id = access.base_url

    memo: ParseMemo = {}
    subsets: dict[tuple, RadionuclideSubset] = {}
    t0 = time.perf_counter()
    if jobs_parallel > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs_parallel) as pool:
            report.jobs = list(pool.map(
                lambda job: run_job(job, access, out_dir, memo, subsets), config.jobs))
    else:
        report.jobs = [run_job(job, access, out_dir, memo, subsets) for job in config.jobs]
    report.total_seconds = round(time.perf_counter() - t0, 6)

    write_text(out_dir / "report.json", json.dumps(report.as_dict(), indent=2) + "\n")
    write_text(out_dir / "report.txt", report.as_text())
    return report


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InvalidInput(f"--jobs {args.jobs}: at least one job must run at a time")
    config = load_config(args.config)
    if args.offline:
        config.offline = True
    if args.no_registry:
        config.registry_enabled = False
    if args.cache_dir:
        config.cache_dir = args.cache_dir
    if args.out_dir:
        config.out_dir = args.out_dir
    report = run(config, jobs_parallel=args.jobs)
    sys.stdout.write(report.as_text())
    return 0 if report.ok else 1


def _cmd_qualify(args: argparse.Namespace) -> int:
    peaks = PeakList.load_csv(args.peaks)
    library = import_library_csv(args.library)
    matches = qualify_peaks(peaks, library, args.tol_kev, args.top)
    labels: dict[int, str] = {}  # by entry identity: each entry is formatted once
    lines = []
    for match in matches:
        if match.unassigned:
            lines.append(f"{match.peak.centroid_kev:g} keV: unassigned\n")
            continue
        shown = []
        for c in match.candidates:
            label = labels.get(id(c))
            if label is None:
                label = f"{display_name(c.nuclide)} {c.energy.kev:g} keV"
                if c.intensity_percent is not None:
                    label += f" ({c.intensity_percent:g}%)"
                labels[id(c)] = label
            shown.append(label)
        lines.append(f"{match.peak.centroid_kev:g} keV: {', '.join(shown)}\n")
    sys.stdout.write("".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nuclibgen",
        description="Generate tailored radionuclide libraries from progenitor input.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run all jobs of a YAML configuration")
    gen.add_argument("config", help="YAML run configuration")
    gen.add_argument("--offline", action="store_true", help="never touch the network")
    gen.add_argument("--cache-dir", help="nuclear data cache directory")
    gen.add_argument(
        "--no-registry",
        action="store_true",
        help="disable absence-registry screening (timing experiments)",
    )
    gen.add_argument("--out-dir", help="output directory (default from config)")
    gen.add_argument("--jobs", type=int, default=1, help="parallel jobs (default 1)")
    gen.set_defaults(func=_cmd_generate)

    qual = sub.add_parser("qualify", help="match peak centroids against a library CSV")
    qual.add_argument("peaks", help="peak list CSV: centroid_kev[,net_area]")
    qual.add_argument("library", help="library CSV produced by generate")
    qual.add_argument("--tol-kev", type=float, required=True, help="match tolerance")
    qual.add_argument("--top", type=int, default=5, help="candidates shown per peak")
    qual.set_defaults(func=_cmd_qualify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NuclibError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
