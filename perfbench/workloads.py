"""Workload definitions and the program set-up each run performs.

A workload is a job set (written out as the YAML the program reads), the
library CSV that ``qualify`` runs against, and whether datasets come from a
primed offline cache or from the mock endpoint. The seed only shuffles the
job order and draws the peak list; the program sees nothing but the
generated YAML and CSV files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import traceback
import urllib.request
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "fixtures"
GOLDENS = BENCH_DIR / "goldens"

ENDPOINT_LATENCY_S = 0.020
QUALIFY_TOL_KEV = 1.0
PEAKS_FROM_LINES = 800
PEAKS_BACKGROUND = 200
PEAK_JITTER_KEV = 0.3

_ALL_TABLES = ["csv", "html", "xml", "tex", "json"]
_RADIATIONS = {"alpha": "a", "bm": "bm", "bp": "bp", "gamma": "g",
               "electron": "e", "xray": "x"}

# The fixed job set: NORM gamma with every export, lineage and an annotated
# plot window, then Ac-225 alpha, Mo-99 gamma and the Lu-177m isomer.
_NORM = {"name": "norm", "progenitors": ["238u", "235u", "232th", "40k"],
         "radiation": "gamma", "prune": {"energy_kev": [0, 2000],
                                         "intensity_percent": [0.001, 100]}}
_AC225 = {"name": "ac225", "progenitors": ["225ac"], "radiation": "alpha",
          "prune": {"energy_kev": [0, 10000], "intensity_percent": [0.001, 100]}}
_MO99 = {"name": "mo99", "progenitors": ["99mo"], "radiation": "gamma"}
_LU177M = {"name": "lu177m", "progenitors": ["177lu@m4"], "radiation": "gamma"}
_PLOT_WINDOW = {"energy_kev": [0, 2000], "intensity_percent": [0.001, 100],
                "annotate": True, "annotation_min_intensity": 10}


def _job(base: dict, outputs: list[str], lineage: bool, plot: bool) -> dict:
    return {**base, "outputs": outputs, "lineage": lineage, "plot": plot}


def _fixed_job_set(full_outputs: bool) -> list[dict]:
    if full_outputs:
        return [_job(_NORM, _ALL_TABLES, True, True)] + [
            _job(base, ["csv"], True, False) for base in (_AC225, _MO99, _LU177M)
        ]
    return [_job(base, ["csv"], False, False) for base in (_NORM, _AC225, _MO99, _LU177M)]


def _shared_chain_jobs() -> list[dict]:
    return [
        _job({"name": f"shared_{rad}", "radiation": rad,
              "progenitors": ["237np", "233u", "229th", "225ac"]}, ["csv"], False, False)
        for rad in _RADIATIONS
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    qualify_library: str  # output file that qualify runs against
    cold: bool  # datasets from the mock endpoint into an empty cache

    def library_files(self) -> list[str]:
        return [f"library_{job['name']}_{_RADIATIONS[job['radiation']]}.{fmt}"
                for job in self.jobs for fmt in job["outputs"]]

    def golden_files(self) -> list[str]:
        """Outputs checked byte for byte against the committed goldens."""
        names = [n for n in self.library_files() if n.endswith(".csv")]
        for job in self.jobs:
            if job["lineage"]:
                names.extend(f"lineage_{p}.txt" for p in job["progenitors"])
        return sorted(names)

    def expected_files(self) -> list[str]:
        names = self.library_files() + self.golden_files()
        names += [f"library_{job['name']}_{_RADIATIONS[job['radiation']]}.svg"
                  for job in self.jobs if job["plot"]]
        return sorted(set(names))


WORKLOADS = {
    "warm_norm_suite": Workload("warm_norm_suite", tuple(_fixed_job_set(True)),
                                "library_norm_g.csv", cold=False),
    "warm_shared_chains": Workload("warm_shared_chains", tuple(_shared_chain_jobs()),
                                   "library_shared_gamma_g.csv", cold=False),
    "cold_endpoint": Workload("cold_endpoint", tuple(_fixed_job_set(False)),
                              "library_norm_g.csv", cold=True),
}

# Small job run once during set-up so that lazy imports, the endpoint's
# threads and the file cache are warm before the first timed repeat.
WARMUP_JOBS = (_job(_MO99, ["csv"], False, False),)


def config_yaml(jobs, *, cache_dir: Path, out_dir: Path, base_url: str | None) -> str:
    """The run configuration the program reads, as YAML (JSON is valid YAML)."""
    config = {"cache_dir": str(cache_dir), "out_dir": str(out_dir),
              "offline": base_url is None, "jobs": []}
    if base_url is not None:
        config["base_url"] = base_url
    for job in jobs:
        entry = {"name": job["name"], "recursive_progenitors": job["progenitors"],
                 "radiation": job["radiation"], "outputs": job["outputs"],
                 "lineage": job["lineage"]}
        if "prune" in job:
            entry["prune"] = job["prune"]
        entry["plot"] = {"windows": [_PLOT_WINDOW]} if job["plot"] else False
        config["jobs"].append(entry)
    return json.dumps(config, indent=2) + "\n"


def shuffled_jobs(workload: Workload, seed: int) -> list[dict]:
    jobs = list(workload.jobs)
    random.Random(seed).shuffle(jobs)
    return jobs


def peak_list_csv(library_csv: Path, seed: int) -> str:
    """About 1000 peaks: library lines with Gaussian jitter plus a uniform
    background over the library's energy range."""
    with library_csv.open(encoding="utf-8", newline="") as fh:
        energies = [float(row["energy_kev"]) for row in csv.DictReader(fh)]
    rng = random.Random(seed * 7919 + 1)
    lines = [rng.choice(energies) + rng.gauss(0.0, PEAK_JITTER_KEV)
             for _ in range(PEAKS_FROM_LINES)]
    top = max(energies)
    lines += [rng.uniform(0.0, top) for _ in range(PEAKS_BACKGROUND)]
    rng.shuffle(lines)
    return "centroid_kev\n" + "".join(f"{abs(e):.3f}\n" for e in lines)


def prime_cache(target: Path) -> None:
    """Copy the fixture corpus and its absence registry into ``target``."""
    target.mkdir(parents=True, exist_ok=True)
    for path in CORPUS.glob("*.csv"):
        shutil.copyfile(path, target / path.name)
    shutil.copyfile(CORPUS / "absent_registry.txt", target / "absent_registry.txt")


class Endpoint:
    """The mock endpoint process (see endpoint.py), stopped by ``close``."""

    latency_s = ENDPOINT_LATENCY_S

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"),
             "--corpus", str(CORPUS), "--latency", repr(self.latency_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self._proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("mock endpoint did not start")
        self.base = f"http://127.0.0.1:{int(line[1])}"
        # The endpoint is local: never route its requests through a proxy.
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    @property
    def url(self) -> str:
        return self.base + "/data"

    def _control(self, path: str) -> bytes:
        with self._opener.open(self.base + path, timeout=30) as resp:
            return resp.read()

    def reset(self) -> None:
        self._control("/_reset")

    def stats(self) -> dict:
        return json.loads(self._control("/_stats"))

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the ``nuclibgen`` command line in this process; (exit code, stdout).

    An exception the command line lets through is printed to stderr and
    returned as exit code 1, so that it counts as a failed operation."""
    from nuclibgen.cli import main

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception:  # the benchmark must go on and report the failure
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


@dataclass
class Program:
    """The program made ready to run one workload under ``workdir``."""

    workload: Workload
    config: Path
    cache_dir: Path
    out_dir: Path
    endpoint: Endpoint | None = None

    def generate(self) -> tuple[int, str]:
        return run_cli(["generate", str(self.config), "--jobs", "1"])

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None


def set_up_program(workload: Workload, workdir: Path, seed: int) -> Program:
    """Everything a run does before its first timed repeat: import, start the
    endpoint or prime the cache, write and load the configuration, and one
    warm-up ``generate``. Raises RuntimeError when the warm-up fails."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from nuclibgen.config import load_config

    workdir.mkdir(parents=True, exist_ok=True)
    cache_dir, out_dir = workdir / "cache", workdir / "out"
    endpoint = None
    if workload.cold:
        os.environ["NO_PROXY"] = ",".join(
            filter(None, [os.environ.get("NO_PROXY"), "127.0.0.1"]))
        endpoint = Endpoint()
    else:
        prime_cache(cache_dir)
    program = Program(workload, workdir / "run.yaml", cache_dir, out_dir, endpoint)
    try:
        base_url = endpoint.url if endpoint else None
        program.config.write_text(config_yaml(
            shuffled_jobs(workload, seed), cache_dir=cache_dir, out_dir=out_dir,
            base_url=base_url), encoding="utf-8")
        warmup = workdir / "warmup.yaml"
        warmup.write_text(config_yaml(
            WARMUP_JOBS, cache_dir=cache_dir, out_dir=workdir / "warmup_out",
            base_url=base_url), encoding="utf-8")
        load_config(program.config)
        code, _ = run_cli(["generate", str(warmup), "--jobs", "1"])
        if code != 0:
            raise RuntimeError(f"warm-up generate exited with {code}")
    except BaseException:
        program.close()
        raise
    return program
