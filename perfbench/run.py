"""nuclibgen benchmark: one workload in one process, a closed loop with one
client that runs ``nuclibgen generate --jobs 1`` and then ``nuclibgen
qualify`` until the measuring time is used up.

    python3 perfbench/run.py --workload warm_norm_suite --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run instead (see README.md). The line before
it records the environment, the raw wall times, the sample counts and the
outputs digest. Timings are in reference seconds (see calibration.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from calibration import Calibration, normalise
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import (BENCH_DIR, CORPUS, GOLDENS, QUALIFY_TOL_KEV, ROOT, SRC,
                       WORKLOADS, peak_list_csv, run_cli, set_up_program)

SETUP_ROUNDS = 5
# qualify is short, so each repeat runs it several times for enough samples.
QUALIFY_PER_REPEAT = 3
MIN_REPEATS = 3  # a traced run needs only two: one untraced, one traced

END_TO_END = {
    "generate_s": "s",
    "qualify_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def timed(fn):
    """(result, wall seconds, CPU seconds of this process) of ``fn()``."""
    gc.collect()  # every timed operation starts from the same heap state
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - wall, time.process_time() - cpu


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_rounds(workload: str, seed: int, workdir: Path, calibration: Calibration,
                 rounds: int) -> tuple[list[float], list[float]]:
    """Reference and wall seconds of each set-up round, each round in a fresh
    interpreter timed from spawn to exit."""
    normalised, walls = [], []
    before = calibration.measure()
    for i in range(rounds):
        round_dir = workdir / f"setup{i}"
        cpu, start = _children_cpu_s(), time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_round.py"), workload,
             str(round_dir), str(seed)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        wall, cpu = time.perf_counter() - start, _children_cpu_s() - cpu
        shutil.rmtree(round_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up round failed:\n{proc.stderr}")
        after = calibration.measure()
        normalised.append(normalise(wall, cpu, (before + after) / 2))
        walls.append(wall)
        before = after
    return normalised, walls


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nuclibgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class Runner:
    """The timed loop of one run, with the output checks of every repeat."""

    def __init__(self, program, peaks: Path, expected_qualify: str,
                 calibration: Calibration):
        self.program = program
        self.workload = program.workload
        self.peaks = peaks
        self.expected_qualify = expected_qualify
        self.calibration = calibration
        self.last_calibration_s = calibration.measure()
        self.calibrations: list[float] = []
        self.tally = checks.Tally()
        self.first_digests: dict[str, str] | None = None
        self.endpoint_requests: list[int] = []

    def _calibrate(self) -> float:
        """Calibration time around the operation just timed: the mean of the
        measurement before it and one taken now."""
        now = self.calibration.measure()
        self.calibrations.append(now)
        around, self.last_calibration_s = (self.last_calibration_s + now) / 2, now
        return around

    def repeat(self, tracer: Tracer | None = None) -> dict:
        """One generate, then the qualify runs (one when traced, so that the
        per-layer figures are per generate and per qualify). Returns the
        reference and wall seconds of each and the endpoint's statistics."""
        program, workload = self.program, self.workload
        endpoint = program.endpoint
        shutil.rmtree(program.out_dir, ignore_errors=True)
        if endpoint is not None:
            shutil.rmtree(program.cache_dir, ignore_errors=True)
            endpoint.reset()
        if tracer is not None:
            tracer.reset()

        (code, _), wall, cpu = timed(program.generate)
        result = {"generate": normalise(wall, cpu, self._calibrate()),
                  "generate_wall": wall, "qualify": [], "qualify_wall": []}

        stats = result["stats"] = endpoint.stats() if endpoint is not None else None
        problems = [] if code == 0 else [f"generate exited with {code}"]
        digests = checks.file_digests(program.out_dir)
        problems += checks.check_file_set(digests, workload.expected_files())
        problems += checks.check_goldens(program.out_dir, GOLDENS, workload.golden_files())
        if self.first_digests is None:
            problems += checks.check_export_formats(program.out_dir,
                                                    workload.library_files())
            self.first_digests = digests
        else:
            problems += checks.check_same_bytes(digests, self.first_digests)
        if endpoint is not None:
            problems += checks.check_cold_cache(program.cache_dir, CORPUS)
            self.endpoint_requests.append(stats["requests"])
        self.tally.record(problems)

        argv = ["qualify", str(self.peaks), str(program.out_dir / workload.qualify_library),
                "--tol-kev", str(QUALIFY_TOL_KEV)]
        timings = []
        for _ in range(1 if tracer is not None else QUALIFY_PER_REPEAT):
            (code, output), wall, cpu = timed(lambda: run_cli(argv))
            timings.append((wall, cpu))
            problems = [] if code == 0 else [f"qualify exited with {code}"]
            self.tally.record(problems + checks.check_qualify(output, self.expected_qualify))
        around = self._calibrate()
        for wall, cpu in timings:
            result["qualify"].append(normalise(wall, cpu, around))
            result["qualify_wall"].append(wall)
        return result


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Repeat until the next repeat would end past ``seconds``. A traced run
    alternates untraced and traced repeats so that both see the same load."""
    tracer = Tracer() if traced else None
    samples = {"generate": [], "generate_wall": [], "qualify": [], "qualify_wall": [],
               "traced_generate": [], "layers": []}
    durations = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        done = len(durations)
        if done >= MIN_REPEATS - (1 if traced else 0) and (
                elapsed + statistics.median(durations) > seconds):
            break
        start = time.perf_counter()
        if traced and done % 2 == 1:
            tracer.install()
            try:
                result = runner.repeat(tracer)
            finally:
                tracer.uninstall()
            samples["traced_generate"].append(result["generate"])
            endpoint = runner.program.endpoint
            samples["layers"].append(layer_metrics(
                tracer, result["stats"], endpoint and endpoint.latency_s))
        else:
            result = runner.repeat()
            for key in ("generate", "generate_wall"):
                samples[key].append(result[key])
            for key in ("qualify", "qualify_wall"):
                samples[key].extend(result[key])
        durations.append(time.perf_counter() - start)
    if tracer is not None:
        samples["trace_gaps"] = sorted(tracer.missing | tracer.callback_errors)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "nuclibgen" / "__init__.py").is_file() or not CORPUS.is_dir():
        sys.stderr.write(f"no nuclibgen source tree and fixtures/ under {ROOT}\n")
        return 2

    workload = WORKLOADS[args.workload]
    loadavg_start = os.getloadavg()[0]
    calibration = Calibration(CORPUS)
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        golden_library = GOLDENS / workload.qualify_library
        peaks = workdir / "peaks.csv"
        peaks.write_text(peak_list_csv(golden_library, args.seed), encoding="utf-8")
        centroids = [float(x) for x in peaks.read_text().split()[1:]]
        expected_qualify = checks.qualify_oracle(
            golden_library.read_text(encoding="utf-8"), centroids, QUALIFY_TOL_KEV)

        setup, setup_wall = ([], []) if args.trace else setup_rounds(
            workload.name, args.seed, workdir, calibration, SETUP_ROUNDS)
        program = set_up_program(workload, workdir / "run", args.seed)
        try:
            runner = Runner(program, peaks, expected_qualify, calibration)
            samples = measure(runner, args.seconds, bool(args.trace))
        finally:
            program.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    generate = samples["generate"]
    if args.trace:
        layers = samples["layers"]
        # Counts repeat exactly, so a count is reported as one of its samples.
        metrics = {name: (statistics.median_low if unit in ("count", "B")
                          else statistics.median)([run[name] for run in layers])
                   for name, (unit, _) in PER_LAYER.items()
                   if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (
            statistics.median(samples["traced_generate"]) / statistics.median(generate))
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "generate_s": statistics.median(generate),
            "qualify_s": statistics.median(samples["qualify"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    tally = runner.tally
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_1m": [loadavg_start, os.getloadavg()[0]],
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "calibration_s": statistics.median(runner.calibrations),
        "generate_samples": len(generate),
        "traced_generate_samples": len(samples["traced_generate"]),
        "qualify_samples": len(samples["qualify"]),
        "setup_rounds": len(setup),
        "wall_s": {"generate": statistics.median(samples["generate_wall"]),
                   "qualify": statistics.median(samples["qualify_wall"]),
                   "setup": statistics.median(setup_wall) if setup_wall else None},
        "generate_s_samples": generate,
        "generate_wall_s_samples": samples["generate_wall"],
        "qualify_wall_s_samples": samples["qualify_wall"],
        "calibration_s_samples": runner.calibrations,
        "endpoint_requests": sorted(set(runner.endpoint_requests)),
        "outputs_sha256": checks.outputs_sha256(runner.first_digests or {}),
        "problems": tally.problems,
        "trace_gaps": samples.get("trace_gaps", []),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
