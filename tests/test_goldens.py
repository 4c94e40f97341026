"""Golden outputs: each benchmark workload's job set, run offline in-process
from the primed fixture cache in shuffled orders under ``--jobs`` 1 and 4,
reproduces the committed files under perfbench/goldens byte for byte, with
each job's warnings as in a serial run; so does the cold workload fetched
from the mock endpoint into an empty cache; ``qualify`` prints what the
benchmark's brute-force oracle expects. The workload definitions and the oracle are
imported from perfbench/workloads.py and perfbench/checks.py and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import nuclibgen.cli as cli_mod
from nuclibgen.cli import main, run
from nuclibgen.config import load_config
from nuclibgen.export import import_library_csv
from nuclibgen.identify import PeakList, qualify_peaks

from conftest import MockServer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    spec.loader.exec_module(module)
    return module


workloads = _load_perfbench("workloads")
checks = _load_perfbench("checks")


def _generate(jobs, tmp_path, jobs_parallel):
    """``nuclibgen generate`` of ``jobs`` offline from a primed cache; the
    output directory and each job's report.json warnings by job name."""
    cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
    workloads.prime_cache(cache_dir)
    config = tmp_path / "run.yaml"
    config.write_text(
        workloads.config_yaml(jobs, cache_dir=cache_dir, out_dir=out_dir, base_url=None),
        encoding="utf-8",
    )
    code = main(["generate", str(config), "--jobs", str(jobs_parallel)])
    assert code == 0, (out_dir / "report.txt").read_text(encoding="utf-8")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return out_dir, {job["name"]: job["warnings"] for job in report["jobs"]}


@pytest.fixture(scope="module")
def workload_warnings(tmp_path_factory):
    """Each job's warnings when its workload runs serially in listed order."""
    known = {}

    def warnings_of(name):
        if name not in known:
            _, known[name] = _generate(workloads.WORKLOADS[name].jobs,
                                       tmp_path_factory.mktemp(name), 1)
        return known[name]

    return warnings_of


@pytest.mark.parametrize("jobs_parallel", [1, 4], ids=["jobs1", "jobs4"])
@pytest.mark.parametrize("seed", [1, 2], ids=["seed1", "seed2"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_outputs_match_goldens(name, seed, jobs_parallel, tmp_path,
                                        workload_warnings):
    """Whatever the job order and ``--jobs``, the outputs equal the goldens and
    every job reports the warnings it reports in a serial run."""
    workload = workloads.WORKLOADS[name]
    jobs = workloads.shuffled_jobs(workload, seed)
    assert jobs != list(workload.jobs)  # not the reference order
    out_dir, warnings = _generate(jobs, tmp_path, jobs_parallel)
    names = workload.golden_files()
    assert names
    for fname in names:
        produced = (out_dir / fname).read_bytes()
        assert produced == (workloads.GOLDENS / fname).read_bytes(), fname
    assert warnings == workload_warnings(name)


def test_cold_endpoint_outputs_cache_and_registry(tmp_path):
    workload = workloads.WORKLOADS["cold_endpoint"]
    cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
    server = MockServer(workloads.CORPUS, latency=0)
    try:
        config = tmp_path / "run.yaml"
        config.write_text(
            workloads.config_yaml(workload.jobs, cache_dir=cache_dir, out_dir=out_dir,
                                  base_url=server.url),
            encoding="utf-8",
        )
        report = run(load_config(config))
        requested = server.keys
    finally:
        server.stop()
    assert report.ok, [job.error for job in report.jobs]
    for fname in workload.golden_files():
        produced = (out_dir / fname).read_bytes()
        assert produced == (workloads.GOLDENS / fname).read_bytes(), fname

    cached = sorted(path.name for path in cache_dir.glob("*.csv"))
    assert cached
    for name in cached:
        assert (cache_dir / name).read_bytes() == (workloads.CORPUS / name).read_bytes()
    registered = (cache_dir / "absent_registry.txt").read_text().splitlines()
    assert not [key for key in registered
                if (workloads.CORPUS / (key.replace(":", "_") + ".csv")).exists()]
    # Each dataset was requested once, and the counters saw every request.
    assert len(requested) == len(set(requested))
    assert set(requested) == {n[:-4].replace("_", ":") for n in cached} | set(registered)
    assert sum(job.network_calls for job in report.jobs) == len(requested)


NORM_EXPORTS = Path(__file__).resolve().parent / "data" / "norm_exports"


def test_norm_exports_match_recorded_files(tmp_path, capsys):
    """The NORM job's html, xml, tex, json and svg outputs, which the perfbench
    goldens do not cover, equal the files recorded under tests/data/norm_exports
    (made by this same run before the exporters were rewritten)."""
    jobs = [job for job in workloads.WORKLOADS["warm_norm_suite"].jobs
            if job["name"] == "norm"]
    cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
    workloads.prime_cache(cache_dir)
    config = tmp_path / "run.yaml"
    config.write_text(
        workloads.config_yaml(jobs, cache_dir=cache_dir, out_dir=out_dir, base_url=None),
        encoding="utf-8",
    )
    assert main(["generate", str(config), "--jobs", "1"]) == 0, capsys.readouterr().out
    recorded = sorted(NORM_EXPORTS.iterdir())
    assert [path.suffix for path in recorded] == [".html", ".json", ".svg", ".tex", ".xml"]
    for path in recorded:
        assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("tol_kev", [0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("library", ["library_norm_g.csv", "library_shared_gamma_g.csv"])
def test_qualify_matches_oracle(library, seed, tol_kev, tmp_path, capsys):
    """``nuclibgen qualify`` on a golden library prints, line for line, what the
    benchmark's brute-force oracle computes from the CSV rows."""
    golden = workloads.GOLDENS / library
    peaks = tmp_path / "peaks.csv"
    peaks.write_text(workloads.peak_list_csv(golden, seed), encoding="utf-8")
    centroids = [float(x) for x in peaks.read_text().split()[1:]]
    expected = checks.qualify_oracle(golden.read_text(encoding="utf-8"), centroids, tol_kev)
    assert main(["qualify", str(peaks), str(golden), "--tol-kev", repr(tol_kev)]) == 0
    out = capsys.readouterr().out
    assert checks.check_qualify(out, expected) == []
    assert out == expected


def test_qualify_formats_each_displayed_entry_once(tmp_path, capsys, monkeypatch):
    """One ``qualify`` over the norm golden library names each entry it
    displays once, however many peaks show it."""
    golden = workloads.GOLDENS / "library_norm_g.csv"
    peaks = tmp_path / "peaks.csv"
    peaks.write_text(workloads.peak_list_csv(golden, 1), encoding="utf-8")
    calls = []
    display_name = cli_mod.display_name

    def counting(nuclide):
        calls.append(nuclide)
        return display_name(nuclide)

    monkeypatch.setattr(cli_mod, "display_name", counting)
    assert main(["qualify", str(peaks), str(golden), "--tol-kev", "1.0"]) == 0
    capsys.readouterr()
    matches = qualify_peaks(PeakList.load_csv(peaks), import_library_csv(golden), 1.0)
    displayed = [id(entry) for match in matches for entry in match.candidates[:5]]
    assert len(calls) == len(set(displayed)) < len(displayed)
