import json
import os
import socket
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import nuclibgen.chains as chains_mod
import nuclibgen.cli as cli_mod
import nuclibgen.export as export_mod
from nuclibgen.cli import main, run
from nuclibgen.chains import render_lineage
from nuclibgen.config import load_config
from nuclibgen.dataaccess import AccessConfig
from nuclibgen.errors import DataUnavailable

from conftest import REPO, prime_cache


def write_config(tmp_path, text) -> Path:
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_generate_offline_from_primed_cache(tmp_path, corpus_dir, capsys):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: norm
    recursive_progenitors: [238U, 235U, 232Th, 40K]
    radiation: gamma
    prune:
      energy_kev: [0, 2000]
      intensity_percent: [0.001, 100]
    outputs: [csv, json]
""")
    code = main(["generate", str(cfg)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    job = report["jobs"][0]
    assert job["ok"]
    assert job["network_calls"] == 0
    assert job["entries_post_prune"] == 2077
    assert (out / "library_norm_g.csv").exists()
    assert (out / "library_norm_g.json").exists()
    assert (out / "library_norm_g.svg").exists()
    for progenitor in ("238u", "235u", "232th", "40k"):
        assert (out / f"lineage_{progenitor}.txt").exists()
    assert (out / "report.txt").exists()
    text = capsys.readouterr().out
    assert "norm" in text and "ok" in text



CACHE_DIRS = ("env_cache", "yaml_cache", "flag_cache", "nucdata_cache")


@pytest.mark.parametrize("env, top, flags, source, cache", [
    ({"NUCLIBGEN_BASE_URL": "http://env.test", "NUCLIBGEN_CACHE_DIR": "env_cache"},
     "", [], "http://env.test", "env_cache"),
    ({"NUCLIBGEN_BASE_URL": "http://env.test", "NUCLIBGEN_CACHE_DIR": "env_cache"},
     "base_url: http://yaml.test\ncache_dir: yaml_cache\n", [], "http://yaml.test",
     "yaml_cache"),
    ({"NUCLIBGEN_CACHE_DIR": "env_cache"}, "cache_dir: yaml_cache\n",
     ["--cache-dir", "flag_cache"], None, "flag_cache"),
    ({"NUCLIBGEN_BASE_URL": "", "NUCLIBGEN_CACHE_DIR": ""}, "", [], None, "nucdata_cache"),
], ids=["environment-alone", "yaml-beats-environment", "flag-beats-yaml",
        "empty-environment-is-unset"])
def test_retrieval_settings_precedence(tmp_path, corpus_dir, monkeypatch, env, top, flags,
                                       source, cache):
    """Each retrieval setting comes from the CLI flag, else the YAML value,
    else the environment, else the default (``source`` None); an empty value
    counts as unset. Only ``cache`` is primed: the offline job reads it, and
    no other candidate cache directory is created."""
    monkeypatch.chdir(tmp_path)
    for name in ("NUCLIBGEN_BASE_URL", "NUCLIBGEN_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    prime_cache(corpus_dir, tmp_path / cache)
    cfg = write_config(tmp_path, top + """offline: true
out_dir: out
jobs:
  - name: mo
    recursive_progenitors: [99Mo]
    plot: false
""")
    assert main(["generate", str(cfg), *flags]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["source"] == (source or AccessConfig().base_url)
    job = report["jobs"][0]
    assert job["cache_hits"] > 0 and job["network_calls"] == 0
    assert [d for d in CACHE_DIRS if (tmp_path / d).exists()] == [cache]


def test_each_entry_is_rendered_once_for_all_table_formats(tmp_path, corpus_dir,
                                                            monkeypatch):
    """One job exporting all five table formats computes each library entry's
    cells once, not once per format."""
    calls = Counter()
    renderer = export_mod._cell_renderer

    def counted_renderer():
        cells = renderer()

        def counted(entry):
            calls[entry] += 1
            return cells(entry)

        return counted

    monkeypatch.setattr(export_mod, "_cell_renderer", counted_renderer)
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: th
    recursive_progenitors: [232Th]
    radiation: gamma
    outputs: [csv, html, xml, tex, json]
    lineage: false
    plot: false
""")
    report = run(load_config(cfg))
    job = report.jobs[0]
    assert job.ok and len(job.outputs) == 5
    assert job.entries_post_prune > 100
    assert sum(calls.values()) == job.entries_post_prune

def test_cold_then_warm_run_over_mock_server(tmp_path, mini_server):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, f"""
cache_dir: {tmp_path / "cache"}
base_url: {mini_server.url}
out_dir: {out}
jobs:
  - name: sr90
    recursive_progenitors: [90Sr]
    radiation: bm
  - name: sr90_gamma
    recursive_progenitors: [90Sr]
    radiation: gamma
""")
    cold = run(load_config(cfg_path))
    assert cold.ok
    assert cold.jobs[0].network_calls > 0
    # The second job takes every nuclide from the run's parse memo, so it
    # reads, and counts, no dataset itself.
    first, second = cold.jobs
    assert first.nuclides_parsed > 0 and first.nuclides_reused == 0
    assert (second.nuclides_parsed, second.nuclides_reused) == (0, first.nuclides_parsed)
    assert second.network_calls == second.cache_hits == second.registry_skips == 0
    assert (f"nuclides_parsed 0, nuclides_reused {first.nuclides_parsed}"
            in (out / "report.txt").read_text())
    assert (tmp_path / "cache" / "90sr_dr-bm.csv").exists()
    registered = (tmp_path / "cache" / "absent_registry.txt").read_text().splitlines()
    assert cold.jobs[0].absences_recorded == len(registered) > 0
    assert f"absences_recorded {len(registered)}" in (out / "report.txt").read_text()
    # Every job's store has shut its fetch pool down by the time run() returns.
    assert not [t for t in threading.enumerate() if t.name.startswith("nuclibgen-fetch")]

    warm = run(load_config(cfg_path))
    assert warm.ok
    assert warm.jobs[0].network_calls == 0
    assert warm.jobs[0].cache_hits > 0
    assert warm.jobs[0].registry_skips > 0
    assert warm.jobs[0].absences_recorded == 0
    report = json.loads((out / "report.json").read_text())
    assert report["jobs"][0]["absences_recorded"] == 0
    assert [(job["nuclides_parsed"], job["nuclides_reused"]) for job in report["jobs"]] == [
        (first.nuclides_parsed, 0), (0, first.nuclides_parsed)]


def test_identical_runs_produce_identical_outputs(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    template = """
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: ac
    recursive_progenitors: [225Ac]
    radiation: alpha
    outputs: [csv, xml, tex, html, json]
"""
    for out in (out1, out2):
        cfg = write_config(tmp_path, template.format(cache=cache, out=out))
        assert run(load_config(cfg)).ok
    for name in ("library_ac_a.csv", "library_ac_a.xml", "library_ac_a.tex",
                 "library_ac_a.html", "library_ac_a.json", "library_ac_a.svg",
                 "lineage_225ac.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_job_failures_are_isolated(tmp_path, corpus_dir, capsys):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: broken
    recursive_progenitors: [152Eu]
    radiation: gamma
  - name: fine
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    code = main(["generate", str(cfg)])
    assert code == 1  # one job failed
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert not by_name["broken"]["ok"]
    assert by_name["fine"]["ok"]
    assert (out / "library_fine_g.csv").exists()


def test_blank_cache_file_fails_only_its_job_offline(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    (cache / "225ac_dr-a.csv").write_text("", encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: alpha
    recursive_progenitors: [225Ac]
    radiation: alpha
  - name: fine
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert by_name["alpha"]["error"].endswith("offline and not cached: 225ac:dr-a")
    assert by_name["fine"]["ok"]
    assert (out / "library_fine_g.csv").exists()


def test_cache_file_not_utf8_fails_only_its_job_offline(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    (cache / "225ac_dr-a.csv").write_bytes(b"energy\n\xff\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: alpha
    recursive_progenitors: [225Ac]
    radiation: alpha
  - name: fine
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert by_name["alpha"]["error"] == (
        "DataUnavailable: offline and not cached: 225ac:dr-a")
    assert by_name["fine"]["ok"]
    assert (out / "library_fine_g.csv").exists()


def _insert(line, text):
    """A spoiler that puts ``text`` before the first comma of a file's ``line``."""
    def spoil(path):
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[line - 1] = lines[line - 1].replace(",", text + ",", 1)
        path.write_text("\n".join(lines), encoding="utf-8", newline="")
    return spoil


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("spoil, error", [
    (_directory, "DataUnavailable: offline and not cached: 99mo:dr-g"),
    (_insert(3, "x" * 200_000),
     "HeaderMismatch: 99mo:dr-g line 3: field larger than field limit"),
    (_insert(2, "\rx"),
     "HeaderMismatch: 99mo:dr-g line 2: new-line character seen in unquoted field"),
], ids=["directory", "huge-field", "lone-cr"])
def test_bad_cache_entry_fails_only_its_job_offline(tmp_path, corpus_dir, spoil, error):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    spoil(cache / "99mo_dr-g.csv")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: mo
    recursive_progenitors: [99Mo]
    radiation: gamma
  - name: fine
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert by_name["mo"]["error"].startswith(error)
    assert by_name["fine"]["ok"]
    assert (out / "library_fine_g.csv").exists()


@pytest.mark.parametrize("registry, error", [
    (None, "cannot read marker registry {path}: "),
    ("shape,color\nstar,#112233\n", "marker registry {path}: missing column nuclide"),
    ("nuclide,shape\n99mo,star\n99xx,circle\n", "marker registry {path} line 3: "),
    (Path("a\0b"), "cannot read marker registry {path}: "),
], ids=["missing-file", "missing-column", "bad-id", "nul-byte"])
def test_bad_marker_registry_fails_only_its_job(tmp_path, corpus_dir, registry, error):
    """``registry`` is the file's text, None for no file, or a path to name as is."""
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    markers = registry if isinstance(registry, Path) else tmp_path / "markers.csv"
    if isinstance(registry, str):
        markers.write_text(registry, encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: mo
    recursive_progenitors: [99Mo]
    radiation: gamma
    plot:
      marker_registry: {json.dumps(str(markers))}
  - name: lu
    recursive_progenitors: [177Lu@m4]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert by_name["mo"]["error"].startswith(
        "InvalidInput: " + error.format(path=markers))
    assert by_name["lu"]["ok"]
    assert (out / "library_lu_g.svg").exists()


def test_unwritable_lineage_file_fails_only_its_job(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    (out / "lineage_99mo.txt").mkdir(parents=True)
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: mo
    recursive_progenitors: [99Mo]
    radiation: gamma
  - name: lu
    recursive_progenitors: [177Lu@m4]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {j["name"]: j for j in report["jobs"]}
    assert by_name["mo"]["error"].startswith(
        f"IoError: cannot write {out / 'lineage_99mo.txt'}: ")
    assert by_name["lu"]["ok"]
    assert (out / "report.txt").exists()


def test_out_dir_that_is_a_file_is_one_error_line(tmp_path, corpus_dir, capsys):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    out.write_text("not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: ra
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: IoError: cannot write {out / 'report.json'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_registry_that_is_not_utf8_is_one_error_line(tmp_path, corpus_dir, capsys):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    registry = cache / "absent_registry.txt"
    registry.write_bytes(b"\xff\xfe2\x000\x008\x00p\x00b\x00")
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {tmp_path / "out"}
jobs:
  - name: ra
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: RegistryIoError: cannot read registry {registry}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("top, job", [
    ("cache_dir: 5", "name: a"),
    ("out_dir: 5", "name: a"),
    ("base_url: 5", "name: a"),
    ("", "name: a\n    plot: {marker_registry: 5}"),
    ("", "name: 5"),
    ("", "name: a/b"),
    ("", 'name: "a\\0b"'),
    ("", "name: a\n  - name: a\n    recursive_progenitors: [226Ra]"),
    ("", "name: a\n    plot: {windows: [{energy_kev: [2000, 0]}]}"),
    ("", "name: a\n    plot: {windows: [{annotation_min_intensity: .nan}]}"),
    ("", "name: a\n    outputs: [csv, pdf]"),
    ("", "name: a\n    outputs: [csv, CSV]"),
    ("", "name: a\n  - recursive_progenitors: true"),
    ("", "name: a\n    static_nuclides: 5"),
    ("", "name: a\n    plot: {windows: 7}"),
], ids=["cache_dir", "out_dir", "base_url", "marker_registry", "name-type",
        "name-separator", "name-nul", "name-repeated", "window-inverted", "window-nan-min",
        "outputs-unsupported", "outputs-repeated", "progenitors-not-a-list",
        "statics-not-a-list", "windows-not-a-list"])
def test_bad_config_value_is_one_error_line(tmp_path, corpus_dir, capsys, top, job):
    cfg = write_config(tmp_path, f"""
offline: true
{top}
jobs:
  - recursive_progenitors: [226Ra]
    {job}
""")
    assert main(["generate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigParseError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("top, flags, error", [
    ("cache_dir: {file}", [], "CacheWriteError: cannot create {file}: "),
    ("cache_dir: {cache}", ["--cache-dir", "{file}"],
     "CacheWriteError: cannot create {file}: "),
    ('cache_dir: "{tmp}/a\\0b"', [], "CacheWriteError: cannot create {tmp}/a\0b: "),
    ('cache_dir: {cache}\nout_dir: "{tmp}/a\\0b"', [], "IoError: cannot write {tmp}/a\0b/"),
], ids=["cache_dir-a-file", "cache-dir-flag-a-file", "cache_dir-nul", "out_dir-nul"])
def test_bad_path_is_one_error_line(tmp_path, corpus_dir, capsys, top, flags, error):
    paths = {"cache": prime_cache(corpus_dir, tmp_path / "cache"),
             "file": tmp_path / "file", "tmp": tmp_path}
    paths["file"].write_text("not a directory\n", encoding="utf-8")
    cfg = write_config(tmp_path, f"""
offline: true
{top.format(**paths)}
jobs:
  - recursive_progenitors: [226Ra]
""")
    assert main(["generate", str(cfg), *(flag.format(**paths) for flag in flags)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + error.format(**paths))
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_one_error_line(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
offline: true
cache_dir: {tmp_path / "cache"}
jobs:
  - recursive_progenitors: [226Ra]
""")
    assert main(["generate", str(cfg), "--out-dir", str(out), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: InvalidInput: --jobs {jobs}: at least one job must run at a time\n")
    assert not out.exists()


def test_offline_generate_and_qualify_never_load_the_http_stack(tmp_path, corpus_dir):
    """A fresh interpreter imports the package, generates from a primed cache
    offline and qualifies peaks without loading the HTTP stack (``http.client``
    or ``ssl``), and with ``--jobs 1`` and no fetch it makes no thread pool, so
    it never loads ``concurrent.futures`` either."""
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: ra
    recursive_progenitors: [226Ra]
    radiation: gamma
""")
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("centroid_kev\n186.2\n609.3\n", encoding="utf-8")
    script = (
        "import sys\n"
        "import nuclibgen, nuclibgen.cli\n"
        "cfg, peaks, library = sys.argv[1:]\n"
        "assert nuclibgen.cli.main(['generate', cfg]) == 0\n"
        "assert nuclibgen.cli.main(['qualify', peaks, library, '--tol-kev', '1']) == 0\n"
        "print([name in sys.modules for name in ('http.client', 'ssl', 'concurrent.futures')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(peaks), str(out / "library_ra_g.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[False, False, False]"


def test_transport_failure_fails_its_job_and_registers_nothing(tmp_path):
    """An endpoint that refuses connections (a closed local port) fails the
    job with DataUnavailable; the reports are written, the exit status is 1
    and nothing is recorded as absent."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    cache, out = tmp_path / "cache", tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
base_url: http://127.0.0.1:{port}/data
out_dir: {out}
jobs:
  - name: mo
    recursive_progenitors: [99Mo]
    radiation: gamma
""")
    assert main(["generate", str(cfg)]) == 1
    job = json.loads((out / "report.json").read_text())["jobs"][0]
    assert not job["ok"]
    assert job["error"].startswith("DataUnavailable: request failed for 99mo:")
    assert job["absences_recorded"] == 0
    assert not (cache / "absent_registry.txt").exists()
    assert "FAILED: DataUnavailable" in (out / "report.txt").read_text()


def test_report_text_shows_ten_warnings_then_a_count():
    report = cli_mod.RunReport(jobs=[
        cli_mod.JobReport(name="many", warnings=[f"w{i}" for i in range(13)])])
    lines = report.as_text().splitlines()
    assert [line for line in lines if "warning" in line] == [
        *(f"    warning: w{i}" for i in range(10)), "    ... 3 more warnings"]


def test_unknown_nuclide_id_fails_job_cleanly(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {tmp_path / "out"}
jobs:
  - name: typo
    recursive_progenitors: [Xq-10]
""")
    assert main(["generate", str(cfg)]) == 2  # config-level error


def test_cli_flag_overrides(tmp_path, mini_corpus_dir):
    cache = prime_cache(mini_corpus_dir, tmp_path / "flagcache")
    out = tmp_path / "flagout"
    cfg = write_config(tmp_path, """
jobs:
  - name: sr90
    recursive_progenitors: [90Sr]
    radiation: bm
""")
    code = main([
        "generate", str(cfg), "--offline",
        "--cache-dir", str(cache), "--out-dir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["jobs"][0]["network_calls"] == 0


def test_no_registry_flag_reports_zero_skips(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: k40
    recursive_progenitors: [40K]
""")
    # registry disabled and offline: absent keys now raise OfflineMiss,
    # so this exercises failure reporting as well as skip accounting
    code = main(["generate", str(cfg), "--no-registry"])
    report = json.loads((out / "report.json").read_text())
    assert report["jobs"][0]["registry_skips"] == 0
    assert code == 1


def test_parallel_jobs_share_cache(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: th
    recursive_progenitors: [232Th]
    radiation: alpha
  - name: ac
    recursive_progenitors: [225Ac]
    radiation: alpha
""")
    assert main(["generate", str(cfg), "--jobs", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(j["ok"] for j in report["jobs"])
    assert all(j["network_calls"] == 0 for j in report["jobs"])


def generate_norm_library(tmp_path, corpus_dir, capsys) -> Path:
    """Generate the pruned norm gamma library offline; returns its CSV."""
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: norm
    recursive_progenitors: [238U, 235U, 232Th, 40K]
    radiation: gamma
    prune:
      energy_kev: [0, 2000]
      intensity_percent: [0.001, 100]
""")
    assert main(["generate", str(cfg)]) == 0
    capsys.readouterr()
    return out / "library_norm_g.csv"


def test_qualify_cli(tmp_path, corpus_dir, capsys):
    library = generate_norm_library(tmp_path, corpus_dir, capsys)
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("centroid_kev\n1460.8\n186.0\n3000.0\n")
    code = main(["qualify", str(peaks), str(library), "--tol-kev", "1.0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1460.8 keV: K-40 1460.82 keV (10.66%)")
    assert "Ra-226" in lines[1] and "U-235" in lines[1]
    assert lines[2] == "3000 keV: unassigned"


def test_qualify_top_prints_a_prefix_of_the_full_ranking(tmp_path, corpus_dir, capsys):
    library = generate_norm_library(tmp_path, corpus_dir, capsys)
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("".join(f"{kev / 4:g}\n" for kev in range(0, 8004, 37)))

    def printed(top: int) -> list[tuple[str, list[str]]]:
        assert main(["qualify", str(peaks), str(library), "--tol-kev", "2.0",
                     "--top", str(top)]) == 0
        return [(peak, labels.split(", "))
                for peak, labels in (line.split(": ", 1)
                                     for line in capsys.readouterr().out.splitlines())]

    everything = printed(100000)
    assert max(len(labels) for _, labels in everything) > 5
    for top in (1, 5):
        assert printed(top) == [
            (peak, labels if labels == ["unassigned"] else labels[:top])
            for peak, labels in everything
        ]


def test_phase_times_sum_below_total(tmp_path, corpus_dir):
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {out}
jobs:
  - name: ac
    recursive_progenitors: [225Ac]
""")
    report = run(load_config(cfg))
    job = report.jobs[0]
    assert sum(job.phase_seconds.values()) <= job.total_seconds + 1e-6


# Jobs over the nested 237Np > 233U > 229Th > 225Ac progenitors, plus statics
# inside those chains: later jobs visit only nuclides an earlier job parsed.
SHARED_JOBS = {
    "np": """
  - name: np
    recursive_progenitors: [237Np]
    radiation: gamma
""",
    "ac": """
  - name: ac
    recursive_progenitors: [233U, 225Ac]
    static_nuclides: [213Bi]
    radiation: alpha
""",
    "bi": """
  - name: bi
    static_nuclides: [213Bi, 209Tl]
    radiation: alpha
""",
    "ac_g": """
  - name: ac_g
    recursive_progenitors: [233U, 225Ac]
    static_nuclides: [213Bi]
    radiation: gamma
""",
}


def run_jobs(tmp_path, cache, names, out_name, jobs_parallel=1):
    """Run the named SHARED_JOBS in one run; (outputs by file name, warnings
    and memo counters by job)."""
    out = tmp_path / out_name
    cfg = write_config(tmp_path, f"cache_dir: {cache}\noffline: true\nout_dir: {out}\n"
                       "jobs:" + "".join(SHARED_JOBS[name] for name in names))
    report = run(load_config(cfg), jobs_parallel=jobs_parallel)
    assert report.ok
    outputs = {path.name: path.read_bytes() for path in out.iterdir()
               if not path.name.startswith("report.")}
    jobs = {job.name: (job.warnings, job.nuclides_parsed, job.nuclides_reused)
            for job in report.jobs}
    return outputs, jobs


def test_each_dataset_is_parsed_once_per_run(monkeypatch, tmp_path, corpus_dir):
    parses = Counter()

    def counting(parse):
        def wrapper(*raws):
            parses.update(raw.key.serialize() for raw in raws if raw is not None)
            return parse(*raws)
        return wrapper

    for name in ("parse_decay_records", "parse_level_scheme"):
        monkeypatch.setattr(chains_mod, name, counting(getattr(chains_mod, name)))
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    nested = "recursive_progenitors: [237Np, 233U, 229Th, 225Ac]"
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
out_dir: {tmp_path / "out"}
jobs:
  - name: first
    {nested}
    radiation: gamma
  - name: second
    {nested}
    radiation: alpha
""")
    report = run(load_config(cfg))
    assert report.ok
    assert parses and set(parses.values()) == {1}
    first, second = report.jobs
    # 237Np's chain holds every nuclide of the inner chains.
    assert first.nuclides_parsed == len({key.split(":")[0] for key in parses}) == 14
    assert first.nuclides_reused > 0
    assert second.nuclides_parsed == 0
    assert second.nuclides_reused == first.nuclides_parsed + first.nuclides_reused
    # The second job read no dataset itself.
    assert second.cache_hits == second.registry_skips == 0


def test_shared_run_matches_each_job_alone(tmp_path, warning_cache):
    together, jobs = run_jobs(tmp_path, warning_cache, list(SHARED_JOBS), "together")
    assert any("nan" in w for w in jobs["np"][0])
    assert any("213bi:dr-a" in w for w in jobs["bi"][0])
    assert jobs["bi"][1] == 0  # every nuclide came from earlier jobs
    merged = {}
    for name in SHARED_JOBS:
        outputs, alone = run_jobs(tmp_path, warning_cache, [name], f"alone_{name}")
        assert alone[name][0] == jobs[name][0], name
        assert alone[name][1] + alone[name][2] == jobs[name][1] + jobs[name][2]
        merged.update(outputs)
    assert merged == together


@pytest.mark.parametrize("jobs_parallel", [2, 4])
def test_parallel_jobs_match_serial_jobs(tmp_path, warning_cache, jobs_parallel):
    serial = run_jobs(tmp_path, warning_cache, list(SHARED_JOBS), "serial")
    parallel = run_jobs(tmp_path, warning_cache, list(SHARED_JOBS), "parallel",
                        jobs_parallel)
    assert parallel[0] == serial[0]
    for name, (warnings, parsed, reused) in serial[1].items():
        assert parallel[1][name][0] == warnings
        assert sum(parallel[1][name][1:]) == parsed + reused



def counting_assemblies(monkeypatch):
    """Record each subset ``cli`` assembles: its key, and a snapshot of its
    members, warnings and rendered trees taken when it was built."""
    built = []

    def wrapper(recursive, statics, exclusions, *args, **kwargs):
        key = (tuple(recursive), tuple(statics), tuple(exclusions))
        try:
            subset = assemble(recursive, statics, exclusions, *args, **kwargs)
        except Exception as exc:
            built.append((key, exc, None))
            raise
        snapshot = (list(subset.members), list(subset.warnings),
                    [render_lineage(tree) for tree in subset.trees])
        built.append((key, subset, snapshot))
        return subset

    assemble = cli_mod.assemble_subset
    monkeypatch.setattr(cli_mod, "assemble_subset", wrapper)
    return built


def test_each_distinct_subset_is_assembled_once_per_run(monkeypatch, tmp_path,
                                                        warning_cache):
    built = counting_assemblies(monkeypatch)
    jobs = {  # progenitors; statics; exclusions
        "first": ("[233U, 225Ac]", "[213Bi]", "[]"),
        "repeat": ("[233U, 225Ac]", "[213Bi]", "[]"),
        "reordered": ("[225Ac, 233U]", "[213Bi]", "[]"),
        "no_static": ("[233U, 225Ac]", "[]", "[]"),
        "excluding": ("[233U, 225Ac]", "[213Bi]", "[209Tl]"),
        "repeat_again": ("[233U, 225Ac]", "[213Bi]", "[]"),
    }
    cfg = write_config(tmp_path, f"cache_dir: {warning_cache}\noffline: true\n"
                       f"out_dir: {tmp_path / 'out'}\njobs:" + "".join(
                           f"\n  - {{name: {name}, recursive_progenitors: {r}, "
                           f"static_nuclides: {s}, exclusions: {e}, radiation: alpha}}"
                           for name, (r, s, e) in jobs.items()))
    report = run(load_config(cfg))
    assert report.ok
    assert len(built) == len(set(jobs.values())) == 4
    assert len({key for key, _, _ in built}) == 4
    by_name = {job.name: job for job in report.jobs}
    first = by_name["first"]
    assert first.warnings and (first.cache_hits or first.nuclides_parsed)
    for name in ("repeat", "repeat_again"):
        job = by_name[name]
        assert job.warnings == first.warnings
        assert job.subset_size == first.subset_size
        assert job.nuclides_parsed == 0
        assert job.nuclides_reused == first.nuclides_parsed + first.nuclides_reused
        assert (job.network_calls, job.cache_hits, job.registry_skips,
                job.absences_recorded) == (0, 0, 0, 0)
    # Jobs that reused a subset left it as it was built.
    for _, subset, snapshot in built:
        assert snapshot == (subset.members, subset.warnings,
                            [render_lineage(tree) for tree in subset.trees])


def test_a_failed_subset_is_assembled_again_by_every_job_that_has_it(
        monkeypatch, tmp_path, corpus_dir):
    built = counting_assemblies(monkeypatch)
    cache = prime_cache(corpus_dir, tmp_path / "cache")
    # With the registry off, an offline run misses 40K's absent datasets.
    cfg = write_config(tmp_path, f"""
cache_dir: {cache}
offline: true
registry_enabled: false
out_dir: {tmp_path / "out"}
jobs:
  - name: k_gamma
    recursive_progenitors: [40K]
  - name: k_alpha
    recursive_progenitors: [40K]
    radiation: alpha
""")
    report = run(load_config(cfg))
    k_gamma, k_alpha = report.jobs
    assert not k_gamma.ok and k_gamma.error.startswith("DataUnavailable: ")
    assert k_alpha.error == k_gamma.error
    assert len(built) == 2 and all(isinstance(result, DataUnavailable)
                                   for _, result, _ in built)


QUALIFY_LIBRARY = ("nuclide,radiation,energy_kev,energy_unc_kev,intensity_pct,"
                   "intensity_unc_pct,half_life_s,parent_level_kev,flags\n"
                   "40k,g,1460.82,0.006,10.66,0.13,3.9e16,0,\n")


@pytest.mark.parametrize("peaks, library, flags", [
    ("1460.8\n", QUALIFY_LIBRARY, ["--tol-kev", "0"]),
    ("1460.8\n", QUALIFY_LIBRARY, ["--tol-kev", "nan"]),
    ("1460.8\n", QUALIFY_LIBRARY, ["--tol-kev", "inf"]),
    ("1460.8\n", QUALIFY_LIBRARY, ["--tol-kev", "1", "--top", "0"]),
    ("centroid_kev\n-1460.8\n", QUALIFY_LIBRARY, ["--tol-kev", "1"]),
    ("1460.8,lots\n", QUALIFY_LIBRARY, ["--tol-kev", "1"]),
    (None, QUALIFY_LIBRARY, ["--tol-kev", "1"]),
    ("1460.8\n", None, ["--tol-kev", "1"]),
    ("1460.8\n", "nuclide,energy_kev\n40k,1460.82\n", ["--tol-kev", "1"]),
    ("1460.8\n", QUALIFY_LIBRARY.replace("1460.82", "x"), ["--tol-kev", "1"]),
    (Path("a\0b.csv"), QUALIFY_LIBRARY, ["--tol-kev", "1"]),
    ("1460.8\n", QUALIFY_LIBRARY.replace("10.66", "-10.66"), ["--tol-kev", "1"]),
    ("1460.8\n", QUALIFY_LIBRARY.replace("0.13", "-0.13"), ["--tol-kev", "1"]),
])
def test_qualify_rejects_bad_input_with_an_error_line(tmp_path, capsys, peaks, library,
                                                      flags):
    """``peaks`` and ``library`` are each a file's text, None for no file, or
    a path to name as is."""
    paths = []
    for name, text in (("peaks.csv", peaks), ("library.csv", library)):
        paths.append(text if isinstance(text, Path) else tmp_path / name)
        if isinstance(text, str):
            paths[-1].write_text(text)
    assert main(["qualify", *map(str, paths), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidInput: ")
    assert captured.err.count("\n") == 1
