import json
import threading
from pathlib import Path

from nuclibgen.cli import main, run
from nuclibgen.config import load_config

from conftest import prime_cache


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
""")
    cold = run(load_config(cfg_path))
    assert cold.ok
    assert cold.jobs[0].network_calls > 0
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


def test_qualify_cli(tmp_path, corpus_dir, capsys):
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
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("centroid_kev\n1460.8\n186.0\n3000.0\n")
    code = main([
        "qualify", str(peaks), str(out / "library_norm_g.csv"),
        "--tol-kev", "1.0",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1460.8 keV: K-40 1460.82 keV (10.66%)")
    assert "Ra-226" in lines[1] and "U-235" in lines[1]
    assert lines[2] == "3000 keV: unassigned"


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
