"""Stored parses: a warm run loads the parse of each dataset that an earlier
run read from the same cache, and whatever state ``cache_dir/parsed/`` is in
(absent, fresh, stale, truncated, random bytes, written by other code, a file
naming a global outside the parse types, one that loads to something other
than a parse or to a parse of the wrong type, unwritable), the golden outputs are
byte-identical and every job reports the warnings of a run without stored
parses. A cold run stores nothing and never imports pickle. Over the whole
corpus, every stored entry loads equal to a fresh parse."""

import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nuclibgen.chains as chains_mod
import nuclibgen.parsecache as parsecache
from nuclibgen.cli import main
from nuclibgen.dataaccess import PARSED_DIRNAME, AccessConfig, DataStore
from nuclibgen.nuclide import EnergyValue, Nuclide, parse_nuclide_id
from nuclibgen.records import DaughterFeed

from conftest import CORPUS, REPO, prime_cache
from test_goldens import checks, workloads

WARM = [workloads.WORKLOADS[name] for name in ("warm_norm_suite", "warm_shared_chains")]
JOBS = [job for workload in WARM for job in workload.jobs]
GOLDEN_FILES = [name for workload in WARM for name in workload.golden_files()]


def _generate(tmp_path, cache_dir, jobs_parallel=1, jobs=JOBS, base_url=None):
    """Run ``generate``; its output directory and report.json's jobs."""
    out_dir = tmp_path / "out"
    config = tmp_path / "run.yaml"
    config.write_text(workloads.config_yaml(jobs, cache_dir=cache_dir, out_dir=out_dir,
                                            base_url=base_url), encoding="utf-8")
    code = main(["generate", str(config), "--jobs", str(jobs_parallel)])
    assert code == 0, (out_dir / "report.txt").read_text(encoding="utf-8")
    return out_dir, json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["jobs"]


def _warnings(jobs):
    return {job["name"]: job["warnings"] for job in jobs}


def _stored(cache_dir):
    return {path.name: path.read_bytes() for path in (cache_dir / PARSED_DIRNAME).iterdir()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Each job's warnings from a run that found no stored parse, and the
    parses that run stored (file name -> bytes)."""
    tmp = tmp_path_factory.mktemp("reference")
    workloads.prime_cache(tmp / "cache")
    out_dir, jobs = _generate(tmp, tmp / "cache")
    assert [job["parses_loaded"] for job in jobs] == [0] * len(jobs)
    for name in GOLDEN_FILES:
        assert (out_dir / name).read_bytes() == (workloads.GOLDENS / name).read_bytes(), name
    return _warnings(jobs), _stored(tmp / "cache")


@pytest.fixture(scope="module")
def stale(tmp_path_factory):
    """Parses stored from bodies that each end in one more, bad, row: every
    one of them holds a warning that the fixture bodies do not give."""
    tmp = tmp_path_factory.mktemp("stale")
    cache = tmp / "cache"
    workloads.prime_cache(cache)
    for path in cache.glob("*.csv"):
        with path.open("a", encoding="utf-8", newline="") as fh:
            fh.write("x\n")
    _generate(tmp, cache)
    return _stored(cache)


OTHER_SOURCE = "0" * 64  # the source digest of some other version of the package


def _bump(data: bytes) -> bytes:
    """The stored parse ``data`` as other code would have stored it."""
    return data.replace(f"nuclibgen-parse {parsecache.SOURCE_DIGEST} ".encode(),
                        f"nuclibgen-parse {OTHER_SOURCE} ".encode(), 1)


def _foreign(header: bytes, marker) -> bytes:
    class Foreign:
        def __reduce__(self):
            return os.system, (f"touch {marker}",)

    return header + pickle.dumps(((Foreign(), []), None))


def _spoil(state, parsed, stored, stale, marker):
    """Put ``parsed`` in ``state``, given the fresh parses ``stored``."""
    if state == "absent":
        return
    if state == "unwritable":
        parsed.write_bytes(b"")  # a file where the directory belongs
        return
    parsed.mkdir()
    for name, data in stored.items():
        header, _, body = data.partition(b"\n")
        if state == "blocked":  # a directory where each file belongs
            (parsed / name).mkdir()
            continue
        if state == "stale":
            data = stale[name]
        elif state == "truncated":
            data = data[: len(data) // 2]
        elif state == "random":
            data = random.Random(name).randbytes(len(data))
        elif state == "foreign":
            data = _foreign(header + b"\n", marker)
        elif state == "misshapen":  # the right header, not a (result, warnings) pair
            data = header + b"\n" + pickle.dumps(frozenset())
        elif state == "mistyped":  # lists, not what this key's parser returns
            data = header + b"\n" + pickle.dumps(([], []) if name.endswith("_lv.pickle")
                                                  else ([1], [], []))
        assert (data == stored[name]) == (state in ("fresh", "version"))
        (parsed / name).write_bytes(data)


STATES = ["absent", "fresh", "stale", "truncated", "random", "version", "foreign",
          "misshapen", "mistyped", "unwritable", "blocked"]


@pytest.mark.parametrize("state", STATES)
def test_goldens_and_warnings_whatever_the_stored_parses(state, tmp_path, monkeypatch,
                                                         reference, stale):
    warnings, stored = reference
    cache = tmp_path / "cache"
    workloads.prime_cache(cache)
    parsed = cache / PARSED_DIRNAME
    marker = tmp_path / "os-system-ran"
    _spoil(state, parsed, stored, stale, marker)
    if state == "version":  # the package's code changed since the files were stored
        stored = {name: _bump(data) for name, data in stored.items()}
        monkeypatch.setattr(parsecache, "SOURCE_DIGEST", OTHER_SOURCE)
    if state == "fresh":
        def never(*raws):
            raise AssertionError("a stored parse was parsed again")

        monkeypatch.setattr(chains_mod, "parse_decay_records", never)
        monkeypatch.setattr(chains_mod, "parse_level_scheme", never)

    out_dir, jobs = _generate(tmp_path, cache)
    for name in GOLDEN_FILES:
        assert (out_dir / name).read_bytes() == (workloads.GOLDENS / name).read_bytes(), name
    assert _warnings(jobs) == warnings
    assert not marker.exists()
    loaded = sum(job["parses_loaded"] for job in jobs)
    # Each dataset is parsed, or loaded, once per run.
    assert loaded == (len(stored) if state == "fresh" else 0)
    if state == "unwritable":
        assert parsed.is_file()
    elif state == "blocked":
        assert all((parsed / name).is_dir() for name in stored)
    else:  # every miss stored its parse afresh, and left no temp file behind
        assert _stored(cache) == stored


def test_any_edit_to_the_package_source_changes_the_stored_parse_header(tmp_path):
    """Stored parses are tied to the code that wrote them, not to a version
    number that someone must remember to raise."""
    package = Path(parsecache.__file__).parent
    assert parsecache.source_digest(package) == parsecache.SOURCE_DIGEST
    copy = tmp_path / "nuclibgen"
    copy.mkdir()
    for path in package.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    assert parsecache.source_digest(copy) == parsecache.SOURCE_DIGEST
    for name in ("records.py", "nuclide.py"):
        edited = copy / name
        original = edited.read_bytes()
        edited.write_bytes(original + b"\n")
        assert parsecache.source_digest(copy) != parsecache.SOURCE_DIGEST
        edited.write_bytes(original)


def test_parallel_jobs_load_stored_parses(tmp_path, reference):
    warnings, stored = reference
    cache = tmp_path / "cache"
    workloads.prime_cache(cache)
    _spoil("fresh", cache / PARSED_DIRNAME, stored, None, None)
    out_dir, jobs = _generate(tmp_path, cache, jobs_parallel=4)
    for name in GOLDEN_FILES:
        assert (out_dir / name).read_bytes() == (workloads.GOLDENS / name).read_bytes(), name
    assert _warnings(jobs) == warnings
    assert sum(job["parses_loaded"] for job in jobs) > 0


def test_second_warm_run_loads_and_parses_nothing(tmp_path, monkeypatch):
    """Run twice over one primed cache: the second run reports loads in
    report.json and report.txt and calls neither parser."""
    jobs = [job for job in WARM[0].jobs if job["name"] in ("mo99", "ac225")]
    cache = tmp_path / "cache"
    workloads.prime_cache(cache)
    _, first = _generate(tmp_path, cache, jobs=jobs)
    assert [job["parses_loaded"] for job in first] == [0, 0]
    for name in ("parse_decay_records", "parse_level_scheme"):
        monkeypatch.setattr(chains_mod, name, None)  # calling one would raise
    out_dir, second = _generate(tmp_path, cache, jobs=jobs)
    assert all(job["parses_loaded"] > 0 for job in second)
    assert [job["nuclides_parsed"] for job in second] == [job["nuclides_parsed"]
                                                          for job in first]
    assert f"parses_loaded {second[0]['parses_loaded']}" in (
        out_dir / "report.txt").read_text(encoding="utf-8")


def test_cold_run_stores_no_parse_and_never_imports_pickle(tmp_path, mock_server):
    """A run that fetches every dataset leaves only corpus files and the
    registry in its cache, as the benchmark's cold check demands, and never
    loads pickle."""
    cache, out_dir = tmp_path / "cache", tmp_path / "out"
    config = tmp_path / "run.yaml"
    jobs = [job for job in WARM[0].jobs if job["name"] in ("mo99", "ac225")]
    config.write_text(workloads.config_yaml(jobs, cache_dir=cache, out_dir=out_dir,
                                            base_url=mock_server.url), encoding="utf-8")
    script = ("import sys\n"
              "import nuclibgen.cli\n"
              "assert nuclibgen.cli.main(['generate', sys.argv[1]]) == 0\n"
              "print('pickle' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", script, str(config)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"
    assert checks.check_cold_cache(cache, workloads.CORPUS) == []
    assert not (cache / PARSED_DIRNAME).exists()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert [job["parses_loaded"] for job in report["jobs"]] == [0, 0]


def _entries(source, nuclide):
    """(records, daughters, warnings) and the level scheme and its warnings
    of one nuclide, as a visit reads them from ``source``; a source without
    ``stored_parse`` parses afresh."""
    levels = chains_mod._visit_scheme(nuclide, source, {})
    return chains_mod._fetch_records(source, nuclide), (levels.scheme, levels.warnings)


def _queries(scheme):
    """Energies to ask find_level: each level's, each shifted by 0.4 and by
    0.9 keV, and one above the top level."""
    queries = [EnergyValue(max(node.kev for node in scheme.nodes) + 100.0)]
    for node in scheme.nodes:
        queries += [node, EnergyValue(node.kev + 0.4, node.uncertainty_kev),
                    EnergyValue(node.kev + 0.9)]
    return queries


def test_every_stored_entry_of_the_corpus_loads_equal_to_a_fresh_parse(tmp_path):
    """For every fixture nuclide, the decay entry and the level scheme that a
    second run loads from parsed/ equal a fresh parse, field by field:
    LevelScheme equality compares the nuclide and levels, not the graph. A
    scheme is stored as its levels, isomers and graph alone."""
    cache = prime_cache(CORPUS, tmp_path / "cache")
    nuclides = sorted({parse_nuclide_id(path.name.split("_")[0])
                       for path in CORPUS.glob("*.csv")}, key=str)
    config = AccessConfig(cache_dir=cache, offline=True)
    with DataStore(config) as store:  # the first run stores every entry
        for nuclide in nuclides:
            _entries(store, nuclide)
    names = {path.name for path in (cache / PARSED_DIRNAME).iterdir()}
    with DataStore(config) as store:
        for nuclide in nuclides:
            (records, daughters, warnings), (scheme, scheme_warnings) = _entries(
                store, nuclide)
            (fresh_records, fresh_daughters, fresh_warnings), (fresh, fresh_warnings_lv) = (
                _entries(SimpleNamespace(fetch_dataset=store.fetch_dataset), nuclide))
            assert records == fresh_records, nuclide
            assert daughters == fresh_daughters, nuclide
            assert warnings == fresh_warnings, nuclide
            assert scheme_warnings == fresh_warnings_lv, nuclide
            assert (scheme is None) == (fresh is None), nuclide
            stem = f"{nuclide.mass_number}{nuclide.element.lower()}"
            assert (f"{stem}_dr.pickle" in names) == bool(records), nuclide
            assert (f"{stem}_lv.pickle" in names) == (scheme is not None), nuclide
            if scheme is None:
                continue
            assert scheme.nuclide == fresh.nuclide
            assert scheme.levels == fresh.levels, nuclide
            assert scheme.nodes == fresh.nodes, nuclide
            assert scheme.edges == fresh.edges, nuclide
            assert scheme.isomers == fresh.isomers, nuclide
            for query in _queries(fresh):
                assert scheme.find_level(query) == fresh.find_level(query), (nuclide, query)
            assert set(scheme.__getstate__()) == {"nuclide", "levels", "isomers", "nodes",
                                                  "edges"}
        assert store.stats.parses_loaded == len(names)


TH234 = Nuclide("Th", 234)
FEED = DaughterFeed(TH234, (EnergyValue(0.0),), 100.0)


@pytest.mark.parametrize("result, fits", [
    (([], [], []), True),
    (([], [FEED], ["w"]), True),
    (([1], [], []), False),
    (([], [1], []), False),
    (([], [FEED], [1]), False),
    (([], (FEED,), []), False),
])
def test_a_decay_entry_is_checked_list_by_list(result, fits):
    assert parsecache._is_parse(result, levels=False) is fits
