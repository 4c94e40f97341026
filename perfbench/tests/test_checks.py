"""Self-tests of the benchmark's output checks and trace wrappers.

    python3 -m pytest perfbench/tests -q

A wrong output must count as a failed operation, and the tracer must leave
the package as it found it.
"""

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer, max_overlap, union_length  # noqa: E402
from workloads import CORPUS, GOLDENS, SRC, WORKLOADS, run_cli  # noqa: E402

sys.path.insert(0, str(SRC))

NORM_CSV = GOLDENS / "library_norm_g.csv"


def _copy_goldens(tmp_path, names):
    for name in names:
        shutil.copyfile(GOLDENS / name, tmp_path / name)


def test_golden_csv_with_one_changed_digit_fails(tmp_path):
    names = WORKLOADS["warm_norm_suite"].golden_files()
    _copy_goldens(tmp_path, names)
    tally = checks.Tally()
    assert tally.record(checks.check_goldens(tmp_path, GOLDENS, names))

    text = (tmp_path / "library_norm_g.csv").read_text()
    line = text.splitlines()[500]
    digit = next(i for i, ch in enumerate(line) if ch.isdigit() and ch != "9")
    changed = line[:digit] + str(int(line[digit]) + 1) + line[digit + 1:]
    (tmp_path / "library_norm_g.csv").write_text(text.replace(line, changed, 1))
    assert not tally.record(checks.check_goldens(tmp_path, GOLDENS, names))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_export_row_counts_and_parsing(tmp_path):
    csv_text = NORM_CSV.read_text()
    rows = csv_text.count("\n") - 1
    (tmp_path / "library_norm_g.csv").write_text(csv_text)
    (tmp_path / "library_norm_g.json").write_text(
        '{"entries": [' + ", ".join(["{}"] * rows) + "]}")
    names = ["library_norm_g.csv", "library_norm_g.json"]
    assert checks.check_export_formats(tmp_path, names) == []
    (tmp_path / "library_norm_g.json").write_text('{"entries": [{}]}')
    assert checks.check_export_formats(tmp_path, names)
    (tmp_path / "library_norm_g.xml").write_text("<library><entry/>")
    assert any("does not parse" in p for p in checks.check_export_formats(
        tmp_path, ["library_norm_g.csv", "library_norm_g.xml"]))


def test_qualify_oracle_matches_the_program(tmp_path):
    peaks = [1460.8, 186.0, 3000.0, 238.632, 583.19, 911.2, 46.5, 1.0, 10.504]
    path = tmp_path / "peaks.csv"
    path.write_text("centroid_kev\n" + "".join(f"{p}\n" for p in peaks))
    code, output = run_cli(["qualify", str(path), str(NORM_CSV), "--tol-kev", "1.0"])
    assert code == 0
    expected = checks.qualify_oracle(NORM_CSV.read_text(), peaks, 1.0)
    assert checks.check_qualify(output, expected) == []
    assert "unassigned" in expected and "Pa-234m" in expected


def test_reordered_qualify_candidates_fail():
    expected = checks.qualify_oracle(NORM_CSV.read_text(), [186.0, 1460.8], 1.0)
    first, rest = expected.split("\n", 1)
    head, candidates = first.split(": ", 1)
    parts = candidates.split(", ")
    assert len(parts) > 1
    parts[0], parts[1] = parts[1], parts[0]
    reordered = f"{head}: {', '.join(parts)}\n{rest}"
    tally = checks.Tally()
    tally.record(checks.check_qualify(reordered, expected))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_display_names():
    assert checks.display_name("234pa@m") == "Pa-234m"
    assert checks.display_name("177lu@m4") == "Lu-177m4"
    assert checks.display_name("99tc@142.6836kev") == "Tc-99@142.684keV"
    assert checks.display_name("40k") == "K-40"


def test_poisoned_registry_key_fails(tmp_path):
    for name in ("99mo_dr-g.csv", "99mo_lv.csv"):
        shutil.copyfile(CORPUS / name, tmp_path / name)
    (tmp_path / "absent_registry.txt").write_text("99mo:dr-a\n")
    tally = checks.Tally()
    assert tally.record(checks.check_cold_cache(tmp_path, CORPUS))

    (tmp_path / "absent_registry.txt").write_text("99mo:dr-a\n99mo:dr-g\n")
    assert not tally.record(checks.check_cold_cache(tmp_path, CORPUS))
    (tmp_path / "absent_registry.txt").write_text("99mo:dr-a\n")
    (tmp_path / "99mo_lv.csv").write_text("truncated")
    assert not tally.record(checks.check_cold_cache(tmp_path, CORPUS))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_tracer_counts_and_restores_the_package():
    import nuclibgen.chains
    import nuclibgen.levels
    import nuclibgen.nuclide
    from nuclibgen.nuclide import EnergyValue
    from nuclibgen.records import LevelScheme

    modules = (nuclibgen.chains, nuclibgen.levels, nuclibgen.nuclide)
    before = [m.energies_match for m in modules] + [LevelScheme.find_level]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.energies_match is not before[0] for m in modules)
        tracer.reset()
        for _ in range(3):
            nuclibgen.levels.energies_match(EnergyValue(1.0), EnergyValue(1.5))
        nuclibgen.chains.energies_match(EnergyValue(1.0), EnergyValue(9.0))
        assert tracer.ticks("nuclide.energies_match") == 4
        assert tracer.ticks("nuclide.energies_match") == 4
    finally:
        tracer.uninstall()
    assert [m.energies_match for m in modules] + [LevelScheme.find_level] == before


def test_interval_union_and_overlap():
    intervals = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]
    assert union_length(intervals) == 3.0
    assert max_overlap(intervals) == 2
    assert max_overlap([(0.0, 1.0), (1.0, 2.0)]) == 1
    assert union_length([]) == 0.0


def test_normalise_scales_only_the_cpu_part():
    from calibration import REFERENCE_S, normalise

    assert normalise(2.0, 1.0, 2 * REFERENCE_S) == 1.5  # 1 s waiting + 1 s CPU at half speed
    assert normalise(1.0, 1.5, REFERENCE_S) == 1.0  # CPU of parallel threads is capped


def test_tracer_skips_what_the_package_no_longer_has():
    import nuclibgen.library

    tracer = Tracer()
    tracer.patch_function("nuclibgen.library", "no_such_function", tracer.timed("x"))
    tracer.patch_method("nuclibgen.library", "PruneBounds.no_such_method", tracer.timed("x"))

    def broken(args, kwargs, result):
        raise AttributeError("changed signature")

    original = nuclibgen.library.prune
    tracer.patch_function("nuclibgen.library", "prune", tracer.timed("library.prune", broken))
    try:
        lib = nuclibgen.library.RadionuclideLibrary(
            radiation=nuclibgen.library.RadiationType.GAMMA, entries=[])
        assert nuclibgen.library.prune(lib, nuclibgen.library.PruneBounds()).entries == []
    finally:
        tracer.uninstall()
    assert nuclibgen.library.prune is original
    assert tracer.missing == {"nuclibgen.library.no_such_function",
                              "nuclibgen.library.PruneBounds.no_such_method"}
    assert len(tracer.callback_errors) == 1
