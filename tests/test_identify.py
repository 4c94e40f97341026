import csv
import math

import pytest

from nuclibgen.chains import assemble_subset
from nuclibgen.errors import InvalidInput
from nuclibgen.identify import Peak, PeakList, qualify_peaks
from nuclibgen.library import (
    LibraryEntry,
    PruneBounds,
    RadionuclideLibrary,
    assemble_library,
    prune,
)
from nuclibgen.nuclide import EnergyValue, Nuclide, RadiationType, parse_nuclide_id


@pytest.fixture(scope="module")
def norm_gamma(primed_store):
    subset = assemble_subset(
        [parse_nuclide_id(p) for p in ("238u", "235u", "232th", "40k")],
        [], [], primed_store,
    )
    return prune(
        assemble_library(subset, RadiationType.GAMMA),
        PruneBounds(energy_kev=(0, 2000), intensity_percent=(0.001, 100)),
    )


def test_k40_line_qualifies(norm_gamma):
    matches = qualify_peaks(PeakList([Peak(1460.8)]), norm_gamma, 1.0)
    top = matches[0].candidates[0]
    assert str(top.nuclide) == "40k"
    assert top.energy.kev == pytest.approx(1460.82)
    assert top.intensity_percent == pytest.approx(10.66)


def test_186_kev_interference_region(norm_gamma):
    matches = qualify_peaks(PeakList([Peak(186.0)]), norm_gamma, 0.5)
    found = {(str(c.nuclide), c.energy.kev) for c in matches[0].candidates}
    assert ("226ra", 186.211) in found
    assert ("235u", 185.713) in found


def test_candidates_ranked_by_delta_then_intensity(norm_gamma):
    matches = qualify_peaks(PeakList([Peak(186.0)]), norm_gamma, 0.5)
    deltas = [abs(c.energy.kev - 186.0) for c in matches[0].candidates]
    assert deltas == sorted(deltas)


def test_each_entry_nuclide_is_formatted_once(norm_gamma, monkeypatch):
    """qualify_peaks formats each distinct nuclide at most once per call,
    however many entries, peaks and candidates there are."""
    calls = 0
    fmt = Nuclide.__str__

    def counted(nuclide):
        nonlocal calls
        calls += 1
        return fmt(nuclide)

    monkeypatch.setattr(Nuclide, "__str__", counted)
    peaks = PeakList([Peak(entry.energy.kev) for entry in norm_gamma.entries] * 2)
    distinct = {entry.nuclide for entry in norm_gamma.entries}
    for top in (None, 3):
        calls = 0
        matches = qualify_peaks(peaks, norm_gamma, 1.0, top)
        assert sum(len(match.candidates) for match in matches) > len(norm_gamma.entries)
        assert 0 < calls <= len(distinct) < len(norm_gamma.entries)


def gamma_line(nuclide: str, kev: float, intensity: float | None) -> LibraryEntry:
    return LibraryEntry(parse_nuclide_id(nuclide), RadiationType.GAMMA, EnergyValue(kev),
                        intensity, 0.0, None, EnergyValue(0.0))


def ranked_ids(lib: RadionuclideLibrary, centroid: float, tol: float,
               top: int | None) -> list[int]:
    [match] = qualify_peaks(PeakList([Peak(centroid)]), lib, tol, top)
    return [id(entry) for entry in match.candidates]


# Four lines at 99 keV in ascending intensity, so that the energy table holds
# them in the reverse of library order, and the two nearest the centroid at
# 100 keV are the weakest. Beside them, single lines at 100.2 keV and, as far
# as the 99 keV lines, at 101 keV with an intensity among theirs.
TIED_LEFT = [gamma_line("226ra", 99.0, intensity) for intensity in (10.0, 20.0, 30.0, 40.0)]
NEAR, FAR = gamma_line("40k", 100.2, 1.0), gamma_line("40k", 101.0, 25.0)


@pytest.mark.parametrize("top, want", [
    (1, [NEAR]),
    (2, [NEAR, TIED_LEFT[3]]),
    (3, [NEAR, TIED_LEFT[3], TIED_LEFT[2]]),
    (4, [NEAR, TIED_LEFT[3], TIED_LEFT[2], FAR]),
])
def test_top_reaches_tied_lines_past_the_span(top, want):
    """With top=2 the span left of 100 keV holds the 10 % and 20 % lines at
    99 keV; the 40 % line at the same |deltaE| lies past it and outranks them."""
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA,
                              entries=[*TIED_LEFT, NEAR, FAR])
    assert ranked_ids(lib, 100.0, 1.0, top) == [id(entry) for entry in want]
    assert ranked_ids(lib, 100.0, 1.0, top) == ranked_ids(lib, 100.0, 1.0, None)[:top]


def test_top_reaches_a_stronger_line_whose_delta_rounds_equal():
    """Two lines one ulp apart above a centroid of 2**-53 keV get equal
    abs(kev - centroid); the farther, stronger one ranks first."""
    weak, strong = gamma_line("40k", 1 + 2**-51, 1.0), gamma_line("40k", 1 + 3 * 2**-52, 50.0)
    assert abs(weak.energy.kev - 2**-53) == abs(strong.energy.kev - 2**-53)
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[weak, strong])
    assert ranked_ids(lib, 2**-53, 2.0, 1) == [id(strong)]
    assert ranked_ids(lib, 2**-53, 2.0, None) == [id(strong), id(weak)]


def test_top_ranks_equal_deltas_on_both_sides_by_intensity():
    below, above = gamma_line("226ra", 99.5, 3.0), gamma_line("235u", 100.5, 5.0)
    weakest = gamma_line("40k", 99.5, None)
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[weakest, below, above])
    for top, want in [(1, [above]), (2, [above, below]), (3, [above, below, weakest])]:
        assert ranked_ids(lib, 100.0, 0.5, top) == [id(entry) for entry in want]


def test_top_above_the_window_keeps_every_candidate():
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA,
                              entries=[*TIED_LEFT, NEAR, FAR])
    everything = ranked_ids(lib, 100.0, 1.0, None)
    assert len(everything) == 6
    assert ranked_ids(lib, 100.0, 1.0, 7) == ranked_ids(lib, 100.0, 1.0, 100) == everything


@pytest.mark.parametrize("entries", [[], [*TIED_LEFT, NEAR, FAR]])
@pytest.mark.parametrize("top", [None, 1, 5])
def test_empty_window_is_unassigned_for_any_top(entries, top):
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=entries)
    matches = qualify_peaks(PeakList([Peak(50.0), Peak(150.0)]), lib, 1.0, top)
    assert all(match.unassigned for match in matches)


@pytest.mark.parametrize("top", [0, -1])
def test_top_below_one_is_an_input_error(top):
    lib = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[NEAR])
    with pytest.raises(InvalidInput, match=f"top {top}"):
        qualify_peaks(PeakList([Peak(100.0)]), lib, 1.0, top)


def test_empty_library_leaves_all_unassigned():
    empty = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[])
    matches = qualify_peaks(PeakList([Peak(100.0), Peak(200.0)]), empty, 5.0)
    assert all(m.unassigned for m in matches)


def test_candidate_sets_grow_with_tolerance(norm_gamma):
    peaks = PeakList([Peak(186.0)])
    small = qualify_peaks(peaks, norm_gamma, 0.3)[0].candidates
    large = qualify_peaks(peaks, norm_gamma, 2.0)[0].candidates
    assert len(small) <= len(large)
    assert {id(c) for c in small} <= {id(c) for c in large}


def test_output_independent_of_peak_order(norm_gamma):
    forward = qualify_peaks(PeakList([Peak(186.0), Peak(1460.8)]), norm_gamma, 1.0)
    backward = qualify_peaks(PeakList([Peak(1460.8), Peak(186.0)]), norm_gamma, 1.0)
    assert forward[0].candidates == backward[1].candidates
    assert forward[1].candidates == backward[0].candidates


def test_tolerance_must_be_positive(norm_gamma):
    with pytest.raises(ValueError):
        qualify_peaks(PeakList([Peak(100.0)]), norm_gamma, 0.0)


def test_peak_csv_loading(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("centroid_kev,net_area\n1460.8,1500\n186.0,\n90.5\n")
    peaks = PeakList.load_csv(path)
    assert [p.centroid_kev for p in peaks.peaks] == [1460.8, 186.0, 90.5]
    assert peaks.peaks[0].net_area == 1500
    assert peaks.peaks[1].net_area is None


def test_peak_list_with_a_byte_order_mark_keeps_its_first_peak(tmp_path):
    path = tmp_path / "peaks.csv"
    path.write_text("\ufeff100.5\n200.25\n", encoding="utf-8")
    assert [p.centroid_kev for p in PeakList.load_csv(path).peaks] == [100.5, 200.25]


def test_peak_rejects_negative_centroid():
    with pytest.raises(ValueError):
        Peak(-1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_positive(tol):
    empty = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[])
    with pytest.raises(InvalidInput, match="tolerance"):
        qualify_peaks(PeakList([Peak(100.0)]), empty, tol)


@pytest.mark.parametrize("centroid", [math.inf, math.nan, -0.5])
def test_peak_rejects_non_finite_or_negative_centroid(centroid):
    with pytest.raises(InvalidInput):
        Peak(centroid)


@pytest.mark.parametrize("text, line", [
    ("centroid_kev,net_area\n100,5\n-3,1\n", 3),
    ("100,abc\n", 1),
    ("centroid_kev\n# comment\n50\n10,nan\n", 4),
    ("inf\n", 1),
    ("100\n1OO.5\n200\n", 2),
    pytest.param("100\n" + "9" * (csv.field_size_limit() + 1) + "\n", 2,
                 id="csv-error-cell-over-the-field-limit"),
])
def test_bad_peak_row_names_its_line(tmp_path, text, line):
    path = tmp_path / "peaks.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput, match=f"line {line}:"):
        PeakList.load_csv(path)


def test_missing_peak_list_is_an_input_error(tmp_path):
    with pytest.raises(InvalidInput, match="cannot read peak list"):
        PeakList.load_csv(tmp_path / "absent.csv")
