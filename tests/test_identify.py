import csv
import math

import pytest

from nuclibgen.chains import assemble_subset
from nuclibgen.errors import InvalidInput
from nuclibgen.identify import Peak, PeakList, qualify_peaks
from nuclibgen.library import PruneBounds, RadionuclideLibrary, assemble_library, prune
from nuclibgen.nuclide import Nuclide, RadiationType, parse_nuclide_id


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
    """qualify_peaks formats each entry's nuclide at most once per call,
    however many peaks there are and however many candidates each has."""
    calls = 0
    fmt = Nuclide.__str__

    def counted(nuclide):
        nonlocal calls
        calls += 1
        return fmt(nuclide)

    monkeypatch.setattr(Nuclide, "__str__", counted)
    peaks = PeakList([Peak(entry.energy.kev) for entry in norm_gamma.entries] * 2)
    matches = qualify_peaks(peaks, norm_gamma, 1.0)
    assert sum(len(match.candidates) for match in matches) > len(norm_gamma.entries)
    assert 0 < calls <= len(norm_gamma.entries)


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
