import csv
import xml.etree.ElementTree as ET

import pytest

from nuclibgen.chains import assemble_subset
from nuclibgen.library import (
    LibraryEntry,
    PruneBounds,
    RadionuclideLibrary,
    assemble_library,
    prune,
)
from nuclibgen.nuclide import EnergyValue, HalfLife, Nuclide, RadiationType, parse_nuclide_id
from nuclibgen.plot import MarkerRegistry, PlotWindow, plot_library

SVG_NS = "{http://www.w3.org/2000/svg}"


def svg_series(path):
    """data-nuclide -> list of marker elements."""
    root = ET.parse(path).getroot()
    out = {}
    for group in root.iter(f"{SVG_NS}g"):
        if group.attrib.get("class") == "series":
            out[group.attrib["data-nuclide"]] = group
    return out


def one_entry_library(kev=500.0, intensity=50.0):
    return RadionuclideLibrary(
        radiation=RadiationType.GAMMA,
        entries=[LibraryEntry(
            nuclide=Nuclide("Cs", 137),
            radiation=RadiationType.GAMMA,
            energy=EnergyValue(kev),
            intensity_percent=intensity,
            intensity_unc=0.1,
            half_life=HalfLife(1.0e9),
            parent_level=EnergyValue(0.0),
        )],
    )


def test_single_entry_single_marker_and_label(tmp_path):
    windows = [PlotWindow(energy_kev=(0, 1000), intensity_percent=(1e-3, 100),
                          annotate=True, annotation_min_intensity=0.0)]
    path = plot_library(one_entry_library(), None, windows, tmp_path / "p.svg")
    series = svg_series(path)
    assert list(series) == ["137cs"]
    markers = [el for el in series["137cs"]]
    assert len(markers) == 1
    root = ET.parse(path).getroot()
    annotations = [
        g for g in root.iter(f"{SVG_NS}g") if g.attrib.get("class") == "annotations"
    ][0]
    labels = list(annotations)
    assert len(labels) == 1 and labels[0].text == "500"


def test_annotation_threshold_ten_percent(primed_store, tmp_path):
    subset = assemble_subset([parse_nuclide_id("232th")], [], [], primed_store)
    lib = prune(assemble_library(subset, RadiationType.GAMMA),
                PruneBounds(energy_kev=(0, 2000), intensity_percent=(0.001, 100)))
    path = plot_library(lib, None, None, tmp_path / "th.svg")
    root = ET.parse(path).getroot()
    annotations = [
        g for g in root.iter(f"{SVG_NS}g") if g.attrib.get("class") == "annotations"
    ][0]
    labeled = {float(t.text) for t in annotations}
    strong = {round(e.energy.kev, 6) for e in lib.entries
              if e.intensity_percent is not None and e.intensity_percent >= 10.0}
    weak = {round(e.energy.kev, 6) for e in lib.entries
            if e.intensity_percent is not None and e.intensity_percent < 10.0}
    assert labeled and all(any(abs(l - s) < 1e-6 for s in strong) for l in labeled)
    assert len(labeled) == len(strong)
    assert not labeled & (weak - strong)


def test_marker_identical_across_alpha_and_gamma_plots(primed_store, tmp_path):
    subset = assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)
    bounds = PruneBounds(intensity_percent=(0.001, 100))
    alpha = prune(assemble_library(subset, RadiationType.ALPHA), bounds)
    gamma = prune(assemble_library(subset, RadiationType.GAMMA), bounds)
    registry = MarkerRegistry()
    a_path = plot_library(alpha, registry, None, tmp_path / "a.svg")
    g_path = plot_library(gamma, registry, None, tmp_path / "g.svg")
    a_series, g_series = svg_series(a_path), svg_series(g_path)
    shared = set(a_series) & set(g_series)
    assert shared  # the alpha emitters also emit gammas
    for nid in shared:
        assert a_series[nid].attrib["data-shape"] == g_series[nid].attrib["data-shape"]
        a_fill = {el.attrib.get("fill") or el.attrib.get("stroke")
                  for el in a_series[nid]}
        g_fill = {el.attrib.get("fill") or el.attrib.get("stroke")
                  for el in g_series[nid]}
        assert a_fill == g_fill


@pytest.mark.parametrize("bom", ["", "\ufeff"])
def test_registry_file_overrides_style(tmp_path, bom):
    reg_path = tmp_path / "markers.csv"
    reg_path.write_text(
        bom + "nuclide,shape,color,label\n137cs,star,#112233,Caesium-137\n",
        encoding="utf-8",
    )
    registry = MarkerRegistry.load_csv(reg_path)
    style = registry.style_for(Nuclide("Cs", 137))
    assert (style.shape, style.color, style.label) == ("star", "#112233", "Caesium-137")
    path = plot_library(one_entry_library(), registry, None, tmp_path / "p.svg")
    series = svg_series(path)
    assert series["137cs"].attrib["data-shape"] == "star"


def test_registry_text_is_escaped_in_the_svg(tmp_path):
    shape, color, label = 'star "<&>"', '#123456" & <x>', 'K-40 & "friends" <K<40>>'
    reg_path = tmp_path / "markers.csv"
    with reg_path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("nuclide", "shape", "color", "label"),
                                  ("137cs", shape, color, label)])
    registry = MarkerRegistry.load_csv(reg_path)
    path = plot_library(one_entry_library(), registry, None, tmp_path / "p.svg")
    root = ET.parse(path).getroot()
    series = svg_series(path)["137cs"]
    assert series.attrib["data-shape"] == shape
    assert [marker.attrib["fill"] for marker in series] == [color]
    legend = next(g for g in root.iter(f"{SVG_NS}g") if g.attrib.get("class") == "legend")
    assert [text.text for text in legend.iter(f"{SVG_NS}text")] == [label]
    assert [marker.attrib["fill"] for marker in legend.iter(f"{SVG_NS}polygon")] == [color]


def test_fallback_style_is_stable_function_of_identity():
    a = MarkerRegistry().style_for(Nuclide("Ra", 226))
    b = MarkerRegistry().style_for(Nuclide("Ra", 226))
    assert a == b


def test_plot_output_is_deterministic(primed_store, tmp_path):
    subset = assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)
    lib = assemble_library(subset, RadiationType.ALPHA)
    one = plot_library(lib, None, None, tmp_path / "one.svg").read_bytes()
    two = plot_library(lib, None, None, tmp_path / "two.svg").read_bytes()
    assert one == two


def test_entries_without_intensity_are_skipped(tmp_path):
    lib = one_entry_library()
    lib.entries.append(LibraryEntry(
        nuclide=Nuclide("Bi", 209),
        radiation=RadiationType.GAMMA,
        energy=EnergyValue(100.0),
        intensity_percent=None,
        intensity_unc=0.0,
        half_life=None,
        parent_level=EnergyValue(0.0),
    ))
    path = plot_library(lib, None, None, tmp_path / "p.svg")
    assert "209bi" not in svg_series(path)


def _texts(path, group_class=None):
    root = ET.parse(path).getroot()
    groups = [root] if group_class is None else [
        g for g in root.iter(f"{SVG_NS}g") if g.attrib.get("class") == group_class]
    return [text.text for group in groups for text in group.iter(f"{SVG_NS}text")]


@pytest.mark.parametrize("intensity, decades", [(10.0, ["1e1", "1e2"]),
                                                (100.0, ["1e2", "1e3"])])
def test_intensities_at_one_power_of_ten_get_a_one_decade_axis(tmp_path, intensity, decades):
    path = plot_library(one_entry_library(intensity=intensity), None, None, tmp_path / "p.svg")
    assert [text for text in _texts(path) if text.startswith("1e")] == decades


def test_a_window_without_annotation_labels_nothing(tmp_path):
    quiet = PlotWindow(energy_kev=(0, 1000), intensity_percent=(1e-3, 100), annotate=False,
                       annotation_min_intensity=0.0)
    loud = PlotWindow(energy_kev=(400, 600), intensity_percent=(1, 100))
    lib = one_entry_library()
    path = plot_library(lib, None, [quiet], tmp_path / "quiet.svg")
    assert _texts(path, "annotations") == []
    path = plot_library(lib, None, [quiet, loud], tmp_path / "both.svg")
    assert _texts(path, "annotations") == ["500"]


def test_a_library_with_nothing_to_place_gets_the_default_axes(tmp_path):
    empty = RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[])
    path = plot_library(empty, None, None, tmp_path / "p.svg")
    decades = [text for text in _texts(path) if text.startswith("1e")]
    assert decades == ["1e-3", "1e-2", "1e-1", "1e0", "1e1", "1e2"]
    assert svg_series(path) == {}
