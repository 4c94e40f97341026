import csv
import re
import xml.etree.ElementTree as ET

import pytest

import nuclibgen
from nuclibgen.chains import assemble_subset
from nuclibgen.errors import InvalidInput, UnsupportedFormat
from nuclibgen.export import export_table, import_library_csv, render_table
from nuclibgen.library import PruneBounds, RadionuclideLibrary, assemble_library, prune
from nuclibgen.nuclide import RadiationType, parse_nuclide_id


@pytest.fixture(scope="module")
def ac225_alpha(primed_store):
    subset = assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)
    lib = assemble_library(subset, RadiationType.ALPHA)
    return prune(lib, PruneBounds(energy_kev=(0, 10000),
                                  intensity_percent=(0.001, 100)))


@pytest.fixture(scope="module")
def norm_gamma(primed_store):
    subset = assemble_subset(
        [parse_nuclide_id(p) for p in ("238u", "235u", "232th", "40k")],
        [], [], primed_store,
    )
    lib = assemble_library(subset, RadiationType.GAMMA)
    return prune(lib, PruneBounds(energy_kev=(0, 2000),
                                  intensity_percent=(0.001, 100)))


def empty_library():
    return RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=[])


def test_empty_library_csv_is_header_only(tmp_path):
    path = export_table(empty_library(), "csv", tmp_path / "empty.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nuclide,radiation,energy_kev")


def test_csv_round_trip_is_identity(ac225_alpha, tmp_path):
    path = export_table(ac225_alpha, "csv", tmp_path / "lib.csv")
    back = import_library_csv(path)
    assert back.radiation is ac225_alpha.radiation
    assert back.entries == ac225_alpha.entries


def test_exports_are_byte_deterministic(ac225_alpha, tmp_path):
    for fmt in ("csv", "html", "xml", "tex", "json"):
        a = export_table(ac225_alpha, fmt, tmp_path / f"a.{fmt}").read_bytes()
        b = export_table(ac225_alpha, fmt, tmp_path / f"b.{fmt}").read_bytes()
        assert a == b
        assert b"\r" not in a  # LF endings only


def test_tex_export_is_a_wellformed_table_body(norm_gamma, tmp_path):
    text = export_table(norm_gamma, "tex", tmp_path / "lib.tex").read_text()
    assert text.startswith("\\begin{tabular}{")
    assert text.rstrip().endswith("\\end{tabular}")
    body_rows = [
        line for line in text.splitlines()
        if line.endswith(r" \\") and not line.startswith("\\")
    ]
    for row in body_rows:
        assert row.count("&") == 8  # 9 columns
        assert re.search(r"(?<!\\)%", row) is None  # percent escaped


def test_xml_export_parses(ac225_alpha, tmp_path):
    path = export_table(ac225_alpha, "xml", tmp_path / "lib.xml")
    root = ET.parse(path).getroot()
    assert root.tag == "library"
    assert root.attrib["radiation"] == "a"
    assert len(root.findall("entry")) == len(ac225_alpha.entries)


def test_xml_attributes_escape_a_double_quote(ac225_alpha):
    flag = 'a"b&<c>'
    entries = [ac225_alpha.entries[0]._replace(flags=frozenset({flag}))]
    lib = RadionuclideLibrary(radiation=RadiationType.ALPHA, entries=entries)
    entry = ET.fromstring(render_table(lib, "xml")).find("entry")
    assert entry.attrib["flags"] == flag


def test_html_export_row_count(ac225_alpha, tmp_path):
    text = export_table(ac225_alpha, "html", tmp_path / "lib.html").read_text()
    assert text.count("<tr>") == len(ac225_alpha.entries) + 1  # + header


def test_json_export_shape(ac225_alpha):
    import json

    payload = json.loads(render_table(ac225_alpha, "json"))
    assert payload["radiation"] == "a"
    assert len(payload["entries"]) == len(ac225_alpha.entries)
    assert payload["bounds"]["intensity_percent"] == [0.001, 100]


def test_json_export_writes_open_bounds_as_null(ac225_alpha):
    import json

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    lib = RadionuclideLibrary(
        radiation=ac225_alpha.radiation,
        entries=ac225_alpha.entries,
        bounds=PruneBounds(half_life_seconds=(0.0, float("inf"))),
    )
    payload = json.loads(render_table(lib, "json"), parse_constant=reject)
    assert payload["bounds"]["energy_kev"] == [0.0, None]
    assert payload["bounds"]["half_life_seconds"] == [0.0, None]


def test_unsupported_format(ac225_alpha, tmp_path):
    with pytest.raises(UnsupportedFormat):
        export_table(ac225_alpha, "xlsx", tmp_path / "lib.xlsx")


def test_every_exported_name_is_defined():
    assert [name for name in nuclibgen.__all__ if not hasattr(nuclibgen, name)] == []


LIBRARY_HEADER = ("nuclide,radiation,energy_kev,energy_unc_kev,intensity_pct,"
                  "intensity_unc_pct,half_life_s,parent_level_kev,flags\n")
LIBRARY_ROW = "99mo,g,739.5,0.096,12.2,0.366,237384,0,\n"


@pytest.mark.parametrize("text, match", [
    ("nuclide,radiation,energy_kev\n99mo,g,739.5\n", "missing columns energy_unc_kev"),
    ("", "missing columns nuclide"),
    (LIBRARY_HEADER + LIBRARY_ROW + LIBRARY_ROW.replace("739.5", "abc"), "line 3:"),
    (LIBRARY_HEADER + LIBRARY_ROW.replace("12.2", "nan"), "line 2: non-finite intensity"),
    (LIBRARY_HEADER + "99mo,g,739.5\n", "line 2: expected 9 cells"),
    (LIBRARY_HEADER + LIBRARY_ROW.replace(",g,", ",q,"), "line 2:"),
    (LIBRARY_HEADER + LIBRARY_ROW.replace("99mo", "99xx"), "line 2:"),
    ("flags," + LIBRARY_HEADER.replace(",flags", "") + ",99mo,g,739.5\n",
     "line 2: expected 9 cells"),
    # The blank line counts.
    pytest.param(LIBRARY_HEADER + LIBRARY_ROW + "\n" + "9" * (csv.field_size_limit() + 1)
                 + "\n", "line 4: field larger than field limit",
                 id="csv-error-cell-over-the-field-limit"),
])
def test_bad_library_csv_is_an_input_error(tmp_path, text, match):
    path = tmp_path / "lib.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput, match=match):
        import_library_csv(path)


def test_missing_library_csv_is_an_input_error(tmp_path):
    with pytest.raises(InvalidInput, match="cannot read library"):
        import_library_csv(tmp_path / "absent.csv")
    path = tmp_path / "ok.csv"
    path.write_text(LIBRARY_HEADER + LIBRARY_ROW)
    assert [e.energy.kev for e in import_library_csv(path).entries] == [739.5]


def test_library_csv_skips_a_blank_row(tmp_path):
    path = tmp_path / "lib.csv"
    path.write_text(LIBRARY_HEADER + LIBRARY_ROW + "\n" + LIBRARY_ROW.replace("739.5", "740"))
    assert [e.energy.kev for e in import_library_csv(path).entries] == [739.5, 740.0]


def test_library_csv_with_a_byte_order_mark_is_read(tmp_path):
    path = tmp_path / "lib.csv"
    path.write_text("\ufeff" + LIBRARY_HEADER + LIBRARY_ROW, encoding="utf-8")
    assert [e.energy.kev for e in import_library_csv(path).entries] == [739.5]
