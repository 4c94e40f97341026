"""Serialize radionuclide libraries as csv, html, xml, tex and json tables.

All text output is UTF-8 with LF endings and deterministic for a given
library: no timestamps live in exported content (run provenance goes to the
report instead). Numbers are rendered with full input precision via the
shortest round-tripping representation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .errors import InvalidInput, IoError, NuclibError, UnsupportedFormat
from .library import LibraryEntry, PruneBounds, RadionuclideLibrary
from .nuclide import EnergyValue, HalfLife, PerValue, RadiationType, parse_nuclide_id

CSV_COLUMNS = (
    "nuclide",
    "radiation",
    "energy_kev",
    "energy_unc_kev",
    "intensity_pct",
    "intensity_unc_pct",
    "half_life_s",
    "parent_level_kev",
    "flags",
)

TABLE_FORMATS = ("csv", "html", "xml", "tex", "json")


def write_text(path: Path | str, content: str) -> Path:
    """Write ``content`` to ``path`` as UTF-8 with LF endings, creating the
    parent directories; every output file of a run is written here. Raises
    IoError when the file cannot be written."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8", newline="\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def read_text(path: Path | str, error: type[NuclibError], what: str, encoding: str) -> str:
    """The text of the input file at ``path``. Raises ``error`` ("cannot read
    <what> <path>: ...") when it cannot be read or decoded, or names no file."""
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, ValueError) as exc:  # a NUL byte, or bytes that do not decode
        raise error(f"cannot read {what + ' ' if what else ''}{path}: {exc}") from exc


def _num(value: float | None) -> str:
    if value is None:
        return ""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _half_life_cell(hl: HalfLife | None) -> str:
    if hl is None:
        return ""
    if hl.is_stable:
        return "stable"
    return _num(hl.seconds)


def _cell_renderer():
    """A function from an entry to its table cells, in CSV_COLUMNS order. It
    renders the nuclide, half-life, parent-level and flags cells once per
    distinct value."""
    nuclides = PerValue(str)
    half_lives = PerValue(_half_life_cell)
    parents = PerValue(lambda level: _num(level.kev))
    flag_sets = PerValue(lambda flags: ";".join(sorted(flags)))

    def cells(e: LibraryEntry) -> tuple[str, ...]:
        return (nuclides[e.nuclide], e.radiation.code, _num(e.energy.kev),
                _num(e.energy.uncertainty_kev), _num(e.intensity_percent),
                _num(e.intensity_unc), half_lives[e.half_life], parents[e.parent_level],
                flag_sets[e.flags])

    return cells


def entry_cells(entry: LibraryEntry) -> tuple[str, ...]:
    """The entry's table cells, in CSV_COLUMNS order."""
    return _cell_renderer()(entry)


def entry_row(entry: LibraryEntry) -> dict[str, str]:
    return dict(zip(CSV_COLUMNS, entry_cells(entry)))


def table_rows(lib: RadionuclideLibrary) -> list[tuple[str, ...]]:
    """Every entry's cells, as entry_cells gives them; compute them once and
    pass them to each format."""
    cells = _cell_renderer()
    return [cells(entry) for entry in lib.entries]


def _render_csv(lib: RadionuclideLibrary, rows: list[tuple[str, ...]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue()


def _json_interval(interval: tuple[float, float]) -> list[float | None]:
    return [None if math.isinf(bound) else bound for bound in interval]


# One entry object as json.dumps(indent=2, sort_keys=True) lays it out inside
# the top-level "entries" list: keys sorted, four spaces in, "%s" per value.
_JSON_ORDER = sorted(range(len(CSV_COLUMNS)), key=lambda i: CSV_COLUMNS[i])
_JSON_ENTRY = (
    "    {\n"
    + ",\n".join(f'      "{CSV_COLUMNS[i]}": %s' for i in _JSON_ORDER)
    + "\n    }"
)


def _render_json(lib: RadionuclideLibrary, rows: list[tuple[str, ...]]) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\n" for
    the payload {"bounds": ..., "entries": [<cells by column>...],
    "radiation": ...}; the entries are laid out by _JSON_ENTRY with the C
    string encoder rather than by the pure-Python indenting encoder."""
    bounds = {
        "energy_kev": _json_interval(lib.bounds.energy_kev),
        "intensity_percent": _json_interval(lib.bounds.intensity_percent),
        "half_life_seconds": (
            _json_interval(lib.bounds.half_life_seconds)
            if lib.bounds.half_life_seconds
            else None
        ),
    }
    encode = encode_basestring_ascii
    entries = ",\n".join(
        _JSON_ENTRY % tuple([encode(cells[i]) for i in _JSON_ORDER]) for cells in rows
    )
    return (
        '{\n  "bounds": '
        + json.dumps(bounds, indent=2, sort_keys=True).replace("\n", "\n  ")
        + (f',\n  "entries": [\n{entries}\n  ],\n' if rows else ',\n  "entries": [],\n')
        + f'  "radiation": {encode(lib.radiation.code)}\n}}\n'
    )


# Each markup format's escapes, as str.translate tables; XML_ESCAPES covers
# attribute values. The ``html`` module would load its entity table.
_HTML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})
_TEX_ESCAPES = str.maketrans({"&": r"\&", "%": r"\%", "_": r"\_", "#": r"\#", "$": r"\$"})


def _escape_cells(rows: list[tuple[str, ...]], table: dict) -> list[tuple[str, ...]]:
    """``rows`` with every cell translated by the escape ``table``. When no
    cell holds one of its characters, the usual case, that is ``rows`` itself."""
    text = "".join(map("".join, rows))
    if not any(chr(code) in text for code in table):
        return rows
    return [tuple(cell.translate(table) for cell in cells) for cells in rows]


def _render_html(lib: RadionuclideLibrary, rows: list[tuple[str, ...]]) -> str:
    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">"
        f"<title>{lib.radiation.code} radionuclide library</title></head>",
        "<body>",
        "<table>",
        "<thead><tr>"
        + "".join(f"<th>{col}</th>" for col in CSV_COLUMNS)
        + "</tr></thead>",
        "<tbody>",
    ]
    lines += [
        f"<tr><td>{'</td><td>'.join(cells)}</td></tr>"
        for cells in _escape_cells(rows, _HTML_ESCAPES)
    ]
    lines.extend(["</tbody>", "</table>", "</body></html>"])
    return "\n".join(lines) + "\n"


_XML_ENTRY = "  <entry " + " ".join(f'{col}="%s"' for col in CSV_COLUMNS) + "/>"


def _render_xml(lib: RadionuclideLibrary, rows: list[tuple[str, ...]]) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<library radiation="{lib.radiation.code}">',
    ]
    lines += [_XML_ENTRY % cells for cells in _escape_cells(rows, XML_ESCAPES)]
    lines.append("</library>")
    return "\n".join(lines) + "\n"


def _render_tex(lib: RadionuclideLibrary, rows: list[tuple[str, ...]]) -> str:
    colspec = "l" * len(CSV_COLUMNS)
    lines = [
        f"\\begin{{tabular}}{{{colspec}}}",
        " & ".join(col.translate(_TEX_ESCAPES) for col in CSV_COLUMNS) + r" \\",
        r"\hline",
    ]
    lines += [" & ".join(cells) + r" \\" for cells in _escape_cells(rows, _TEX_ESCAPES)]
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "csv": _render_csv,
    "html": _render_html,
    "xml": _render_xml,
    "tex": _render_tex,
    "json": _render_json,
}


def render_table(
    lib: RadionuclideLibrary, fmt: str, rows: list[tuple[str, ...]] | None = None
) -> str:
    """The library as one table format; ``rows`` is ``table_rows(lib)`` when
    the caller renders several formats of one library."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise UnsupportedFormat(
            f"format {fmt!r}; supported: {', '.join(TABLE_FORMATS)}"
        ) from None
    return renderer(lib, table_rows(lib) if rows is None else rows)


def export_table(
    lib: RadionuclideLibrary,
    fmt: str,
    path: Path | str,
    rows: list[tuple[str, ...]] | None = None,
) -> Path:
    """Write the library as csv/html/xml/tex/json; byte-deterministic.
    ``rows`` as for render_table."""
    return write_text(path, render_table(lib, fmt, rows))


def import_library_csv(path: Path | str) -> RadionuclideLibrary:
    """Re-read an exported CSV; export_table('csv') then import is identity.

    Raises InvalidInput for an unreadable file, a missing column and, with
    its line number, a row that is short or holds a bad value.
    """
    reader = csv.reader(io.StringIO(read_text(path, InvalidInput, "library", "utf-8-sig")))
    entries: list[LibraryEntry] = []
    try:
        header = next(reader, None) or ()
        missing = [col for col in CSV_COLUMNS if col not in header]
        if missing:
            raise InvalidInput(f"{path}: missing columns {', '.join(missing)}")
        # A column named twice is read from its last occurrence.
        position = {name: i for i, name in enumerate(header)}
        pick = itemgetter(*(position[col] for col in CSV_COLUMNS))
        width = 1 + max(position[col] for col in CSV_COLUMNS)
        entry = _entry_parser()
        for row in reader:
            if not row:
                continue
            try:
                if len(row) < width:
                    raise InvalidInput(f"expected {len(CSV_COLUMNS)} cells")
                entries.append(entry(pick(row)))
            except (ValueError, NuclibError) as exc:
                raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
    except csv.Error as exc:
        raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
    return RadionuclideLibrary(
        radiation=entries[-1].radiation if entries else RadiationType.GAMMA,
        entries=entries,
        bounds=PruneBounds(),
    )


def _half_life(cell: str) -> HalfLife | None:
    cell = cell.strip()
    if cell == "stable":
        return HalfLife.stable()
    return HalfLife(float(cell)) if cell else None


def _entry_parser():
    """A function from one row's cells, in CSV_COLUMNS order, to its
    LibraryEntry. It builds the nuclide, radiation type, half-life, parent
    level and flags once per distinct cell; a bad cell raises each time."""
    nuclides = PerValue(parse_nuclide_id)
    radiations = PerValue(RadiationType.from_code)
    half_lives = PerValue(_half_life)
    parents = PerValue(lambda kev: EnergyValue(float(kev)))
    flag_sets = PerValue(lambda flags: frozenset(f for f in flags.split(";") if f))

    def entry(cells: tuple[str, ...]) -> LibraryEntry:
        nid, code, kev, unc, intensity, intensity_unc, hl, parent_kev, flags = cells
        half_life = half_lives[hl]
        intensity = float(intensity) if intensity else None
        intensity_unc = float(intensity_unc) if intensity_unc else 0.0
        if not math.isfinite(intensity_unc) or (
            intensity is not None and not math.isfinite(intensity)
        ):
            raise InvalidInput("non-finite intensity")
        if intensity_unc < 0 or (intensity is not None and intensity < 0):
            raise InvalidInput("negative intensity or intensity uncertainty")
        return LibraryEntry(
            nuclides[nid], radiations[code], EnergyValue(float(kev), float(unc) if unc else 0.0),
            intensity, intensity_unc, half_life, parents[parent_kev], flag_sets[flags],
        )

    return entry

