"""Serialize radionuclide libraries: tabular formats and template-driven
cross-platform files.

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
import re
from pathlib import Path

from .errors import (
    InvalidInput,
    IoError,
    NuclibError,
    TemplateSyntaxError,
    UnknownPlaceholder,
    UnsupportedFormat,
)
from .library import LibraryEntry, PruneBounds, RadionuclideLibrary
from .nuclide import EnergyValue, HalfLife, RadiationType, parse_nuclide_id

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


def entry_row(entry: LibraryEntry) -> dict[str, str]:
    return {
        "nuclide": str(entry.nuclide),
        "radiation": entry.radiation.code,
        "energy_kev": _num(entry.energy.kev),
        "energy_unc_kev": _num(entry.energy.uncertainty_kev),
        "intensity_pct": _num(entry.intensity_percent),
        "intensity_unc_pct": _num(entry.intensity_unc),
        "half_life_s": _half_life_cell(entry.half_life),
        "parent_level_kev": _num(entry.parent_level.kev),
        "flags": ";".join(sorted(entry.flags)),
    }


def _render_csv(lib: RadionuclideLibrary) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for entry in lib.entries:
        writer.writerow(entry_row(entry))
    return out.getvalue()


def _json_interval(interval: tuple[float, float]) -> list[float | None]:
    return [None if math.isinf(bound) else bound for bound in interval]


def _render_json(lib: RadionuclideLibrary) -> str:
    payload = {
        "radiation": lib.radiation.code,
        "bounds": {
            "energy_kev": _json_interval(lib.bounds.energy_kev),
            "intensity_percent": _json_interval(lib.bounds.intensity_percent),
            "half_life_seconds": (
                _json_interval(lib.bounds.half_life_seconds)
                if lib.bounds.half_life_seconds
                else None
            ),
        },
        "entries": [entry_row(entry) for entry in lib.entries],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _html_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _render_html(lib: RadionuclideLibrary) -> str:
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
    for entry in lib.entries:
        row = entry_row(entry)
        cells = "".join(f"<td>{_html_escape(row[col])}</td>" for col in CSV_COLUMNS)
        lines.append(f"<tr>{cells}</tr>")
    lines.extend(["</tbody>", "</table>", "</body></html>"])
    return "\n".join(lines) + "\n"


def _render_xml(lib: RadionuclideLibrary) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<library radiation="{lib.radiation.code}">',
    ]
    for entry in lib.entries:
        row = entry_row(entry)
        attrs = " ".join(f'{col}="{_html_escape(row[col])}"' for col in CSV_COLUMNS)
        lines.append(f"  <entry {attrs}/>")
    lines.append("</library>")
    return "\n".join(lines) + "\n"


_TEX_SPECIALS = {"&": r"\&", "%": r"\%", "_": r"\_", "#": r"\#", "$": r"\$"}


def _tex_escape(text: str) -> str:
    return "".join(_TEX_SPECIALS.get(ch, ch) for ch in text)


def _render_tex(lib: RadionuclideLibrary) -> str:
    colspec = "l" * len(CSV_COLUMNS)
    lines = [
        f"\\begin{{tabular}}{{{colspec}}}",
        " & ".join(_tex_escape(col) for col in CSV_COLUMNS) + r" \\",
        r"\hline",
    ]
    for entry in lib.entries:
        row = entry_row(entry)
        lines.append(
            " & ".join(_tex_escape(row[col]) for col in CSV_COLUMNS) + r" \\"
        )
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "csv": _render_csv,
    "html": _render_html,
    "xml": _render_xml,
    "tex": _render_tex,
    "json": _render_json,
}


def render_table(lib: RadionuclideLibrary, fmt: str) -> str:
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise UnsupportedFormat(
            f"format {fmt!r}; supported: {', '.join(TABLE_FORMATS)}"
        ) from None
    return renderer(lib)


def export_table(lib: RadionuclideLibrary, fmt: str, path: Path | str) -> Path:
    """Write the library as csv/html/xml/tex/json; byte-deterministic."""
    content = render_table(lib, fmt)
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def import_library_csv(path: Path | str) -> RadionuclideLibrary:
    """Re-read an exported CSV; export_table('csv') then import is identity.

    Raises InvalidInput for an unreadable file, a missing column and, with
    its line number, a row that is short or holds a bad value.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read library {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    entries: list[LibraryEntry] = []
    try:
        missing = [col for col in CSV_COLUMNS if col not in (reader.fieldnames or ())]
        if missing:
            raise InvalidInput(f"{path}: missing columns {', '.join(missing)}")
        for row in reader:
            try:
                entries.append(_entry_from_row(row))
            except (ValueError, NuclibError) as exc:
                raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
    except csv.Error as exc:
        raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
    return RadionuclideLibrary(
        radiation=entries[-1].radiation if entries else RadiationType.GAMMA,
        entries=entries,
        bounds=PruneBounds(),
    )


def _entry_from_row(row: dict[str, str | None]) -> LibraryEntry:
    if row[CSV_COLUMNS[-1]] is None:  # DictReader's fill for cells missing at the end
        raise InvalidInput(f"expected {len(CSV_COLUMNS)} cells")
    half_life = None
    hl_cell = row["half_life_s"].strip()
    if hl_cell == "stable":
        half_life = HalfLife.stable()
    elif hl_cell:
        half_life = HalfLife(float(hl_cell))
    intensity = float(row["intensity_pct"]) if row["intensity_pct"] else None
    intensity_unc = float(row["intensity_unc_pct"]) if row["intensity_unc_pct"] else 0.0
    if not math.isfinite(intensity_unc) or (
        intensity is not None and not math.isfinite(intensity)
    ):
        raise InvalidInput("non-finite intensity")
    return LibraryEntry(
        nuclide=parse_nuclide_id(row["nuclide"]),
        radiation=RadiationType.from_code(row["radiation"]),
        energy=EnergyValue(
            float(row["energy_kev"]),
            float(row["energy_unc_kev"]) if row["energy_unc_kev"] else 0.0,
        ),
        intensity_percent=intensity,
        intensity_unc=intensity_unc,
        half_life=half_life,
        parent_level=EnergyValue(float(row["parent_level_kev"])),
        flags=frozenset(flag for flag in row["flags"].split(";") if flag),
    )


# --- template engine ----------------------------------------------------------
#
# A deliberately small mustache-style subset: {{field}} substitution,
# {{#entries}}...{{/entries}} iteration, and two filters
# ({{field|fixed:N}} fixed-decimal, {{field|upper}} uppercase).

_TAG_RE = re.compile(r"\{\{\s*([^{}]+?)\s*\}\}")


def _entry_fields(entry: LibraryEntry) -> dict[str, object]:
    row = entry_row(entry)
    fields: dict[str, object] = dict(row)
    # Expose numerics as numbers so fixed-decimal formatting works.
    fields["energy_kev"] = entry.energy.kev
    fields["energy_unc_kev"] = entry.energy.uncertainty_kev
    fields["intensity_pct"] = entry.intensity_percent
    fields["intensity_unc_pct"] = entry.intensity_unc
    fields["parent_level_kev"] = entry.parent_level.kev
    if entry.half_life is not None and not entry.half_life.is_stable:
        fields["half_life_s"] = entry.half_life.seconds
    return fields


def _apply_filter(value: object, spec: str, tag: str) -> str:
    if spec == "upper":
        return _stringify(value).upper()
    m = re.fullmatch(r"fixed:(\d+)", spec)
    if m:
        if value is None:
            return ""
        try:
            return f"{float(value):.{int(m.group(1))}f}"
        except (TypeError, ValueError):
            raise TemplateSyntaxError(
                f"filter fixed applied to non-numeric value in {{{{{tag}}}}}"
            ) from None
    raise TemplateSyntaxError(f"unknown filter {spec!r} in {{{{{tag}}}}}")


def _stringify(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _num(value)
    return str(value)


def _substitute(text: str, scope: dict[str, object]) -> str:
    def repl(match: re.Match) -> str:
        tag = match.group(1)
        name, _, filter_spec = tag.partition("|")
        name = name.strip()
        if name.startswith("#") or name.startswith("/"):
            raise TemplateSyntaxError(f"unexpected block tag {{{{{tag}}}}}")
        if name not in scope:
            raise UnknownPlaceholder(f"unknown placeholder {{{{{name}}}}}")
        value = scope[name]
        if filter_spec:
            return _apply_filter(value, filter_spec.strip(), tag)
        return _stringify(value)

    return _TAG_RE.sub(repl, text)


def render_template(lib: RadionuclideLibrary, template: str) -> str:
    """Render the template against the library; raises before any output."""
    if template.count("{{") != template.count("}}"):
        raise TemplateSyntaxError("unbalanced {{ }} braces")

    top_scope: dict[str, object] = {
        "count": len(lib.entries),
        "radiation": lib.radiation.code,
    }

    out: list[str] = []
    pos = 0
    while True:
        open_match = re.search(r"\{\{\s*#\s*(\w+)\s*\}\}", template[pos:])
        if not open_match:
            out.append(_substitute(template[pos:], top_scope))
            break
        block_name = open_match.group(1)
        if block_name != "entries":
            raise UnknownPlaceholder(f"unknown block {{{{#{block_name}}}}}")
        out.append(_substitute(template[pos : pos + open_match.start()], top_scope))
        body_start = pos + open_match.end()
        close = re.search(r"\{\{\s*/\s*" + block_name + r"\s*\}\}", template[body_start:])
        if not close:
            raise TemplateSyntaxError(f"unclosed block {{{{#{block_name}}}}}")
        body = template[body_start : body_start + close.start()]
        for entry in lib.entries:
            scope = dict(top_scope)
            scope.update(_entry_fields(entry))
            out.append(_substitute(body, scope))
        pos = body_start + close.end()
    return "".join(out)


def export_template(
    lib: RadionuclideLibrary, template: str, path: Path | str
) -> Path:
    """Render and write a template-driven export.

    The template is rendered fully before the file is opened, so a template
    error never leaves a partial file behind.
    """
    content = render_template(lib, template)
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path
