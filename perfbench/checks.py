"""Output checks that do not depend on timing.

Each check returns a list of problems; an operation whose checks return any
problem counts as failed (see ``Tally``). The checks use only the standard
library, never the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

# Outputs of a run that carry wall times, so they differ between repeats.
REPORT_FILES = ("report.json", "report.txt")


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])
        return not problems


def file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except the timed reports."""
    if not out_dir.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file() and path.name not in REPORT_FILES
    }


def outputs_sha256(digests: dict[str, str]) -> str:
    """One digest over all exports: names and contents, in name order."""
    text = "".join(f"{name}\0{digests[name]}\n" for name in sorted(digests))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_file_set(digests: dict[str, str], expected: list[str]) -> list[str]:
    missing = sorted(set(expected) - set(digests))
    extra = sorted(set(digests) - set(expected))
    problems = [f"missing output {name}" for name in missing]
    problems += [f"unexpected output {name}" for name in extra]
    return problems


def check_goldens(out_dir: Path, golden_dir: Path, names: list[str]) -> list[str]:
    problems = []
    for name in names:
        produced, golden = out_dir / name, golden_dir / name
        if not produced.is_file():
            problems.append(f"missing output {name}")
        elif produced.read_bytes() != golden.read_bytes():
            problems.append(f"{name} differs from its golden")
    return problems


def check_same_bytes(digests: dict[str, str], first: dict[str, str]) -> list[str]:
    """Every output is byte-identical to the first repeat's."""
    return [f"{name} differs from the first repeat"
            for name in sorted(set(digests) | set(first))
            if digests.get(name) != first.get(name)]


def _table_rows(fmt: str, text: str) -> int:
    if fmt == "csv":
        return sum(1 for _ in csv.DictReader(io.StringIO(text)))
    if fmt == "html":
        return len(re.findall(r"<tr>\s*<td", text))
    if fmt == "xml":
        return len(ET.fromstring(text).findall("entry"))
    if fmt == "tex":
        lines = [ln for ln in text.splitlines() if ln.endswith("\\\\")]
        return len(lines) - 1  # the first such line is the header
    if fmt == "json":
        return len(json.loads(text)["entries"])
    raise ValueError(fmt)


def check_export_formats(out_dir: Path, library_files: list[str]) -> list[str]:
    """XML and SVG parse with xml.etree, JSON with json, and every table
    format has as many rows as the CSV of the same library."""
    problems = []
    rows: dict[str, int] = {}
    for name in sorted(library_files):
        try:
            text = (out_dir / name).read_text(encoding="utf-8")
            rows[name] = _table_rows(name.rsplit(".", 1)[1], text)
        except (OSError, ValueError, KeyError, ET.ParseError) as exc:
            problems.append(f"{name} does not parse: {exc}")
    for name, count in rows.items():
        stem = name.rsplit(".", 1)[0]
        csv_count = rows.get(stem + ".csv")
        if csv_count is not None and count != csv_count:
            problems.append(f"{name} has {count} rows, the CSV {csv_count}")
    for svg in sorted(out_dir.glob("*.svg")):
        try:
            root = ET.parse(svg).getroot()
        except ET.ParseError as exc:
            problems.append(f"{svg.name} does not parse: {exc}")
            continue
        if not root.tag.endswith("svg"):
            problems.append(f"{svg.name}: root element is {root.tag}")
    return problems


# --- qualify oracle ------------------------------------------------------------

_ID_RE = re.compile(r"^(?P<a>\d+)(?P<el>[a-z]+)(?:@(?P<level>.+))?$")


def display_name(nuclide_id: str) -> str:
    """'234pa@m' -> 'Pa-234m', '177lu@m4' -> 'Lu-177m4', '99tc@142.68kev' ->
    'Tc-99@142.68keV', the form the qualify report prints."""
    m = _ID_RE.match(nuclide_id)
    if m is None:
        raise ValueError(f"bad nuclide id {nuclide_id!r}")
    level = m["level"] or ""
    if level.startswith("m"):
        suffix = level
    elif level:
        suffix = f"@{float(level.removesuffix('kev')):g}keV"
    else:
        suffix = ""
    return f"{m['el'].capitalize()}-{m['a']}{suffix}"


def qualify_oracle(library_csv: str, centroids: list[float], tol_kev: float,
                   top: int = 5) -> str:
    """Expected ``nuclibgen qualify`` output by brute force over the CSV rows.

    The documented rule: candidates lie within ``tol_kev`` of the centroid and
    are sorted by |dE|, then by descending intensity (a missing intensity
    sorts last), then by nuclide id; at most ``top`` are printed per peak.
    """
    rows = []
    for row in csv.DictReader(io.StringIO(library_csv)):
        intensity = float(row["intensity_pct"]) if row["intensity_pct"] else None
        rows.append((row["nuclide"], float(row["energy_kev"]), intensity))
    out = []
    for centroid in centroids:
        found = [r for r in rows if abs(r[1] - centroid) <= tol_kev]
        found.sort(key=lambda r: (abs(r[1] - centroid),
                                  -(r[2] if r[2] is not None else -1.0), r[0]))
        if not found:
            out.append(f"{centroid:g} keV: unassigned\n")
            continue
        best = ", ".join(
            f"{display_name(nid)} {energy:g} keV"
            + (f" ({intensity:g}%)" if intensity is not None else "")
            for nid, energy, intensity in found[:top]
        )
        out.append(f"{centroid:g} keV: {best}\n")
    return "".join(out)


def check_qualify(output: str, expected: str) -> list[str]:
    got, want = output.splitlines(), expected.splitlines()
    if len(got) != len(want):
        return [f"qualify printed {len(got)} lines, expected {len(want)}"]
    return [f"qualify line {i + 1}: {g!r} != {w!r}"
            for i, (g, w) in enumerate(zip(got, want)) if g != w][:5]


# --- cold cache ------------------------------------------------------------------

REGISTRY = "absent_registry.txt"


def check_cold_cache(cache_dir: Path, corpus: Path) -> list[str]:
    """After a cold run: every cached file equals its corpus file, and no key
    in the absence registry has a corpus file (nothing is poisoned)."""
    if not cache_dir.is_dir():
        return [f"no cache directory {cache_dir}"]
    problems = []
    for path in sorted(cache_dir.iterdir()):
        if path.name == REGISTRY:
            continue
        source = corpus / path.name
        if not source.is_file():
            problems.append(f"cache file {path.name} has no corpus file")
        elif path.read_bytes() != source.read_bytes():
            problems.append(f"cache file {path.name} differs from the corpus")
    registry = cache_dir / REGISTRY
    keys = registry.read_text(encoding="utf-8").split() if registry.exists() else []
    for key in keys:
        if (corpus / (key.replace(":", "_") + ".csv")).exists():
            problems.append(f"registry key {key} has data in the corpus")
    return problems
