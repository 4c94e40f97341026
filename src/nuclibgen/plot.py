"""Annotated library plots as standalone SVG.

Energy on x (keV), emission probability on y (log scale), one marker per
entry styled per the marker registry. Marker style is a pure function of the
registry plus a deterministic fallback palette (hash of the canonical
nuclide id), so a nuclide looks the same in every plot of a run, including
across alpha and gamma libraries. Output is byte-deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInput, MalformedId
from .export import XML_ESCAPES, read_text, write_text
from .library import RadionuclideLibrary
from .nuclide import Nuclide, display_name, parse_nuclide_id

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

SHAPES = ("circle", "square", "diamond", "triangle-up",
          "triangle-down", "cross", "plus", "star")

WIDTH, HEIGHT = 900, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 60


@dataclass(frozen=True)
class MarkerStyle:
    shape: str
    color: str
    label: str


@dataclass
class MarkerRegistry:
    """User-tailored marker properties per nuclide, with a stable fallback."""

    styles: dict[Nuclide, MarkerStyle] = field(default_factory=dict)

    @classmethod
    def load_csv(cls, path: Path | str) -> "MarkerRegistry":
        """Read a registry file with columns nuclide,shape,color,label.

        Raises InvalidInput naming the file when it cannot be read or has no
        nuclide column, and with its line number for a row whose id is bad.
        """
        text = read_text(path, InvalidInput, "marker registry", "utf-8-sig")
        registry = cls()
        reader = csv.DictReader(io.StringIO(text))
        try:
            if "nuclide" not in (reader.fieldnames or ()):
                raise InvalidInput(f"marker registry {path}: missing column nuclide")
            for row in reader:
                nuclide = parse_nuclide_id(row["nuclide"])
                registry.styles[nuclide] = MarkerStyle(
                    shape=(row.get("shape") or "").strip() or "circle",
                    color=(row.get("color") or "").strip() or PALETTE[0],
                    label=(row.get("label") or "").strip() or display_name(nuclide),
                )
        except (MalformedId, csv.Error) as exc:
            raise InvalidInput(
                f"marker registry {path} line {reader.line_num}: {exc}"
            ) from exc
        return registry

    def style_for(self, nuclide: Nuclide) -> MarkerStyle:
        style = self.styles.get(nuclide)
        if style is not None:
            return style
        digest = hashlib.md5(str(nuclide).encode("ascii")).digest()
        return MarkerStyle(
            shape=SHAPES[digest[1] % len(SHAPES)],
            color=PALETTE[digest[0] % len(PALETTE)],
            label=display_name(nuclide),
        )


@dataclass(frozen=True)
class PlotWindow:
    """A rectangular annotation region on the energy/intensity canvas."""

    energy_kev: tuple[float, float]
    intensity_percent: tuple[float, float]
    annotate: bool = True
    annotation_min_intensity: float = 10.0

    def contains(self, energy: float, intensity: float) -> bool:
        return (
            self.energy_kev[0] <= energy <= self.energy_kev[1]
            and self.intensity_percent[0] <= intensity <= self.intensity_percent[1]
        )


def _nice_ticks(lo: float, hi: float, target: int = 8) -> list[float]:
    """Round ticks over ``lo < hi``; `plot_library` pads its axis by 1 keV or more."""
    raw_step = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if (hi - lo) / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(round(value, 10))
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_label(value: float) -> str:
    return f"{value:.10g}"


MARKER_SIZE = 4.0

# Polygon markers as (dx, dy) offsets: a point is at (x + dx, y + dy), rounded
# to 2 places. A 0 offset is an int: it keeps the legend's int coordinates ints.
_POLYGONS = {
    "diamond": ((0, -1.4 * MARKER_SIZE), (1.4 * MARKER_SIZE, 0),
                (0, 1.4 * MARKER_SIZE), (-1.4 * MARKER_SIZE, 0)),
    "triangle-up": ((0, -1.3 * MARKER_SIZE), (1.2 * MARKER_SIZE, MARKER_SIZE),
                    (-1.2 * MARKER_SIZE, MARKER_SIZE)),
    "triangle-down": ((0, 1.3 * MARKER_SIZE), (1.2 * MARKER_SIZE, -MARKER_SIZE),
                      (-1.2 * MARKER_SIZE, -MARKER_SIZE)),
    # Ten points, alternately on an outer and an inner radius.
    "star": tuple(
        (radius * math.cos(angle), -(radius * math.sin(angle)))
        for radius, angle in zip([1.6 * MARKER_SIZE, 0.7 * MARKER_SIZE] * 5,
                                 [math.pi / 2 + i * math.pi / 5 for i in range(10)])
    ),
}


def _marker_svg(shape: str, x: float, y: float, color: str) -> str:
    s = MARKER_SIZE
    x, y = round(x, 2), round(y, 2)
    if shape == "circle":
        return f'<circle cx="{x}" cy="{y}" r="{s}" fill="{color}"/>'
    if shape == "square":
        return (
            f'<rect x="{round(x - s, 2)}" y="{round(y - s, 2)}" '
            f'width="{2 * s}" height="{2 * s}" fill="{color}"/>'
        )
    if shape == "cross":
        return (
            f'<path d="M {round(x - s, 2)} {round(y - s, 2)} L {round(x + s, 2)} '
            f'{round(y + s, 2)} M {round(x - s, 2)} {round(y + s, 2)} '
            f'L {round(x + s, 2)} {round(y - s, 2)}" stroke="{color}" '
            f'stroke-width="1.6" fill="none"/>'
        )
    if shape == "plus":
        return (
            f'<path d="M {x} {round(y - 1.3 * s, 2)} V {round(y + 1.3 * s, 2)} '
            f'M {round(x - 1.3 * s, 2)} {y} H {round(x + 1.3 * s, 2)}" '
            f'stroke="{color}" stroke-width="1.6" fill="none"/>'
        )
    # The star is the fallback for unknown shape names as well.
    points = _POLYGONS.get(shape, _POLYGONS["star"])
    pts = " ".join(f"{round(x + dx, 2)},{round(y + dy, 2)}" for dx, dy in points)
    return f'<polygon points="{pts}" fill="{color}"/>'


def plot_library(
    lib: RadionuclideLibrary,
    markers: MarkerRegistry | None = None,
    windows: list[PlotWindow] | None = None,
    path: Path | str = "library.svg",
) -> Path:
    """Write the library scatter plot as a standalone SVG file.

    Entries inside an annotating window with intensity at or above the
    window's threshold are labeled with their energy. Entries without an
    intensity value cannot be placed on the log axis and are skipped.
    """
    markers = markers or MarkerRegistry()
    placed = [e for e in lib.entries if e.intensity_percent and e.intensity_percent > 0]

    if placed:
        x_lo = min(e.energy.kev for e in placed)
        x_hi = max(e.energy.kev for e in placed)
        y_lo = min(e.intensity_percent for e in placed)
        y_hi = max(e.intensity_percent for e in placed)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1000.0, 1e-3, 100.0
    pad = max((x_hi - x_lo) * 0.05, 1.0)
    x_lo, x_hi = max(0.0, x_lo - pad), x_hi + pad
    log_lo = math.floor(math.log10(y_lo))
    log_hi = math.ceil(math.log10(y_hi)) or 1
    if log_hi <= log_lo:
        log_hi = log_lo + 1

    if windows is None:
        windows = [
            PlotWindow(
                energy_kev=(x_lo, x_hi),
                intensity_percent=(10.0**log_lo, 10.0**log_hi),
            )
        ]

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(energy: float) -> float:
        return MARGIN_L + (energy - x_lo) / (x_hi - x_lo) * plot_w

    def py(intensity: float) -> float:
        frac = (math.log10(intensity) - log_lo) / (log_hi - log_lo)
        return MARGIN_T + (1.0 - frac) * plot_h

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]

    for tick in _nice_ticks(x_lo, x_hi):
        x = round(px(tick), 2)
        svg.append(
            f'<line x1="{x}" y1="{MARGIN_T + plot_h}" x2="{x}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        svg.append(
            f'<text x="{x}" y="{MARGIN_T + plot_h + 20}" font-size="11" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for decade in range(log_lo, log_hi + 1):
        y = round(py(10.0**decade), 2)
        svg.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y}" x2="{MARGIN_L}" y2="{y}" '
            f'stroke="black"/>'
        )
        svg.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4}" font-size="11" '
            f'text-anchor="end">1e{decade}</text>'
        )
    svg.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 15}" font-size="13" '
        f'text-anchor="middle">Energy (keV)</text>'
    )
    svg.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
        f"Emission probability (%)</text>"
    )

    series: dict[Nuclide, list] = {}
    for entry in placed:
        series.setdefault(entry.nuclide, []).append(entry)

    styles: dict[Nuclide, MarkerStyle] = {}
    for nuclide in sorted(series, key=str):
        # Registry text is outside input: escape it for attributes and text.
        raw = markers.style_for(nuclide)
        style = styles[nuclide] = MarkerStyle(
            *(text.translate(XML_ESCAPES) for text in (raw.shape, raw.color, raw.label)))
        svg.append(f'<g class="series" data-nuclide="{nuclide}" data-shape="{style.shape}">')
        for entry in series[nuclide]:
            svg.append(
                "  "
                + _marker_svg(
                    style.shape,
                    px(entry.energy.kev),
                    py(entry.intensity_percent),
                    style.color,
                )
            )
        svg.append("</g>")

    labels = []
    for entry in placed:
        for window in windows:
            if not window.annotate:
                continue
            if entry.intensity_percent < window.annotation_min_intensity:
                continue
            if window.contains(entry.energy.kev, entry.intensity_percent):
                labels.append(entry)
                break
    svg.append('<g class="annotations" font-size="10">')
    for entry in labels:
        x = round(px(entry.energy.kev), 2)
        y = round(py(entry.intensity_percent) - 8, 2)
        svg.append(
            f'  <text x="{x}" y="{y}" text-anchor="middle">'
            f"{_fmt_label(entry.energy.kev)}</text>"
        )
    svg.append("</g>")

    svg.append(f'<g class="legend" font-size="11">')
    for i, style in enumerate(styles.values()):
        y = MARGIN_T + 14 + i * 16
        if y > MARGIN_T + plot_h:
            break
        x = WIDTH - MARGIN_R + 18
        svg.append("  " + _marker_svg(style.shape, x, y - 4, style.color))
        svg.append(f'  <text x="{x + 12}" y="{y}">{style.label}</text>')
    svg.append("</g>")
    svg.append("</svg>")

    return write_text(path, "\n".join(svg) + "\n")
