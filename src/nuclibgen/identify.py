"""Minimal peak qualification: match located spectrum peaks against a
generated library within an energy tolerance.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidInput
from .export import read_text
from .library import LibraryEntry, RadionuclideLibrary
from .nuclide import PerValue


@dataclass(frozen=True)
class Peak:
    centroid_kev: float
    net_area: float | None = None

    def __post_init__(self):
        if not (0 <= self.centroid_kev < math.inf):
            raise InvalidInput(
                f"peak centroid {self.centroid_kev!r} is not finite and nonnegative"
            )
        if self.net_area is not None and not math.isfinite(self.net_area):
            raise InvalidInput(f"peak net_area {self.net_area!r} is not finite")


@dataclass
class PeakList:
    peaks: list[Peak] = field(default_factory=list)

    @classmethod
    def load_csv(cls, path: Path | str) -> "PeakList":
        """Read 'centroid_kev[,net_area]' rows; a header row is optional.

        Blank lines and lines starting with '#' are skipped, and so is a first
        row whose centroid is not a number (a header). Raises InvalidInput for
        an unreadable file and, with its line number, for any other row whose
        centroid or net area is invalid.
        """
        text = read_text(path, InvalidInput, "peak list", "utf-8-sig")
        peaks = []
        first = True
        reader = csv.reader(io.StringIO(text))
        try:
            for row in reader:
                if not row or not row[0].strip() or row[0].lstrip().startswith("#"):
                    continue
                header, first = first, False
                try:
                    centroid = float(row[0])
                except ValueError as exc:
                    if header:
                        continue
                    raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
                try:
                    area = float(row[1]) if len(row) > 1 and row[1].strip() else None
                    peaks.append(Peak(centroid, area))
                except ValueError as exc:
                    raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise InvalidInput(f"{path} line {reader.line_num}: {exc}") from exc
        return cls(peaks)


@dataclass
class PeakMatch:
    """Qualification result for one peak; unassigned when no candidate."""

    peak: Peak
    candidates: list[LibraryEntry]

    @property
    def unassigned(self) -> bool:
        return not self.candidates


def qualify_peaks(
    peaks: PeakList, lib: RadionuclideLibrary, tol_kev: float, top: int | None = None
) -> list[PeakMatch]:
    """Assign library candidates to each located peak.

    A candidate is any entry with |entry energy - centroid| <= tol_kev,
    sorted by |deltaE| then descending intensity (energy agreement is the
    physical discriminator; intensity breaks ties), a missing intensity
    last, then nuclide id, then library order. With ``top`` each peak keeps
    the first ``top`` candidates of that order, the same entries as the
    first ``top`` of the full list; with None it keeps every candidate.
    Total: peaks without candidates come back flagged unassigned.

    The library is ranked once per call on the tie-break, which does not
    depend on the peak, and each peak bisects an energy-sorted table. It
    ranks at most ``top`` lines on each side of the centroid, plus any
    further lines as close as the ``top``-th of those, which can outrank it.
    """
    if not (0 < tol_kev < math.inf):
        raise InvalidInput(f"tolerance {tol_kev!r} keV is not finite and positive")
    if top is not None and top < 1:
        raise InvalidInput(f"top {top!r}: at least one candidate must be kept")
    entries = lib.entries
    keep = len(entries) + 1 if top is None else top  # None: more than any window
    nuclide_ids = PerValue(str)
    # The tie-break order, which does not depend on the peak; an entry's rank
    # is its place in it.
    ranked = sorted(
        (-(entry.intensity_percent if entry.intensity_percent is not None else -1.0),
         nuclide_ids[entry.nuclide], i)
        for i, entry in enumerate(entries)
    )
    table = sorted((entries[i].energy.kev, rank, i) for rank, (_, _, i) in enumerate(ranked))
    kevs = [kev for kev, _, _ in table]
    matches = []
    for peak in peaks.peaks:
        centroid = peak.centroid_kev
        # Widen past the rounding of centroid +- tol; the exact test decides.
        half = tol_kev + 1e-9 * (tol_kev + centroid)
        lo = bisect_left(kevs, centroid - half)
        hi = bisect_right(kevs, centroid + half, lo)
        mid = bisect_left(kevs, centroid, lo, hi)
        start, stop = max(lo, mid - keep), min(hi, mid + keep)
        found = [
            (delta, rank, i)
            for kev, rank, i in table[start:stop]
            if (delta := abs(kev - centroid)) <= tol_kev
        ]
        found.sort()
        if len(found) >= keep:
            # |deltaE| never falls away from the centroid on either side;
            # lines past the span that tie the keep-th one may outrank it.
            bound, first, last = found[keep - 1][0], start, stop
            while first > lo and abs(kevs[first - 1] - centroid) <= bound:
                first -= 1
            while last < hi and abs(kevs[last] - centroid) <= bound:
                last += 1
            found += [(abs(kev - centroid), rank, i)
                      for kev, rank, i in table[first:start] + table[stop:last]]
            found.sort()
        matches.append(PeakMatch(peak=peak, candidates=[entries[i] for _, _, i in found[:keep]]))
    return matches
