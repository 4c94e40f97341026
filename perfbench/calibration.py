"""Host-speed calibration for the timings.

The reference machine is a 2-core virtual machine shared with other tenants.
Its speed for the same pure-Python work drifts by up to 2x, over seconds and
over minutes. Every process on it speeds up and slows down together, so
that the medians of two 35-second runs of the same code can differ by 50 %.
A fixed calibration workload owned by the benchmark is therefore timed
between the timed operations. A timing is then reported in reference
seconds. Its CPU part is scaled by ``REFERENCE_S`` over the calibration
time, and the time it spent waiting (on the mock endpoint, say) is kept as
measured. The raw wall times are recorded next to every result.

The calibration mimics the program's work: CSV parsing, frozen dataclasses,
the energy-tolerance comparison, sorting and number formatting. Its inputs
are fixture files, so it does the same work on every run and every commit.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

# Seconds the calibration workload takes on the reference speed; the scale
# of every reported timing.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Line:
    kev: float
    unc: float


def _match(a: _Line, b: _Line) -> bool:
    return abs(a.kev - b.kev) <= max(3.0 * math.sqrt(a.unc * a.unc + b.unc * b.unc), 1.0)


class Calibration:
    def __init__(self, corpus: Path):
        self._texts = [path.read_text(encoding="utf-8")
                       for path in sorted(corpus.glob("*_dr-g.csv"))[:30]]

    def measure(self) -> float:
        """Wall seconds of one pass of the calibration workload."""
        gc.collect()
        start = time.perf_counter()
        lines = [_Line(float(row["energy"] or 0), float(row["unc_en"] or 0))
                 for text in self._texts for row in csv.DictReader(io.StringIO(text))]
        lines.sort(key=lambda line: line.kev)
        matches = sum(1 for a in lines[::7] for b in lines[:600] if _match(a, b))
        text = "".join(f"{line.kev:g},{line.unc!r}\n" for line in lines)
        elapsed = time.perf_counter() - start
        if not matches or not text:
            raise RuntimeError("calibration workload did no work")
        return elapsed


def normalise(wall_s: float, cpu_s: float, calibration_s: float) -> float:
    """Reference seconds of an operation that took ``wall_s`` of wall time,
    ``cpu_s`` of it on the CPU, while the calibration took ``calibration_s``."""
    cpu_s = min(cpu_s, wall_s)
    return (wall_s - cpu_s) + cpu_s * REFERENCE_S / calibration_s
