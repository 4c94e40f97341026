"""Parse raw CSV datasets into typed records.

The endpoint adapter's CSV contract:

decay radiation (dr-*)::

    energy,unc_en,intensity,unc_i,p_symbol,p_a,p_energy,unc_pe,
    half_life_sec,unc_hls,decay,decay_%,unc_d,d_symbol,d_a,
    daughter_level_energy,start_level_energy,end_level_energy

energy levels (lv)::

    symbol,a,energy,unc_e,jp,half_life_sec,unc_hls,
    decay_1,decay_1_%,decay_2,decay_2_%,decay_3,decay_3_%

electromagnetic transitions (tr)::

    symbol,a,start_level_energy,unc_sl,end_level_energy,unc_el,
    energy,unc_en,intensity,unc_i

Intensities are percent per 100 decays of the emitting level. Radiation of a
daughter's parent-induced excited states is carried by the parent's dataset;
for gamma rows the start/end level energies are levels of the daughter
nuclide (of the nuclide itself for isomeric transitions).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .dataaccess import KIND_LEVELS, KIND_TRANSITIONS, RawDataset
from .errors import HeaderMismatch, NuclideMismatch
from .nuclide import (
    DecayMode,
    EnergyIndex,
    EnergyValue,
    HalfLife,
    Nuclide,
    RadiationType,
)

FLAG_NO_INTENSITY = "no-intensity"
FLAG_NO_UNCERTAINTY = "no-uncertainty"
FLAG_UNVALIDATED = "unvalidated"

_DECAY_COLUMNS = (
    "energy", "intensity", "p_symbol", "p_a", "p_energy",
    "decay", "decay_%", "d_symbol", "d_a",
)
_LEVEL_COLUMNS = ("symbol", "a", "energy", "half_life_sec", "decay_1")
_TRANSITION_COLUMNS = ("symbol", "a", "start_level_energy", "end_level_energy", "energy")

# An excited level with a reported half-life at or above this is an isomer.
ISOMER_THRESHOLD_S = 1e-9


@dataclass(frozen=True)
class DecayRecord:
    """One decay-radiation data row, ascribed to the decaying parent level."""

    parent: Nuclide
    parent_level: EnergyValue
    radiation: RadiationType
    energy: EnergyValue
    intensity_percent: float | None
    intensity_unc: float
    daughter: Nuclide
    daughter_feeding_level: EnergyValue | None
    decay_mode: DecayMode
    branching_percent: float
    half_life: HalfLife | None = None
    start_level: EnergyValue | None = None
    end_level: EnergyValue | None = None
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class LevelRecord:
    """One energy level of a nuclide with its decay modes, if any."""

    nuclide: Nuclide
    energy: EnergyValue
    jpi: str | None = None
    half_life: HalfLife | None = None
    decay_modes: tuple[tuple[DecayMode, float], ...] = ()

    @property
    def is_isomer(self) -> bool:
        """Excited, with a finite reported half-life of at least ISOMER_THRESHOLD_S."""
        return (
            self.energy.kev > 0
            and self.half_life is not None
            and not self.half_life.is_stable
            and self.half_life.seconds >= ISOMER_THRESHOLD_S
        )


@dataclass(frozen=True)
class TransitionRecord:
    """One downward electromagnetic transition between two levels."""

    nuclide: Nuclide
    start_level: EnergyValue
    end_level: EnergyValue
    gamma_energy: EnergyValue
    intensity_percent: float | None = None


@dataclass
class LevelScheme:
    """A nuclide's energy levels plus its electromagnetic transition table. The
    constructor indexes both lists: pass final lists, later appends are unseen."""

    nuclide: Nuclide
    levels: list[LevelRecord] = field(default_factory=list)
    transitions: list[TransitionRecord] = field(default_factory=list)

    def __post_init__(self):
        self._level_index = EnergyIndex([l.energy for l in self.levels])
        self._start_index = EnergyIndex([t.start_level for t in self.transitions])

    def find_level(self, energy: EnergyValue) -> LevelRecord | None:
        """The closest level matching ``energy`` within tolerance, or None;
        of equally close levels the earliest in ``levels`` wins."""
        matches = (self.levels[i] for i in self._level_index.matches(energy))
        return min(matches, key=lambda l: abs(l.energy.kev - energy.kev), default=None)

    def transitions_from(self, energy: EnergyValue) -> list[TransitionRecord]:
        """Transitions whose start level matches ``energy``, in table order."""
        return [self.transitions[i] for i in self._start_index.matches(energy)]

    def isomer_levels(self) -> list[LevelRecord]:
        """Isomer levels ascending in energy; the ordinal index (1-based) is
        the 'm' numbering."""
        return sorted(
            (rec for rec in self.levels if rec.is_isomer), key=lambda rec: rec.energy.kev
        )


def _reader(raw: RawDataset) -> tuple[csv.DictReader, list[str]]:
    reader = csv.DictReader(io.StringIO(raw.body))
    header = reader.fieldnames or []
    return reader, [h.strip() for h in header]

def _require_columns(header: list[str], required: tuple[str, ...], key: str) -> None:
    missing = [col for col in required if col not in header]
    if missing:
        raise HeaderMismatch(f"{key}: missing columns {missing}")


def _float(text: str) -> float:
    """A finite float; NaN and infinities raise ValueError like bad text."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value


def _opt_float(row: dict, col: str) -> float | None:
    text = (row.get(col) or "").strip()
    if not text:
        return None
    return _float(text)


def parse_decay_records(raw: RawDataset) -> tuple[list[DecayRecord], list[str]]:
    """Parse a decay-radiation dataset into records plus parse warnings.

    Rows with unparseable mandatory fields are reported in the warnings list
    and skipped; returned order preserves file order.
    """
    rad = raw.key.radiation
    if rad is None:
        raise HeaderMismatch(f"{raw.key.serialize()} is not a decay-radiation dataset")
    reader, header = _reader(raw)
    _require_columns(header, _DECAY_COLUMNS, raw.key.serialize())

    records: list[DecayRecord] = []
    warnings: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        try:
            parent = Nuclide(row["p_symbol"].strip(), int(row["p_a"]))
            daughter = Nuclide(row["d_symbol"].strip(), int(row["d_a"]))
            energy = EnergyValue(_float(row["energy"]), _opt_float(row, "unc_en") or 0.0)
            parent_level = EnergyValue(
                _float(row["p_energy"]), _opt_float(row, "unc_pe") or 0.0
            )
            mode = DecayMode.from_code(row["decay"])
            branching = _float(row["decay_%"])

            flags = set()
            intensity = _opt_float(row, "intensity")
            if intensity is None:
                flags.add(FLAG_NO_INTENSITY)
            intensity_unc = _opt_float(row, "unc_i")
            if intensity is not None and intensity_unc is None:
                flags.add(FLAG_NO_UNCERTAINTY)

            hl_s = _opt_float(row, "half_life_sec")
            half_life = None
            if hl_s is not None:
                half_life = HalfLife(hl_s, _opt_float(row, "unc_hls") or 0.0)

            fed = _opt_float(row, "daughter_level_energy")
            start = _opt_float(row, "start_level_energy")
            end = _opt_float(row, "end_level_energy")
            records.append(
                DecayRecord(
                    parent=parent,
                    parent_level=parent_level,
                    radiation=rad,
                    energy=energy,
                    intensity_percent=intensity,
                    intensity_unc=intensity_unc or 0.0,
                    daughter=daughter,
                    daughter_feeding_level=None if fed is None else EnergyValue(fed),
                    decay_mode=mode,
                    branching_percent=branching,
                    half_life=half_life,
                    start_level=None if start is None else EnergyValue(start),
                    end_level=None if end is None else EnergyValue(end),
                    flags=frozenset(flags),
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            warnings.append(f"{raw.key.serialize()} line {lineno}: {exc}")
    return records, warnings


def _parse_level_row(row: dict, lineno: int, warnings: list[str]) -> LevelRecord | None:
    try:
        nuclide = Nuclide(row["symbol"].strip(), int(row["a"]))
        energy = EnergyValue(_float(row["energy"]), _opt_float(row, "unc_e") or 0.0)
        hl_text = (row.get("half_life_sec") or "").strip()
        if hl_text.upper() == "STABLE":
            half_life = HalfLife.stable()
        elif hl_text:
            half_life = HalfLife(_float(hl_text), _opt_float(row, "unc_hls") or 0.0)
        else:
            half_life = None
        percents = [_opt_float(row, f"decay_{i}_%") for i in (1, 2, 3)]
    except (ValueError, KeyError, TypeError) as exc:
        warnings.append(f"levels line {lineno}: {exc}")
        return None

    # An unknown decay code drops that mode only; the level itself is sound.
    modes: list[tuple[DecayMode, float]] = []
    for i, pct in zip((1, 2, 3), percents):
        code = (row.get(f"decay_{i}") or "").strip()
        if not code:
            continue
        try:
            mode = DecayMode.from_code(code)
        except ValueError as exc:
            warnings.append(f"levels line {lineno}: {exc}")
            continue
        modes.append((mode, pct if pct is not None else 0.0))

    return LevelRecord(
        nuclide=nuclide,
        energy=energy,
        jpi=(row.get("jp") or "").strip() or None,
        half_life=half_life,
        decay_modes=tuple(modes),
    )


def parse_level_scheme(
    levels_raw: RawDataset, transitions_raw: RawDataset | None
) -> tuple[LevelScheme, list[str]]:
    """Cross-validated level scheme; unresolvable transitions are excluded.

    ``transitions_raw`` may be None when the nuclide has no transition dataset
    (single-level schemes); the scheme then has an empty transition table.
    """
    if levels_raw.key.kindcode != KIND_LEVELS:
        raise HeaderMismatch(f"{levels_raw.key.serialize()} is not a levels dataset")
    reader, header = _reader(levels_raw)
    _require_columns(header, _LEVEL_COLUMNS, levels_raw.key.serialize())

    parsed: list[tuple[LevelRecord | None, list[str]]] = []
    for lineno, row in enumerate(reader, start=2):
        row_warnings: list[str] = []
        parsed.append((_parse_level_row(row, lineno, row_warnings), row_warnings))

    # A level matching an earlier kept level is dropped, with a warning naming
    # the first such level; one index over all parsed levels finds them.
    records = [record for record, _ in parsed if record is not None]
    index = EnergyIndex([record.energy for record in records])
    warnings: list[str] = []
    kept: set[int] = set()
    position = 0  # of ``record`` in ``records``
    for record, row_warnings in parsed:
        warnings += row_warnings
        if record is None:
            continue
        clash = next((j for j in index.matches(record.energy) if j in kept), None)
        if clash is None:
            kept.add(position)
        else:
            warnings.append(
                f"{levels_raw.key.serialize()}: level {record.energy.kev} keV "
                f"duplicates {records[clash].energy.kev} keV within tolerance; kept first"
            )
        position += 1
    levels = [record for i, record in enumerate(records) if i in kept]

    if not levels:
        raise HeaderMismatch(f"{levels_raw.key.serialize()}: no level rows")
    nuclide = levels[0].nuclide
    if any(l.nuclide != nuclide for l in levels):
        raise NuclideMismatch(f"{levels_raw.key.serialize()}: mixed nuclides")
    if not any(l.energy.kev == 0 for l in levels):
        warnings.append(f"{levels_raw.key.serialize()}: ground state missing; injected")
        levels.insert(0, LevelRecord(nuclide=nuclide, energy=EnergyValue(0.0)))
    levels.sort(key=lambda l: l.energy.kev)

    scheme = LevelScheme(nuclide=nuclide, levels=levels)
    if transitions_raw is None:
        return scheme, warnings

    if transitions_raw.key.kindcode != KIND_TRANSITIONS:
        raise HeaderMismatch(
            f"{transitions_raw.key.serialize()} is not a transitions dataset"
        )
    if transitions_raw.key.nuclide != levels_raw.key.nuclide:
        raise NuclideMismatch(
            f"levels are {levels_raw.key.serialize()} but transitions are "
            f"{transitions_raw.key.serialize()}"
        )
    t_reader, t_header = _reader(transitions_raw)
    _require_columns(t_header, _TRANSITION_COLUMNS, transitions_raw.key.serialize())
    transitions: list[TransitionRecord] = []
    for lineno, row in enumerate(t_reader, start=2):
        try:
            t_nuclide = Nuclide(row["symbol"].strip(), int(row["a"]))
            start = EnergyValue(
                _float(row["start_level_energy"]), _opt_float(row, "unc_sl") or 0.0
            )
            end = EnergyValue(
                _float(row["end_level_energy"]), _opt_float(row, "unc_el") or 0.0
            )
            gamma = EnergyValue(_float(row["energy"]), _opt_float(row, "unc_en") or 0.0)
            intensity = _opt_float(row, "intensity")
        except (ValueError, KeyError, TypeError) as exc:
            warnings.append(f"{transitions_raw.key.serialize()} line {lineno}: {exc}")
            continue
        if t_nuclide != nuclide:
            raise NuclideMismatch(
                f"{transitions_raw.key.serialize()} line {lineno}: "
                f"row nuclide {t_nuclide} != {nuclide}"
            )
        if start.kev <= end.kev:
            warnings.append(
                f"{transitions_raw.key.serialize()} line {lineno}: "
                f"non-downward transition {start.kev} -> {end.kev}; excluded"
            )
            continue
        if scheme.find_level(start) is None or scheme.find_level(end) is None:
            warnings.append(
                f"{transitions_raw.key.serialize()} line {lineno}: transition "
                f"{start.kev} -> {end.kev} does not resolve to levels; excluded"
            )
            continue
        transitions.append(
            TransitionRecord(
                nuclide=nuclide,
                start_level=start,
                end_level=end,
                gamma_energy=gamma,
                intensity_percent=intensity,
            )
        )
    return LevelScheme(nuclide=nuclide, levels=levels, transitions=transitions), warnings


@dataclass(frozen=True)
class DaughterFeed:
    """One daughter of a parent: who, which levels it is fed at, branching %."""

    daughter: Nuclide
    feeding_levels: tuple[EnergyValue, ...]
    branching_percent: float


def extract_daughters(records: list[DecayRecord]) -> list[DaughterFeed]:
    """Tally the duplicate-free daughter set of one parent's decay records.

    Feeding levels combine particle-row fed levels with gamma-row start
    levels (gamma end levels are established later by cascade simulation).
    Self-referencing rows (isomeric transitions) contribute level feeds to
    the parent itself but never a daughter entry. Output is sorted by
    (mass number, element) and is independent of input row order.
    """
    if not records:
        return []
    parent = records[0].parent.ground_state
    feeds: dict[Nuclide, dict[float, EnergyValue]] = {}
    branching: dict[Nuclide, float] = {}
    for rec in records:
        daughter = rec.daughter.ground_state
        if daughter == parent:
            continue
        level_pool = feeds.setdefault(daughter, {})
        if rec.radiation is RadiationType.GAMMA:
            if rec.start_level is not None:
                level_pool.setdefault(rec.start_level.kev, rec.start_level)
        elif rec.daughter_feeding_level is not None:
            level_pool.setdefault(
                rec.daughter_feeding_level.kev, rec.daughter_feeding_level
            )
        current = branching.get(daughter, 0.0)
        branching[daughter] = max(current, rec.branching_percent)

    out = []
    for daughter in sorted(feeds, key=lambda n: (n.mass_number, n.element)):
        levels = tuple(
            sorted(feeds[daughter].values(), key=lambda e: e.kev, reverse=True)
        )
        out.append(DaughterFeed(daughter, levels, branching[daughter]))
    return out
