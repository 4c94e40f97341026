"""Parse raw CSV datasets into typed records.

The endpoint's CSV contract:

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

Row errors. A dataset whose header lacks a required column, or that the CSV
reader rejects (a lone carriage return in an unquoted cell, a field longer
than the reader's limit), raises HeaderMismatch. A row is skipped with a
warning that names its dataset key (``225ac:lv line 16: ...``) and line when
one of its cells is bad: a number that does not parse, is non-finite or is out
of range; an unknown element symbol or a mass number outside 1..300; an
unknown decay code in a decay row; or a required cell the row is too short to
have. Lines are numbered from the header, line 1; blank rows are skipped and
take no number. Header names are stripped; of a column named twice, the last
wins. Cells beyond the header are ignored, and an optional cell that is
absent, short or blank reads as empty. In a level row an unknown decay code
drops only that mode. A transition row of another nuclide raises
NuclideMismatch; an upward or unresolvable transition is excluded with a
warning.

A LevelScheme keeps its levels and their cascade graph, not the transition
table: the parser links each transition row it keeps as it reads it and stores
no row, so a transition's gamma energy and intensity are checked (a bad one
skips the row with a warning) but not kept. Each distinct start or end energy
is looked up once in the scheme's level index. Only a level whose lookup
window holds another level is checked for a duplicate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import InitVar, dataclass
from functools import partial
from math import isfinite
from operator import itemgetter
from typing import NamedTuple

from .dataaccess import KIND_LEVELS, KIND_TRANSITIONS, RawDataset
from .errors import HeaderMismatch, MalformedId, NuclideMismatch
from .nuclide import (
    DecayMode,
    EnergyIndex,
    EnergyValue,
    HalfLife,
    Nuclide,
    PerValue,
    RadiationType,
    energies_match,
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


class DecayRecord(NamedTuple):
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


class LevelRecord(NamedTuple):
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


class TransitionRecord(NamedTuple):
    """One downward electromagnetic transition between two levels."""

    nuclide: Nuclide
    start_level: EnergyValue
    end_level: EnergyValue
    gamma_energy: EnergyValue
    intensity_percent: float | None = None


@dataclass
class LevelScheme:
    """A nuclide's energy levels resolved into a cascade graph: pass the final
    levels. The scheme keeps the graph, not the transition table: the
    ``transitions`` passed are linked when it is built, and the parser links
    each row it keeps as it reads it.

    Node i is ``levels[i]``, with energy ``nodes[i]``, and ``edges[i]`` lists in
    table order the end nodes of the transitions whose start matches node i. A
    transition ends at the node of find_level(end). An end that matches no
    level (only in a hand-built scheme: the parser excludes such rows) is a node
    of its own past the levels, left by the transitions whose start matches it.
    Equality compares the nuclide and the levels only."""

    nuclide: Nuclide
    levels: list[LevelRecord]
    transitions: InitVar[list[TransitionRecord]]

    def __post_init__(self, transitions: list[TransitionRecord]):
        self._index()
        # Isomer levels ascending in energy; the 1-based ordinal is the 'm' numbering.
        self.isomers = sorted(
            (rec for rec in self.levels if rec.is_isomer), key=lambda rec: rec.energy.kev
        )
        self.nodes = [record.energy for record in self.levels]
        self.edges = [[] for _ in self.levels]
        for t in transitions:
            self._link(t.start_level, t.end_level)
        self.edges += [
            [self._ends[t.end_level] for t in transitions
             if energies_match(t.start_level, node)]
            for node in self.nodes[len(self.levels):]
        ]

    def _index(self) -> None:
        self._hits = PerValue(EnergyIndex([l.energy for l in self.levels]).matches)
        self._ends = PerValue(self._end_node)

    def __getstate__(self) -> dict:
        # The lookup memos hold bound methods, which a stored parse may not
        # name; they are rebuilt, empty, on load.
        return {name: value for name, value in vars(self).items()
                if name not in ("_hits", "_ends")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._index()

    def _matches(self, energy: EnergyValue) -> list[int]:
        """Positions of the levels matching ``energy``, looked up once per energy."""
        return self._hits[energy]

    def _end_node(self, end: EnergyValue) -> int:
        """The node of find_level(end); an end that matches no level becomes a
        node past the levels."""
        node = self.position(end)
        if node is None:
            node = len(self.nodes)
            self.nodes.append(end)
        return node

    def _link(self, start: EnergyValue, end: EnergyValue) -> None:
        """Add the edges of one transition; each end is resolved once."""
        end = self._ends[end]
        for i in self._matches(start):
            self.edges[i].append(end)

    def position(self, energy: EnergyValue) -> int | None:
        """The position in ``levels`` of find_level(energy), or None."""
        return min(self._matches(energy), default=None,
                   key=lambda i: abs(self.levels[i].energy.kev - energy.kev))

    def find_level(self, energy: EnergyValue) -> LevelRecord | None:
        """The closest level matching ``energy`` within tolerance, or None;
        of equally close levels the earliest in ``levels`` wins."""
        i = self.position(energy)
        return None if i is None else self.levels[i]


def _require_columns(header: list[str], required: tuple[str, ...], key: str) -> None:
    missing = [col for col in required if col not in header]
    if missing:
        raise HeaderMismatch(f"{key}: missing columns {missing}")


def _table(raw: RawDataset, required: tuple[str, ...], columns: tuple[str, ...]):
    """Check the header of ``raw`` and return its rows plus a picker that reads
    ``columns`` from a row of ``_rows`` as one tuple. A column named twice is
    read from its last occurrence; an absent column reads as None."""
    key = raw.key.serialize()
    reader = csv.reader(io.StringIO(raw.body))
    try:
        header = [name.strip() for name in next(reader, [])]
    except csv.Error as exc:
        raise HeaderMismatch(f"{key} line 1: {exc}") from exc
    _require_columns(header, required, key)
    position = {name: i for i, name in enumerate(header)}
    width = len(header)
    pick = itemgetter(*(position.get(col, width) for col in columns))
    return _rows(reader, width, key), pick


_ABSENT = (None,)


def _rows(reader, width: int, key: str):
    """(line number, cells) of each non-blank row; the header is line 1 and
    blank rows take no number. ``cells`` has ``width + 1`` items: a short row
    is padded with None, extra cells are dropped, and the last item is the
    None that absent columns read. A row the CSV reader rejects raises
    HeaderMismatch naming ``key`` and its line."""
    pad = [None] * (width + 1)
    lineno = 1
    try:
        for row in reader:
            if not row:
                continue
            lineno += 1
            if len(row) <= width:
                row += pad[len(row):]
            else:
                row[width:] = _ABSENT
            yield lineno, row
    except csv.Error as exc:
        raise HeaderMismatch(f"{key} line {lineno + 1}: {exc}") from exc


def _float(text: str) -> float:
    """A finite float; NaN and infinities raise ValueError like bad text."""
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"non-finite value {text.strip()!r}")
    return value


def _opt_float(text: str | None) -> float | None:
    """The float of an optional cell; None when it is absent or blank."""
    if not text:
        return None
    text = text.strip()
    if not text:
        return None
    return _float(text)


def _nuclide(column: str, cells: tuple[str | None, str | None]) -> Nuclide:
    """The nuclide of a (symbol, A) cell pair; ``column`` names the symbol cell."""
    symbol, mass = cells
    if symbol is None:
        raise ValueError(f"short row: no {column!r} cell")
    return Nuclide(symbol.strip(), int(mass))


def _energy(cells: tuple[str | None, str | None]) -> EnergyValue:
    """The energy of a mandatory (value, uncertainty) cell pair."""
    kev, unc = cells
    return EnergyValue(_float(kev), _opt_float(unc) or 0.0)


def _decay_mode(code: str | None) -> DecayMode:
    if code is None:
        raise ValueError("short row: no 'decay' cell")
    return DecayMode.from_code(code)


def _half_life(cells: tuple[str | None, str | None]) -> HalfLife | None:
    """The half-life of an optional (seconds, uncertainty) cell pair."""
    seconds = _opt_float(cells[0])
    return None if seconds is None else HalfLife(seconds, _opt_float(cells[1]) or 0.0)


_NO_FLAGS = frozenset()
_FLAGS_NO_INTENSITY = frozenset({FLAG_NO_INTENSITY})
_FLAGS_NO_UNCERTAINTY = frozenset({FLAG_NO_UNCERTAINTY})

_DECAY_CELLS = (
    "p_symbol", "p_a", "d_symbol", "d_a", "energy", "unc_en", "p_energy", "unc_pe",
    "decay", "decay_%", "intensity", "unc_i", "half_life_sec", "unc_hls",
    "daughter_level_energy", "start_level_energy", "end_level_energy",
)


def parse_decay_records(raw: RawDataset) -> tuple[list[DecayRecord], list[str]]:
    """Parse a decay-radiation dataset into records plus parse warnings.

    Rows with unparseable mandatory fields are reported in the warnings list
    and skipped; returned order preserves file order.
    """
    rad = raw.key.radiation
    if rad is None:
        raise HeaderMismatch(f"{raw.key.serialize()} is not a decay-radiation dataset")
    rows, pick = _table(raw, _DECAY_COLUMNS, _DECAY_CELLS)

    records: list[DecayRecord] = []
    warnings: list[str] = []
    parents = PerValue(partial(_nuclide, "p_symbol"))
    daughters = PerValue(partial(_nuclide, "d_symbol"))
    parent_levels = PerValue(_energy)
    modes = PerValue(_decay_mode)
    half_lives = PerValue(_half_life)
    floats = PerValue(_opt_float)
    levels = PerValue(lambda text: None if floats[text] is None else EnergyValue(floats[text]))
    for lineno, row in rows:
        (p_symbol, p_a, d_symbol, d_a, energy, unc_en, p_energy, unc_pe, decay,
         decay_pct, intensity, unc_i, hl_s, unc_hls, fed, start, end) = pick(row)
        try:
            parent = parents[p_symbol, p_a]
            daughter = daughters[d_symbol, d_a]
            energy = EnergyValue(_float(energy), _opt_float(unc_en) or 0.0)
            parent_level = parent_levels[p_energy, unc_pe]
            mode = modes[decay]
            branching = _float(decay_pct)

            intensity = _opt_float(intensity)
            intensity_unc = _opt_float(unc_i)
            if intensity is None:
                flags = _FLAGS_NO_INTENSITY
            elif intensity_unc is None:
                flags = _FLAGS_NO_UNCERTAINTY
            else:
                flags = _NO_FLAGS

            half_life = half_lives[hl_s, unc_hls]
            floats[fed], floats[start], floats[end]  # a bad number before a negative one
            fed, start, end = levels[fed], levels[start], levels[end]
            records.append(DecayRecord(
                parent, parent_level, rad, energy, intensity, intensity_unc or 0.0,
                daughter, fed, mode, branching, half_life, start, end, flags,
            ))
        except (ValueError, TypeError, MalformedId) as exc:
            warnings.append(f"{raw.key.serialize()} line {lineno}: {exc}")
    return records, warnings


_LEVEL_CELLS = (
    "symbol", "a", "energy", "unc_e", "half_life_sec", "unc_hls",
    "decay_1_%", "decay_2_%", "decay_3_%", "decay_1", "decay_2", "decay_3", "jp",
)


def _parse_level_row(
    cells: tuple, key: str, lineno: int, warnings: list[str], nuclides: PerValue
) -> LevelRecord | None:
    (symbol, a, energy, unc_e, hl_text, unc_hls,
     pct_1, pct_2, pct_3, code_1, code_2, code_3, jp) = cells
    try:
        nuclide = nuclides[symbol, a]
        energy = EnergyValue(_float(energy), _opt_float(unc_e) or 0.0)
        hl_text = (hl_text or "").strip()
        if hl_text.upper() == "STABLE":
            half_life = HalfLife.stable()
        elif hl_text:
            half_life = HalfLife(_float(hl_text), _opt_float(unc_hls) or 0.0)
        else:
            half_life = None
        percents = (_opt_float(pct_1), _opt_float(pct_2), _opt_float(pct_3))
    except (ValueError, TypeError, MalformedId) as exc:
        warnings.append(f"{key} line {lineno}: {exc}")
        return None

    # An unknown decay code drops that mode only; the level itself is sound.
    modes: list[tuple[DecayMode, float]] = []
    for code, pct in zip((code_1, code_2, code_3), percents):
        code = (code or "").strip()
        if not code:
            continue
        try:
            mode = DecayMode.from_code(code)
        except ValueError as exc:
            warnings.append(f"{key} line {lineno}: {exc}")
            continue
        modes.append((mode, pct if pct is not None else 0.0))

    return LevelRecord(nuclide, energy, (jp or "").strip() or None, half_life, tuple(modes))


_TRANSITION_CELLS = (
    "symbol", "a", "start_level_energy", "unc_sl", "end_level_energy", "unc_el",
    "energy", "unc_en", "intensity",
)


def parse_level_scheme(
    levels_raw: RawDataset, transitions_raw: RawDataset | None
) -> tuple[LevelScheme, list[str]]:
    """Cross-validated level scheme; unresolvable transitions are excluded.

    ``transitions_raw`` may be None when the nuclide has no transition dataset
    (single-level schemes); the scheme then has no edges.
    """
    key = levels_raw.key.serialize()
    if levels_raw.key.kindcode != KIND_LEVELS:
        raise HeaderMismatch(f"{key} is not a levels dataset")
    rows, pick = _table(levels_raw, _LEVEL_COLUMNS, _LEVEL_CELLS)

    nuclides = PerValue(partial(_nuclide, "symbol"))
    parsed: list[tuple[LevelRecord | None, list[str]]] = []
    for lineno, row in rows:
        row_warnings: list[str] = []
        parsed.append(
            (_parse_level_row(pick(row), key, lineno, row_warnings, nuclides), row_warnings)
        )

    # A level matching an earlier kept level is dropped, with a warning naming
    # the first such level; one index over all parsed levels finds them.
    # Only a level whose lookup window holds another level can clash.
    records = [record for record, _ in parsed if record is not None]
    index = EnergyIndex([record.energy for record in records])
    crowded = index.crowded()
    warnings: list[str] = []
    kept: set[int] = set()
    position = 0  # of ``record`` in ``records``
    for record, row_warnings in parsed:
        warnings += row_warnings
        if record is None:
            continue
        clash = None
        if position in crowded:
            clash = next((j for j in index.matches(record.energy) if j in kept), None)
        if clash is None:
            kept.add(position)
        else:
            warnings.append(
                f"{key}: level {record.energy.kev} keV duplicates "
                f"{records[clash].energy.kev} keV within tolerance; kept first"
            )
        position += 1
    levels = [record for i, record in enumerate(records) if i in kept]

    if not levels:
        raise HeaderMismatch(f"{key}: no level rows")
    nuclide = levels[0].nuclide
    if any(l.nuclide != nuclide for l in levels):
        raise NuclideMismatch(f"{key}: mixed nuclides")
    if not any(l.energy.kev == 0 for l in levels):
        warnings.append(f"{key}: ground state missing; injected")
        levels.insert(0, LevelRecord(nuclide=nuclide, energy=EnergyValue(0.0)))
    levels.sort(key=lambda l: l.energy.kev)

    scheme = LevelScheme(nuclide, levels, [])
    if transitions_raw is None:
        return scheme, warnings

    if transitions_raw.key.kindcode != KIND_TRANSITIONS:
        raise HeaderMismatch(
            f"{transitions_raw.key.serialize()} is not a transitions dataset"
        )
    if transitions_raw.key.nuclide != levels_raw.key.nuclide:
        raise NuclideMismatch(
            f"levels are {key} but transitions are {transitions_raw.key.serialize()}"
        )
    t_rows, t_pick = _table(transitions_raw, _TRANSITION_COLUMNS, _TRANSITION_CELLS)
    t_key = transitions_raw.key.serialize()
    energies = PerValue(_energy)
    for lineno, row in t_rows:
        (symbol, a, start, unc_sl, end, unc_el, gamma, unc_en, intensity) = t_pick(row)
        try:
            t_nuclide = nuclides[symbol, a]
            start = energies[start, unc_sl]
            end = energies[end, unc_el]
            # The gamma and intensity cells are checked, not kept.
            EnergyValue(_float(gamma), _opt_float(unc_en) or 0.0)
            _opt_float(intensity)
        except (ValueError, TypeError, MalformedId) as exc:
            warnings.append(f"{t_key} line {lineno}: {exc}")
            continue
        if t_nuclide != nuclide:
            raise NuclideMismatch(
                f"{t_key} line {lineno}: row nuclide {t_nuclide} != {nuclide}"
            )
        if start.kev <= end.kev:
            warnings.append(
                f"{t_key} line {lineno}: "
                f"non-downward transition {start.kev} -> {end.kev}; excluded"
            )
            continue
        if not (scheme._matches(start) and scheme._matches(end)):
            warnings.append(
                f"{t_key} line {lineno}: transition "
                f"{start.kev} -> {end.kev} does not resolve to levels; excluded"
            )
            continue
        scheme._link(start, end)
    return scheme, warnings


class DaughterFeed(NamedTuple):
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
