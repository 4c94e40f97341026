"""The csv.reader parsers of nuclibgen.records against the csv.DictReader
parsers they replaced, kept below verbatim: on random headers and rows
(duplicate and absent columns, blank, short and long rows, bad numbers, ids
and decay codes) both give equal records, schemes, warnings and dataset
errors. Rows the old parsers crashed on (a missing symbol or decay cell,
a bad element symbol or mass number) are compared with those rows left out,
and must each become one warning of the new parsers. The old level-row
warnings ("levels line 3: ...") are compared under the dataset key that the
new parser names them by ("99tc:lv line 3: ..."). A scheme is compared by its
nuclide, levels, isomers and cascade graph: every scheme the new parser builds
must carry the graph a linear scan links from the transitions the old parser
kept. The old parsers build a `TableScheme`, which keeps its transition table,
unlinked, as the LevelScheme of their time did, in the `TransitionRecord`s of
their time. Their other changes follow the new parsers' rules: a negative
intensity, intensity uncertainty or decay percentage (`_nonnegative`) skips
its row, and the records no longer hold a decay row's decay mode and end level
or a level row's spin-parity, though the decay code and end level are still
read and checked. A decay or level row whose cells parse but name another
nuclide than its dataset key (the random rows draw ``Ru``) raises
NuclideMismatch naming the key and line, as a transition row of another
nuclide did; this replaces the old "mixed nuclides" check, and a scheme takes
its key's nuclide.
"""

import csv
import io
import math
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from nuclibgen import records as new
from nuclibgen.dataaccess import KIND_LEVELS, KIND_TRANSITIONS, DatasetKey, RawDataset
from nuclibgen.errors import HeaderMismatch, NuclideMismatch
from nuclibgen.nuclide import (
    DecayMode,
    EnergyIndex,
    EnergyValue,
    HalfLife,
    Nuclide,
    RadiationType,
    energies_match,
)
from nuclibgen.records import (
    _DECAY_COLUMNS,
    _LEVEL_COLUMNS,
    _TRANSITION_COLUMNS,
    FLAG_NO_INTENSITY,
    FLAG_NO_UNCERTAINTY,
    DecayRecord,
    LevelRecord,
    LevelScheme,
)

from conftest import DR_COLUMNS, LV_COLUMNS, TR_COLUMNS


class TransitionRecord(NamedTuple):
    """One downward electromagnetic transition between two levels."""

    nuclide: Nuclide
    start_level: EnergyValue
    end_level: EnergyValue
    gamma_energy: EnergyValue
    intensity_percent: float | None = None


class TableScheme(LevelScheme):
    """A LevelScheme that keeps, unlinked, the transition table it is built from."""

    def __init__(self, nuclide, levels, transitions=()):
        super().__init__(nuclide, levels)
        self.transitions = list(transitions)


# --- the DictReader parsers, verbatim -------------------------------------------

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


def _nonnegative(value: float | None) -> float | None:
    """``value``, which must not be negative when present."""
    if value is not None and value < 0:
        raise ValueError(f"negative value {value:g}")
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
            DecayMode.from_code(row["decay"])
            branching = _nonnegative(_float(row["decay_%"]))

            flags = set()
            intensity = _nonnegative(_opt_float(row, "intensity"))
            if intensity is None:
                flags.add(FLAG_NO_INTENSITY)
            intensity_unc = _nonnegative(_opt_float(row, "unc_i"))
            if intensity is not None and intensity_unc is None:
                flags.add(FLAG_NO_UNCERTAINTY)

            hl_s = _opt_float(row, "half_life_sec")
            half_life = None
            if hl_s is not None:
                half_life = HalfLife(hl_s, _opt_float(row, "unc_hls") or 0.0)

            fed = _opt_float(row, "daughter_level_energy")
            start = _opt_float(row, "start_level_energy")
            end = _opt_float(row, "end_level_energy")
            fed, start, end = (None if e is None else EnergyValue(e) for e in (fed, start, end))
            _check_nuclide(parent, raw.key, lineno)
            records.append(
                DecayRecord(
                    parent=parent,
                    parent_level=parent_level,
                    radiation=rad,
                    energy=energy,
                    intensity_percent=intensity,
                    intensity_unc=intensity_unc or 0.0,
                    daughter=daughter,
                    daughter_feeding_level=fed,
                    branching_percent=branching,
                    half_life=half_life,
                    start_level=start,
                    flags=frozenset(flags),
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            warnings.append(f"{raw.key.serialize()} line {lineno}: {exc}")
    return records, warnings


def _check_nuclide(nuclide: Nuclide, key: DatasetKey, lineno: int) -> None:
    if nuclide != key.nuclide:
        raise NuclideMismatch(
            f"{key.serialize()} line {lineno}: row nuclide {nuclide} != {key.nuclide}"
        )


def _parse_level_row(
    row: dict, key: DatasetKey, lineno: int, warnings: list[str]
) -> LevelRecord | None:
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
        percents = [_nonnegative(_opt_float(row, f"decay_{i}_%")) for i in (1, 2, 3)]
    except (ValueError, KeyError, TypeError) as exc:
        warnings.append(f"levels line {lineno}: {exc}")
        return None
    _check_nuclide(nuclide, key, lineno)

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
        parsed.append(
            (_parse_level_row(row, levels_raw.key, lineno, row_warnings), row_warnings)
        )

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
    nuclide = levels_raw.key.nuclide
    if not any(l.energy.kev == 0 for l in levels):
        warnings.append(f"{levels_raw.key.serialize()}: ground state missing; injected")
        levels.insert(0, LevelRecord(nuclide=nuclide, energy=EnergyValue(0.0)))
    levels.sort(key=lambda l: l.energy.kev)

    scheme = TableScheme(nuclide=nuclide, levels=levels)
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
            intensity = _nonnegative(_opt_float(row, "intensity"))
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
    return TableScheme(nuclide=nuclide, levels=levels, transitions=transitions), warnings


# --- random datasets ------------------------------------------------------------

GOOD = {
    "number": st.sampled_from(["0", "0.0", "1.5", " 2.5 ", "140.5", "140.9", "142.68",
                               "100"]),
    "symbol": st.sampled_from(["Tc", "tc", " Tc "]),
    "mass": st.sampled_from(["99", " 99 "]),
    "decay": st.sampled_from(["A", "B-", "b+", "EC", "IT", " it "]),
    "half_life": st.sampled_from(["1000", "2.5", "STABLE", "stable"]),
    "jp": st.sampled_from(["", "1/2+", " 0+ "]),
}
BAD = {
    "number": st.sampled_from(["-1", "abc", "", " ", "nan", "inf", "1e400"]),
    "symbol": st.sampled_from(["Ru", "0", "Xx", "", " "]),
    "mass": st.sampled_from(["98", "0", "301", "abc", "", "2.5"]),
    "decay": st.sampled_from(["XX", "", " "]),
    "half_life": st.sampled_from(["-1", "abc", "", "nan"]),
    "jp": st.just(""),
}
KINDS = {
    "p_symbol": "symbol", "d_symbol": "symbol", "symbol": "symbol",
    "p_a": "mass", "d_a": "mass", "a": "mass", "decay": "decay", "decay_1": "decay",
    "decay_2": "decay", "decay_3": "decay", "half_life_sec": "half_life", "jp": "jp",
}


@st.composite
def tables(draw, columns, required):
    """A header (optional columns maybe dropped, a column maybe named twice)
    and 1-6 rows, each with a few bad cells, maybe blank, cut short or
    given extra cells."""
    optional = [col for col in columns if col not in required]
    dropped = draw(st.sets(st.sampled_from(optional)))
    header = [col for col in columns if col not in dropped]
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(header)))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        bad = draw(st.sets(st.integers(min_value=0, max_value=len(header) - 1),
                           max_size=2))
        row = [draw((BAD if i in bad else GOOD)[KINDS.get(col, "number")])
               for i, col in enumerate(header)]
        length = draw(st.one_of(
            st.just(len(row)), st.integers(min_value=0, max_value=len(row) + 2)))
        rows.append(row[:length] + ["9"] * (length - len(row)))
    return header, rows


def body(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def line_numbers(rows) -> list[int | None]:
    """Each row's line number as the parsers count them; None for blank rows."""
    numbers, lineno = [], 1
    for row in rows:
        if row:
            lineno += 1
        numbers.append(lineno if row else None)
    return numbers


def outcome(parse, *raws):
    """The parse result, or the dataset error it raised; any other exception
    is a crash and propagates."""
    try:
        return parse(*raws)
    except (HeaderMismatch, NuclideMismatch) as exc:
        return type(exc).__name__, str(exc)


def crashes(parse, *raws) -> bool:
    try:
        outcome(parse, *raws)
    except Exception:
        return True
    return False


def graph(scheme: LevelScheme):
    """The level energies, edges and isomers of a scheme."""
    return [record.energy for record in scheme.levels], scheme.edges, scheme.isomers


def reference_link(scheme: TableScheme):
    """The level energies, edges and isomers of a scheme the old parser built,
    linked by linear scans over its kept transitions: each transition goes
    from every level that matches its start (matches) to the level find_level
    gives for its end (position), the closest matching level, the earliest of
    equally close."""
    energies = [record.energy for record in scheme.levels]

    def position(energy):
        near = [i for i, e in enumerate(energies) if energies_match(e, energy)]
        return min(near, key=lambda i: abs(energies[i].kev - energy.kev))

    edges = [[position(t.end_level) for t in scheme.transitions
              if energies_match(t.start_level, energy)] for energy in energies]
    isomers = sorted((record for record in scheme.levels if record.is_isomer),
                     key=lambda record: record.energy.kev)
    return energies, edges, isomers


def comparable(result):
    """An outcome with its scheme, if any, as (nuclide, levels, graph):
    LevelScheme equality does not compare the graph. The graph of the old
    parser's TableScheme is the reference link of its table."""
    if isinstance(result[0], LevelScheme):
        scheme = result[0]
        link = reference_link if isinstance(scheme, TableScheme) else graph
        return (scheme.nuclide, scheme.levels, link(scheme)), result[1]
    return result


def check_equivalent(make_raws, old_parse, new_parse, header, rows, key_text):
    """Equal outcomes without the rows the old parser crashed on; with them,
    the new parser warns once per such row, crashes on none and builds the
    same scheme. Every scheme the new parser builds is linked as
    reference_link links the old parser's table."""
    crashed = {i for i, row in enumerate(rows)
               if row and crashes(old_parse, *make_raws(body(header, [row])))}
    kept = [row for i, row in enumerate(rows) if i not in crashed]
    raws = make_raws(body(header, kept))
    kept_result, old_result = outcome(new_parse, *raws), outcome(old_parse, *raws)
    assert comparable(kept_result) == comparable(old_result)

    result = outcome(new_parse, *make_raws(body(header, rows)))
    if isinstance(result[0], LevelScheme):
        assert comparable(result)[0] == comparable(kept_result)[0]
    numbers = line_numbers(rows)
    for i in sorted(crashed):
        if isinstance(result, tuple) and isinstance(result[0], str):
            break  # a dataset error, as for a dataset of only crashed rows
        prefix = f"{key_text} line {numbers[i]}: "
        assert sum(w.startswith(prefix) for w in result[1]) == 1, (prefix, result[1])


TC99 = Nuclide("Tc", 99)
DR_KEY = DatasetKey.decay_rads(TC99, RadiationType.GAMMA)
LV_KEY = DatasetKey.levels(TC99)
TR_KEY = DatasetKey.transitions(TC99)
GOOD_LEVELS = RawDataset(LV_KEY, "symbol,a,energy,half_life_sec,decay_1\n"
                         "Tc,99,0,STABLE,\nTc,99,140.5,,\nTc,99,142.68,1000,IT\n", "cache")


@settings(max_examples=300, deadline=None)
@given(tables(DR_COLUMNS, _DECAY_COLUMNS))
def test_decay_parser_matches_dictreader_parser(table):
    check_equivalent(lambda text: (RawDataset(DR_KEY, text, "cache"),),
                     parse_decay_records, new.parse_decay_records, *table,
                     DR_KEY.serialize())


def keyed_level_scheme(levels_raw, transitions_raw):
    """The DictReader level parser, its level-row warnings named by the levels
    dataset key ("99tc:lv line 3: ...") as the new parser names them."""
    scheme, warnings = parse_level_scheme(levels_raw, transitions_raw)
    key = levels_raw.key.serialize()
    return scheme, [key + w[len("levels"):] if w.startswith("levels line ") else w
                    for w in warnings]


@settings(max_examples=300, deadline=None)
@given(tables(LV_COLUMNS, _LEVEL_COLUMNS))
def test_level_parser_matches_dictreader_parser(table):
    check_equivalent(lambda text: (RawDataset(LV_KEY, text, "cache"), None),
                     keyed_level_scheme, new.parse_level_scheme, *table,
                     LV_KEY.serialize())


@settings(max_examples=300, deadline=None)
@given(tables(TR_COLUMNS, _TRANSITION_COLUMNS))
def test_transition_parser_matches_dictreader_parser(table):
    check_equivalent(lambda text: (GOOD_LEVELS, RawDataset(TR_KEY, text, "cache")),
                     keyed_level_scheme, new.parse_level_scheme, *table,
                     TR_KEY.serialize())


# Level energies 0.4-0.8 keV apart: some levels are dropped as duplicates, and
# a transition start with a wide uncertainty matches several kept levels.
CROWDED_KEV = ["0", "139.9", "140.5", "140.9", "141.7", "142.5", "143.3", "150"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CROWDED_KEV), st.sampled_from(["", "0", "0.3"]),
                          st.sampled_from(["", "1e-12", "2.5", "1000"])),
                min_size=3, max_size=8),
       st.lists(st.tuples(st.sampled_from(CROWDED_KEV), st.sampled_from(["", "0.1", "1.2"]),
                          st.sampled_from(CROWDED_KEV), st.sampled_from(["", "0.1"])),
                min_size=4, max_size=14))
def test_parsed_cascade_graph_matches_reference_link(levels, transitions):
    """Near-duplicate levels, transitions whose start matches several levels
    and start and end cells repeated across rows: the scheme the parser links
    as it reads is the reference link of the transitions the old parser kept."""
    lv = RawDataset(LV_KEY, body(
        ["symbol", "a", "energy", "unc_e", "half_life_sec", "decay_1"],
        [["Tc", "99", kev, unc, hl, ""] for kev, unc, hl in levels]), "cache")
    tr = RawDataset(TR_KEY, body(
        ["symbol", "a", "start_level_energy", "unc_sl", "end_level_energy", "unc_el",
         "energy"],
        [["Tc", "99", start, unc_s, end, unc_e, "1"]
         for start, unc_s, end, unc_e in transitions]), "cache")
    result, old_result = new.parse_level_scheme(lv, tr), keyed_level_scheme(lv, tr)
    assert comparable(result) == comparable(old_result)
