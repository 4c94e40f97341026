import pytest

from nuclibgen.dataaccess import DatasetKey, RawDataset
from nuclibgen.errors import DataUnavailable
from nuclibgen.levels import cascade_visit, flatten_levels
from nuclibgen.nuclide import (
    DecayMode, EnergyIndex, EnergyValue, LevelSpec, Nuclide, parse_nuclide_id,
)
from nuclibgen.records import LevelRecord, LevelScheme, parse_level_scheme
from nuclibgen.chains import resolve_level_spec

from conftest import CORPUS, parse_scheme
import test_parse_equivalence
import test_properties


@pytest.fixture(scope="module")
def tc99(primed_store):
    n = Nuclide("Tc", 99)
    scheme, _ = parse_level_scheme(
        primed_store.fetch_dataset(DatasetKey.levels(n)),
        primed_store.fetch_dataset(DatasetKey.transitions(n)),
    )
    return scheme


def linear_scheme(levels):
    """L[n] -> L[n-1] -> ... -> L[0] toy scheme."""
    descending = sorted(levels, reverse=True)
    return parse_scheme(Nuclide("Fe", 56), levels, zip(descending, descending[1:]))


def test_cascade_visits_the_five_tc99_levels(tc99):
    starts = [EnergyValue(920.619), EnergyValue(509.11), EnergyValue(142.6836)]
    visited = {e.kev for e in cascade_visit(starts, tc99)}
    for expected in (761.782, 534.44, 181.094, 140.511, 0.0):
        assert expected in visited


def test_cascade_empty_transition_table():
    scheme = LevelScheme(
        nuclide=Nuclide("Fe", 56),
        levels=[LevelRecord(nuclide=Nuclide("Fe", 56), energy=EnergyValue(0.0))],
    )
    starts = [EnergyValue(0.0)]
    assert [e.kev for e in cascade_visit(starts, scheme)] == [0.0]


def test_cascade_linear_three_levels():
    scheme = linear_scheme([0.0, 100.0, 250.0])
    visited = {e.kev for e in cascade_visit([EnergyValue(250.0)], scheme)}
    assert visited == {250.0, 100.0, 0.0}


def test_cascade_output_sorted_descending(tc99):
    visited = cascade_visit([EnergyValue(920.619)], tc99)
    kevs = [e.kev for e in visited]
    assert kevs == sorted(kevs, reverse=True)


def test_unresolved_start_is_reported_not_fatal(tc99):
    warnings = []
    visited = cascade_visit([EnergyValue(5000.0)], tc99, warnings)
    assert any("matches no level" in w for w in warnings)
    assert 5000.0 in {e.kev for e in visited}


def test_flatten_default_ground_for_progenitor(tc99):
    flat = flatten_levels([EnergyValue(0.0)], tc99)
    assert flat.contains(EnergyValue(0.0))


def test_flatten_tc99_inherited_isomer(tc99):
    flat = flatten_levels([EnergyValue(142.6836)], tc99)
    for expected in (142.6836, 140.511, 0.0):
        assert flat.contains(EnergyValue(expected))


def test_flatten_without_cascade_is_inherited_only(tc99):
    """A scheme with no transitions reaches no level beyond those fed."""
    levels_only = LevelScheme(nuclide=tc99.nuclide, levels=tc99.levels)
    flat = flatten_levels([EnergyValue(142.6836)], levels_only)
    assert not flat.contains(EnergyValue(140.511))
    assert not flat.contains(EnergyValue(0.0))


def test_lu177_m4_resolves_to_paper_energy(primed_store):
    n = Nuclide("Lu", 177)
    scheme, _ = parse_level_scheme(
        primed_store.fetch_dataset(DatasetKey.levels(n)),
        primed_store.fetch_dataset(DatasetKey.transitions(n)),
    )
    resolved = resolve_level_spec(LevelSpec.meta(4), scheme)
    assert resolved.kev == pytest.approx(970.1757)


def test_metastable_ordinal_without_levels_is_data_unavailable():
    with pytest.raises(DataUnavailable, match="without a level dataset"):
        resolve_level_spec(LevelSpec.meta(1), None)


def test_outcomes_tc99_isomer(tc99):
    """A level is feasible iff the flattened set contains it, and an isomer
    iff its record says so."""
    flat = flatten_levels([EnergyValue(142.6836)], tc99)
    by_kev = {record.energy.kev: record for record in tc99.levels}

    isomer = by_kev[142.6836]
    assert flat.contains(isomer.energy) and isomer.is_isomer
    assert {m for m, _ in isomer.decay_modes} == {DecayMode.IT, DecayMode.BETA_MINUS}

    ground = by_kev[0.0]
    assert flat.contains(ground.energy) and not ground.is_isomer
    assert {m for m, _ in ground.decay_modes} == {DecayMode.BETA_MINUS}

    # 140.511 keV: reached by cascade, too short-lived to be an isomer
    medical = by_kev[140.511]
    assert flat.contains(medical.energy) and not medical.is_isomer

    # unfed high level is excluded
    assert not flat.contains(by_kev[920.619].energy) or 920.619 in {
        e.kev for e in flat.all
    }


def test_outcomes_ground_only_nuclide():
    n = Nuclide("Sr", 90)
    scheme = LevelScheme(
        nuclide=n,
        levels=[LevelRecord(nuclide=n, energy=EnergyValue(0.0),
                            decay_modes=((DecayMode.BETA_MINUS, 100.0),))],
    )
    flat = flatten_levels([EnergyValue(0.0)], scheme)
    [ground] = scheme.levels
    assert flat.contains(ground.energy) and not ground.is_isomer


# --- the cascade graph against the linear scan, on every fixture scheme ----------

def fixture_schemes():
    """(name, parsed scheme, transition table) of every fixture level dataset
    with a transition table; the table holds the (start, end) energies of the
    transitions the DictReader parser of test_parse_equivalence kept."""
    schemes = []
    for levels_path in sorted(CORPUS.glob("*_lv.csv")):
        transitions_path = levels_path.with_name(levels_path.name.replace("_lv", "_tr"))
        if not transitions_path.exists():
            continue
        nuclide = parse_nuclide_id(levels_path.name.split("_")[0])
        raws = [RawDataset(key, path.read_text(encoding="utf-8"), "cache")
                for key, path in ((DatasetKey.levels(nuclide), levels_path),
                                  (DatasetKey.transitions(nuclide), transitions_path))]
        table = test_parse_equivalence.parse_level_scheme(*raws)[0].transitions
        schemes.append((levels_path.name, parse_level_scheme(*raws)[0],
                        [(t.start_level, t.end_level) for t in table]))
    return schemes


FIXTURE_SCHEMES = fixture_schemes()


@pytest.mark.parametrize("scheme, transitions", [item[1:] for item in FIXTURE_SCHEMES],
                         ids=[item[0] for item in FIXTURE_SCHEMES])
def test_cascade_graph_matches_linear_scan_on_fixtures(scheme, transitions, monkeypatch):
    """From each level, and from each level's energy shifted by 0.4 keV, the
    graph walk reaches what the scan over the transition table reaches; a
    start above every level warns the same way.

    The scan's result depends on a start only through the level it resolves
    to, so it is computed once per level, and its level lookups are memoised:
    the largest fixture scheme would take half a minute otherwise."""
    finds, scan = {}, test_properties.scan_find_level

    def scan_find_level(scheme, energy):
        if energy not in finds:
            finds[energy] = scan(scheme, energy)
        return finds[energy]

    monkeypatch.setattr(test_properties, "scan_find_level", scan_find_level)
    top = max(record.energy.kev for record in scheme.levels)
    starts = [EnergyValue(top + 100.0)]
    for record in scheme.levels:
        starts += [record.energy,
                   EnergyValue(record.energy.kev + 0.4, record.energy.uncertainty_kev)]
    scans = {}
    for start in starts:
        warnings, expected_warnings = [], []
        level = scan_find_level(scheme, start)
        if level is None or id(level) not in scans:
            expected = test_properties.scan_cascade_visit([start], scheme, transitions,
                                                          expected_warnings)
            if level is not None:
                scans[id(level)] = expected
        assert cascade_visit([start], scheme, warnings) == scans.get(id(level), expected)
        assert warnings == expected_warnings


def test_cascade_looks_up_each_start_level_once(monkeypatch):
    """The walk follows resolved edges: on the fixture scheme with the most
    transitions, the scheme's level index is consulted once per start level
    only."""
    _, scheme, _ = max(FIXTURE_SCHEMES, key=lambda item: len(item[2]))
    starts = [record.energy for record in scheme.levels[-3:]]
    lookups = {}
    for name in ("matches", "has_match"):
        original = getattr(EnergyIndex, name)

        def counted(self, energy, original=original, name=name):
            lookups[name] = lookups.get(name, 0) + 1
            return original(self, energy)

        monkeypatch.setattr(EnergyIndex, name, counted)
    visited = cascade_visit(starts, scheme)
    assert len(visited) > len(starts)
    assert lookups == {"matches": len(starts)}
