import dataclasses
import inspect
import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nuclibgen
from nuclibgen.chains import ChainMember, ParsedNuclide, ParseMemo
from nuclibgen.dataaccess import DatasetKey
from nuclibgen.elements import SYMBOLS
from nuclibgen.errors import MalformedId, MassOutOfRange, UnknownElement
from nuclibgen.nuclide import (
    MAX_MASS_NUMBER,
    EnergyValue,
    HalfLife,
    LevelSpec,
    Nuclide,
    PerValue,
    RadiationType,
    display_name,
    energies_match,
    format_nuclide_id,
    parse_nuclide_id,
)
from nuclibgen.records import DaughterFeed, DecayRecord, LevelRecord


def test_parse_canonical_ground_forms():
    expected = Nuclide("U", 238)
    for text in ("U-238", "238U", "u238", "238u", "238-U"):
        assert parse_nuclide_id(text) == expected


def test_parse_metastable_forms():
    pa = Nuclide("Pa", 234, LevelSpec.meta(1))
    assert parse_nuclide_id("234mPa") == pa
    assert parse_nuclide_id("Pa-234m") == pa
    assert parse_nuclide_id("234pa@m") == pa
    assert parse_nuclide_id("Tc-99m") == Nuclide("Tc", 99, LevelSpec.meta(1))


def test_parse_ordinal_and_energy_suffixes():
    assert parse_nuclide_id("Ac-225@m2") == Nuclide("Ac", 225, LevelSpec.meta(2))
    assert parse_nuclide_id("177lu@m4") == Nuclide("Lu", 177, LevelSpec.meta(4))
    parsed = parse_nuclide_id("99tc@142.6836kev")
    assert parsed.level.kind == "energy"
    assert parsed.level.kev == pytest.approx(142.6836)


def test_parse_element_beats_metastable_reading():
    # "mg"/"mo" are elements, not m + g / m + o
    assert parse_nuclide_id("24mg") == Nuclide("Mg", 24)
    assert parse_nuclide_id("98mo") == Nuclide("Mo", 98)
    assert parse_nuclide_id("234mpa") == Nuclide("Pa", 234, LevelSpec.meta(1))


def test_parse_errors():
    with pytest.raises(UnknownElement):
        parse_nuclide_id("Xq-10")
    with pytest.raises(MalformedId):
        parse_nuclide_id("")
    with pytest.raises(MalformedId):
        parse_nuclide_id("   ")
    with pytest.raises(MalformedId):
        parse_nuclide_id("u-238-m")
    with pytest.raises(MalformedId):
        parse_nuclide_id("99tc@1e999kev")  # infinite level energy
    with pytest.raises(MalformedId, match="bad level suffix"):
        parse_nuclide_id("238u@xyz")
    with pytest.raises(MalformedId, match="unrecognized nuclide identifier"):
        parse_nuclide_id("u-")
    with pytest.raises(MalformedId, match="conflicting level specifications"):
        parse_nuclide_id("pa-234m@m2")
    with pytest.raises(MassOutOfRange):
        parse_nuclide_id("u999")
    with pytest.raises(MassOutOfRange):
        Nuclide("U", 0)


def test_format_examples():
    assert format_nuclide_id(Nuclide("Ac", 225)) == "225ac"
    assert format_nuclide_id(Nuclide("Lu", 177, LevelSpec.meta(4))) == "177lu@m4"
    assert format_nuclide_id(Nuclide("Pa", 234, LevelSpec.meta(1))) == "234pa@m"


def test_display_name():
    assert display_name(Nuclide("Pa", 234, LevelSpec.meta(1))) == "Pa-234m"
    assert display_name(Nuclide("U", 238)) == "U-238"
    assert display_name(Nuclide("Tc", 99, LevelSpec.energy(150.0))) == "Tc-99@150keV"


def test_level_spec_zero_energy_is_ground():
    assert LevelSpec.energy(0.0) == LevelSpec.ground()
    assert Nuclide("U", 238, LevelSpec.energy(0.0)) == Nuclide("U", 238)


def test_nuclide_equality_is_level_aware():
    assert Nuclide("Tc", 99) != Nuclide("Tc", 99, LevelSpec.meta(1))
    assert Nuclide("Tc", 99, LevelSpec.meta(1)).ground_state == Nuclide("Tc", 99)


def test_half_life_units():
    for seconds in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            HalfLife(seconds)
    assert HalfLife.stable().is_stable


def test_radiation_type_has_exactly_six_members():
    assert len(RadiationType) == 6
    assert {r.code for r in RadiationType} == {"a", "bm", "bp", "g", "e", "x"}
    assert RadiationType.from_code("bm") is RadiationType.BETA_MINUS
    with pytest.raises(ValueError):
        RadiationType.from_code("q")


def test_per_value_builds_each_key_once_and_keeps_no_failed_build():
    built = []

    def build(key):
        built.append(key)
        if key < 0:
            raise ValueError(f"negative {key}")
        return key * 2

    cache = PerValue(build)
    assert [cache[k] for k in (1, 2, 1, 2, 1)] == [2, 4, 2, 4, 2]
    assert built == [1, 2]
    for _ in range(2):
        with pytest.raises(ValueError, match="negative -1"):
            cache[-1]
    assert built == [1, 2, -1, -1]
    assert dict(cache) == {1: 2, 2: 4}


def test_energies_match_tolerance_rule():
    # 1 keV floor when uncertainties are tiny
    assert energies_match(EnergyValue(100.0), EnergyValue(100.9))
    assert not energies_match(EnergyValue(100.0), EnergyValue(101.1))
    # 3-sigma combined spread once uncertainties dominate
    assert energies_match(EnergyValue(100.0, 1.0), EnergyValue(103.5, 1.0))
    assert not energies_match(EnergyValue(100.0, 1.0), EnergyValue(105.0, 1.0))


def test_energy_value_rejects_non_finite():
    nan, inf = float("nan"), float("inf")
    for kev, unc in ((nan, 0.0), (inf, 0.0), (1.0, nan), (1.0, inf)):
        with pytest.raises(ValueError):
            EnergyValue(kev, unc)


# --- value-type contract ---------------------------------------------------------

# Each tuple-backed type, with its fields in order and its constructor defaults.
VALUE_TYPES = {
    LevelSpec: ("kind", "ordinal", "kev"),
    Nuclide: ("element", "mass_number", "level"),
    EnergyValue: ("kev", "uncertainty_kev"),
    HalfLife: ("seconds", "uncertainty_seconds"),
    DatasetKey: ("nuclide", "kindcode"),
    DecayRecord: (
        "parent", "parent_level", "radiation", "energy", "intensity_percent",
        "intensity_unc", "daughter", "daughter_feeding_level",
        "branching_percent", "half_life", "start_level", "flags",
    ),
    LevelRecord: ("nuclide", "energy", "half_life", "decay_modes"),
    DaughterFeed: ("daughter", "feeding_levels", "branching_percent"),
    ChainMember: ("nuclide", "node", "level_kev", "half_life_s", "unvalidated"),
}
DEFAULTS = {
    LevelSpec: {"ordinal": 0, "kev": 0.0},
    Nuclide: {"level": LevelSpec("ground")},
    EnergyValue: {"uncertainty_kev": 0.0},
    HalfLife: {"seconds": None, "uncertainty_seconds": 0.0},
    DatasetKey: {},
    DecayRecord: {"half_life": None, "start_level": None, "flags": frozenset()},
    LevelRecord: {"half_life": None, "decay_modes": ()},
    DaughterFeed: {},
    ChainMember: {"half_life_s": None, "unvalidated": False},
}

U238 = Nuclide("U", 238)
SAMPLES = [
    LevelSpec.meta(2),
    Nuclide("Pa", 234, LevelSpec.meta(1)),
    EnergyValue(59.54, 0.01),
    HalfLife(24.1 * 86400, 0.03 * 86400),
    DatasetKey.levels(U238),
    DecayRecord(U238, EnergyValue(0.0), RadiationType.ALPHA, EnergyValue(4198.0), 79.0,
                0.0, Nuclide("Th", 234), EnergyValue(0.0), 100.0),
    LevelRecord(U238, EnergyValue(0.0), HalfLife(1.4e17)),
    DaughterFeed(Nuclide("Th", 234), (EnergyValue(49.55), EnergyValue(0.0)), 100.0),
    ChainMember(U238, U238, 0.0, 1.4e17),
]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_is_a_tuple_with_its_fields_and_defaults(cls):
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == VALUE_TYPES[cls]
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == VALUE_TYPES[cls]
    assert {name: p.default for name, p in parameters.items()
            if p.default is not p.empty} == DEFAULTS[cls]


@pytest.mark.parametrize("value", SAMPLES, ids=lambda value: type(value).__name__)
def test_value_is_immutable_without_a_dict(value):
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.note = "x"
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", SAMPLES, ids=lambda value: type(value).__name__)
def test_value_pickles_to_an_equal_value_of_its_type(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)
    assert repr(copy) == repr(value)


def test_repr_names_the_type_and_its_fields():
    assert repr(EnergyValue(1.5)) == "EnergyValue(kev=1.5, uncertainty_kev=0.0)"
    assert repr(DatasetKey.levels(U238)) == (
        "DatasetKey(nuclide=Nuclide(element='U', mass_number=238, "
        "level=LevelSpec(kind='ground', ordinal=0, kev=0.0)), kindcode='lv')")


NEGATIVE = st.floats(max_value=-1e-300)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
GOOD = st.floats(min_value=0.0, allow_infinity=False)


@given(bad=st.one_of(NEGATIVE, NON_FINITE), good=GOOD)
def test_energy_value_rejects_nan_infinite_and_negative(bad, good):
    with pytest.raises(ValueError, match="^energy must be finite and nonnegative$"):
        EnergyValue(bad, good)
    with pytest.raises(ValueError, match="^uncertainty must be finite and nonnegative$"):
        EnergyValue(good, bad)
    assert EnergyValue(good, good) == (good, good)


@given(bad=st.one_of(NEGATIVE, NON_FINITE, st.just(0.0)), good=GOOD)
def test_half_life_rejects_nan_infinite_and_nonpositive(bad, good):
    with pytest.raises(ValueError, match="^half-life must be finite and positive$"):
        HalfLife(bad, good)
    if bad != 0.0:
        with pytest.raises(ValueError, match="^uncertainty must be finite and nonnegative$"):
            HalfLife(None, bad)
    assert HalfLife(None, good).is_stable


@given(symbol=st.sampled_from(SYMBOLS), upper=st.lists(st.booleans(), min_size=3, max_size=3),
       mass=st.integers(min_value=1, max_value=MAX_MASS_NUMBER))
def test_nuclide_canonicalises_its_symbol(symbol, upper, mass):
    spelled = "".join(c.upper() if up else c.lower() for c, up in zip(symbol, upper))
    nuclide = Nuclide(f" {spelled}\t", mass)
    assert nuclide.element == symbol
    assert nuclide == Nuclide(symbol, mass) and hash(nuclide) == hash(Nuclide(symbol, mass))


@given(mass=st.one_of(st.integers(max_value=0), st.integers(min_value=MAX_MASS_NUMBER + 1)))
def test_nuclide_rejects_a_mass_out_of_range(mass):
    with pytest.raises(MassOutOfRange, match=f"^mass number out of range: {mass}$"):
        Nuclide("U", mass)


def test_nuclide_rejects_an_unknown_symbol():
    with pytest.raises(UnknownElement, match="^unknown element symbol: 'Xx'$"):
        Nuclide("Xx", 1)


@given(level=st.one_of(st.integers(min_value=1, max_value=9).map(LevelSpec.meta),
                       st.floats(min_value=0.0, max_value=1e4).map(LevelSpec.energy)),
       kindcode=st.sampled_from(["dr-a", "dr-bm", "dr-bp", "dr-g", "dr-e", "dr-x", "lv", "tr"]))
def test_dataset_key_holds_the_ground_state(level, kindcode):
    key = DatasetKey(Nuclide("Pa", 234, level), kindcode)
    assert key.nuclide == Nuclide("Pa", 234) and key.nuclide.level.is_ground
    assert key == DatasetKey(Nuclide("Pa", 234), kindcode)
    assert hash(key) == hash(DatasetKey(Nuclide("Pa", 234), kindcode))


@pytest.mark.parametrize("kindcode", ["dr-q", "LV", "", "dr-"])
def test_dataset_key_rejects_an_unknown_kind(kindcode):
    with pytest.raises(ValueError, match=re.escape(f"unknown dataset kind: {kindcode!r}")):
        DatasetKey(U238, kindcode)


def test_nuclide_and_its_levels_key_are_distinct_memo_keys():
    memo: ParseMemo = {}
    whole = ParsedNuclide((), None, (), ())
    levels_only = ParsedNuclide((), None, (), ("levels",))
    memo[U238] = whole
    memo[DatasetKey.levels(U238)] = levels_only
    assert len(memo) == 2
    assert memo[Nuclide("U", 238)] is whole
    assert memo[DatasetKey.levels(Nuclide("U", 238))] is levels_only


def test_package_never_skips_the_value_checks():
    """``_make`` and ``_replace`` build a tuple without calling ``__new__``."""
    sources = Path(nuclibgen.__file__).parent.glob("*.py")
    assert not [path.name for path in sources
                if re.search(r"\._(make|replace)\(", path.read_text(encoding="utf-8"))]
