import pytest

from nuclibgen.errors import MalformedId, MassOutOfRange, UnknownElement
from nuclibgen.nuclide import (
    EnergyValue,
    HalfLife,
    LevelSpec,
    Nuclide,
    RadiationType,
    display_name,
    energies_match,
    format_nuclide_id,
    parse_nuclide_id,
)


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
