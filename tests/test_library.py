import pytest

from nuclibgen.chains import assemble_subset
from nuclibgen.errors import EmptySubset, InvertedBounds
from nuclibgen.library import PruneBounds, assemble_library, prune
from nuclibgen.nuclide import RadiationType, parse_nuclide_id
from nuclibgen.records import FLAG_UNVALIDATED

DEMO_ALPHA = PruneBounds(energy_kev=(0, 10000), intensity_percent=(0.001, 100))
DEMO_GAMMA = PruneBounds(energy_kev=(0, 2000), intensity_percent=(0.001, 100))


@pytest.fixture(scope="module")
def ac225_subset(primed_store):
    return assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)


@pytest.fixture(scope="module")
def th_gamma(primed_store):
    subset = assemble_subset([parse_nuclide_id("232th")], [], [], primed_store)
    return assemble_library(subset, RadiationType.GAMMA)


def test_ac225_alpha_emitters(ac225_subset):
    lib = prune(assemble_library(ac225_subset, RadiationType.ALPHA), DEMO_ALPHA)
    assert {str(e.nuclide) for e in lib.entries} == {
        "225ac", "221fr", "217at", "213bi", "213po"
    }


def test_bi209_alpha_row_has_no_intensity(ac225_subset):
    lib = assemble_library(ac225_subset, RadiationType.ALPHA)
    bi = [e for e in lib.entries if str(e.nuclide) == "209bi"]
    assert bi and all(e.intensity_percent is None for e in bi)
    # the 0.001% floor removes it from the emitter list
    kept = prune(lib, DEMO_ALPHA)
    assert all(str(e.nuclide) != "209bi" for e in kept.entries)


def test_mo99_gamma_library_has_tc99m_line(primed_store):
    subset = assemble_subset([parse_nuclide_id("99mo")], [], [], primed_store)
    lib = assemble_library(subset, RadiationType.GAMMA)
    line = next(
        e for e in lib.entries
        if str(e.nuclide) == "99tc@m" and abs(e.energy.kev - 140.511) < 0.01
    )
    assert line.intensity_percent == pytest.approx(89.06)


def test_members_without_records_contribute_nothing(primed_store):
    subset = assemble_subset([parse_nuclide_id("209pb")], [], [], primed_store)
    lib = assemble_library(subset, RadiationType.GAMMA)
    assert lib.entries == []  # pure beta emitter chain segment
    assert "209pb" in [str(m) for m in subset.members]


def test_empty_subset_library_raises(ac225_subset):
    import dataclasses

    empty = dataclasses.replace(ac225_subset, members=[])
    with pytest.raises(EmptySubset):
        assemble_library(empty, RadiationType.ALPHA)


def test_entries_sorted_by_member_then_intensity(th_gamma):
    emitters = dict.fromkeys(e.nuclide for e in th_gamma.entries)
    order = {str(m): i for i, m in enumerate(emitters)}
    last_member, last_intensity = -1, None
    for entry in th_gamma.entries:
        member = order[str(entry.nuclide)]
        if member != last_member:
            last_member, last_intensity = member, None
        intensity = entry.intensity_percent
        if last_intensity is not None and intensity is not None:
            assert intensity <= last_intensity
        if intensity is not None:
            last_intensity = intensity


def test_prune_identity_bounds(th_gamma):
    same = prune(th_gamma, PruneBounds())
    assert same.entries == th_gamma.entries


def test_prune_energy_and_intensity_closed_intervals(th_gamma):
    pruned = prune(th_gamma, DEMO_GAMMA)
    for entry in pruned.entries:
        assert 0 <= entry.energy.kev <= 2000
        assert entry.intensity_percent is not None
        assert 0.001 <= entry.intensity_percent <= 100
    # the 2614.511 keV line sits outside the gamma window
    assert any(e.energy.kev > 2000 for e in th_gamma.entries)
    assert all(e.energy.kev <= 2000 for e in pruned.entries)


def test_half_life_floor_removes_po212(th_gamma, primed_store):
    subset = assemble_subset([parse_nuclide_id("232th")], [], [], primed_store)
    alpha = assemble_library(subset, RadiationType.ALPHA)
    assert any(str(e.nuclide) == "212po" for e in alpha.entries)
    bounded = prune(alpha, PruneBounds(half_life_seconds=(1e-6, float("inf"))))
    assert all(str(e.nuclide) != "212po" for e in bounded.entries)
    assert any(str(e.nuclide) == "212bi" for e in bounded.entries)


def test_prune_inverted_bounds(th_gamma):
    with pytest.raises(InvertedBounds):
        prune(th_gamma, PruneBounds(energy_kev=(10, 5)))


def test_prune_is_idempotent(th_gamma):
    once = prune(th_gamma, DEMO_GAMMA)
    twice = prune(once, DEMO_GAMMA)
    assert once.entries == twice.entries


def test_prune_monotone(th_gamma):
    wide = prune(th_gamma, PruneBounds(energy_kev=(0, 2000)))
    narrow = prune(th_gamma, PruneBounds(energy_kev=(100, 1500)))
    assert set(id(e) for e in narrow.entries) <= set(id(e) for e in wide.entries)


def test_prune_axes_commute(th_gamma):
    by_energy = PruneBounds(energy_kev=(50, 900))
    by_intensity = PruneBounds(intensity_percent=(0.01, 50))
    a = prune(prune(th_gamma, by_energy), by_intensity)
    b = prune(prune(th_gamma, by_intensity), by_energy)
    assert a.entries == b.entries


def test_prune_records_its_bounds(th_gamma):
    pruned = prune(th_gamma, DEMO_GAMMA)
    assert pruned.bounds == DEMO_GAMMA


def test_half_life_keys_on_emitting_level(primed_store):
    subset = assemble_subset([parse_nuclide_id("99mo")], [], [], primed_store)
    lib = assemble_library(subset, RadiationType.GAMMA)
    isomer_entries = [e for e in lib.entries if str(e.nuclide) == "99tc@m"]
    assert isomer_entries
    for entry in isomer_entries:
        assert entry.half_life.seconds == pytest.approx(21624.12)


def test_unvalidated_flag_absent_on_fixture_corpus(th_gamma):
    assert all(FLAG_UNVALIDATED not in e.flags for e in th_gamma.entries)
