import pytest

from nuclibgen.dataaccess import DatasetKey, RawDataset
from nuclibgen.errors import HeaderMismatch, InvalidInput, NuclibError, NuclideMismatch
from nuclibgen.nuclide import DecayMode, EnergyValue, Nuclide, RadiationType
from nuclibgen.records import (
    FLAG_NO_INTENSITY,
    extract_daughters,
    parse_decay_records,
    parse_level_scheme,
)

from conftest import dr_body, dr_row, lv_body, tr_body


def fetch(store, serialized: str):
    nid, _, kind = serialized.partition(":")
    sym = "".join(ch for ch in nid if ch.isalpha()).capitalize()
    a = int("".join(ch for ch in nid if ch.isdigit()))
    n = Nuclide(sym, a)
    if kind == "lv":
        key = DatasetKey.levels(n)
    elif kind == "tr":
        key = DatasetKey.transitions(n)
    else:
        key = DatasetKey.decay_rads(n, RadiationType.from_code(kind[3:]))
    return store.fetch_dataset(key)


def test_k40_gamma_row_from_fixture(primed_store):
    raw = fetch(primed_store, "40k:dr-g")
    records, warnings = parse_decay_records(raw)
    assert not warnings
    line = next(r for r in records if abs(r.energy.kev - 1460.82) < 0.01)
    assert line.intensity_percent == pytest.approx(10.66)
    assert line.daughter == Nuclide("Ar", 40)
    assert line.decay_mode is DecayMode.BETA_PLUS_EC


def test_pa234m_gamma_row_from_fixture(primed_store):
    records, _ = parse_decay_records(fetch(primed_store, "234pa:dr-g"))
    line = next(r for r in records if abs(r.energy.kev - 1001.03) < 0.01)
    assert line.intensity_percent == pytest.approx(0.842)
    assert line.parent_level.kev == pytest.approx(73.92)


def test_header_only_dataset_parses_to_empty_list():
    key = DatasetKey.decay_rads(Nuclide("U", 238), RadiationType.GAMMA)
    raw = RawDataset(key, dr_body([]), "cache")
    records, warnings = parse_decay_records(raw)
    assert records == [] and warnings == []


def test_bad_rows_are_warned_not_fatal():
    key = DatasetKey.decay_rads(Nuclide("U", 238), RadiationType.GAMMA)
    good = dr_row(("U", 238), ("Th", 234), mode="A", energy=49.55)
    bad = dict(good, energy="not-a-number")
    raw = RawDataset(key, dr_body([bad, good]), "cache")
    records, warnings = parse_decay_records(raw)
    assert len(records) == 1
    assert len(warnings) == 1 and "line 2" in warnings[0]


def test_row_cut_short_before_its_decay_cell_is_warned():
    """With ``decay`` after ``d_symbol`` in the header, a row that ends
    before it is skipped with a short-row warning, not a crash."""
    key = DatasetKey.decay_rads(Nuclide("Ac", 225), RadiationType.ALPHA)
    body = ("p_symbol,p_a,p_energy,d_symbol,d_a,energy,intensity,decay_%,decay\n"
            "Ac,225,0,Fr,221,5830.0\n"
            "Ac,225,0,Fr,221,5830.0,50.0,100,A\n")
    records, warnings = parse_decay_records(RawDataset(key, body, "cache"))
    assert [r.energy.kev for r in records] == [5830.0]
    assert warnings == ["225ac:dr-a line 2: short row: no 'decay' cell"]


def test_empty_dataset_body_is_invalid_input():
    key = DatasetKey.levels(Nuclide("Ac", 225))
    for body in ("", " \n\t\n"):
        with pytest.raises(InvalidInput, match="225ac:lv: dataset body must be non-empty"):
            RawDataset(key, body, "cache")
    assert issubclass(InvalidInput, NuclibError) and issubclass(InvalidInput, ValueError)


def test_header_mismatch():
    key = DatasetKey.decay_rads(Nuclide("U", 238), RadiationType.GAMMA)
    raw = RawDataset(key, "foo,bar\n1,2\n", "cache")
    with pytest.raises(HeaderMismatch):
        parse_decay_records(raw)
    with pytest.raises(HeaderMismatch):
        parse_decay_records(
            RawDataset(DatasetKey.levels(Nuclide("U", 238)), "x\n1\n", "cache")
        )


def test_missing_intensity_is_flagged_not_dropped():
    key = DatasetKey.decay_rads(Nuclide("Bi", 209), RadiationType.ALPHA)
    row = dr_row(("Bi", 209), ("Tl", 205), mode="A", intensity="", unc_i="")
    records, _ = parse_decay_records(RawDataset(key, dr_body([row]), "cache"))
    assert records[0].intensity_percent is None
    assert FLAG_NO_INTENSITY in records[0].flags


def test_tc99_level_scheme_from_fixture(primed_store):
    scheme, warnings = parse_level_scheme(
        fetch(primed_store, "99tc:lv"), fetch(primed_store, "99tc:tr")
    )
    isomer = scheme.find_level(EnergyValue(142.6836))
    assert isomer is not None
    modes = {mode for mode, _pct in isomer.decay_modes}
    assert modes == {DecayMode.IT, DecayMode.BETA_MINUS}
    medical = scheme.find_level(EnergyValue(140.511))
    assert medical is not None and medical.jpi == "7/2+"
    with pytest.raises(AttributeError):
        scheme.transitions  # the table is linked, not kept
    # transitions link levels strictly downward
    assert any(scheme.edges) and len(scheme.nodes) == len(scheme.levels)
    for start, ends in enumerate(scheme.edges):
        for end in ends:
            assert scheme.nodes[start].kev > scheme.nodes[end].kev


def test_unresolvable_transition_excluded_with_warning():
    lv = lv_body([
        {"symbol": "Tc", "a": 99, "energy": 0.0, "unc_e": 0.0, "jp": "9/2+",
         "half_life_sec": 1000.0, "decay_1": "B-", "decay_1_%": 100.0},
        {"symbol": "Tc", "a": 99, "energy": 100.0, "unc_e": 0.1},
    ])
    tr = tr_body([
        {"symbol": "Tc", "a": 99, "start_level_energy": 100.0, "unc_sl": 0.1,
         "end_level_energy": 0.0, "unc_el": 0.0, "energy": 100.0,
         "unc_en": 0.1, "intensity": 10.0},
        {"symbol": "Tc", "a": 99, "start_level_energy": 500.0, "unc_sl": 0.1,
         "end_level_energy": 0.0, "unc_el": 0.0, "energy": 500.0,
         "unc_en": 0.1, "intensity": 1.0},
    ])
    n = Nuclide("Tc", 99)
    scheme, warnings = parse_level_scheme(
        RawDataset(DatasetKey.levels(n), lv, "cache"),
        RawDataset(DatasetKey.transitions(n), tr, "cache"),
    )
    assert scheme.edges == [[], [0]]
    assert any("does not resolve" in w for w in warnings)


def test_upward_transition_excluded():
    lv = lv_body([
        {"symbol": "Tc", "a": 99, "energy": 0.0, "unc_e": 0.0},
        {"symbol": "Tc", "a": 99, "energy": 100.0, "unc_e": 0.1},
    ])
    tr = tr_body([
        {"symbol": "Tc", "a": 99, "start_level_energy": 0.0,
         "end_level_energy": 100.0, "energy": 100.0},
    ])
    n = Nuclide("Tc", 99)
    scheme, warnings = parse_level_scheme(
        RawDataset(DatasetKey.levels(n), lv, "cache"),
        RawDataset(DatasetKey.transitions(n), tr, "cache"),
    )
    assert scheme.edges == [[], []]
    assert any("non-downward" in w for w in warnings)


def test_level_transition_nuclide_mismatch(primed_store):
    with pytest.raises(NuclideMismatch):
        parse_level_scheme(
            fetch(primed_store, "99tc:lv"), fetch(primed_store, "99ru:tr")
        )


def test_transition_row_of_another_nuclide_is_a_nuclide_mismatch():
    n = Nuclide("Tc", 99)
    lv = lv_body([{"symbol": "Tc", "a": 99, "energy": kev} for kev in (0.0, 140.511)])
    tr = tr_body([{"symbol": "Ru", "a": 99, "start_level_energy": 140.511,
                   "end_level_energy": 0.0, "energy": 140.511}])
    with pytest.raises(NuclideMismatch, match="99tc:tr line 2: row nuclide"):
        parse_level_scheme(RawDataset(DatasetKey.levels(n), lv, "cache"),
                           RawDataset(DatasetKey.transitions(n), tr, "cache"))


@pytest.mark.parametrize("levels, transitions, match", [
    ("99tc:tr", None, "99tc:tr is not a levels dataset"),
    ("99tc:dr-g", "99tc:tr", "99tc:dr-g is not a levels dataset"),
    ("99tc:lv", "99tc:lv", "99tc:lv is not a transitions dataset"),
    ("99tc:lv", "99tc:dr-g", "99tc:dr-g is not a transitions dataset"),
])
def test_level_scheme_of_the_wrong_dataset_kinds_is_a_header_mismatch(
        primed_store, levels, transitions, match):
    with pytest.raises(HeaderMismatch, match=match):
        parse_level_scheme(fetch(primed_store, levels),
                           transitions and fetch(primed_store, transitions))


def test_extract_daughters_mo99(primed_store):
    records, _ = parse_decay_records(fetch(primed_store, "99mo:dr-bm"))
    grecords, _ = parse_decay_records(fetch(primed_store, "99mo:dr-g"))
    feeds = extract_daughters(records + grecords)
    assert [str(f.daughter) for f in feeds] == ["99tc"]
    levels = {lv.kev for lv in feeds[0].feeding_levels}
    assert 142.6836 in levels
    assert feeds[0].branching_percent == pytest.approx(100.0)


def test_extract_daughters_bi213_two_way_branch(primed_store):
    records = []
    for kind in ("dr-a", "dr-bm", "dr-g"):
        raw = fetch(primed_store, f"213bi:{kind}")
        if raw:
            records.extend(parse_decay_records(raw)[0])
    feeds = extract_daughters(records)
    assert {str(f.daughter) for f in feeds} == {"213po", "209tl"}
    by_id = {str(f.daughter): f for f in feeds}
    assert by_id["213po"].branching_percent == pytest.approx(97.80)
    assert by_id["209tl"].branching_percent == pytest.approx(2.20)


def test_extract_daughters_empty_input():
    assert extract_daughters([]) == []


def test_extract_daughters_order_independent(primed_store):
    records, _ = parse_decay_records(fetch(primed_store, "213bi:dr-a"))
    more, _ = parse_decay_records(fetch(primed_store, "213bi:dr-bm"))
    rows = records + more
    forward = extract_daughters(rows)
    backward = extract_daughters(list(reversed(rows)))
    assert forward == backward


def test_extract_daughters_skips_self_rows(primed_store):
    records, _ = parse_decay_records(fetch(primed_store, "99tc:dr-g"))
    feeds = extract_daughters(records)
    assert all(str(f.daughter) != "99tc" for f in feeds)


TC99 = Nuclide("Tc", 99)
TC99_LEVELS = lv_body([
    {"symbol": "Tc", "a": 99, "energy": 0.0},
    {"symbol": "Tc", "a": 99, "energy": 100.0, "unc_e": 0.1},
])
TC99_BODIES = {
    "dr": dr_body([dr_row(("Tc", 99), ("Ru", 99))]),
    "lv": TC99_LEVELS,
    "tr": tr_body([{"symbol": "Tc", "a": 99, "start_level_energy": 100.0,
                    "end_level_energy": 0.0, "energy": 100.0}]),
}


def parse_kind(kind: str, body: str):
    """Parse ``body`` as a Tc-99 dataset of ``kind``; a transitions body is
    parsed with a valid levels body."""
    if kind == "dr":
        key = DatasetKey.decay_rads(TC99, RadiationType.BETA_MINUS)
        return parse_decay_records(RawDataset(key, body, "cache"))
    if kind == "lv":
        return parse_level_scheme(RawDataset(DatasetKey.levels(TC99), body, "cache"), None)
    levels = RawDataset(DatasetKey.levels(TC99), TC99_LEVELS, "cache")
    return parse_level_scheme(levels, RawDataset(DatasetKey.transitions(TC99), body, "cache"))


@pytest.mark.parametrize("kind", ["dr", "lv", "tr"])
@pytest.mark.parametrize("line", [1, 2], ids=["header", "row"])
@pytest.mark.parametrize("defect, message", [
    ("\rx", "new-line character seen in unquoted field"),
    ("x" * 200_000, "field larger than field limit"),
], ids=["lone-cr", "huge-field"])
def test_body_the_csv_reader_rejects_is_a_header_mismatch(kind, line, defect, message):
    lines = TC99_BODIES[kind].split("\n")
    lines[line - 1] = lines[line - 1].replace(",", defect + ",", 1)
    key = f"99tc:{'dr-bm' if kind == 'dr' else kind}"
    with pytest.raises(HeaderMismatch, match=f"^{key} line {line}: {message}"):
        parse_kind(kind, "\n".join(lines))
