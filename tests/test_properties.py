"""Property suites: set algebra, pruning laws, cascade laws, round-trips,
traversal termination on randomized synthetic decay graphs, and outside
input (configs, peak lists, library CSVs, marker registries) that loads or
raises a NuclibError.
"""

import copy
import csv
import io
import json
import math

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nuclibgen.chains as chains_mod
from nuclibgen.chains import ChainMember, _member_identity, assemble_subset, build_progeny
from nuclibgen.cli import main
from nuclibgen.config import load_config
from nuclibgen.dataaccess import AbsenceRegistry, DatasetKey, RawDataset
from nuclibgen.elements import SYMBOLS
from nuclibgen.errors import DepthExceeded, EmptySubset, InvalidInput, NuclibError
from nuclibgen.export import (
    CSV_COLUMNS,
    entry_cells,
    entry_row,
    export_table,
    import_library_csv,
    render_table,
    table_rows,
)
from nuclibgen.identify import Peak, PeakList, PeakMatch, qualify_peaks
from nuclibgen.levels import FlattenedLevels, cascade_visit
from nuclibgen.library import (
    LibraryEntry,
    PruneBounds,
    RadionuclideLibrary,
    assemble_library,
    prune,
)
from nuclibgen.nuclide import (
    EnergyValue,
    HalfLife,
    LevelSpec,
    Nuclide,
    RadiationType,
    energies_match,
    format_nuclide_id,
    parse_nuclide_id,
)
from nuclibgen.plot import MarkerRegistry
from nuclibgen.records import (
    _DECAY_COLUMNS,
    _TRANSITION_COLUMNS,
    LevelRecord,
    LevelScheme,
    TransitionRecord,
    parse_decay_records,
    parse_level_scheme,
)

from conftest import (
    CORPUS,
    DR_COLUMNS,
    LV_COLUMNS,
    TR_COLUMNS,
    FakeSource,
    brute_radioactive,
    brute_reachable,
    dr_body,
    dr_row,
    lv_body,
    prime_cache,
    simple_chain_source,
    tr_body,
)

# --- identifier round-trip -----------------------------------------------------

level_specs = st.one_of(
    st.just(LevelSpec.ground()),
    st.integers(min_value=1, max_value=9).map(LevelSpec.meta),
    st.floats(min_value=0.001, max_value=9999.0,
              allow_nan=False, allow_infinity=False).map(LevelSpec.energy),
)
nuclides = st.builds(
    Nuclide,
    element=st.sampled_from(SYMBOLS),
    mass_number=st.integers(min_value=1, max_value=300),
    level=level_specs,
)


@given(nuclides)
def test_parse_format_round_trip(nuclide):
    assert parse_nuclide_id(format_nuclide_id(nuclide)) == nuclide


# --- Eq-style subset algebra over the fixture corpus ---------------------------

ROOT_POOL = ("225ac", "99mo", "232th", "226ra", "212pb", "40k")
STATIC_POOL = ("234th", "208pb", "212bi", "177lu", "209tl")
# isomer-bearing nodes excluded: exclusion semantics are identity-exact
EXCLUDE_POOL = ("209tl", "213po", "221fr", "212po", "208tl", "226ra")


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    roots=st.lists(st.sampled_from(ROOT_POOL), min_size=1, max_size=3,
                   unique=True),
    statics=st.lists(st.sampled_from(STATIC_POOL), max_size=2, unique=True),
    exclusions=st.lists(st.sampled_from(EXCLUDE_POOL), max_size=3, unique=True),
)
def test_subset_equals_set_identity(primed_store, corpus_dir, roots, statics,
                                    exclusions):
    """members == (R | Y | S) \\ E, checked against a brute-force CSV walk."""
    try:
        subset = assemble_subset(
            [parse_nuclide_id(r) for r in roots],
            [parse_nuclide_id(s) for s in statics],
            [parse_nuclide_id(e) for e in exclusions],
            primed_store,
        )
    except EmptySubset:
        pytest.skip("exclusions wiped the subset")

    engine = {str(m.ground_state) for m in subset.members}
    oracle = set()
    for root in roots:
        oracle |= {
            nid for nid in brute_reachable(corpus_dir, root)
            if brute_radioactive(corpus_dir, nid)
        }
    oracle |= set(statics)
    oracle -= set(exclusions)
    assert engine == oracle


# --- the run's settle table --------------------------------------------------------

NESTED_POOL = ("237np", "233u", "229th", "225ac")
# 213bi, 99mo and 228ac bring daughters read for their level schemes alone;
# 225ac is also a chain member, 209tl a stable-ending chain member.
SETTLE_STATIC_POOL = ("213bi", "99mo", "228ac", "225ac", "209tl")

subset_calls = st.lists(
    st.tuples(
        st.lists(st.sampled_from(NESTED_POOL), max_size=4, unique=True),
        st.lists(st.sampled_from(SETTLE_STATIC_POOL), max_size=2, unique=True),
    ).filter(lambda call: call[0] or call[1]),
    min_size=1, max_size=3,
)


def _settled(subset):
    nodes = {nuclide: (node.flattened.all if node.flattened else None,
                       node.members, node.warnings)
             for nuclide, node in subset.nodes.items()}
    libraries = [assemble_library(subset, rad).entries for rad in RadiationType]
    return subset.members, subset.warnings, nodes, libraries


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(calls=[(["225ac"], ["213bi"]),
                (["237np", "225ac"], ["213bi", "99mo"]),
                (["229th"], ["225ac", "228ac"]),
                (["225ac"], ["213bi"])])
@given(calls=subset_calls)
def test_shared_memo_settles_like_a_fresh_one(primed_store, calls):
    """Subsets assembled in any order on one memo, whose settle tables they
    share, equal the same subsets each assembled on a fresh memo."""
    memo = {}
    for roots, statics in calls:
        args = ([parse_nuclide_id(r) for r in roots],
                [parse_nuclide_id(s) for s in statics], [], primed_store)
        shared = assemble_subset(*args, memo=memo)
        fresh = assemble_subset(*args)
        assert _settled(shared) == _settled(fresh)


# --- grouped library assembly equals the per-record scan --------------------------

def scan_members(node):
    """Per-record reference for the members a settle resolves: each record's
    parent level is compared with every decaying level found before it."""
    decaying = []
    for rec in node.records:
        if not any(energies_match(rec.parent_level, seen) for seen in decaying):
            decaying.append(rec.parent_level)
    members = []
    for level in sorted(decaying, key=lambda e: e.kev, reverse=True):
        if node.flattened is not None and not node.flattened.contains(level):
            continue
        matched = node.scheme.find_level(level) if node.scheme else None
        canonical = matched.energy if matched is not None else level
        identity = _member_identity(node, canonical)
        if any(m.nuclide == identity for m in members):
            continue
        half_life = None
        if matched is not None and matched.half_life is not None:
            half_life = matched.half_life.seconds
        if half_life is None:
            half_life = next((rec.half_life.seconds for rec in node.records
                              if rec.half_life is not None
                              and energies_match(rec.parent_level, level)), None)
        members.append(ChainMember(identity, node.nuclide, canonical.kev, half_life,
                                   node.flattened is None))
    return members


def scan_library(subset, radiation, warnings):
    """Per-record reference for assemble_library: every record of a member's
    node is tested against the member's level, and each entry built anew."""
    members = {m.nuclide: m for node in subset.nodes.values() for m in node.members}
    order = {identity: i for i, identity in enumerate(subset.members)}
    entries = []
    for identity in subset.members:
        member = members.get(identity)
        if member is None:
            continue
        for rec in subset.nodes[member.node].records:
            if rec.radiation is not radiation or not energies_match(
                    rec.parent_level, EnergyValue(member.level_kev)):
                continue
            flags = set(rec.flags) | ({"unvalidated"} if member.unvalidated else set())
            if radiation is RadiationType.GAMMA and rec.start_level is not None:
                daughter = subset.nodes.get(rec.daughter.ground_state)
                if daughter is None or daughter.flattened is None:
                    flags.add("unvalidated")
                    warnings.append(f"{member.nuclide}: gamma at {rec.energy.kev} keV kept "
                                    f"unvalidated (no level data for {rec.daughter})")
                elif not daughter.flattened.contains(rec.start_level):
                    continue
            if rec.half_life is not None:
                half_life = HalfLife(rec.half_life.seconds)
            elif member.half_life_s is not None:
                half_life = HalfLife(member.half_life_s)
            else:
                half_life = None
            entries.append(LibraryEntry(
                member.nuclide, radiation, rec.energy, rec.intensity_percent,
                rec.intensity_unc, half_life, EnergyValue(rec.parent_level.kev),
                frozenset(flags)))
    entries.sort(key=lambda e: (order[e.nuclide], -(
        e.intensity_percent if e.intensity_percent is not None else -math.inf), e.energy.kev))
    return entries


# Parent levels within tolerance of one another (0.4 keV apart, uncertainties
# up to 0.5 keV), so that one member level matches several of them.
PARENT_KEV = [0.0, 100.0, 100.4, 100.9, 101.3, 250.0]


@st.composite
def interleaved_sources(draw):
    """A Mo-99 source whose decay rows, of three radiation types, interleave
    the parent levels in file order. Gamma rows start at levels of Tc-99 or,
    as isomeric transitions, of Mo-99, reachable or not; either level scheme
    may be absent. Returns the source and the progenitor id."""
    bodies = {}
    for code in ("a", "bm", "g"):
        rows = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            it = code == "g" and draw(st.booleans())
            starts = [100.2, 180.0, 250.0] if it else ["", 140.5, 142.68]
            row = dr_row(("Mo", 99), ("Mo", 99) if it else ("Tc", 99),
                         mode="IT" if it else "B-",
                         energy=draw(st.sampled_from([50.0, 60.0, 70.0])),
                         intensity=draw(st.sampled_from(["", 1.0, 5.0])),
                         p_energy=draw(st.sampled_from(PARENT_KEV)),
                         hl=draw(st.sampled_from(["", 5.0, 7.0])),
                         start=draw(st.sampled_from(starts)) if code == "g" else "")
            row["unc_pe"] = draw(st.sampled_from(["", 0.1, 0.5]))
            rows.append(row)
        if rows:
            bodies[f"99mo:dr-{code}"] = dr_body(rows)
    schemes = {
        "99mo": ("Mo", [(0.0, 1000.0), (100.2, 60.0), (101.0, ""), (250.0, "")],
                 [(250.0, 100.2), (100.2, 0.0)]),
        "99tc": ("Tc", [(0.0, "STABLE"), (140.5, ""), (142.68, 21600.0)],
                 [(142.68, 140.5), (140.5, 0.0)]),
    }
    for nid, (symbol, levels, transitions) in schemes.items():
        if draw(st.booleans()):
            bodies[f"{nid}:lv"] = lv_body([
                {"symbol": symbol, "a": 99, "energy": kev, "half_life_sec": hl}
                for kev, hl in levels])
            bodies[f"{nid}:tr"] = tr_body([
                {"symbol": symbol, "a": 99, "start_level_energy": start,
                 "end_level_energy": end, "energy": start - end}
                for start, end in transitions])
    return FakeSource(bodies), draw(st.sampled_from(["99mo", "99mo@250kev"]))


@settings(max_examples=60, deadline=None)
@given(interleaved_sources())
def test_grouped_assembly_equals_per_record_scan(case):
    """Members and library entries read from the records grouped by
    (radiation, parent level) equal those of a scan over every record."""
    source, progenitor = case
    build = build_progeny(parse_nuclide_id(progenitor), source)
    for node in build.nodes.values():
        assert node.members == scan_members(node)
    if not build.chain.members:
        return  # no decaying level is feasible: the subset would be empty
    subset = assemble_subset([parse_nuclide_id(progenitor)], [], [], source)
    for radiation in (RadiationType.ALPHA, RadiationType.BETA_MINUS, RadiationType.GAMMA):
        warnings, expected = [], []
        entries = assemble_library(subset, radiation, warnings).entries
        assert entries == scan_library(subset, radiation, expected)
        assert warnings == expected


# --- pruning laws ---------------------------------------------------------------

entry_strategy = st.builds(
    LibraryEntry,
    nuclide=st.sampled_from([Nuclide("U", 238), Nuclide("Ra", 226),
                             Nuclide("Tc", 99, LevelSpec.meta(1))]),
    radiation=st.just(RadiationType.GAMMA),
    energy=st.floats(min_value=0.0, max_value=3000.0, allow_nan=False)
        .map(EnergyValue),
    intensity_percent=st.one_of(
        st.none(), st.floats(min_value=1e-6, max_value=100.0, allow_nan=False)
    ),
    intensity_unc=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    half_life=st.one_of(
        st.none(),
        st.just(HalfLife.stable()),
        st.floats(min_value=1e-9, max_value=1e18, allow_nan=False)
            .map(HalfLife),
    ),
    parent_level=st.sampled_from([EnergyValue(0.0), EnergyValue(142.6836)]),
    flags=st.just(frozenset()),
)
libraries = st.lists(entry_strategy, max_size=40).map(
    lambda entries: RadionuclideLibrary(
        radiation=RadiationType.GAMMA, entries=entries
    )
)


def interval(lo_hi):
    lo, hi = sorted(lo_hi)
    return (lo, hi)


bounds_strategy = st.builds(
    PruneBounds,
    energy_kev=st.tuples(
        st.floats(min_value=0, max_value=3000, allow_nan=False),
        st.floats(min_value=0, max_value=3000, allow_nan=False),
    ).map(interval),
    intensity_percent=st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ).map(interval),
    half_life_seconds=st.one_of(
        st.none(),
        st.tuples(
            st.floats(min_value=0, max_value=1e19, allow_nan=False),
            st.floats(min_value=0, max_value=1e19, allow_nan=False),
        ).map(interval),
    ),
)


@given(libraries, bounds_strategy)
def test_prune_idempotent(lib, bounds):
    once = prune(lib, bounds)
    assert prune(once, bounds).entries == once.entries


@given(libraries, bounds_strategy, bounds_strategy)
def test_prune_commutes_across_applications(lib, b1, b2):
    ab = prune(prune(lib, b1), b2)
    ba = prune(prune(lib, b2), b1)
    assert ab.entries == ba.entries


@given(libraries, bounds_strategy)
def test_prune_monotone_narrower_is_subset(lib, bounds):
    lo, hi = bounds.energy_kev
    narrow_lo = min(lo + 10, hi)
    narrower = PruneBounds(
        energy_kev=(narrow_lo, max(narrow_lo, hi - 10)),
        intensity_percent=bounds.intensity_percent,
        half_life_seconds=bounds.half_life_seconds,
    )
    wide = {id(e) for e in prune(lib, bounds).entries}
    narrow = {id(e) for e in prune(lib, narrower).entries}
    assert narrow <= wide


@given(lib=libraries)
def test_csv_round_trip_identity(tmp_path_factory, lib):
    path = tmp_path_factory.mktemp("csv") / "lib.csv"
    export_table(lib, "csv", path)
    back = import_library_csv(path)
    assert back.entries == lib.entries



def reference_json(lib: RadionuclideLibrary) -> str:
    """The JSON export as json.dumps lays it out."""
    def interval(bounds):
        return [None if math.isinf(bound) else bound for bound in bounds]

    payload = {
        "radiation": lib.radiation.code,
        "bounds": {
            "energy_kev": interval(lib.bounds.energy_kev),
            "intensity_percent": interval(lib.bounds.intensity_percent),
            "half_life_seconds": (
                interval(lib.bounds.half_life_seconds)
                if lib.bounds.half_life_seconds else None
            ),
        },
        "entries": [entry_row(entry) for entry in lib.entries],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


open_bounds = st.builds(
    PruneBounds,
    energy_kev=st.tuples(st.floats(0, 3000), st.sampled_from([3000.5, math.inf])),
    intensity_percent=st.tuples(st.floats(0, 100), st.just(100.0)),
    half_life_seconds=st.one_of(
        st.none(), st.tuples(st.floats(0, 1e19), st.sampled_from([1e19, math.inf]))),
)
json_libraries = st.builds(
    RadionuclideLibrary,
    radiation=st.sampled_from(list(RadiationType)),
    entries=st.lists(
        st.tuples(entry_strategy, st.frozensets(st.sampled_from(
            ["no-intensity", "unvalidated", 'q"uote', "back\\slash", "tab\t", "\x01",
             "\u00fcn\u00efcode", "\U0001f600", "a;b", "<&>", "%_#$"]))).map(
            lambda pair: pair[0]._replace(flags=pair[1])),
        max_size=8),
    bounds=st.one_of(st.just(PruneBounds()), open_bounds),
)


@example(RadionuclideLibrary(radiation=RadiationType.ALPHA, entries=[]))
@given(json_libraries)
def test_json_export_equals_json_dumps_layout(lib):
    assert render_table(lib, "json") == reference_json(lib)


TEX_SPECIALS = {"&": r"\&", "%": r"\%", "_": r"\_", "#": r"\#", "$": r"\$"}


def html_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def xml_escape(text: str) -> str:
    """XML cells are attribute values, so a double quote is escaped too."""
    return html_escape(text).replace('"', "&quot;")


def tex_escape(text: str) -> str:
    return "".join(TEX_SPECIALS.get(ch, ch) for ch in text)


def reference_tables(lib: RadionuclideLibrary) -> dict[str, str]:
    """The csv, html, xml and tex exports rendered cell by cell from entry_row."""
    rows = [entry_row(entry) for entry in lib.entries]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    html = ["<!DOCTYPE html>",
            f'<html><head><meta charset="utf-8"><title>{lib.radiation.code} '
            "radionuclide library</title></head>", "<body>", "<table>",
            "<thead><tr>" + "".join(f"<th>{c}</th>" for c in CSV_COLUMNS) + "</tr></thead>",
            "<tbody>"]
    html += ["<tr>" + "".join(f"<td>{html_escape(r[c])}</td>" for c in CSV_COLUMNS)
             + "</tr>" for r in rows]
    html += ["</tbody>", "</table>", "</body></html>"]
    xml = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<library radiation="{lib.radiation.code}">']
    xml += ["  <entry " + " ".join(f'{c}="{xml_escape(r[c])}"' for c in CSV_COLUMNS)
            + "/>" for r in rows]
    xml.append("</library>")
    tex = ["\\begin{tabular}{" + "l" * len(CSV_COLUMNS) + "}",
           " & ".join(tex_escape(c) for c in CSV_COLUMNS) + r" \\", r"\hline"]
    tex += [" & ".join(tex_escape(r[c]) for c in CSV_COLUMNS) + r" \\" for r in rows]
    tex.append(r"\end{tabular}")
    return {"csv": out.getvalue(), "html": "\n".join(html) + "\n",
            "xml": "\n".join(xml) + "\n", "tex": "\n".join(tex) + "\n"}


@given(json_libraries)
def test_table_rows_equal_each_entry_rendered_alone(lib):
    """Cells rendered once per distinct value equal each entry's own cells."""
    assert table_rows(lib) == [entry_cells(entry) for entry in lib.entries]


@example(RadionuclideLibrary(radiation=RadiationType.ALPHA, entries=[]))
@given(json_libraries)
def test_table_exports_equal_cell_by_cell_rendering(lib):
    rows = table_rows(lib)
    for fmt, expected in reference_tables(lib).items():
        assert render_table(lib, fmt, rows) == expected, fmt


# --- peak lists -------------------------------------------------------------------

peak_cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "centroid_kev", "net_area", "# note", "1e999", "-0"]),
    st.text(alphabet="0123456789.-+eE_ nainf", max_size=6),
)


def expected_peaks(rows):
    """Reference reading of peak rows: (peaks, line of the first bad row).
    Blank rows and '#' rows are skipped, and so is a first row whose centroid
    is not a number (a header); any later non-numeric centroid is bad."""
    peaks = []
    header = True
    for line, row in enumerate(rows, start=1):
        if not row or not row[0].strip() or row[0].strip().startswith("#"):
            continue
        try:
            centroid = float(row[0])
        except ValueError:
            if header:
                header = False
                continue
            return peaks, line
        header = False
        area_cell = row[1] if len(row) > 1 else ""
        try:
            area = float(area_cell) if area_cell.strip() else None
        except ValueError:
            return peaks, line
        if not (0 <= centroid < math.inf) or (area is not None and not math.isfinite(area)):
            return peaks, line
        peaks.append(Peak(centroid, area))
    return peaks, None


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(peak_cells, max_size=3), max_size=8))
def test_peak_rows_load_or_name_the_bad_line(tmp_path, rows):
    path = tmp_path / "peaks.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    peaks, bad_line = expected_peaks(rows)
    if bad_line is not None:
        with pytest.raises(InvalidInput, match=f"line {bad_line}:"):
            PeakList.load_csv(path)
    else:
        assert PeakList.load_csv(path).peaks == peaks


# --- outside input loads or raises a NuclibError -------------------------------

VALID_CONFIG = {
    "cache_dir": "cache",
    "offline": True,
    "registry_enabled": True,
    "base_url": "http://127.0.0.1:1",
    "out_dir": "out",
    "jobs": [
        {
            "name": "norm",
            "recursive_progenitors": ["238U", {"id": "232Th", "level": "gs"}],
            "static_nuclides": ["40K", {"id": "99Mo", "level": 0}],
            "exclusions": ["222Rn"],
            "radiation": "gamma",
            "prune": {"energy_kev": [20, 3000], "intensity_percent": [0.5, None],
                      "half_life_seconds": [None, 1e12]},
            "outputs": ["csv", "json"],
            "plot": {"enabled": True, "marker_registry": None,
                     "windows": [{"energy_kev": [0, 700], "intensity_percent": [1, 100],
                                  "annotate": True, "annotation_min_intensity": 5}]},
            "lineage": True,
        },
        {"name": "ac", "recursive_progenitors": ["225Ac"], "radiation": "alpha"},
    ],
}
ODD_VALUES = [None, True, False, 0, 7, -1.5, math.nan, math.inf, -math.inf, "", "x",
              "238u", [], [None], [math.nan, 1], ["a", "b"], [[1, 2]], {}, {"k": 1}]


def _paths(node, path=()):
    """The path (dict keys and list positions) of every value inside ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _with(path, value):
    """VALID_CONFIG with the value at ``path`` replaced."""
    config = copy.deepcopy(VALID_CONFIG)
    _at(config, path[:-1])[path[-1]] = value
    return config


@st.composite
def mutated_configs(draw):
    """VALID_CONFIG after one to three mutations: a value swapped for one of
    another type (NaN, infinities and strings in intervals included), a key or
    list item dropped, a list item duplicated, or a value copied from
    elsewhere (a job name onto another job's, say)."""
    config = copy.deepcopy(VALID_CONFIG)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(_paths(config))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _at(config, path[:-1]), path[-1]
        how = draw(st.sampled_from(["swap", "drop", "duplicate", "copy"]))
        if how == "drop":
            del parent[key]
        elif how == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif how == "copy":
            parent[key] = copy.deepcopy(_at(config, draw(st.sampled_from(paths))))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return config


def test_config_before_mutation_loads(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(VALID_CONFIG), encoding="utf-8")
    assert [job.name for job in load_config(path).jobs] == ["norm", "ac"]


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=mutated_configs())
@example(config=_with(("jobs", 0, "recursive_progenitors"), True))
@example(config=_with(("jobs", 0, "static_nuclides"), 5))
@example(config=_with(("jobs", 1, "exclusions"), 5))
@example(config=_with(("jobs", 0, "plot", "windows"), 7))
@example(config=_with(("jobs", 0, "static_nuclides", 1, "level"), True))
def test_mutated_config_loads_or_raises_a_nuclib_error(tmp_path, config):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    try:
        load_config(path)
    except NuclibError:
        pass


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=mutated_configs())
def test_mutated_config_that_loads_generates_or_fails_cleanly(tmp_path_factory, monkeypatch,
                                                             corpus_dir, config):
    """A mutated config that loads runs ``generate --offline`` from a primed
    cache in a directory of its own: it exits 0, 1 or 2, never with a
    traceback (an exception out of ``main``)."""
    work = tmp_path_factory.mktemp("generate")
    path = work / "run.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    try:
        load_config(path)
    except NuclibError:
        return
    prime_cache(corpus_dir, work / VALID_CONFIG["cache_dir"])
    monkeypatch.chdir(work)
    assert main(["generate", str(path), "--offline"]) in (0, 1, 2)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.binary(max_size=200))
@pytest.mark.parametrize("loader, header", [
    (PeakList.load_csv, b"centroid_kev,net_area\n"),
    (import_library_csv, ",".join(CSV_COLUMNS).encode() + b"\n"),
    (MarkerRegistry.load_csv, b"nuclide,shape,color,label\n"),
    (AbsenceRegistry.load, b"208pb:dr-a\n"),
], ids=["peaks", "library", "markers", "absences"])
@pytest.mark.parametrize("with_header", [False, True], ids=["raw", "after-header"])
def test_random_bytes_load_or_raise_a_nuclib_error(tmp_path, loader, header, with_header,
                                                    body):
    path = tmp_path / "input.csv"
    path.write_bytes(header + body if with_header else body)
    try:
        loader(path)
    except NuclibError:
        pass


MO99, TC99 = Nuclide("Mo", 99), Nuclide("Tc", 99)
FIXTURE_DATASETS = {
    "dr": DatasetKey.decay_rads(MO99, RadiationType.GAMMA),
    "lv": DatasetKey.levels(TC99),
    "tr": DatasetKey.transitions(TC99),
}
FIXTURE_BODIES = {kind: (CORPUS / key.filename()).read_text(encoding="utf-8")
                  for kind, key in FIXTURE_DATASETS.items()}
# Text that the CSV reader treats specially, weighted up, then anything.
CSV_TEXT = st.text(st.one_of(st.sampled_from('\r\n"\0,'), st.characters()),
                   min_size=1, max_size=8)


@given(data=st.data())
@pytest.mark.parametrize("kind", list(FIXTURE_DATASETS))
def test_fixture_body_with_inserted_text_parses_or_raises_a_nuclib_error(kind, data):
    bodies = dict(FIXTURE_BODIES)
    at = data.draw(st.integers(min_value=0, max_value=len(bodies[kind])))
    bodies[kind] = bodies[kind][:at] + data.draw(CSV_TEXT) + bodies[kind][at:]
    raw = {k: RawDataset(key, bodies[k], "cache") for k, key in FIXTURE_DATASETS.items()}
    try:
        if kind == "dr":
            parse_decay_records(raw["dr"])
        else:
            parse_level_scheme(raw["lv"], raw["tr"])
    except NuclibError:
        pass


# --- cascade laws ---------------------------------------------------------------

@st.composite
def schemes_with_starts(draw):
    n = Nuclide("Gd", 156)
    count = draw(st.integers(min_value=2, max_value=10))
    gaps = draw(st.lists(st.floats(min_value=3.0, max_value=150.0,
                                   allow_nan=False),
                         min_size=count, max_size=count))
    levels = [0.0]
    for gap in gaps:
        levels.append(round(levels[-1] + gap, 3))
    records = [LevelRecord(nuclide=n, energy=EnergyValue(kev)) for kev in levels]
    pairs = [(i, j) for i in range(len(levels)) for j in range(i)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=18, unique=True))
    transitions = [
        TransitionRecord(
            nuclide=n,
            start_level=EnergyValue(levels[i]),
            end_level=EnergyValue(levels[j]),
            gamma_energy=EnergyValue(round(levels[i] - levels[j], 3)),
        )
        for i, j in chosen
    ]
    scheme = LevelScheme(nuclide=n, levels=records, transitions=transitions)
    starts = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=4,
                           unique=True))
    extra = draw(st.lists(st.sampled_from(levels), max_size=3, unique=True))
    return scheme, [EnergyValue(s) for s in starts], [EnergyValue(e) for e in extra]


@given(schemes_with_starts())
def test_cascade_monotone(data):
    scheme, starts, extra = data
    small = {e.kev for e in cascade_visit(starts, scheme)}
    large = {e.kev for e in cascade_visit(starts + extra, scheme)}
    assert small <= large


@given(schemes_with_starts())
def test_cascade_idempotent(data):
    scheme, starts, _ = data
    visited = cascade_visit(starts, scheme)
    again = cascade_visit(visited, scheme)
    assert {e.kev for e in again} == {e.kev for e in visited}


# --- indexed tolerance lookups equal the linear scans ----------------------------

def scan_find_level(scheme, energy):
    """Linear-scan reference for LevelScheme.find_level."""
    best, best_delta = None, None
    for record in scheme.levels:
        if energies_match(record.energy, energy):
            delta = abs(record.energy.kev - energy.kev)
            if best is None or delta < best_delta:
                best, best_delta = record, delta
    return best


def scan_cascade_visit(start_levels, scheme, transitions, warnings):
    """Linear-scan reference for cascade_visit over the ``transitions`` the
    scheme was built from."""
    visited, frontier = [], []
    for start in start_levels:
        record = scan_find_level(scheme, start)
        if record is None:
            warnings.append(
                f"{scheme.nuclide}: start level {start.kev} keV matches no "
                f"level record"
            )
            visited.append(start)
            continue
        visited.append(record.energy)
        frontier.append(record.energy)
    seen = {e.kev for e in visited}
    while frontier:
        current = frontier.pop()
        for transition in transitions:
            if not energies_match(transition.start_level, current):
                continue
            record = scan_find_level(scheme, transition.end_level)
            end = record.energy if record is not None else transition.end_level
            if end.kev not in seen:
                seen.add(end.kev)
                visited.append(end)
                frontier.append(end)
    out = []
    for value in sorted(visited, key=lambda e: e.kev, reverse=True):
        if not any(v.kev == value.kev for v in out):
            out.append(value)
    return out


@st.composite
def crowded_schemes(draw):
    """Unsorted level schemes whose levels sit 0.5 keV apart with nonzero
    uncertainties, the transitions each was built from, and queries on a
    0.25 keV grid (midpoints give
    equal-distance ties). The offset puts some schemes at large energies,
    where kev +- tolerance rounds."""
    offset = draw(st.sampled_from([0.0, 1000.1, 98765.4321]))

    def energy(step):
        return st.builds(lambda k, u: EnergyValue(offset + step * k, u),
                         st.integers(min_value=0, max_value=24),
                         st.sampled_from([0.0, 0.05, 0.3, 0.7, 2.0]))

    n = Nuclide("Gd", 156)
    levels = [
        LevelRecord(nuclide=n, energy=e)
        for e in draw(st.lists(energy(0.5), min_size=1, max_size=12))
    ]
    transitions = [
        TransitionRecord(nuclide=n, start_level=start, end_level=end,
                         gamma_energy=EnergyValue(abs(start.kev - end.kev)))
        for start, end in draw(
            st.lists(st.tuples(energy(0.25), energy(0.25)), max_size=15))
    ]
    queries = draw(st.lists(energy(0.25), min_size=1, max_size=10))
    return LevelScheme(nuclide=n, levels=levels, transitions=transitions), transitions, queries


@given(crowded_schemes())
def test_find_level_matches_linear_scan(data):
    scheme, _, queries = data
    for query in queries + [record.energy for record in scheme.levels]:
        assert scheme.find_level(query) is scan_find_level(scheme, query)


@given(crowded_schemes())
def test_contains_matches_linear_scan(data):
    scheme, _, queries = data
    members = [record.energy for record in scheme.levels]
    flat = FlattenedLevels(all=members)
    for query in queries:
        assert flat.contains(query) == any(energies_match(query, m) for m in members)


@given(crowded_schemes())
def test_cascade_visit_matches_linear_scan(data):
    scheme, transitions, starts = data
    warnings, expected_warnings = [], []
    visited = cascade_visit(starts, scheme, warnings)
    assert visited == scan_cascade_visit(starts, scheme, transitions, expected_warnings)
    assert warnings == expected_warnings


@given(crowded_schemes(), st.sets(st.integers(min_value=0, max_value=12), max_size=3))
def test_duplicate_level_warnings_match_linear_scan(data, bad_rows):
    """The same kept levels and the same warnings, in file order, as the
    linear check; rows that fail to parse sit between the levels."""
    scheme, _, _ = data
    rows = [record.energy for record in scheme.levels]
    for at in sorted(bad_rows, reverse=True):
        rows.insert(min(at, len(rows)), None)
    key = DatasetKey.levels(scheme.nuclide)
    body = lv_body([
        {"symbol": "Gd", "a": 156, "energy": "nan"} if e is None else
        {"symbol": "Gd", "a": 156, "energy": e.kev, "unc_e": e.uncertainty_kev}
        for e in rows
    ])
    parsed, warnings = parse_level_scheme(RawDataset(key, body, "cache"), None)

    kept, expected = [], []
    for lineno, energy in enumerate(rows, start=2):
        if energy is None:
            expected.append(f"{key.serialize()} line {lineno}: ")
            continue
        clash = next((k for k in kept if energies_match(k, energy)), None)
        if clash is None:
            kept.append(energy)
        else:
            expected.append(
                f"{key.serialize()}: level {energy.kev} keV duplicates "
                f"{clash.kev} keV within tolerance; kept first"
            )
    if not any(e.kev == 0 for e in kept):
        kept.insert(0, EnergyValue(0.0))
        expected.append(f"{key.serialize()}: ground state missing")
    assert len(warnings) == len(expected)
    assert all(w.startswith(e) for w, e in zip(warnings, expected))
    assert [r.energy for r in parsed.levels] == sorted(kept, key=lambda e: e.kev)


# --- qualify on the energy index equals the linear scan --------------------------

def scan_qualify_peaks(
    peaks: PeakList, lib: RadionuclideLibrary, tol_kev: float
) -> list[PeakMatch]:
    """The linear-scan qualify_peaks that the energy index replaced, verbatim."""
    if not (0 < tol_kev < math.inf):
        raise InvalidInput(f"tolerance {tol_kev!r} keV is not finite and positive")
    matches = []
    for peak in peaks.peaks:
        candidates = [
            entry
            for entry in lib.entries
            if abs(entry.energy.kev - peak.centroid_kev) <= tol_kev
        ]
        candidates.sort(
            key=lambda entry: (
                abs(entry.energy.kev - peak.centroid_kev),
                -(entry.intensity_percent if entry.intensity_percent is not None else -1.0),
                str(entry.nuclide),
            )
        )
        matches.append(PeakMatch(peak=peak, candidates=candidates))
    return matches


@st.composite
def qualify_cases(draw):
    """A library whose entries share energies, intensities (None among them)
    and nuclides, a tolerance, and peaks that include every entry energy and
    every energy +- tolerance. Some energies are a whole number of tolerances
    apart, and the offset puts some libraries where kev +- tol rounds."""
    tol = draw(st.floats(min_value=1e-6, max_value=50.0))
    offset = draw(st.sampled_from([0.0, 1000.1, 98765.4321]))
    base = draw(st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1,
                         max_size=5))
    pool = [offset + kev for kev in base] + [offset + base[0] + k * tol for k in (1, 2, 3)]
    entries = draw(st.lists(st.builds(
        LibraryEntry,
        nuclide=st.sampled_from([Nuclide("U", 238), Nuclide("Ra", 226),
                                 Nuclide("Tc", 99, LevelSpec.meta(1))]),
        radiation=st.just(RadiationType.GAMMA),
        energy=st.sampled_from(pool).map(EnergyValue),
        intensity_percent=st.sampled_from([None, 0.0, 1.5, 30.0]),
        intensity_unc=st.just(0.0),
        half_life=st.none(),
        parent_level=st.just(EnergyValue(0.0)),
    ), max_size=30))
    centroids = {kev + step for kev in pool for step in (-tol, 0.0, tol)}
    centroids |= set(draw(st.lists(st.floats(min_value=0.0, max_value=offset + 400.0),
                                   max_size=5)))
    peaks = PeakList([Peak(c) for c in sorted(centroids) if c >= 0])
    return RadionuclideLibrary(radiation=RadiationType.GAMMA, entries=entries), peaks, tol


@given(qualify_cases())
def test_qualify_matches_linear_scan(case):
    lib, peaks, tol = case
    got = qualify_peaks(peaks, lib, tol)
    want = scan_qualify_peaks(peaks, lib, tol)
    assert [match.peak for match in got] == [match.peak for match in want]
    assert [[id(entry) for entry in match.candidates] for match in got] == [
        [id(entry) for entry in match.candidates] for match in want
    ]


# --- non-finite values in a dataset row become parse warnings --------------------

NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity"])


@given(
    column=st.sampled_from([
        "energy", "unc_en", "p_energy", "unc_pe", "half_life_sec", "unc_hls",
        "daughter_level_energy", "start_level_energy", "end_level_energy",
        "intensity", "unc_i", "decay_%",
    ]),
    value=NON_FINITE,
)
def test_non_finite_decay_row_is_a_warning(column, value):
    key = DatasetKey.decay_rads(Nuclide("U", 238), RadiationType.GAMMA)
    good = dr_row(("U", 238), ("Th", 234), mode="A", energy=49.55, start=49.55, end=0.0)
    raw = RawDataset(key, dr_body([dict(good, **{column: value}), good]), "cache")
    records, warnings = parse_decay_records(raw)
    assert len(records) == 1
    assert len(warnings) == 1 and "line 2" in warnings[0]


@given(
    column=st.sampled_from(["energy", "unc_e", "half_life_sec", "unc_hls", "decay_1_%"]),
    value=NON_FINITE,
)
def test_non_finite_level_row_is_a_warning(column, value):
    good = {"symbol": "Tc", "a": 99, "energy": 142.6836, "unc_e": 0.1,
            "half_life_sec": 1000.0, "unc_hls": 1.0, "decay_1": "IT", "decay_1_%": 100.0}
    ground = dict(good, energy=0.0)
    key = DatasetKey.levels(Nuclide("Tc", 99))
    body = lv_body([ground, dict(good, **{column: value}), good])
    scheme, warnings = parse_level_scheme(RawDataset(key, body, "cache"), None)
    assert [r.energy.kev for r in scheme.levels] == [0.0, 142.6836]
    assert len(warnings) == 1 and "line 3" in warnings[0]


@given(
    column=st.sampled_from([
        "start_level_energy", "unc_sl", "end_level_energy", "unc_el",
        "energy", "unc_en", "intensity",
    ]),
    value=st.one_of(NON_FINITE, st.just("abc")),
)
def test_bad_transition_row_is_a_warning(column, value):
    nuclide = Nuclide("Tc", 99)
    levels = lv_body([{"symbol": "Tc", "a": 99, "energy": kev} for kev in (0.0, 140.511)])
    good = {"symbol": "Tc", "a": 99, "start_level_energy": 140.511, "unc_sl": 0.01,
            "end_level_energy": 0.0, "unc_el": 0.0, "energy": 140.511,
            "unc_en": 0.01, "intensity": 89.0}
    scheme, warnings = parse_level_scheme(
        RawDataset(DatasetKey.levels(nuclide), levels, "cache"),
        RawDataset(DatasetKey.transitions(nuclide),
                   tr_body([dict(good, **{column: value}), good]), "cache"),
    )
    assert scheme.edges == [[], [0]]  # the good row alone is linked
    assert len(warnings) == 1 and "line 2" in warnings[0]



# --- bad ids and short rows become parse warnings --------------------------------

BAD_SYMBOLS = st.sampled_from(["0", "Xx", "abc", "", " "])
BAD_MASSES = st.sampled_from(["0", "301", "-5", "abc", "", "2.5"])


def _cut(body: str, line: int, cells: int) -> str:
    """``body`` with its ``line``-th line (1-based) cut to its first ``cells`` cells."""
    lines = body.split("\n")
    lines[line - 1] = ",".join(lines[line - 1].split(",")[:cells])
    return "\n".join(lines)


def _decay(body: str):
    key = DatasetKey.decay_rads(Nuclide("U", 238), RadiationType.ALPHA)
    return parse_decay_records(RawDataset(key, body, "cache"))


GOOD_DR = dr_row(("U", 238), ("Th", 234), mode="A", energy=4198.0)


@given(column=st.sampled_from(["p_symbol", "d_symbol"]), value=BAD_SYMBOLS)
def test_bad_symbol_in_decay_row_is_a_warning(column, value):
    records, warnings = _decay(dr_body([dict(GOOD_DR, **{column: value}), GOOD_DR]))
    assert len(records) == 1
    assert len(warnings) == 1 and "line 2: " in warnings[0]


@given(column=st.sampled_from(["p_a", "d_a"]), value=BAD_MASSES)
def test_bad_mass_in_decay_row_is_a_warning(column, value):
    records, warnings = _decay(dr_body([dict(GOOD_DR, **{column: value}), GOOD_DR]))
    assert len(records) == 1
    assert len(warnings) == 1 and "line 2: " in warnings[0]


@given(cells=st.integers(min_value=1, max_value=len(DR_COLUMNS)))
def test_short_decay_row_is_a_warning_or_lacks_only_optional_cells(cells):
    full = _decay(dr_body([GOOD_DR, GOOD_DR]))[0][0]
    records, warnings = _decay(_cut(dr_body([GOOD_DR, GOOD_DR]), 2, cells))
    present = DR_COLUMNS[:cells]
    if all(col in present for col in _DECAY_COLUMNS):
        assert warnings == [] and len(records) == 2
        assert records[0].energy == full.energy and records[0].parent == full.parent
    else:
        assert len(records) == 1
        assert len(warnings) == 1 and "line 2: " in warnings[0]


GOOD_LV = {"symbol": "Tc", "a": 99, "energy": 142.6836, "half_life_sec": 1000.0,
           "decay_1": "IT", "decay_1_%": 100.0}
GROUND_LV = dict(GOOD_LV, energy=0.0)


def _levels(body: str):
    key = DatasetKey.levels(Nuclide("Tc", 99))
    return parse_level_scheme(RawDataset(key, body, "cache"), None)


@given(column=st.sampled_from(["symbol", "a"]),
       value=st.one_of(BAD_SYMBOLS, BAD_MASSES))
def test_bad_id_in_level_row_is_a_warning(column, value):
    scheme, warnings = _levels(lv_body([GROUND_LV, dict(GOOD_LV, **{column: value}),
                                        GOOD_LV]))
    assert [r.energy.kev for r in scheme.levels] == [0.0, 142.6836]
    assert len(warnings) == 1 and "line 3: " in warnings[0]


@given(cells=st.integers(min_value=1, max_value=len(LV_COLUMNS)))
def test_short_level_row_is_a_warning_or_lacks_only_optional_cells(cells):
    scheme, warnings = _levels(_cut(lv_body([GROUND_LV, GOOD_LV]), 3, cells))
    present = LV_COLUMNS[:cells]
    if all(col in present for col in ("symbol", "a", "energy")):
        assert [r.energy.kev for r in scheme.levels] == [0.0, 142.6836]
    else:
        assert [r.energy.kev for r in scheme.levels] == [0.0]
        assert len(warnings) == 1 and "line 3: " in warnings[0]


GOOD_TR = {"symbol": "Tc", "a": 99, "start_level_energy": 140.511,
           "end_level_energy": 0.0, "energy": 140.511, "intensity": 89.0}


def _transitions(body: str):
    nuclide = Nuclide("Tc", 99)
    levels = lv_body([{"symbol": "Tc", "a": 99, "energy": kev} for kev in (0.0, 140.511)])
    return parse_level_scheme(
        RawDataset(DatasetKey.levels(nuclide), levels, "cache"),
        RawDataset(DatasetKey.transitions(nuclide), body, "cache"),
    )


@given(column=st.sampled_from(["symbol", "a"]),
       value=st.one_of(BAD_SYMBOLS, BAD_MASSES))
def test_bad_id_in_transition_row_is_a_warning(column, value):
    scheme, warnings = _transitions(tr_body([dict(GOOD_TR, **{column: value}), GOOD_TR]))
    assert scheme.edges == [[], [0]]
    assert len(warnings) == 1 and "line 2: " in warnings[0]


@given(cells=st.integers(min_value=1, max_value=len(TR_COLUMNS)))
def test_short_transition_row_is_a_warning_or_lacks_only_optional_cells(cells):
    scheme, warnings = _transitions(_cut(tr_body([GOOD_TR, GOOD_TR]), 2, cells))
    present = TR_COLUMNS[:cells]
    if all(col in present for col in _TRANSITION_COLUMNS):
        assert scheme.edges == [[], [0, 0]] and warnings == []
    else:
        assert scheme.edges == [[], [0]]
        assert len(warnings) == 1 and "line 2: " in warnings[0]

# --- traversal termination on random graphs -------------------------------------

@st.composite
def decay_graphs(draw):
    size = draw(st.integers(min_value=2, max_value=14))
    ids = [f"{120 + i}{SYMBOLS[40 + i].lower()}" for i in range(size)]
    links = {}
    for i, nid in enumerate(ids):
        cap = min(3, len(ids) - 1)
        daughters = draw(
            st.lists(st.sampled_from(ids), min_size=0, max_size=cap,
                     unique=True)
        )
        # self-decay rows are legal data (isomeric transitions); drop here to
        # focus the property on cross-nuclide edges incl. cycles/convergence
        daughters = [d for d in daughters if d != nid]
        if daughters:
            links[nid] = [(d, round(100.0 / len(daughters), 3))
                          for d in daughters]
    stable = {nid for nid in ids if nid not in links}
    return ids[0], links, stable


@settings(max_examples=40, deadline=None)
@given(decay_graphs())
def test_traversal_terminates_and_visits_once(graph):
    root, links, stable = graph
    source = simple_chain_source(links, stable)
    build = build_progeny(parse_nuclide_id(root), source)
    visited = [str(n) for n in build.order]
    assert len(visited) == len(set(visited))
    assert len(visited) <= len(links) + len(stable)
    edges = [(str(p), str(d)) for p, d in build.tree.edges()]
    assert len(edges) == len(set(edges))
    oracle_edges = {(p, d) for p, lst in links.items() for d, _ in lst}
    reachable_edges = {(p, d) for (p, d) in oracle_edges if p in visited}
    assert set(edges) == reachable_edges


def test_visit_cap_enforced_on_long_chain(monkeypatch):
    links = {f"{100 + i}sn": [(f"{101 + i}sn", 100.0)] for i in range(80)}
    source = simple_chain_source(links, stable={"181sn"})
    monkeypatch.setattr(chains_mod, "VISITED_CAP", 40)
    with pytest.raises(DepthExceeded):
        build_progeny(parse_nuclide_id("100sn"), source)
