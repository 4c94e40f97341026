import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import nuclibgen.chains as chains_mod
from nuclibgen.chains import (
    KIND_ORDER,
    assemble_subset,
    build_progeny,
    render_lineage,
)
from nuclibgen.dataaccess import AccessConfig, DataStore, DatasetKey
from nuclibgen.errors import DataUnavailable, DepthExceeded, EmptySubset, NetworkError
from nuclibgen.library import assemble_library
from nuclibgen.nuclide import LevelSpec, Nuclide, RadiationType, parse_nuclide_id

from conftest import (
    MockServer, brute_edges, dr_body, dr_row, lv_body, simple_chain_source, tree_edges,
)


def ids(members):
    return [str(m) for m in members]


@pytest.fixture(scope="module")
def th_build(primed_store):
    return build_progeny(parse_nuclide_id("232th"), primed_store)


def test_thorium_series_chain(th_build):
    members = ids(th_build.chain.members)
    assert members[:5] == ["232th", "228ra", "228ac", "228th", "224ra"]
    assert "208tl" in members
    assert "208pb" not in members  # stable terminus excluded


def test_uranium_series_chain_prefix_and_isomer_split(primed_store):
    build = build_progeny(parse_nuclide_id("238u"), primed_store)
    members = ids(build.chain.members)
    assert members[:5] == ["238u", "234th", "234pa@m", "234pa", "234u"]
    assert "206tl" in members


def test_actinium_series_chain_prefix(primed_store):
    build = build_progeny(parse_nuclide_id("235u"), primed_store)
    members = ids(build.chain.members)
    assert members[:5] == ["235u", "231th", "231pa", "227ac", "223fr"]
    assert "207tl" in members


def test_ac225_chain_members_and_terminus(primed_store):
    build = build_progeny(parse_nuclide_id("225ac"), primed_store)
    members = ids(build.chain.members)
    for expected in ("221fr", "217at", "213bi", "213po", "209tl"):
        assert expected in members
    assert "205tl" not in members          # ends before the stable nuclide
    assert "209bi" in members              # treated as radioactive per data


def test_synthetic_three_nuclide_chain():
    # A -> B -> C(stable) -> chain [A, B], tree A -> B -> C
    source = simple_chain_source(
        {"131te": [("131i", 100.0)], "131i": [("131xe", 100.0)]},
        stable={"131xe"},
    )
    build = build_progeny(parse_nuclide_id("131te"), source)
    assert ids(build.chain.members) == ["131te", "131i"]
    assert tree_edges(build.tree) == [
        ("131te", "131i"), ("131i", "131xe"),
    ]


def test_parent_levels_resolving_to_one_level_give_one_member():
    """131I is fed at 100.0 keV and decays from parent levels 99.1 and
    100.9 keV: they do not match each other, but both resolve to the one
    100.0 keV level, so they give one chain member."""
    source = simple_chain_source(
        {"131te": [("131i", 100.0)], "131i": [("131xe", 100.0)]},
        stable={"131xe"},
    )
    source.bodies["131te:dr-bm"] = dr_body([dr_row(("Te", 131), ("I", 131), fed=100.0)])
    source.bodies["131i:lv"] = lv_body([{"symbol": "I", "a": 131, "energy": kev}
                                        for kev in (0.0, 100.0)])
    source.bodies["131i:dr-bm"] = dr_body([dr_row(("I", 131), ("Xe", 131), p_energy=kev)
                                           for kev in (99.1, 100.9)])
    build = build_progeny(parse_nuclide_id("131te"), source)
    assert ids(build.chain.members) == ["131te", "131i@100.0kev"]


def test_stable_progenitor_is_terminal(primed_store):
    build = build_progeny(parse_nuclide_id("208pb"), primed_store)
    assert ids(build.chain.members) == ["208pb"]
    assert not build.nodes[parse_nuclide_id("208pb")].records
    assert build.tree.children == []


def test_visit_cap_raises(monkeypatch):
    links = {f"{100 + i}sn": [(f"{101 + i}sn", 100.0)] for i in range(60)}
    source = simple_chain_source(links, stable={"161sn"})
    monkeypatch.setattr(chains_mod, "VISITED_CAP", 50)
    with pytest.raises(DepthExceeded):
        build_progeny(parse_nuclide_id("100sn"), source)


def test_cycle_terminates_via_visited_set():
    source = simple_chain_source(
        {"120sb": [("120te", 100.0)], "120te": [("120sb", 100.0)]}, stable=set()
    )
    build = build_progeny(parse_nuclide_id("120sb"), source)
    assert ids(build.chain.members) == ["120sb", "120te"]


def test_membership_independent_of_kind_query_order(primed_store, monkeypatch):
    baseline = build_progeny(parse_nuclide_id("235u"), primed_store)
    monkeypatch.setattr(chains_mod, "KIND_ORDER", tuple(reversed(KIND_ORDER)))
    shuffled = build_progeny(parse_nuclide_id("235u"), primed_store)
    assert set(ids(baseline.chain.members)) == set(ids(shuffled.chain.members))


def test_edges_match_brute_force_and_are_unique(th_build, corpus_dir):
    edges = tree_edges(th_build.tree)
    assert len(edges) == len(set(edges))
    assert set(edges) == brute_edges(corpus_dir, "232th")


def test_missing_data_raises_data_unavailable(tmp_path):
    from nuclibgen.dataaccess import AccessConfig, DataStore

    store = DataStore(AccessConfig(cache_dir=tmp_path / "empty", offline=True))
    with pytest.raises(DataUnavailable):
        build_progeny(parse_nuclide_id("232th"), store)


def test_subset_matches_displayed_union(primed_store):
    subset = assemble_subset(
        [parse_nuclide_id(p) for p in ("238u", "235u", "232th")],
        [], [], primed_store,
    )
    members = ids(subset.members)
    assert members[:3] == ["238u", "234th", "234pa@m"]
    for tl in ("206tl", "207tl", "208tl"):
        assert tl in members


def test_subset_exclusion(primed_store):
    full = assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)
    pruned = assemble_subset(
        [parse_nuclide_id("225ac")], [], [parse_nuclide_id("209tl")], primed_store
    )
    assert "209tl" in ids(full.members)
    assert "209tl" not in ids(pruned.members)
    assert set(ids(pruned.members)) == set(ids(full.members)) - {"209tl"}


def test_statics_contribute_no_descendants(primed_store):
    subset = assemble_subset([], [parse_nuclide_id("234th")], [], primed_store)
    assert ids(subset.members) == ["234th"]


def test_empty_subset_raises(primed_store):
    with pytest.raises(EmptySubset):
        assemble_subset(
            [], [parse_nuclide_id("234th")], [parse_nuclide_id("234th")],
            primed_store,
        )


def test_static_with_level_spec(primed_store):
    static = Nuclide("Tc", 99, LevelSpec.meta(1))
    subset = assemble_subset([], [static], [], primed_store)
    assert ids(subset.members) == ["99tc@m"]


def lines_of(subset, member, radiation):
    return [e for e in assemble_library(subset, radiation).entries
            if str(e.nuclide) == member]


@pytest.mark.parametrize("static, progenitor, radiation", [
    ("99tc@m", "99mo", RadiationType.GAMMA),
    ("234pa@m", "238u", RadiationType.GAMMA),
    ("213bi", "225ac", RadiationType.ALPHA),
    ("212bi", "232th", RadiationType.ALPHA),
    ("177lu@m4", "177lu@m4", RadiationType.GAMMA),
])
def test_static_lines_equal_chain_member_lines(primed_store, static, progenitor,
                                               radiation):
    alone = assemble_subset([], [parse_nuclide_id(static)], [], primed_store)
    chain = assemble_subset([parse_nuclide_id(progenitor)], [], [], primed_store)
    assert ids(alone.members) == [static]
    assert lines_of(alone, static, radiation)
    for rad in RadiationType:
        assert lines_of(alone, static, rad) == lines_of(chain, static, rad), rad


class RecordingSource:
    """Passes requests through to a store and records their keys in order."""

    def __init__(self, store):
        self.store = store
        self.requests: list[str] = []

    def fetch_dataset(self, key):
        self.requests.append(key.serialize())
        return self.store.fetch_dataset(key)


def test_static_fetches_own_datasets_and_daughter_schemes_only(primed_store):
    source = RecordingSource(primed_store)
    assemble_subset([], [parse_nuclide_id("213bi")], [], source)
    own = [f"213bi:dr-{rad.code}" for rad in KIND_ORDER] + ["213bi:lv", "213bi:tr"]
    assert source.requests[:8] == own
    assert sorted(source.requests[8:]) == [
        "209tl:lv", "209tl:tr", "213po:lv", "213po:tr",
    ]


def test_static_visited_by_a_chain_resolves_to_the_chain_member(primed_store):
    chain_only = assemble_subset([parse_nuclide_id("99mo")], [], [], primed_store)
    static = Nuclide("Tc", 99, LevelSpec.energy(142.68))
    subset = assemble_subset([parse_nuclide_id("99mo")], [static], [], primed_store)
    assert ids(assemble_subset([], [static], [], primed_store).members) == ["99tc@m"]
    # With the chain, the static adds no member: it resolved to the chain's 99tc@m.
    assert ids(subset.members) == ids(chain_only.members)
    member = next(m for m in subset.nodes[parse_nuclide_id("99tc")].members
                  if str(m.nuclide) == "99tc@m")
    assert member.level_kev == pytest.approx(142.6836)


def test_static_daughter_of_an_earlier_static_keeps_its_lines(primed_store):
    both = assemble_subset([], [parse_nuclide_id("228ac"), parse_nuclide_id("228th")],
                           [], primed_store)
    alone = assemble_subset([], [parse_nuclide_id("228th")], [], primed_store)
    assert lines_of(both, "228th", RadiationType.ALPHA)
    for rad in RadiationType:
        assert lines_of(both, "228th", rad) == lines_of(alone, "228th", rad), rad


def entries_by_radiation(subset):
    return {rad: sorted(map(repr, assemble_library(subset, rad).entries))
            for rad in RadiationType}


def test_static_warnings_do_not_depend_on_static_order(warning_cache):
    """225Ra reads its daughter 225Ac's level scheme alone; 225Ac, a static of
    its own, parses it in full. In either order each of the two statics
    reports the bad 225Ac level row once, as two one-level chains would."""
    store = DataStore(AccessConfig(cache_dir=warning_cache, offline=True))
    ra, ac = parse_nuclide_id("225ra"), parse_nuclide_id("225ac")
    forward = assemble_subset([], [ra, ac], [], store)
    backward = assemble_subset([], [ac, ra], [], store)
    assert entries_by_radiation(forward) == entries_by_radiation(backward)
    assert sorted(forward.warnings) == sorted(backward.warnings)
    for subset in (forward, backward):
        assert sum("non-finite value 'nan'" in w for w in subset.warnings) == 2
        assert (subset.nuclides_parsed, subset.nuclides_reused) == (2, 0)


def test_static_reports_its_settle_warnings(primed_store):
    subset = assemble_subset([], [parse_nuclide_id("99tc@150kev")], [], primed_store)
    assert "99tc: start level 150.0 keV matches no level record" in subset.warnings


@pytest.mark.parametrize("recursive, statics, counts", [
    (["229th"], ["225ac", "213bi"], (11, 2)),
    ([], ["213bi", "213bi"], (1, 1)),
    ([], ["213bi", "213po"], (2, 0)),
])
def test_static_visits_served_from_the_memo_count_as_reused(primed_store, recursive,
                                                            statics, counts):
    """A static whose nuclide an earlier chain or static visited in full is
    reused; a static's daughters, read for their level schemes, count as
    neither parsed nor reused."""
    subset = assemble_subset([parse_nuclide_id(n) for n in recursive],
                             [parse_nuclide_id(n) for n in statics], [], primed_store)
    assert (subset.nuclides_parsed, subset.nuclides_reused) == counts


def test_unknown_isomer_ordinal_raises(primed_store):
    with pytest.raises(DataUnavailable):
        build_progeny(Nuclide("Lu", 177, LevelSpec.meta(9)), primed_store)


def test_render_lineage_single_node(primed_store):
    build = build_progeny(parse_nuclide_id("208pb"), primed_store)
    assert render_lineage(build.tree) == "208pb\n"


def test_render_lineage_orders_children_by_descending_branching(primed_store):
    source = simple_chain_source(
        {"213bi": [("209tl", 2.2), ("213po", 97.8)]},
        stable={"209tl", "213po"},
    )
    build = build_progeny(parse_nuclide_id("213bi"), source)
    text = render_lineage(build.tree)
    lines = text.splitlines()
    assert lines[0] == "213bi"
    assert lines[1] == "  213po (97.8%)"
    assert lines[2] == "  209tl (2.2%)"


def test_render_lineage_np237_branch_point(primed_store):
    build = build_progeny(parse_nuclide_id("237np"), primed_store)
    text = render_lineage(build.tree)
    lines = text.splitlines()
    bi_idx = next(i for i, l in enumerate(lines) if l.strip().startswith("213bi"))
    indent = len(lines[bi_idx]) - len(lines[bi_idx].lstrip())
    children = [
        l.strip() for l in lines[bi_idx + 1:]
        if len(l) - len(l.lstrip()) == indent + 2
    ][:2]
    assert children[0].startswith("213po (97.8%)")
    assert children[1].startswith("209tl (2.2%)")
    # converging branch marked, shown exactly once with and once without '*'
    pb_lines = [l.strip() for l in lines if l.strip().startswith("209pb")]
    assert len(pb_lines) == 2
    assert sum(1 for l in pb_lines if l.endswith("*")) == 1


def test_lineage_indentation_unit_is_two_spaces(th_build):
    lines = render_lineage(th_build.tree).splitlines()
    depths = {len(l) - len(l.lstrip()) for l in lines}
    assert all(d % 2 == 0 for d in depths)
    assert lines[0] == "232th"
    assert lines[1].startswith("  228ra")


def test_failing_transitions_are_ignored_when_levels_are_absent(tmp_path,
                                                                mini_corpus_dir):
    server = MockServer(mini_corpus_dir)
    server.cfg["overrides"]["90y:lv"] = "0"
    server.cfg["fail_keys"].add("90y:tr")
    try:
        with DataStore(AccessConfig(base_url=server.url, cache_dir=tmp_path)) as store:
            build = build_progeny(parse_nuclide_id("90sr"), store)
            assert ids(build.chain.members) == ["90sr", "90y"]
            assert build.nodes[parse_nuclide_id("90y")].scheme is None
            # The prefetched transitions did fail; the build never looked.
            with pytest.raises(NetworkError):
                store.fetch_dataset(DatasetKey.transitions(parse_nuclide_id("90y")))
    finally:
        server.stop()


def test_merges_resettle_only_nodes_fed_a_new_level(monkeypatch, primed_store):
    nested = [parse_nuclide_id(n) for n in ("237np", "233u", "229th", "225ac")]
    settles = []
    settle, add_inherited = chains_mod._settle, chains_mod.NodeData.add_inherited

    def counting_settle(node):
        settles.append(node.nuclide)
        settle(node)

    def always_added(node, levels):
        add_inherited(node, levels)
        return True

    monkeypatch.setattr(chains_mod, "_settle", counting_settle)
    twice = assemble_subset(nested[-1:] * 2, [], [], primed_store)
    assert len(settles) == 2 * len(twice.nodes)  # the second build adds nothing

    settles.clear()
    skipping = assemble_subset(nested, [], [], primed_store)
    skipping_settles = len(settles)
    settles.clear()
    monkeypatch.setattr(chains_mod.NodeData, "add_inherited", always_added)
    resettling = assemble_subset(nested, [], [], primed_store)
    assert skipping_settles < len(settles)
    for rad in RadiationType:
        assert (assemble_library(skipping, rad).entries
                == assemble_library(resettling, rad).entries), rad


def test_static_reports_its_daughters_parse_warnings():
    source = simple_chain_source(
        {"131te": [("131i", 100.0)], "131i": [("131xe", 100.0)]},
        stable={"131xe"},
    )
    source.bodies["131i:lv"] = lv_body([
        {"symbol": "I", "a": 131, "energy": 0.0, "unc_e": 0.0, "jp": "7/2+",
         "half_life_sec": 1000.0, "decay_1": "B-", "decay_1_%": 100.0},
        {"symbol": "I", "a": 131, "energy": "nan", "unc_e": 0.0, "jp": "1/2+",
         "half_life_sec": 1.0, "decay_1": "IT", "decay_1_%": 100.0},
    ])
    te131 = parse_nuclide_id("131te")
    chain = assemble_subset([te131], [], [], source)
    static = assemble_subset([], [te131], [], source)
    nan_warnings = [w for w in chain.warnings if "nan" in w]
    assert nan_warnings == ["131i:lv line 3: non-finite value 'nan'"]
    assert [w for w in static.warnings if "nan" in w] == nan_warnings


def test_failed_visit_is_not_memoised():
    source = simple_chain_source(
        {"131te": [("131i", 100.0)], "131i": [("131xe", 100.0)]},
        stable={"131xe"},
    )
    fetch, failing = source.fetch_dataset, {"131i:lv"}

    def flaky_fetch(key):
        if key.serialize() in failing:
            raise NetworkError("HTTP 503")
        return fetch(key)

    source.fetch_dataset = flaky_fetch
    te131, i131 = parse_nuclide_id("131te"), parse_nuclide_id("131i")
    memo = {}
    with pytest.raises(DataUnavailable):
        assemble_subset([te131], [], [], source, memo=memo)
    assert te131 in memo and i131 not in memo

    failing.clear()
    source.requests.clear()
    subset = assemble_subset([te131], [], [], source, memo=memo)
    assert "131i:lv" in source.requests and not any(
        key.startswith("131te:") for key in source.requests)
    assert (subset.nuclides_parsed, subset.nuclides_reused) == (2, 1)
    assert ids(subset.members) == ids(assemble_subset([te131], [], [], source).members)


NESTED = [parse_nuclide_id(n) for n in ("237np", "233u", "229th", "225ac")]


def test_settle_warnings_are_reported_by_every_job_sharing_the_memo():
    """131I is fed at 50 keV, which its level scheme lacks; a job that takes
    that settle from the memo reports the warning a fresh settle adds."""
    source = simple_chain_source(
        {"131te": [("131i", 100.0)], "131i": [("131xe", 100.0)]},
        stable={"131xe"},
    )
    source.bodies["131te:dr-bm"] = dr_body([dr_row(("Te", 131), ("I", 131), fed=50.0)])
    te131 = parse_nuclide_id("131te")
    memo = {}
    first = assemble_subset([te131], [], [], source, memo=memo)
    second = assemble_subset([te131], [], [], source, memo=memo)
    alone = assemble_subset([te131], [], [], source)
    missing = [w for w in first.warnings if "matches no level record" in w]
    assert missing == ["131i: start level 50.0 keV matches no level record"]
    assert second.warnings == first.warnings == alone.warnings
    assert second.nuclides_parsed == 0


def test_shared_chains_settle_each_feeding_context_once(monkeypatch, primed_store):
    """The six jobs of the benchmark's shared-chains workload, which share one
    memo, flatten each (nuclide, fed levels) context once."""
    flattens = Counter()
    flatten = chains_mod.flatten_levels

    def counting(inherited, scheme, warnings=None):
        flattens[scheme.nuclide, tuple(inherited)] += 1
        return flatten(inherited, scheme, warnings)

    monkeypatch.setattr(chains_mod, "flatten_levels", counting)
    memo = {}
    subsets = [assemble_subset(NESTED, [], [], primed_store, memo=memo) for _ in range(6)]
    assert sum(flattens.values()) == 17
    assert set(flattens.values()) == {1}
    assert all(subset.members == subsets[0].members for subset in subsets)


def test_static_daughters_level_schemes_are_parsed_once_per_run(monkeypatch,
                                                                 fresh_primed_store):
    primed_store = fresh_primed_store  # no stored parses yet: the first run parses
    parses = Counter()
    parse = chains_mod.parse_level_scheme

    def counting(levels, transitions):
        parses[levels.key.serialize()] += 1
        return parse(levels, transitions)

    monkeypatch.setattr(chains_mod, "parse_level_scheme", counting)
    statics = [parse_nuclide_id(n) for n in ("213bi", "99mo", "228ac")]
    memo = {}
    subsets = [assemble_subset([], statics, [], primed_store, memo=memo) for _ in range(3)]
    daughters = {"209tl:lv", "213po:lv", "99tc:lv", "228th:lv"}
    assert daughters <= set(parses)
    assert set(parses.values()) == {1}
    alone = assemble_subset([], statics, [], primed_store)
    for subset in subsets:
        assert subset.members == alone.members
        assert subset.warnings == alone.warnings
        for nuclide, node in alone.nodes.items():
            assert subset.nodes[nuclide].flattened == node.flattened, nuclide


@pytest.mark.parametrize("chain_first", [True, False])
def test_chain_and_static_daughter_share_one_scheme_parse(monkeypatch, fresh_primed_store,
                                                         chain_first):
    """99Mo as a progenitor and as a static, in either order on one memo: its
    daughter 99Tc, visited in the chain and read as the static's daughter,
    has its level scheme parsed once, and both subsets match fresh ones."""
    primed_store = fresh_primed_store  # no stored parses yet: the first run parses
    parses = Counter()
    parse = chains_mod.parse_level_scheme

    def counting(levels, transitions):
        parses[levels.key.serialize()] += 1
        return parse(levels, transitions)

    monkeypatch.setattr(chains_mod, "parse_level_scheme", counting)
    mo99 = parse_nuclide_id("99mo")
    calls = [([mo99], []), ([], [mo99])]
    if not chain_first:
        calls.reverse()
    memo = {}
    subsets = [assemble_subset(r, s, [], primed_store, memo=memo) for r, s in calls]
    assert parses["99tc:lv"] == 1
    assert set(parses.values()) == {1}
    for (recursive, statics), subset in zip(calls, subsets):
        alone = assemble_subset(recursive, statics, [], primed_store)
        assert subset.members == alone.members
        assert subset.warnings == alone.warnings
        for nuclide, node in alone.nodes.items():
            assert subset.nodes[nuclide].flattened == node.flattened, nuclide
            assert subset.nodes[nuclide].warnings == node.warnings, nuclide


def test_threads_sharing_a_memo_store_one_settle_per_context(primed_store):
    """Six threads assemble the nested chains on one memo with a tiny switch
    interval: each matches a serial assembly, and every node of a nuclide takes
    the one stored settle (the same flattened object), not a racing copy."""
    workers, barrier, memo = 6, threading.Barrier(6), {}
    serial = assemble_subset(NESTED, [], [], primed_store)

    def assemble(_):
        store = DataStore(AccessConfig(cache_dir=primed_store.cache_dir, offline=True))
        barrier.wait(timeout=30)
        return assemble_subset(NESTED, [], [], store, memo=memo)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(assemble, i) for i in range(workers)]
            subsets = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for subset in subsets:
        assert subset.members == serial.members
        assert subset.warnings == serial.warnings
        for nuclide, node in subset.nodes.items():
            assert node.flattened is subsets[0].nodes[nuclide].flattened, nuclide
            assert node.flattened == serial.nodes[nuclide].flattened, nuclide
