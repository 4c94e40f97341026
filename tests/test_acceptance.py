"""Acceptance criteria for the generator, one test per criterion.

Each test prints one PASS line on success (run with ``pytest -s`` or ``-rA``
to see them). Counts are checked bit-exact against the pinned fixture corpus;
the live-data comparison of criterion 4 only runs when a live endpoint is
provided via NUCLIBGEN_LIVE_BASE_URL.
"""

import os
import time

import pytest

from nuclibgen.chains import assemble_subset, build_progeny, render_lineage
from nuclibgen.cli import run
from nuclibgen.config import load_config
from nuclibgen.dataaccess import KIND_TRANSITIONS
from nuclibgen.identify import Peak, PeakList, qualify_peaks
from nuclibgen.library import PruneBounds, assemble_library, prune
from nuclibgen.nuclide import DecayMode, RadiationType, parse_nuclide_id

from conftest import MockServer, brute_edges

ALPHA_BOUNDS = PruneBounds(energy_kev=(0, 10000), intensity_percent=(0.001, 100))
GAMMA_BOUNDS = PruneBounds(energy_kev=(0, 2000), intensity_percent=(0.001, 100))

SERIES_PROGENITORS = {
    "thorium": "232th",
    "neptunium": "237np",
    "uranium": "238u",
    "actinium": "235u",
}

# Chain membership is pinned against the fixture corpus (bit-exact check).
EXPECTED_CHAINS = {
    "238u": ["238u", "234th", "234pa@m", "234pa", "234u", "230th", "226ra",
             "222rn", "218po", "214pb", "214bi", "210tl", "210pb", "210bi",
             "206tl", "210po", "214po", "218at"],
    "235u": ["235u", "231th", "231pa", "227ac", "223fr", "223ra", "219rn",
             "215po", "211pb", "211bi", "207tl", "211po", "227th"],
    "232th": ["232th", "228ra", "228ac", "228th", "224ra", "220rn", "216po",
              "212pb", "212bi", "208tl", "212po"],
}

EXPECTED_COUNTS = {
    "thorium": {"alpha": 48, "gamma": 520},
    "neptunium": {"alpha": 84, "gamma": 420},
    "uranium": {"alpha": 77, "gamma": 820},
    "actinium": {"alpha": 120, "gamma": 736},
}


def ids(members):
    return [str(m) for m in members]


def test_criterion_01_actinide_subset_membership(primed_store):
    t0 = time.perf_counter()
    subset = assemble_subset(
        [parse_nuclide_id(p) for p in ("238u", "235u", "232th")],
        [], [], primed_store,
    )
    elapsed = time.perf_counter() - t0

    for chain in subset.recursive_chains:
        expected = EXPECTED_CHAINS[str(chain.progenitor)]
        got = ids(chain.members)
        assert got[:5] == expected[:5], f"{chain.progenitor}: prefix {got[:5]}"
        assert got == expected, f"{chain.progenitor}: exact member list"
    members = ids(subset.members)
    assert members[1:4] == ["234th", "234pa@m", "234pa"]
    for tl in ("206tl", "207tl", "208tl"):
        assert tl in members
    assert elapsed < 10.0, f"cached assembly took {elapsed:.2f}s"
    print(f"PASS criterion 1: X_h membership exact, cached in {elapsed:.2f}s")


def test_criterion_02_ac225_alpha_emitters(primed_store):
    build = build_progeny(parse_nuclide_id("225ac"), primed_store)
    members = ids(build.chain.members)
    assert "205tl" not in members, "chain must end before the stable nuclide"
    assert "209bi" in members, "2e19-year Bi-209 is radioactive per data"

    subset = assemble_subset([parse_nuclide_id("225ac")], [], [], primed_store)
    lib = prune(assemble_library(subset, RadiationType.ALPHA), ALPHA_BOUNDS)
    emitters = {str(e.nuclide) for e in lib.entries}
    assert emitters == {"225ac", "221fr", "217at", "213bi", "213po"}
    print("PASS criterion 2: Ac-225 alpha emitters exactly "
          "{Ac-225, Fr-221, At-217, Bi-213, Po-213} at >= 0.001%")


class NoTransitions:
    """A source whose every transitions dataset is absent, so no cascade
    reaches a level its parents do not feed."""

    def __init__(self, source):
        self.source = source

    def fetch_dataset(self, key):
        if key.kindcode == KIND_TRANSITIONS:
            return None
        return self.source.fetch_dataset(key)


def test_criterion_03_isomer_inference_and_cascade_regression(primed_store):
    subset = assemble_subset([parse_nuclide_id("99mo")], [], [], primed_store)
    assert "99tc@m" in ids(subset.members)

    node = subset.nodes[parse_nuclide_id("99tc")]
    isomer = next(
        record for record in node.scheme.levels
        if abs(record.energy.kev - 142.6836) < 0.01
    )
    assert node.flattened.contains(isomer.energy) and isomer.is_isomer
    assert {m for m, _ in isomer.decay_modes} == {
        DecayMode.IT, DecayMode.BETA_MINUS
    }

    lib = assemble_library(subset, RadiationType.GAMMA)
    line = next(
        e for e in lib.entries
        if str(e.nuclide) == "99tc@m" and abs(e.energy.kev - 140.511) < 0.01
    )
    assert line.parent_level.kev == pytest.approx(142.6836)

    control = assemble_subset([parse_nuclide_id("99mo")], [], [],
                              NoTransitions(primed_store))
    assert ids(control.members) == ["99mo", "99tc@m"]
    control_lib = assemble_library(control, RadiationType.GAMMA)
    assert not any(abs(e.energy.kev - 140.511) < 0.01
                   for e in control_lib.entries), \
        "cascade-off control must lose the 140.511 keV entry"
    assert "99tc" not in ids(control.members), \
        "cascade-off control must lose the Tc-99 ground member"
    print("PASS criterion 3: Tc-99m inferred {IT, B-} at 142.6836 keV with "
          "140.511 keV gamma; cascade-off control loses it")


def test_criterion_04_pruning_scale(primed_store):
    per_series = {}
    for name, progenitor in SERIES_PROGENITORS.items():
        subset = assemble_subset([parse_nuclide_id(progenitor)], [], [],
                                 primed_store)
        alpha = prune(assemble_library(subset, RadiationType.ALPHA),
                      ALPHA_BOUNDS)
        gamma = prune(assemble_library(subset, RadiationType.GAMMA),
                      GAMMA_BOUNDS)
        per_series[name] = {"alpha": len(alpha.entries),
                            "gamma": len(gamma.entries)}
    assert per_series == EXPECTED_COUNTS, "bit-exact against pinned fixtures"

    alpha_mean = sum(v["alpha"] for v in per_series.values()) / 4.0
    gamma_mean = sum(v["gamma"] for v in per_series.values()) / 4.0
    assert alpha_mean == pytest.approx(82.25)
    assert gamma_mean == pytest.approx(624.0)
    print(f"PASS criterion 4: per-series counts {per_series} "
          f"(means alpha {alpha_mean}, gamma {gamma_mean})")


def test_criterion_04_live_leg(tmp_path):
    base_url = os.environ.get("NUCLIBGEN_LIVE_BASE_URL")
    if not base_url:
        pytest.skip("live-data +-15% leg needs NUCLIBGEN_LIVE_BASE_URL")
    from nuclibgen.dataaccess import AccessConfig, DataStore

    store = DataStore(AccessConfig(base_url=base_url,
                                   cache_dir=tmp_path / "live_cache"))
    totals = {"alpha": 0, "gamma": 0}
    for progenitor in SERIES_PROGENITORS.values():
        subset = assemble_subset([parse_nuclide_id(progenitor)], [], [], store)
        totals["alpha"] += len(
            prune(assemble_library(subset, RadiationType.ALPHA),
                  ALPHA_BOUNDS).entries
        )
        totals["gamma"] += len(
            prune(assemble_library(subset, RadiationType.GAMMA),
                  GAMMA_BOUNDS).entries
        )
    assert abs(totals["alpha"] / 4.0 - 82.25) <= 0.15 * 82.25
    assert abs(totals["gamma"] / 4.0 - 624.0) <= 0.15 * 624.0
    print("PASS criterion 4 (live): per-series means within +-15%")


def _mini_config(tmp_path, url, cache_name="cache", registry=True):
    cfg = tmp_path / f"mini_{cache_name}_{registry}.yaml"
    cfg.write_text(f"""
cache_dir: {tmp_path / cache_name}
base_url: {url}
registry_enabled: {'true' if registry else 'false'}
out_dir: {tmp_path / 'out'}
jobs:
  - name: sr90
    recursive_progenitors: [90Sr]
    radiation: bm
""", encoding="utf-8")
    return cfg


def test_criterion_05_cache_effect(tmp_path, mini_corpus_dir):
    server = MockServer(mini_corpus_dir, latency=0.2)
    try:
        cfg = _mini_config(tmp_path, server.url)
        cold = run(load_config(cfg))
        assert cold.ok and cold.jobs[0].network_calls > 0
        cold_time = cold.jobs[0].total_seconds

        warm = run(load_config(cfg))
        assert warm.ok
        assert warm.jobs[0].network_calls == 0
        warm_time = warm.jobs[0].total_seconds
        reduction = 1.0 - warm_time / cold_time
        assert reduction >= 0.80, f"only {reduction:.1%} faster"
        print(f"PASS criterion 5: warm run 0 network calls, "
              f"{reduction:.1%} wall-time reduction "
              f"({cold_time:.2f}s -> {warm_time:.2f}s)")
    finally:
        server.stop()


def test_criterion_06_registry_effect(tmp_path, mini_corpus_dir):
    server = MockServer(mini_corpus_dir, latency=0.2)
    try:
        # prime cache + registry with one cold run
        cfg_reg = _mini_config(tmp_path, server.url)
        assert run(load_config(cfg_reg)).ok

        cfg_noreg = _mini_config(tmp_path, server.url, registry=False)
        server.reset()
        without = run(load_config(cfg_noreg))
        assert without.ok
        reprobes = without.jobs[0].network_calls
        assert reprobes > 0, "screening disabled: absent keys re-probed"
        assert server.requests == reprobes
        without_time = without.jobs[0].total_seconds

        server.reset()
        screened = run(load_config(cfg_reg))
        assert screened.ok
        assert screened.jobs[0].network_calls == 0
        assert screened.jobs[0].registry_skips == reprobes
        screened_time = screened.jobs[0].total_seconds
        assert screened_time < without_time
        print(f"PASS criterion 6: registry skips {reprobes} absent probes "
              f"({without_time:.2f}s -> {screened_time:.2f}s)")
    finally:
        server.stop()


def test_criterion_07_lu177m_job(primed_store):
    subset = assemble_subset([parse_nuclide_id("177lu@m4")], [], [],
                             primed_store)
    lib = assemble_library(subset, RadiationType.GAMMA)
    emitters = {str(e.nuclide) for e in lib.entries}
    assert "177lu@m4" in emitters, "the designated m4 isomer emits"
    assert "177lu" in emitters, "its ground-state daughter is included"
    member = next(m for m in subset.nodes[parse_nuclide_id("177lu")].members
                  if str(m.nuclide) == "177lu@m4")
    assert member.level_kev == pytest.approx(970.1757)
    print("PASS criterion 7: Lu-177m (970.1757 keV) library includes both "
          "Lu-177m and Lu-177")


def test_criterion_08_peak_qualification(primed_store):
    subset = assemble_subset(
        [parse_nuclide_id(p) for p in ("238u", "235u", "232th", "40k")],
        [], [], primed_store,
    )
    lib = prune(assemble_library(subset, RadiationType.GAMMA), GAMMA_BOUNDS)

    k40 = qualify_peaks(PeakList([Peak(1460.8)]), lib, 1.0)[0]
    top = k40.candidates[0]
    assert str(top.nuclide) == "40k"
    assert top.energy.kev == pytest.approx(1460.82)
    assert top.intensity_percent == pytest.approx(10.66)

    overlap = qualify_peaks(PeakList([Peak(186.0)]), lib, 0.5)[0]
    found = {(str(c.nuclide), round(c.energy.kev, 3)) for c in overlap.candidates}
    assert ("226ra", 186.211) in found
    assert ("235u", 185.713) in found
    print("PASS criterion 8: 1460.8 keV -> K-40 (10.66%); 186.0 keV -> "
          "{Ra-226 186.211, U-235 185.713}")


def test_criterion_09_property_suites():
    """The property suites of criterion 9 run as tests/test_properties.py
    (hypothesis): Eq-style subset identity under random R/S/E, prune
    idempotence/monotonicity/commutativity, cascade monotonicity and
    idempotence, parse/format round-trip, CSV export/import identity, and
    traversal termination on randomized graphs with convergent branches.
    This criterion asserts the suite is present and importable."""
    import test_properties

    wanted = (
        "test_subset_equals_set_identity",
        "test_prune_idempotent",
        "test_prune_commutes_across_applications",
        "test_prune_monotone_narrower_is_subset",
        "test_cascade_monotone",
        "test_cascade_idempotent",
        "test_parse_format_round_trip",
        "test_csv_round_trip_identity",
        "test_traversal_terminates_and_visits_once",
    )
    for name in wanted:
        assert hasattr(test_properties, name), name
    print("PASS criterion 9: property suites present (run in "
          "tests/test_properties.py)")


def test_criterion_10_np237_lineage_edges(primed_store, corpus_dir):
    build = build_progeny(parse_nuclide_id("237np"), primed_store)
    text = render_lineage(build.tree)

    rendered_edges = []
    stack = []  # (depth, id)
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip())) // 2
        nid = line.strip().split(" ")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            rendered_edges.append((stack[-1][1], nid))
        stack.append((depth, nid))

    assert len(rendered_edges) == len(set(rendered_edges)), "no duplicate edge"
    assert set(rendered_edges) == brute_edges(corpus_dir, "237np"), \
        "lineage edges equal the brute-force enumeration of the corpus"
    assert ("213bi", "213po") in rendered_edges
    assert ("213bi", "209tl") in rendered_edges
    print(f"PASS criterion 10: Np-237 lineage carries all "
          f"{len(rendered_edges)} fixture edges exactly once incl. the "
          f"Bi-213 branch")
