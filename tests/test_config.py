import re

import pytest
import yaml

import nuclibgen.config as config_mod
from nuclibgen.config import load_config
from nuclibgen.errors import ConfigParseError, MalformedId, UnknownKey
from nuclibgen.nuclide import LevelSpec, Nuclide, RadiationType


def write(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U, 235U, 232Th]
"""))
    job = cfg.jobs[0]
    assert job.recursive_progenitors == [
        Nuclide("U", 238), Nuclide("U", 235), Nuclide("Th", 232)
    ]
    assert job.radiation is RadiationType.GAMMA
    assert job.prune.energy_kev == (0.0, float("inf"))
    assert job.prune.intensity_percent == (0.0, 100.0)
    assert job.prune.half_life_seconds is None
    assert job.outputs == ["csv"]
    assert not cfg.offline
    assert cfg.registry_enabled


def test_progenitor_level_spec_forms(tmp_path):
    cfg = load_config(write(tmp_path, """
jobs:
  - name: lutetium
    recursive_progenitors:
      - 177lu@m4
      - {id: 177lu, level: m4}
      - {id: 99tc, level: 142.6836}
"""))
    first, second, third = cfg.jobs[0].recursive_progenitors
    assert first == Nuclide("Lu", 177, LevelSpec.meta(4))
    assert second == first
    assert third.level.kind == "energy"


@pytest.mark.parametrize("level", ["-5", "mx", "m0", "true", "false", "yes"])
def test_bad_level_spec_rejected(tmp_path, level):
    with pytest.raises(ConfigParseError,
                       match=r"^jobs\[0\]\.recursive_progenitors: bad level "):
        load_config(write(tmp_path, f"""
jobs:
  - recursive_progenitors:
      - {{id: 99tc, level: {level}}}
"""))


def test_bad_nuclide_id_rejected(tmp_path):
    with pytest.raises(ConfigParseError) as err:
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [Xq-10]
"""))
    assert isinstance(err.value.__cause__, MalformedId)


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(UnknownKey) as err:
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
progenators: [oops]
"""))
    assert "progenators" in str(err.value)


def test_unknown_job_key(tmp_path):
    with pytest.raises(UnknownKey):
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
    radiaton: gamma
"""))


@pytest.mark.parametrize("text, allowed", [
    ("jobs: [{recursive_progenitors: [238U]}]\nbogus: 1\n",
     ["base_url", "cache_dir", "jobs", "offline", "out_dir", "registry_enabled"]),
    ("jobs: [{recursive_progenitors: [238U], bogus: 1}]\n",
     ["exclusions", "lineage", "name", "outputs", "plot", "prune", "radiation",
      "recursive_progenitors", "static_nuclides"]),
    ("jobs: [{recursive_progenitors: [238U], prune: {bogus: 1}}]\n",
     ["energy_kev", "half_life_seconds", "intensity_percent"]),
    ("jobs: [{recursive_progenitors: [238U], plot: {bogus: 1}}]\n",
     ["enabled", "marker_registry", "windows"]),
    ("jobs: [{recursive_progenitors: [238U], plot: {windows: [{bogus: 1}]}}]\n",
     ["annotate", "annotation_min_intensity", "energy_kev", "intensity_percent"]),
    ("jobs: [{recursive_progenitors: [{id: 238U, bogus: 1}]}]\n", ["id", "level"]),
], ids=["top", "job", "prune", "plot", "window", "nuclide"])
def test_each_mapping_allows_exactly_its_schema_keys(tmp_path, text, allowed):
    """The YAML schema, pinned: a field added to a config type would otherwise
    become a YAML key without notice."""
    with pytest.raises(UnknownKey) as err:
        load_config(write(tmp_path, text))
    assert str(err.value).endswith(f"unknown key(s) ['bogus']; allowed: {allowed}")


def test_job_requires_some_nuclide(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, """
jobs:
  - name: empty
"""))


def test_unknown_radiation(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
    radiation: neutrino
"""))


def test_radiation_names_are_each_type_by_name_and_code():
    assert config_mod.RADIATION_NAMES == {
        "alpha": RadiationType.ALPHA, "a": RadiationType.ALPHA,
        "beta_minus": RadiationType.BETA_MINUS, "beta-": RadiationType.BETA_MINUS,
        "bm": RadiationType.BETA_MINUS,
        "beta_plus_ec": RadiationType.BETA_PLUS_EC, "beta+": RadiationType.BETA_PLUS_EC,
        "bp": RadiationType.BETA_PLUS_EC,
        "gamma": RadiationType.GAMMA, "g": RadiationType.GAMMA,
        "electron": RadiationType.ELECTRON, "e": RadiationType.ELECTRON,
        "xray": RadiationType.XRAY, "x": RadiationType.XRAY,
    }


def test_yaml_syntax_error_reports_line(tmp_path):
    with pytest.raises(ConfigParseError) as err:
        load_config(write(tmp_path, "jobs:\n  - recursive_progenitors: [238U\n"))
    assert "line" in str(err.value)


@pytest.mark.parametrize("text, where", [
    ("jobs:\n  - recursive_progenitors: [238U\n", "at line 3, column 1"),
    ("jobs:\n\t- recursive_progenitors: [238U]\n", "at line 2, column 1"),
    # A control character is a reader error, which has no line mark.
    pytest.param("jobs: \x07\n", "position 6", id="reader-error"),
])
@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_either_yaml_loader_reports_the_error_position(tmp_path, monkeypatch, text,
                                                       where, loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(config_mod, "_YAML_LOADER", getattr(yaml, loader))
    with pytest.raises(ConfigParseError, match=f"{where}$"):
        load_config(write(tmp_path, text))


def test_yaml_loaders_build_the_same_config(tmp_path, monkeypatch):
    """libyaml's loader, used when PyYAML has it, reads what the pure-Python
    one reads: unbounded intervals, exponents, null, yes/no and a repeated key."""
    path = write(tmp_path, """
offline: yes
offline: no
jobs:
  - name: th
    recursive_progenitors: [232Th, 177Lu@m4]
    static_nuclides: [99Tc@142.6836keV]
    prune:
      energy_kev: [0, .inf]
      half_life_seconds: [1e-6, ~]
    plot: {enabled: true, windows: [{energy_kev: [0, 2e3]}]}
""")
    loaded = {}
    for loader in ("SafeLoader", "CSafeLoader"):
        if hasattr(yaml, loader):
            monkeypatch.setattr(config_mod, "_YAML_LOADER", getattr(yaml, loader))
            loaded[loader] = load_config(path)
    assert len(set(map(repr, loaded.values()))) == 1


def test_prune_and_plot_sections(tmp_path):
    cfg = load_config(write(tmp_path, """
jobs:
  - name: th
    recursive_progenitors: [232Th]
    radiation: alpha
    prune:
      energy_kev: [0, 10000]
      intensity_percent: [0.001, 100]
      half_life_seconds: [1e-6, null]
    outputs: [csv, tex]
    plot:
      enabled: true
      windows:
        - energy_kev: [0, 2000]
          intensity_percent: [0.001, 100]
          annotate: true
          annotation_min_intensity: 10
"""))
    job = cfg.jobs[0]
    assert job.radiation is RadiationType.ALPHA
    assert job.prune.energy_kev == (0.0, 10000.0)
    assert job.prune.half_life_seconds == (1e-6, float("inf"))
    assert job.outputs == ["csv", "tex"]
    assert len(job.plot.windows) == 1
    assert job.plot.windows[0].annotation_min_intensity == 10.0


def test_unknown_prune_key(tmp_path):
    with pytest.raises(UnknownKey):
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
    prune: {energy: [0, 10]}
"""))


def test_inverted_prune_interval_rejected(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
    prune: {energy_kev: [100, 10]}
"""))


@pytest.mark.parametrize("section, key", [
    ("prune: {energy_kev: [a, 1]}", "jobs[0].prune.energy_kev"),
    ("prune: {half_life_seconds: [1, b]}", "jobs[0].prune.half_life_seconds"),
    ("prune: {energy_kev: [.nan, 1000]}", "energy_kev"),
    ("plot: {windows: [{intensity_percent: [0, x]}]}",
     "jobs[0].plot.windows[0].intensity_percent"),
    ("plot: {windows: [{annotation_min_intensity: abc}]}",
     "jobs[0].plot.windows[0].annotation_min_intensity"),
    ("plot: {windows: [{energy_kev: [2000, 0]}]}", "jobs[0].plot.windows[0].energy_kev"),
    ("plot: {windows: [{intensity_percent: [50, 1]}]}",
     "jobs[0].plot.windows[0].intensity_percent"),
    ("plot: {windows: [{energy_kev: [.nan, 10]}]}", "jobs[0].plot.windows[0].energy_kev"),
    ("plot: {windows: [{annotation_min_intensity: .nan}]}",
     "jobs[0].plot.windows[0].annotation_min_intensity"),
    ("plot: {windows: [{annotation_min_intensity: -.inf}]}",
     "jobs[0].plot.windows[0].annotation_min_intensity"),
    ("prune: {energy_kev: [true, 2000]}", "jobs[0].prune.energy_kev"),
    ("plot: {windows: [{annotation_min_intensity: true}]}",
     "jobs[0].plot.windows[0].annotation_min_intensity"),
], ids=["energy", "half-life", "nan-bound", "window-intensity", "annotation-min",
        "window-inverted-energy", "window-inverted-intensity", "window-nan-bound",
        "window-nan-min", "window-inf-min", "boolean-bound", "boolean-min"])
def test_bad_number_names_its_key(tmp_path, section, key):
    with pytest.raises(ConfigParseError, match=re.escape(key)):
        load_config(write(tmp_path, f"""
jobs:
  - recursive_progenitors: [238U]
    {section}
"""))


@pytest.mark.parametrize("top, job, key", [
    ("cache_dir: 5", "", "cache_dir"),
    ("out_dir: [a]", "", "out_dir"),
    ("base_url: 1", "", "base_url"),
    ("", "plot: {marker_registry: 3}", "jobs[0].plot.marker_registry"),
    ("", "name: 7", "jobs[0].name"),
    ("", "radiation: 5", "jobs[0].radiation"),
], ids=["cache_dir", "out_dir", "base_url", "marker_registry", "name", "radiation"])
def test_value_that_is_not_a_string_is_rejected(tmp_path, top, job, key):
    with pytest.raises(ConfigParseError, match=re.escape(key) + ": expected a string"):
        load_config(write(tmp_path, f"""
{top}
jobs:
  - recursive_progenitors: [238U]
    {job}
"""))


@pytest.mark.parametrize("jobs, key", [
    ("[{name: x, recursive_progenitors: [238U]},"
     " {name: x, recursive_progenitors: [232Th]}]", "jobs[1].name"),
    ("[{name: job2, recursive_progenitors: [238U]}, {recursive_progenitors: [232Th]}]",
     "jobs[1].name"),
    ("[{name: a/b, recursive_progenitors: [238U]}]", "jobs[0].name"),
    ("[{name: 'a\\b', recursive_progenitors: [238U]}]", "jobs[0].name"),
    ('[{name: "a\\0b", recursive_progenitors: [238U]}]', "jobs[0].name"),
], ids=["repeated", "repeats-a-default", "slash", "backslash", "nul"])
def test_job_name_must_be_unique_and_a_file_name(tmp_path, jobs, key):
    with pytest.raises(ConfigParseError, match=re.escape(key) + ": "):
        load_config(write(tmp_path, f"jobs: {jobs}\n"))


@pytest.mark.parametrize("top, job, key", [
    ('offline: "false"', "", "offline"),
    ("registry_enabled: 0", "", "registry_enabled"),
    ("", "lineage: 'no'", "jobs[0].lineage"),
    ("", "plot: {enabled: 1}", "jobs[0].plot.enabled"),
    ("", "plot: {windows: [{annotate: 'true'}]}", "jobs[0].plot.windows[0].annotate"),
], ids=["offline", "registry_enabled", "lineage", "plot-enabled", "annotate"])
def test_switch_that_is_not_a_yaml_boolean_is_rejected(tmp_path, top, job, key):
    with pytest.raises(ConfigParseError, match=re.escape(key) + ": expected true or false"):
        load_config(write(tmp_path, f"""
{top}
jobs:
  - recursive_progenitors: [238U]
    {job}
"""))


@pytest.mark.parametrize("outputs, match", [
    ("[csv, pdf]", "jobs[0].outputs: unsupported format 'pdf'; one of csv, html,"),
    ("[csv, CSV]", "jobs[0].outputs: 'csv' is listed twice"),
    ("csv", "jobs[0].outputs: expected a list of format names, got 'csv'"),
], ids=["unsupported", "repeated", "not-a-list"])
def test_outputs_must_be_distinct_table_formats(tmp_path, outputs, match):
    with pytest.raises(ConfigParseError, match=re.escape(match)):
        load_config(write(tmp_path, f"""
jobs:
  - recursive_progenitors: [238U]
    outputs: {outputs}
"""))


@pytest.mark.parametrize("job, key", [
    ("recursive_progenitors: true", "jobs[0].recursive_progenitors"),
    ("recursive_progenitors: 5", "jobs[0].recursive_progenitors"),
    ("recursive_progenitors: '238u'", "jobs[0].recursive_progenitors"),
    ("recursive_progenitors: {id: 238U}", "jobs[0].recursive_progenitors"),
    ("static_nuclides: 5", "jobs[0].static_nuclides"),
    ("recursive_progenitors: [238U]\n    exclusions: 222Rn", "jobs[0].exclusions"),
    ("recursive_progenitors: [238U]\n    plot: {windows: 7}", "jobs[0].plot.windows"),
], ids=["progenitors-bool", "progenitors-int", "progenitors-str", "progenitors-mapping",
        "statics-int", "exclusions-str", "windows-int"])
def test_value_that_is_not_a_list_is_rejected(tmp_path, job, key):
    with pytest.raises(ConfigParseError, match=re.escape(key) + ": expected a list"):
        load_config(write(tmp_path, f"""
jobs:
  - {job}
"""))


@pytest.mark.parametrize("text, match", [
    ("5\n", "run.yaml: top level must be a mapping or job list"),
    ("jobs: [{recursive_progenitors: [238U], plot: 5}]\n",
     "jobs[0].plot: plot must be a mapping or boolean"),
    ("jobs: [{recursive_progenitors: [238U], plot: {windows: [5]}}]\n",
     "jobs[0].plot.windows[0]: expected a mapping"),
    ("jobs: [{recursive_progenitors: [{level: m1}]}]\n",
     "jobs[0].recursive_progenitors: nuclide mapping needs an 'id'"),
    ("jobs: [{recursive_progenitors: [238U], prune: 5}]\n",
     "jobs[0].prune: prune must be a mapping"),
], ids=["top-level", "plot", "plot-window", "nuclide-without-id", "prune"])
def test_config_of_the_wrong_shape_is_rejected(tmp_path, text, match):
    with pytest.raises(ConfigParseError, match=re.escape(match)):
        load_config(write(tmp_path, text))


def test_null_radiation_means_gamma(tmp_path):
    cfg = load_config(write(tmp_path, """
jobs:
  - recursive_progenitors: [238U]
    radiation: null
"""))
    assert cfg.jobs[0].radiation is RadiationType.GAMMA


def test_config_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_bytes("jobs:\n  - name: café\n    recursive_progenitors: [238U]\n"
                     .encode("latin-1"))
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_config(path)


def test_config_path_with_a_nul_byte_is_a_parse_error(tmp_path):
    with pytest.raises(ConfigParseError, match="cannot read"):
        load_config(tmp_path / "a\0b.yaml")


def test_bare_job_list_accepted(tmp_path):
    cfg = load_config(write(tmp_path, """
- recursive_progenitors: [226Ra]
"""))
    assert len(cfg.jobs) == 1


def test_empty_file_rejected(tmp_path):
    with pytest.raises(ConfigParseError):
        load_config(write(tmp_path, ""))
