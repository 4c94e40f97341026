"""YAML run configuration with a strict schema.

The config dataclasses are the schema: a YAML mapping's keys are the field
names of the type it fills. Unknown keys are errors: a typo in a progenitor
list silently producing the wrong library is exactly the class of human error
batch generation is meant to remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import isfinite
from pathlib import Path

import yaml

from .errors import ConfigParseError, MalformedId, UnknownKey
from .export import TABLE_FORMATS, read_text
from .library import INF, PruneBounds
from .nuclide import LevelSpec, Nuclide, RadiationType, parse_nuclide_id
from .plot import PlotWindow

# Each radiation type by its lowercase name and by its code, plus "beta-" and "beta+".
RADIATION_NAMES = {
    **{spelling: r for r in RadiationType for spelling in (r.name.lower(), r.code)},
    "beta-": RadiationType.BETA_MINUS,
    "beta+": RadiationType.BETA_PLUS_EC,
}

@dataclass
class PlotConfig:
    enabled: bool = True
    windows: list[PlotWindow] = field(default_factory=list)
    marker_registry: str | None = None


@dataclass
class JobConfig:
    name: str
    recursive_progenitors: list[Nuclide] = field(default_factory=list)
    static_nuclides: list[Nuclide] = field(default_factory=list)
    exclusions: list[Nuclide] = field(default_factory=list)
    radiation: RadiationType = RadiationType.GAMMA
    prune: PruneBounds = field(default_factory=PruneBounds)
    outputs: list[str] = field(default_factory=lambda: ["csv"])
    plot: PlotConfig = field(default_factory=PlotConfig)
    lineage: bool = True


@dataclass
class RunConfig:
    jobs: list[JobConfig]
    cache_dir: str | None = None
    offline: bool = False
    registry_enabled: bool = True
    base_url: str | None = None
    out_dir: str = "out"


def _field_names(kind: type) -> set[str]:
    """The keys of a YAML mapping that fills the config type ``kind``."""
    return {f.name for f in fields(kind)}


def _reject_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise UnknownKey(f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _parse_nuclide_entry(item, context: str) -> Nuclide:
    if isinstance(item, str):
        return parse_nuclide_id(item)
    if isinstance(item, dict):
        _reject_unknown(item, {"id", "level"}, context)
        if "id" not in item:
            raise ConfigParseError(f"{context}: nuclide mapping needs an 'id'")
        nuclide = parse_nuclide_id(str(item["id"]))
        level = item.get("level")
        if level is None:
            return nuclide
        if isinstance(level, bool):  # a bool is an int: true would read as 1 keV
            raise ConfigParseError(f"{context}: bad level {level!r}: expected an "
                                   "energy in keV, 'ground' or 'm<n>'")
        try:
            if isinstance(level, (int, float)):
                return nuclide.at_level(LevelSpec.energy(float(level)))
            text = str(level).strip().lower()
            if text in ("ground", "gs", "0"):
                return nuclide
            if text.startswith("m"):
                ordinal = 1 if text == "m" else int(text[1:])
                return nuclide.at_level(LevelSpec.meta(ordinal))
            return nuclide.at_level(LevelSpec.energy(float(text)))
        except ValueError as exc:
            raise ConfigParseError(f"{context}: bad level {level!r}: {exc}") from exc
    raise ConfigParseError(f"{context}: expected a nuclide id or mapping, got {item!r}")


def _nuclide_list(job: dict, key: str, context: str) -> list[Nuclide]:
    """``job[key]`` as a list of nuclides; empty when the key is absent or null."""
    context = f"{context}.{key}"
    items = _typed(job.get(key), list, [], context)
    return [_parse_nuclide_entry(item, context) for item in items]


_KIND_NAMES = {bool: "true or false", str: "a string", list: "a list"}


def _typed(value, kind: type, default, context: str):
    """A YAML value of type ``kind`` (bool, str or list); ``default`` when the
    key is absent or null."""
    if value is None:
        return default
    if not isinstance(value, kind):
        raise ConfigParseError(f"{context}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _number(value, context: str) -> float:
    """A YAML number or numeric string; a boolean is not a number."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigParseError(f"{context}: expected a number, got {value!r}")


def _parse_interval(mapping: dict, key: str, context: str, default):
    """``mapping[key]`` as a (lo, hi) pair with lo <= hi, null meaning
    unbounded; ``default`` when the key is absent or null."""
    value = mapping.get(key)
    if value is None:
        return default
    context = f"{context}.{key}"
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigParseError(f"{context}: expected [lo, hi]")
    lo = -INF if value[0] is None else _number(value[0], context)
    hi = INF if value[1] is None else _number(value[1], context)
    if not lo <= hi:
        raise ConfigParseError(f"{context}: expected lo <= hi, got [{lo}, {hi}]")
    return (lo, hi)


def _parse_prune(value, context: str) -> PruneBounds:
    if value is None:
        return PruneBounds()
    if not isinstance(value, dict):
        raise ConfigParseError(f"{context}: prune must be a mapping")
    _reject_unknown(value, _field_names(PruneBounds), context)
    return PruneBounds(
        energy_kev=_parse_interval(value, "energy_kev", context, (0.0, INF)),
        intensity_percent=_parse_interval(value, "intensity_percent", context, (0.0, 100.0)),
        half_life_seconds=_parse_interval(value, "half_life_seconds", context, None),
    )


def _parse_plot(value, context: str) -> PlotConfig:
    if value is None:
        return PlotConfig()
    if isinstance(value, bool):
        return PlotConfig(enabled=value)
    if not isinstance(value, dict):
        raise ConfigParseError(f"{context}: plot must be a mapping or boolean")
    _reject_unknown(value, _field_names(PlotConfig), context)
    windows = []
    for i, win in enumerate(_typed(value.get("windows"), list, [], f"{context}.windows")):
        wctx = f"{context}.windows[{i}]"
        if not isinstance(win, dict):
            raise ConfigParseError(f"{wctx}: expected a mapping")
        _reject_unknown(win, _field_names(PlotWindow), wctx)
        minimum = _number(win.get("annotation_min_intensity", 10.0),
                          f"{wctx}.annotation_min_intensity")
        if not isfinite(minimum):
            raise ConfigParseError(
                f"{wctx}.annotation_min_intensity: expected a finite number, got {minimum}")
        windows.append(
            PlotWindow(
                energy_kev=_parse_interval(win, "energy_kev", wctx, (0.0, INF)),
                intensity_percent=_parse_interval(
                    win, "intensity_percent", wctx, (0.0, 100.0)
                ),
                annotate=_typed(win.get("annotate"), bool, True, f"{wctx}.annotate"),
                annotation_min_intensity=minimum,
            )
        )
    return PlotConfig(
        enabled=_typed(value.get("enabled"), bool, True, f"{context}.enabled"),
        windows=windows,
        marker_registry=_typed(value.get("marker_registry"), str, None,
                               f"{context}.marker_registry"),
    )


def _parse_job(value, index: int) -> JobConfig:
    context = f"jobs[{index}]"
    if not isinstance(value, dict):
        raise ConfigParseError(f"{context}: expected a mapping")
    _reject_unknown(value, _field_names(JobConfig), context)
    name = _typed(value.get("name"), str, "", f"{context}.name") or f"job{index + 1}"
    if "/" in name or "\\" in name:
        raise ConfigParseError(f"{context}.name: {name!r} contains a path separator")
    if "\0" in name:
        raise ConfigParseError(f"{context}.name: {name!r} contains a NUL byte")

    try:
        progenitors = _nuclide_list(value, "recursive_progenitors", context)
        statics = _nuclide_list(value, "static_nuclides", context)
        exclusions = _nuclide_list(value, "exclusions", context)
    except MalformedId as exc:
        raise ConfigParseError(f"{context}: {exc}") from exc
    if not progenitors and not statics:
        raise ConfigParseError(
            f"{context}: at least one recursive progenitor or static nuclide required"
        )

    radiation_text = _typed(value.get("radiation"), str, "gamma", f"{context}.radiation")
    radiation_text = radiation_text.strip().lower()
    if radiation_text not in RADIATION_NAMES:
        raise ConfigParseError(
            f"{context}: unknown radiation {radiation_text!r}; "
            f"one of {sorted(set(RADIATION_NAMES))}"
        )

    outputs = value.get("outputs")
    if outputs is None:
        outputs = ["csv"]
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ConfigParseError(
            f"{context}.outputs: expected a list of format names, got {outputs!r}")
    outputs = [o.lower() for o in outputs]
    for i, fmt in enumerate(outputs):
        if fmt not in TABLE_FORMATS:
            raise ConfigParseError(
                f"{context}.outputs: unsupported format {fmt!r}; "
                f"one of {', '.join(TABLE_FORMATS)}"
            )
        if fmt in outputs[:i]:
            raise ConfigParseError(f"{context}.outputs: {fmt!r} is listed twice")

    return JobConfig(
        name=name,
        recursive_progenitors=progenitors,
        static_nuclides=statics,
        exclusions=exclusions,
        radiation=RADIATION_NAMES[radiation_text],
        prune=_parse_prune(value.get("prune"), f"{context}.prune"),
        outputs=outputs,
        plot=_parse_plot(value.get("plot"), f"{context}.plot"),
        lineage=_typed(value.get("lineage"), bool, True, f"{context}.lineage"),
    )


# libyaml's safe loader builds the same objects as the pure-Python one about
# ten times faster; PyYAML built without libyaml has only the latter.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: Path | str) -> RunConfig:
    """Load and validate a YAML run configuration.

    Raises ConfigParseError with line diagnostics for YAML syntax errors and
    UnknownKey for any key outside the documented schema.
    """
    path = Path(path)
    text = read_text(path, ConfigParseError, "", "utf-8")
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigParseError(f"{path}: {exc.problem}{where}") from exc
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc

    if raw is None:
        raise ConfigParseError(f"{path}: empty configuration")
    if isinstance(raw, list):
        raw = {"jobs": raw}
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top level must be a mapping or job list")
    _reject_unknown(raw, _field_names(RunConfig), str(path))

    jobs_raw = raw.get("jobs")
    if not jobs_raw or not isinstance(jobs_raw, list):
        raise ConfigParseError(f"{path}: 'jobs' must be a non-empty list")
    jobs = [_parse_job(job, i) for i, job in enumerate(jobs_raw)]
    names: set[str] = set()
    for i, job in enumerate(jobs):
        if job.name in names:
            raise ConfigParseError(f"jobs[{i}].name: {job.name!r} names an earlier job too")
        names.add(job.name)

    return RunConfig(
        jobs=jobs,
        cache_dir=_typed(raw.get("cache_dir"), str, None, "cache_dir"),
        offline=_typed(raw.get("offline"), bool, False, "offline"),
        registry_enabled=_typed(raw.get("registry_enabled"), bool, True, "registry_enabled"),
        base_url=_typed(raw.get("base_url"), str, None, "base_url"),
        out_dir=_typed(raw.get("out_dir"), str, "out", "out_dir"),
    )
