"""Couple a radionuclide subset to validated nuclear data and prune the
result by energy, emission probability, and half-life.

A member's entries come from its node's records grouped by (radiation, parent
level). What entries share (half-lives, parent levels, flag sets marked
unvalidated, gamma-gate verdicts) is built once per distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .chains import ChainMember, NodeData, RadionuclideSubset
from .errors import EmptySubset, InvertedBounds
from .nuclide import EnergyValue, HalfLife, Nuclide, PerValue, RadiationType
from .records import FLAG_UNVALIDATED

INF = float("inf")


class LibraryEntry(NamedTuple):
    """One radiation line of the library, ascribed to its emitting member."""

    nuclide: Nuclide
    radiation: RadiationType
    energy: EnergyValue
    intensity_percent: float | None
    intensity_unc: float
    half_life: HalfLife | None
    parent_level: EnergyValue
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class PruneBounds:
    """Closed intervals on the three prunable nuclear parameters; an interval
    with lo > hi raises InvertedBounds."""

    energy_kev: tuple[float, float] = (0.0, INF)
    intensity_percent: tuple[float, float] = (0.0, 100.0)
    half_life_seconds: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("energy_kev", "intensity_percent", "half_life_seconds"):
            interval = getattr(self, name)
            if interval is not None and not interval[0] <= interval[1]:
                raise InvertedBounds(f"{name}: lo {interval[0]} > hi {interval[1]}")


@dataclass
class RadionuclideLibrary:
    """The final radiation-type-specific table for one radionuclide subset."""

    radiation: RadiationType
    entries: list[LibraryEntry]
    bounds: PruneBounds = field(default_factory=PruneBounds)


def _gate_gamma(
    nodes: dict[Nuclide, NodeData], daughter: Nuclide, start_level: EnergyValue
) -> bool | None:
    """True/False keep/drop verdict for a gamma emitted from ``start_level``
    of ``daughter``; None when the daughter's levels could not be validated."""
    node = nodes.get(daughter.ground_state)
    if node is None or node.flattened is None:
        return None
    return node.flattened.contains(start_level)


def assemble_library(
    subset: RadionuclideSubset,
    radiation: RadiationType,
    warnings: list[str] | None = None,
) -> RadionuclideLibrary:
    """Couple every subset member to its decay records of one radiation type.

    Records at unfeasible levels were already excluded by member resolution
    and gamma gating; members with no records of this type contribute nothing
    but remain subset members.
    """
    if not subset.members:
        raise EmptySubset("cannot assemble a library from an empty subset")
    sink = warnings if warnings is not None else []

    member_index: dict[Nuclide, ChainMember] = {}
    for node in subset.nodes.values():
        for member in node.members:
            member_index[member.nuclide] = member

    # Built once per distinct value: gamma-gate verdicts per (daughter, start
    # level), flag sets marked unvalidated, and the half-lives and parent levels
    # without uncertainty that entries carry: exactly what the CSV schema can
    # represent, so that export/import round-trips are the identity.
    verdicts = PerValue(lambda key: _gate_gamma(subset.nodes, *key))
    marked = PerValue(lambda flags: flags | {FLAG_UNVALIDATED})
    half_lives = PerValue(lambda half_life: HalfLife(half_life.seconds))
    parents = PerValue(lambda level: EnergyValue(level.kev))
    entries: list[LibraryEntry] = []
    order: dict[Nuclide, int] = {}
    for position, identity in enumerate(subset.members):
        order[identity] = position
        member = member_index.get(identity)
        if member is None:
            continue  # stable progenitor or static: nothing to couple
        fallback = None if member.half_life_s is None else HalfLife(member.half_life_s)
        level = EnergyValue(member.level_kev)
        for rec in subset.nodes[member.node].parsed.at_level(level, radiation):
            flags = marked[rec.flags] if member.unvalidated else rec.flags
            if radiation is RadiationType.GAMMA and rec.start_level is not None:
                verdict = verdicts[rec.daughter, rec.start_level]
                if verdict is False:
                    continue  # emitting level unreachable: unviable radiation
                if verdict is None:
                    flags = marked[rec.flags]
                    sink.append(
                        f"{member.nuclide}: gamma at {rec.energy.kev} keV kept "
                        f"unvalidated (no level data for {rec.daughter})"
                    )
            half_life = fallback if rec.half_life is None else half_lives[rec.half_life]
            entries.append(LibraryEntry(
                member.nuclide, radiation, rec.energy, rec.intensity_percent,
                rec.intensity_unc, half_life, parents[rec.parent_level], flags,
            ))

    entries.sort(key=lambda e: (order[e.nuclide], -(
        e.intensity_percent if e.intensity_percent is not None else -INF), e.energy.kev))
    return RadionuclideLibrary(radiation=radiation, entries=entries)


def _within(value: float, interval: tuple[float, float]) -> bool:
    return interval[0] <= value <= interval[1]


def prune(lib: RadionuclideLibrary, bounds: PruneBounds) -> RadionuclideLibrary:
    """Filter entries by closed intervals on energy, intensity, and the
    emitter's half-life.

    Entries lacking an intensity survive intensity pruning only when the
    lower bound is 0 (flagged pass-through); entries lacking a half-life
    survive half-life pruning only when that axis is unbounded.
    """
    kept = []
    for entry in lib.entries:
        if not _within(entry.energy.kev, bounds.energy_kev):
            continue
        if entry.intensity_percent is None:
            if bounds.intensity_percent[0] > 0:
                continue
        elif not _within(entry.intensity_percent, bounds.intensity_percent):
            continue
        if bounds.half_life_seconds is not None:
            if entry.half_life is None:
                continue
            seconds = INF if entry.half_life.is_stable else entry.half_life.seconds
            if not _within(seconds, bounds.half_life_seconds):
                continue
        kept.append(entry)
    return RadionuclideLibrary(radiation=lib.radiation, entries=kept, bounds=bounds)
