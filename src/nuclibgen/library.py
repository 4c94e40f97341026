"""Couple a radionuclide subset to validated nuclear data and prune the
result by energy, emission probability, and half-life.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import ChainMember, NodeData, RadionuclideSubset
from .errors import EmptySubset, InvertedBounds
from .nuclide import EnergyValue, HalfLife, Nuclide, RadiationType, energies_match
from .records import FLAG_UNVALIDATED, DecayRecord

INF = float("inf")


@dataclass(frozen=True)
class LibraryEntry:
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
    """Closed intervals on the three prunable nuclear parameters."""

    energy_kev: tuple[float, float] = (0.0, INF)
    intensity_percent: tuple[float, float] = (0.0, 100.0)
    half_life_seconds: tuple[float, float] | None = None

    def validate(self) -> None:
        for name, interval in (
            ("energy_kev", self.energy_kev),
            ("intensity_percent", self.intensity_percent),
            ("half_life_seconds", self.half_life_seconds),
        ):
            if interval is not None and not interval[0] <= interval[1]:
                raise InvertedBounds(f"{name}: lo {interval[0]} > hi {interval[1]}")


@dataclass
class RadionuclideLibrary:
    """The final radiation-type-specific table for one radionuclide subset."""

    radiation: RadiationType
    entries: list[LibraryEntry]
    bounds: PruneBounds = field(default_factory=PruneBounds)

    def __len__(self) -> int:
        return len(self.entries)


def _entry_sort_key(order: dict[Nuclide, int]):
    def key(entry: LibraryEntry):
        intensity = entry.intensity_percent
        return (
            order.get(entry.nuclide, len(order)),
            -(intensity if intensity is not None else -INF),
            entry.energy.kev,
        )

    return key


def _gate_gamma(rec: DecayRecord, nodes: dict[Nuclide, NodeData]) -> bool | None:
    """True/False keep/drop verdict for a gamma record's emitting level;
    None when the daughter's levels could not be validated."""
    if rec.start_level is None:
        return True
    daughter_node = nodes.get(rec.daughter.ground_state)
    if daughter_node is None or daughter_node.flattened is None:
        return None
    return daughter_node.flattened.contains(rec.start_level)


def _member_entries(
    member: ChainMember,
    node: NodeData,
    radiation: RadiationType,
    nodes: dict[Nuclide, NodeData],
    warnings: list[str],
) -> list[LibraryEntry]:
    entries = []
    level = EnergyValue(member.level_kev)
    for rec in node.records:
        if rec.radiation is not radiation:
            continue
        if not energies_match(rec.parent_level, level):
            continue
        flags = set(rec.flags)
        if member.unvalidated:
            flags.add(FLAG_UNVALIDATED)
        if radiation is RadiationType.GAMMA:
            verdict = _gate_gamma(rec, nodes)
            if verdict is False:
                continue  # emitting level unreachable: unviable radiation
            if verdict is None:
                flags.add(FLAG_UNVALIDATED)
                warnings.append(
                    f"{member.nuclide}: gamma at {rec.energy.kev} keV kept "
                    f"unvalidated (no level data for {rec.daughter})"
                )
        # Entries carry exactly what the CSV schema can represent, so that
        # export/import round-trips are the identity.
        half_life = None
        if rec.half_life is not None:
            half_life = HalfLife(rec.half_life.seconds)
        elif member.half_life_s is not None:
            half_life = HalfLife(member.half_life_s)
        entries.append(
            LibraryEntry(
                nuclide=member.nuclide,
                radiation=radiation,
                energy=rec.energy,
                intensity_percent=rec.intensity_percent,
                intensity_unc=rec.intensity_unc,
                half_life=half_life,
                parent_level=EnergyValue(rec.parent_level.kev),
                flags=frozenset(flags),
            )
        )
    return entries


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

    entries: list[LibraryEntry] = []
    order: dict[Nuclide, int] = {}
    for position, identity in enumerate(subset.members):
        order[identity] = position
        member = member_index.get(identity)
        if member is None:
            continue  # stable progenitor or static: nothing to couple
        node = subset.nodes[member.node]
        entries.extend(_member_entries(member, node, radiation, subset.nodes, sink))

    entries.sort(key=_entry_sort_key(order))
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
    bounds.validate()
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
