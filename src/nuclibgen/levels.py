"""Energy level feasibility validation by cascade simulation.

A daughter nuclide is populated at the levels its parents feed directly; the
remaining reachable levels are established by simulating electromagnetic
transitions downward until the lowest energy is observed. The simulation is
always run: a level is feasible when a parent feeds it or a cascade reaches it
(a scheme without transitions reaches no level beyond those fed). Levels
outside the flattened set are unfeasible and their radiation is excluded
downstream.

A cascade looks up each start level once, then follows the edges, between
positions in its levels, that its LevelScheme was linked with when parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nuclide import EnergyIndex, EnergyValue
from .nuclide import energies_match  # noqa: F401  (re-exported)
from .records import LevelScheme


@dataclass
class FlattenedLevels:
    """All permissible energy levels of one nuclide in a given context. The
    constructor indexes ``all``: pass the final list, later appends are unseen."""

    all: list[EnergyValue]

    def __post_init__(self):
        self._index = EnergyIndex(self.all)

    def contains(self, energy: EnergyValue) -> bool:
        return bool(self._index.matches(energy))


def _dedup_desc(values: list[EnergyValue]) -> list[EnergyValue]:
    firsts: dict[float, EnergyValue] = {}
    for value in sorted(values, key=lambda e: e.kev, reverse=True):
        firsts.setdefault(value.kev, value)
    return list(firsts.values())


def cascade_visit(
    start_levels: list[EnergyValue],
    scheme: LevelScheme,
    warnings: list[str] | None = None,
) -> list[EnergyValue]:
    """Every level reachable from any start level via zero or more downward
    transitions, duplicates excluded, sorted by descending energy.

    Start levels that resolve to no level record are kept in the output
    (reported through ``warnings``) but cannot seed transitions.
    """
    visited: list[EnergyValue] = []
    frontier: list[int] = []
    for start in start_levels:
        position = scheme.position(start)
        if position is None:
            if warnings is not None:
                warnings.append(
                    f"{scheme.nuclide}: start level {start.kev} keV matches no "
                    f"level record"
                )
            visited.append(start)
            continue
        visited.append(scheme.levels[position].energy)
        frontier.append(position)

    seen = {e.kev for e in visited}
    while frontier:
        for end in scheme.edges[frontier.pop()]:
            energy = scheme.levels[end].energy
            if energy.kev not in seen:
                seen.add(energy.kev)
                visited.append(energy)
                frontier.append(end)
    return _dedup_desc(visited)


def flatten_levels(
    inherited: list[EnergyValue],
    scheme: LevelScheme,
    warnings: list[str] | None = None,
) -> FlattenedLevels:
    """Combine parent-fed levels with their cascade closure."""
    inherited = _dedup_desc(list(inherited))
    visited = cascade_visit(inherited, scheme, warnings)
    return FlattenedLevels(all=_dedup_desc(inherited + visited))

