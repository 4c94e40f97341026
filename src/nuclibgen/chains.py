"""Recursive construction of radionuclide subsets and lineage trees.

Every nuclide goes through one node-visit core. `_visit` prefetches its eight
datasets (six decay-radiation kinds, levels, transitions), then reads them in
that order: one parse of the decay datasets present gives the decay records
and the daughters they feed, and the transitions are read only when the levels
exist. `_settle` flattens the levels fed to it (ground when none), always with
their cascade closure, and resolves its level-resolved chain members, isomers
included (for example Pa-234m and Pa-234 from one visited nuclide). It reads
the cascade graph and isomer list the level scheme built when it was parsed,
so its cascade makes one level lookup per fed level.

`build_progeny` realizes the progenitor->progeny recurrence
f(j) = g(j) | f(j+1) with an explicit work stack: unvisited daughters are
scheduled depth-first, and a nuclide whose six queries all come back
absent/empty is terminal (stable); a build that would visit more than
VISITED_CAP nuclides raises DepthExceeded. A daughter's datasets are
prefetched as soon as it is scheduled, the next one to visit first, so the
source can fetch the whole frontier while visits stay sequential in discovery
order. Nodes are settled after traversal, once every parent's feeding is
known. A static is a one-level build through the same walk: its own nuclide in
full, only the level schemes of its daughters (all that gamma feasibility
gating needs), and their warnings, as a one-level chain reports them. `assemble_subset` prefetches every
progenitor and static up front and merges one build after another; a later
build re-settles a shared node only when it feeds it a new level or brings the
full parse of a static's scheme-only daughter. A static resolves to the member
at its level, the same member a chain reaching that level would produce.

What a visit parses depends only on the nuclide, never on who reached it, so
a run keeps one `ParseMemo`: each ground-state nuclide's decay records, level
scheme, daughters and parse warnings, stored by its first successful visit.
Every later visit of that nuclide, by another progenitor's build, a static or
another job (threads of `--jobs N` included), takes the stored entry. The
level scheme is also stored alone, under the nuclide's levels key: a static's
daughters read only that, so a nuclide that one job visits in a chain and
another reads as a static's daughter is parsed once. A visit that fails is not
stored. An entry groups its decay records by (radiation, parent level) when it
is made, so that member resolution and library assembly compare a level with
each distinct parent level rather than with every record. A memo miss parses
through the source, one parse per memo key: a nuclide's decay datasets with
its daughters, and its levels with its transitions. When every dataset of a
parse came from its disk cache, a `DataStore` loads the parse an earlier run
stored under ``cache_dir/parsed/`` instead of parsing again (see `dataaccess`).

What a settle derives depends only on the parse and the feeding context, so
each memo entry also keeps a settle table keyed by the node's inherited levels:
the flattened levels, the members and the warnings that settling added. Each
(nuclide, feeding context) is settled once per run; every other node in that
context, whatever build, merge, static or job it belongs to, takes the stored
results and reports the same warnings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

from .dataaccess import DatasetKey, RawDataset
from .errors import DataUnavailable, DepthExceeded, EmptySubset, NetworkError, OfflineMiss
from .levels import FlattenedLevels, flatten_levels
from .nuclide import EnergyValue, LevelSpec, Nuclide, RadiationType, energies_match
from .records import (
    DaughterFeed,
    DecayRecord,
    LevelScheme,
    extract_daughters,
    parse_decay_records,
    parse_level_scheme,
)

# Nuclides one build may visit in full before it raises DepthExceeded.
VISITED_CAP = 500

# Query order for the six radiation kinds; daughter ordering itself is by
# (mass number, element), so chain membership does not depend on this.
KIND_ORDER = (
    RadiationType.ALPHA,
    RadiationType.BETA_MINUS,
    RadiationType.BETA_PLUS_EC,
    RadiationType.GAMMA,
    RadiationType.ELECTRON,
    RadiationType.XRAY,
)


class DatasetSource(Protocol):
    """Anything that can answer dataset requests (DataStore or a test fake).

    A source may also offer ``prefetch(keys)``, a hint that those keys will
    be requested soon; sources without it are read one key at a time. It may
    offer ``stored_parse(parse, *raws)``, which returns ``parse(*raws)`` or a
    parse of those datasets it stored earlier; sources without it are parsed
    on every memo miss.
    """

    def fetch_dataset(self, key: DatasetKey) -> RawDataset | None: ...


class ChainMember(NamedTuple):
    """One level-resolved subset member backed by a visited nuclide."""

    nuclide: Nuclide          # identity including level spec
    node: Nuclide             # level-erased backing nuclide
    level_kev: float
    half_life_s: float | None = None
    unvalidated: bool = False


# A settle's input beyond the parse: the inherited levels, in the node's
# order. Its results: the flattened levels (None without a level scheme), the
# members and the warnings it added.
SettleKey = tuple[EnergyValue, ...]
Settled = tuple[FlattenedLevels | None, tuple[ChainMember, ...], tuple[str, ...]]


@dataclass(frozen=True)
class ParsedNuclide:
    """One visit's parse of a ground-state nuclide (of its level scheme alone,
    under its levels key); shared, never replaced. ``groups`` holds the
    positions of the records by (radiation, parent level), in file order, built
    with the entry; ``settled`` fills with the results of each feeding context
    settled on this parse."""

    records: tuple[DecayRecord, ...]
    scheme: LevelScheme | None
    daughters: tuple[DaughterFeed, ...]
    warnings: tuple[str, ...]
    settled: dict[SettleKey, Settled] = field(
        default_factory=dict, compare=False, repr=False)
    groups: dict[tuple[RadiationType, EnergyValue], list[int]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        groups: dict[tuple[RadiationType, EnergyValue], list[int]] = {}
        for i, rec in enumerate(self.records):
            groups.setdefault((rec.radiation, rec.parent_level), []).append(i)
        object.__setattr__(self, "groups", groups)

    def at_level(
        self, level: EnergyValue, radiation: RadiationType | None = None
    ) -> list[DecayRecord]:
        """The records, in file order, at parent levels matching ``level``: of
        ``radiation``, or of every radiation type when it is None."""
        hits = [group for (rad, parent), group in self.groups.items()
                if (radiation is None or rad is radiation) and energies_match(parent, level)]
        return [self.records[i] for i in sorted(i for group in hits for i in group)]


# Run-scoped memo of successful visits, keyed by ground-state nuclide, and of
# their level schemes alone, keyed by the levels dataset. Racing visits
# and settles compute identical values, so `setdefault` needs no lock.
ParseMemo = dict[Nuclide | DatasetKey, ParsedNuclide]


@dataclass
class NodeData:
    """Everything learned about one visited (element, A) nuclide."""

    nuclide: Nuclide
    parsed: ParsedNuclide | None = None  # set by the node's visit
    inherited: list[EnergyValue] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    flattened: FlattenedLevels | None = None
    members: list[ChainMember] = field(default_factory=list)

    @property
    def records(self) -> tuple[DecayRecord, ...]:
        return self.parsed.records if self.parsed else ()

    @property
    def scheme(self) -> LevelScheme | None:
        return self.parsed.scheme if self.parsed else None

    @property
    def daughters(self) -> tuple[DaughterFeed, ...]:
        return self.parsed.daughters if self.parsed else ()

    def add_inherited(self, levels: tuple[EnergyValue, ...]) -> bool:
        """Add the feeding levels not yet known; True when any was added."""
        seen = {level.kev for level in self.inherited}
        before = len(self.inherited)
        for level in levels:
            if level.kev not in seen:
                seen.add(level.kev)
                self.inherited.append(level)
        return len(self.inherited) > before


@dataclass
class DecayChain:
    """Discovery-ordered, duplicate-free members of one progenitor's chain."""

    progenitor: Nuclide
    members: list[Nuclide]
    progenitor_terminal: bool = False


@dataclass
class LineageTree:
    """Nested parent->daughter structure for one progenitor, with branches.

    ``expanded`` is False for a converging-branch cross-reference: the
    daughter's subtree is shown under its first-discovered parent only.
    """

    root: Nuclide
    children: list[tuple[float, "LineageTree"]] = field(default_factory=list)
    expanded: bool = True

    def edges(self) -> list[tuple[Nuclide, Nuclide]]:
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            for _, child in node.children:
                out.append((node.root, child.root))
                stack.append(child)
        return out


@dataclass
class ChainBuild:
    """Result of one progenitor traversal."""

    chain: DecayChain
    tree: LineageTree
    nodes: dict[Nuclide, NodeData]
    order: list[Nuclide]
    warnings: list[str]
    nuclides_parsed: int = 0  # full visits that fetched and parsed their nuclide
    nuclides_reused: int = 0  # full visits served from the parse memo


def _unread_keys(nuclide: Nuclide, memo: ParseMemo, full: bool) -> list[DatasetKey]:
    """The datasets a visit of ``nuclide`` would read, in reading order: its
    six decay kinds when the visit is ``full`` (not scheme-only) and, unless
    its scheme is in the memo, levels and transitions; none once the nuclide
    itself is."""
    if nuclide in memo:
        return []
    keys = [DatasetKey.decay_rads(nuclide, rad) for rad in KIND_ORDER] if full else []
    if DatasetKey.levels(nuclide) not in memo:
        keys += [DatasetKey.levels(nuclide), DatasetKey.transitions(nuclide)]
    return keys


def _prefetch(source: DatasetSource, keys: list[DatasetKey]) -> None:
    prefetch = getattr(source, "prefetch", None)
    if prefetch is not None:
        prefetch(keys)


def _fetch(source: DatasetSource, key: DatasetKey) -> RawDataset | None:
    try:
        return source.fetch_dataset(key)
    except (OfflineMiss, NetworkError) as exc:
        raise DataUnavailable(str(exc)) from exc


def _parse(source: DatasetSource, parse, *raws: RawDataset | None):
    stored = getattr(source, "stored_parse", None)
    return parse(*raws) if stored is None else stored(parse, *raws)


def _parse_decay(
    *raws: RawDataset,
) -> tuple[list[DecayRecord], list[DaughterFeed], list[str]]:
    """The decay records of one nuclide's decay datasets, in the order given,
    the daughters those records feed and the parse warnings."""
    records: list[DecayRecord] = []
    warnings: list[str] = []
    for raw in raws:
        parsed, parse_warnings = parse_decay_records(raw)
        records += parsed
        warnings += parse_warnings
    return records, extract_daughters(records), warnings


def _fetch_records(
    source: DatasetSource, nuclide: Nuclide
) -> tuple[list[DecayRecord], list[DaughterFeed], list[str]]:
    """`_parse_decay` of the six decay kinds of ``nuclide`` that are present:
    all six are fetched, then parsed in one call."""
    raws = [_fetch(source, DatasetKey.decay_rads(nuclide, rad)) for rad in KIND_ORDER]
    raws = [raw for raw in raws if raw is not None]
    return _parse(source, _parse_decay, *raws) if raws else _parse_decay()


def _visit(node: NodeData, source: DatasetSource, memo: ParseMemo) -> bool:
    """Give a node its nuclide's decay records, level scheme, daughters and
    parse warnings (the decay warnings, then the scheme's): from the memo,
    else fetched, parsed and stored there. True when this visit parsed them."""
    entry = memo.get(node.nuclide)
    missed = entry is None
    if missed:
        _prefetch(source, _unread_keys(node.nuclide, memo, full=True))
        records, daughters, warnings = _fetch_records(source, node.nuclide)
        levels = _visit_scheme(node.nuclide, source, memo)
        entry = memo.setdefault(node.nuclide, ParsedNuclide(
            tuple(records), levels.scheme, tuple(daughters),
            tuple(warnings) + levels.warnings))
    node.parsed = entry
    node.warnings.extend(entry.warnings)
    return missed


def _visit_scheme(
    nuclide: Nuclide, source: DatasetSource, memo: ParseMemo
) -> ParsedNuclide:
    """A nuclide's level scheme and that parse's warnings, with no records:
    from the memo under the levels key, else fetched, parsed and stored. The
    transitions are read only when the levels exist, so whatever became of a
    prefetched transitions dataset is otherwise ignored."""
    key = DatasetKey.levels(nuclide)
    entry = memo.get(key)
    if entry is None:
        scheme, warnings = None, []
        levels_raw = _fetch(source, key)
        if levels_raw is not None:
            transitions_raw = _fetch(source, DatasetKey.transitions(nuclide))
            scheme, warnings = _parse(source, parse_level_scheme, levels_raw, transitions_raw)
        entry = memo.setdefault(key, ParsedNuclide((), scheme, (), tuple(warnings)))
    return entry


def _settle(node: NodeData) -> None:
    """(Re)derive a node's flattened levels and members from its current
    feeding context; the ground state stands in for no feeding. A context
    already settled on the node's parse is taken from its settle table, with
    the warnings that settling added."""
    key = tuple(node.inherited)
    settled = node.parsed.settled.get(key)
    if settled is None:
        warnings: list[str] = []
        flattened = None
        if node.scheme is not None:
            flattened = flatten_levels(
                node.inherited or [EnergyValue(0.0)], node.scheme, warnings)
        settled = node.parsed.settled.setdefault(
            key, (flattened, _resolve_members(node, flattened), tuple(warnings)))
    node.flattened, members, added = settled
    node.members = list(members)
    node.warnings.extend(added)


def resolve_level_spec(spec: LevelSpec, scheme: LevelScheme | None) -> EnergyValue:
    """Concrete level energy for a user-designated level specification."""
    if spec.is_ground:
        return EnergyValue(0.0)
    if spec.kind == "energy":
        return EnergyValue(spec.kev)
    if scheme is None:
        raise DataUnavailable(
            "metastable ordinal cannot be resolved without a level dataset"
        )
    isomers = scheme.isomers
    if spec.ordinal > len(isomers):
        raise DataUnavailable(
            f"{scheme.nuclide}: no isomer with ordinal m{spec.ordinal} "
            f"({len(isomers)} known)"
        )
    return isomers[spec.ordinal - 1].energy


def _member_identity(node: NodeData, level: EnergyValue) -> Nuclide:
    """The member identity of a feasible decaying level: its 'm' ordinal when
    the level is an isomer, else its energy (none for the ground state)."""
    if node.scheme is not None:
        for ordinal, record in enumerate(node.scheme.isomers, start=1):
            if energies_match(record.energy, level):
                return node.nuclide.at_level(LevelSpec.meta(ordinal))
    if level.kev == 0:
        return node.nuclide
    return node.nuclide.at_level(LevelSpec.energy(level.kev))


def _resolve_members(
    node: NodeData, flattened: FlattenedLevels | None
) -> tuple[ChainMember, ...]:
    """The level-resolved chain members of a node validated as ``flattened``.

    A member is a feasible level at which the nuclide decays, i.e. one that
    appears as a parent level in the decay records. Members are ordered by
    descending level energy (isomers before the ground state).
    """
    decaying: list[EnergyValue] = []
    for parent in dict.fromkeys(parent for _, parent in node.parsed.groups):
        if not any(energies_match(parent, seen) for seen in decaying):
            decaying.append(parent)
    decaying.sort(key=lambda e: e.kev, reverse=True)

    members: list[ChainMember] = []
    for level in decaying:
        unvalidated = flattened is None
        if flattened is not None and not flattened.contains(level):
            continue  # unfeasible decaying level: radiation excluded downstream
        matched = node.scheme.find_level(level) if node.scheme else None
        canonical = matched.energy if matched is not None else level
        identity = _member_identity(node, canonical)
        if any(m.nuclide == identity for m in members):
            continue
        half_life = None
        if matched is not None and matched.half_life is not None:
            half_life = (
                None if matched.half_life.is_stable else matched.half_life.seconds
            )
        if half_life is None:
            half_life = next((rec.half_life.seconds for rec in node.parsed.at_level(level)
                              if rec.half_life is not None), None)
        members.append(
            ChainMember(
                nuclide=identity,
                node=node.nuclide,
                level_kev=canonical.kev,
                half_life_s=half_life,
                unvalidated=unvalidated,
            )
        )
    return tuple(members)


def build_progeny(
    progenitor: Nuclide,
    source: DatasetSource,
    *,
    memo: ParseMemo | None = None,
) -> ChainBuild:
    """Recursively collect all progeny of a progenitor.

    Returns the discovery-ordered decay chain (level-resolved members) and
    the lineage tree including stable leaves. Raises DataUnavailable when a
    required dataset is neither cached nor fetchable, DepthExceeded when it
    would visit more than ``VISITED_CAP`` nuclides. Nuclides already in
    ``memo`` are not fetched or parsed again.
    """
    return _walk(progenitor, source, memo, static=False)


def _walk(progenitor: Nuclide, source: DatasetSource, memo: ParseMemo | None,
          static: bool) -> ChainBuild:
    """The walk behind `build_progeny`. A static walk visits the root alone
    in full and reads only its daughters' level schemes: a scheme-only node
    has no daughters, so the walk stops one level down."""
    memo = {} if memo is None else memo
    warnings: list[str] = []
    parsed = reused = 0
    root = progenitor.ground_state
    nodes: dict[Nuclide, NodeData] = {}
    order: list[Nuclide] = []
    edges: list[tuple[Nuclide, Nuclide, float]] = []
    discoverer: dict[Nuclide, Nuclide] = {}

    stack = [root]
    scheduled = {root}
    while stack:
        current = stack.pop()
        node = nodes.setdefault(current, NodeData(nuclide=current))
        if static and current != root:
            node.parsed = _visit_scheme(current, source, memo)
            node.warnings.extend(node.parsed.warnings)
        elif parsed + reused >= VISITED_CAP:
            raise DepthExceeded(f"visited {parsed + reused} nuclides; cap is {VISITED_CAP}")
        elif _visit(node, source, memo):
            parsed += 1
        else:
            reused += 1
        order.append(current)

        fresh = []
        for feed in node.daughters:
            edges.append((current, feed.daughter, feed.branching_percent))
            child = nodes.setdefault(feed.daughter, NodeData(nuclide=feed.daughter))
            child.add_inherited(feed.feeding_levels)
            if feed.daughter not in scheduled:
                scheduled.add(feed.daughter)
                discoverer[feed.daughter] = current
                fresh.append(feed.daughter)
        # fresh[0] is visited next, so its datasets are queued first.
        _prefetch(source, [key for daughter in fresh
                           for key in _unread_keys(daughter, memo, full=not static)])
        stack.extend(reversed(fresh))

    # Progenitor levels are designated by the user; omission means ground.
    root_node = nodes[root]
    root_node.add_inherited((resolve_level_spec(progenitor.level, root_node.scheme),))

    for visited in order:
        _settle(nodes[visited])
        warnings.extend(nodes[visited].warnings)

    members: list[Nuclide] = []
    for visited in order:
        members.extend(m.nuclide for m in nodes[visited].members)

    # The progenitor heads its chain; a stable one heads an otherwise empty chain.
    progenitor_terminal = not root_node.records
    if progenitor_terminal or (members and members[0].ground_state != root):
        members.insert(0, progenitor)

    tree = _build_tree(root, edges, discoverer)
    chain = DecayChain(
        progenitor=members[0] if members else progenitor,
        members=members,
        progenitor_terminal=progenitor_terminal,
    )
    return ChainBuild(chain=chain, tree=tree, nodes=nodes, order=order,
                      warnings=warnings, nuclides_parsed=parsed, nuclides_reused=reused)


def _build_tree(
    root: Nuclide,
    edges: list[tuple[Nuclide, Nuclide, float]],
    discoverer: dict[Nuclide, Nuclide],
) -> LineageTree:
    children: dict[Nuclide, list[tuple[float, Nuclide]]] = {}
    for parent, daughter, branching in edges:
        children.setdefault(parent, []).append((branching, daughter))

    def make(nuclide: Nuclide, expand: bool) -> LineageTree:
        tree = LineageTree(root=nuclide, expanded=expand)
        if not expand:
            return tree
        ordered = sorted(
            children.get(nuclide, ()),
            key=lambda item: (-item[0], item[1].mass_number, item[1].element),
        )
        for branching, daughter in ordered:
            subtree = make(daughter, discoverer.get(daughter) == nuclide)
            tree.children.append((branching, subtree))
        return tree

    return make(root, True)


def render_lineage(tree: LineageTree) -> str:
    """Indented UTF-8 text: one nuclide per line, children two spaces deeper,
    branching percent annotated, descending branching order. A trailing '*'
    marks a converging branch whose subtree is shown under the parent that
    discovered it first.
    """
    lines: list[str] = []

    def walk(node: LineageTree, depth: int, branching: float | None) -> None:
        label = str(node.root)
        if branching is not None:
            label += f" ({branching:g}%)"
        if not node.expanded:
            label += " *"
        lines.append("  " * depth + label)
        for pct, child in node.children:
            walk(child, depth + 1, pct)

    walk(tree, 0, None)
    return "\n".join(lines) + "\n"


@dataclass
class RadionuclideSubset:
    """X = (R | Y | S) \\ E: recursive chains plus statics minus exclusions."""

    recursive_chains: list[DecayChain]
    members: list[Nuclide]
    trees: list[LineageTree] = field(default_factory=list)
    nodes: dict[Nuclide, NodeData] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    nuclides_parsed: int = 0  # builds' full visits that fetched and parsed
    nuclides_reused: int = 0  # builds' full visits served from the parse memo


def _merge_nodes(target: dict[Nuclide, NodeData], extra: dict[Nuclide, NodeData]) -> None:
    for key, node in extra.items():
        existing = target.get(key)
        if existing is None:
            target[key] = node
            continue
        # Same datasets underneath; union the feeding context and widen the
        # feasible set when that added a level. A full parse takes over from
        # an earlier static's scheme-only node of the same nuclide.
        changed = existing.add_inherited(tuple(node.inherited))
        if node.records and not existing.records:
            existing.parsed = node.parsed
            changed = True
        if changed:
            _settle(existing)


def _static_member(node: NodeData, level: EnergyValue) -> Nuclide:
    """The identity of the node member closest to ``level`` within tolerance;
    a level no member decays at (a stable static, say) keeps its own identity."""
    near = [m for m in node.members if energies_match(EnergyValue(m.level_kev), level)]
    member = min(near, key=lambda m: abs(m.level_kev - level.kev), default=None)
    return member.nuclide if member is not None else _member_identity(node, level)


def assemble_subset(
    recursive: list[Nuclide],
    statics: list[Nuclide],
    exclusions: list[Nuclide],
    source: DatasetSource,
    *,
    memo: ParseMemo | None = None,
) -> RadionuclideSubset:
    """Assemble the complete radionuclide subset (R | Y | S) \\ E.

    Each progenitor, then each static, is one build merged into the subset's
    nodes, with its warnings and counts; a static resolves on its merged node.
    Member ordering is deterministic: chains in input order with discovery
    order within each, then statics in input order; exclusions are removed
    by exact (element, mass number, level) identity. ``memo`` is the run's
    parse memo; without one, the subset's builds share a memo of their own.
    """
    memo = {} if memo is None else memo
    chains: list[DecayChain] = []
    trees: list[LineageTree] = []
    nodes: dict[Nuclide, NodeData] = {}
    warnings: list[str] = []
    resolved_statics: list[Nuclide] = []
    parsed = reused = 0

    _prefetch(source, [key for n in [*recursive, *statics]
                       for key in _unread_keys(n.ground_state, memo, full=True)])
    for index, root in enumerate([*recursive, *statics]):
        static = index >= len(recursive)
        if static:
            build = _walk(root, source, memo, static=True)
        else:
            build = build_progeny(root, source, memo=memo)
        _merge_nodes(nodes, build.nodes)
        warnings.extend(build.warnings)
        parsed += build.nuclides_parsed
        reused += build.nuclides_reused
        if static:
            node = nodes[root.ground_state]
            level = resolve_level_spec(root.level, node.scheme)
            resolved_statics.append(_static_member(node, level))
        else:
            chains.append(build.chain)
            trees.append(build.tree)

    excluded = set(exclusions)
    members: list[Nuclide] = []
    for chain in chains:
        for member in chain.members:
            if member not in excluded and member not in members:
                members.append(member)
    for static in resolved_statics:
        if static not in excluded and static not in members:
            members.append(static)

    if not members:
        raise EmptySubset("radionuclide subset resolved to no members")
    return RadionuclideSubset(
        recursive_chains=chains,
        members=members,
        trees=trees,
        nodes=nodes,
        warnings=warnings,
        nuclides_parsed=parsed,
        nuclides_reused=reused,
    )
