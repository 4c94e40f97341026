"""Domain value types: nuclide identity, radiation types, energies, half-lives.

All types here are immutable and hashable; they are shared freely between
threads and used as dictionary keys throughout the package.

The value types are tuples (``typing.NamedTuple``), so building, comparing and
hashing them runs in C. A validated type (``Nuclide``, ``EnergyValue``,
``HalfLife``) is a subclass of its field tuple with ``__slots__ = ()`` whose
``__new__`` checks and canonicalises the fields; ``_make`` and ``_replace``
skip those checks, so the package never calls them. Equality is that of
tuples: ``EnergyValue(5.0) == (5.0, 0.0)``, and so is ``HalfLife(5.0)``. A
dict whose keys mix types relies on their shapes differing: a three-field
``Nuclide`` never equals a two-field ``DatasetKey``.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .elements import canonical_symbol
from .errors import MalformedId, MassOutOfRange, UnknownElement

MAX_MASS_NUMBER = 300
_INF = float("inf")


class PerValue(dict):
    """A dict that builds the value of a missing key as ``build(key)`` and
    keeps it, so that each distinct key is built once. A build that raises
    stores nothing, so the next lookup of that key raises again."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class LevelSpec(NamedTuple):
    """Energy level designation of a nuclide.

    Exactly one of three variants:
      * ground state (the canonical default),
      * metastable ordinal ("m", "m2", ...) -- symbolic until a level dataset
        resolves it to a concrete energy,
      * explicit level energy in keV.
    """

    kind: str  # "ground" | "meta" | "energy"
    ordinal: int = 0
    kev: float = 0.0

    @staticmethod
    def ground() -> "LevelSpec":
        return LevelSpec("ground")

    @staticmethod
    def meta(ordinal: int = 1) -> "LevelSpec":
        if ordinal < 1:
            raise ValueError("metastable ordinal starts at 1")
        return LevelSpec("meta", ordinal=ordinal)

    @staticmethod
    def energy(kev: float) -> "LevelSpec":
        if not 0 <= kev < _INF:
            raise ValueError("level energy must be finite and nonnegative")
        if kev == 0:
            return LevelSpec("ground")
        return LevelSpec("energy", kev=kev)

    @property
    def is_ground(self) -> bool:
        return self.kind == "ground"

    def suffix(self) -> str:
        """Identifier suffix: '' | '@m' | '@m3' | '@<kev>kev'."""
        if self.kind == "ground":
            return ""
        if self.kind == "meta":
            return "@m" if self.ordinal == 1 else f"@m{self.ordinal}"
        return f"@{self.kev!r}kev"


class _NuclideFields(NamedTuple):
    element: str
    mass_number: int
    level: LevelSpec


class Nuclide(_NuclideFields):
    """A nuclear species: element, mass number, and energy level."""

    __slots__ = ()

    def __new__(cls, element: str, mass_number: int, level: LevelSpec = LevelSpec("ground")):
        sym = canonical_symbol(element)
        if sym is None:
            raise UnknownElement(f"unknown element symbol: {element!r}")
        if not 1 <= mass_number <= MAX_MASS_NUMBER:
            raise MassOutOfRange(f"mass number out of range: {mass_number}")
        return tuple.__new__(cls, (sym, mass_number, level))

    @property
    def ground_state(self) -> "Nuclide":
        """The same element+A at ground level (level-erased identity)."""
        if self.level.is_ground:
            return self
        return Nuclide(self.element, self.mass_number)

    def at_level(self, level: LevelSpec) -> "Nuclide":
        return Nuclide(self.element, self.mass_number, level)

    def __str__(self) -> str:
        return format_nuclide_id(self)


class RadiationType(enum.Enum):
    """The six retrievable kinds of decay radiation."""

    ALPHA = "a"
    BETA_MINUS = "bm"
    BETA_PLUS_EC = "bp"
    GAMMA = "g"
    ELECTRON = "e"
    XRAY = "x"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "RadiationType":
        for member in cls:
            if member.value == code:
                return member
        raise ValueError(f"unknown radiation code: {code!r}")


class DecayMode(enum.Enum):
    """Decay modes carried by decay records and level data."""

    ALPHA = "A"
    BETA_MINUS = "B-"
    BETA_PLUS_EC = "EC+B+"
    IT = "IT"
    SF = "SF"

    @classmethod
    def from_code(cls, code: str) -> "DecayMode":
        code = code.strip().upper()
        aliases = {"B+": "EC+B+", "EC": "EC+B+", "B-": "B-"}
        code = aliases.get(code, code)
        for member in cls:
            if member.value == code:
                return member
        raise ValueError(f"unknown decay mode: {code!r}")


class _EnergyFields(NamedTuple):
    kev: float
    uncertainty_kev: float


class EnergyValue(_EnergyFields):
    """An energy in keV with its reported uncertainty (0 when unreported)."""

    __slots__ = ()

    def __new__(cls, kev: float, uncertainty_kev: float = 0.0):
        # Chained comparisons are false for NaN, so NaN is rejected too.
        if not 0 <= kev < _INF:
            raise ValueError("energy must be finite and nonnegative")
        if not 0 <= uncertainty_kev < _INF:
            raise ValueError("uncertainty must be finite and nonnegative")
        return tuple.__new__(cls, (kev, uncertainty_kev))


def energies_match(a: "EnergyValue", b: "EnergyValue") -> bool:
    """Tolerance rule used everywhere two level energies are compared.

    Two energies match iff |E1 - E2| <= max(3 * sqrt(u1^2 + u2^2), 1.0 keV);
    the 1 keV floor absorbs rounding differences between datasets evaluated
    at different times.
    """
    spread = 3.0 * (a.uncertainty_kev**2 + b.uncertainty_kev**2) ** 0.5
    return abs(a.kev - b.kev) <= max(spread, 1.0)


class EnergyIndex:
    """A sorted snapshot of a list of energies. A lookup for q bisects the window
    |kev - q.kev| <= max(3 * sqrt(u_max^2 + q.u^2), 1 keV), u_max the largest
    indexed uncertainty, and confirms each candidate with ``energies_match``."""

    def __init__(self, energies: list[EnergyValue]):
        self._entries = sorted(enumerate(energies), key=lambda entry: entry[1].kev)
        self._kevs = [e.kev for _, e in self._entries]
        self._u_max = max((e.uncertainty_kev for e in energies), default=0.0)

    def _window(self, kev: float, half: float) -> list[tuple[int, EnergyValue]]:
        # Widen past the rounding of kev +- half; the caller's exact test decides.
        half += 1e-9 * (half + kev)
        lo = bisect_left(self._kevs, kev - half)
        hi = bisect_right(self._kevs, kev + half, lo)
        return self._entries[lo:hi]

    def matches(self, energy: EnergyValue) -> list[int]:
        """Ascending positions, in the indexed list, of every matching energy."""
        half = max(3.0 * (self._u_max**2 + energy.uncertainty_kev**2) ** 0.5, 1.0)
        window = self._window(energy.kev, half)
        return sorted(i for i, e in window if energies_match(e, energy))

    def crowded(self) -> set[int]:
        """Positions of the indexed energies whose own lookup window holds a
        neighbour; no other indexed energy can match the rest."""
        gaps = [b - a for a, b in zip(self._kevs, self._kevs[1:])]
        return {i for (i, e), below, above in zip(self._entries, [_INF] + gaps, gaps + [_INF])
                if min(below, above)
                <= max(3.0 * (self._u_max**2 + e.uncertainty_kev**2) ** 0.5, 1.0)}

    def has_match(self, energy: EnergyValue) -> bool:
        """Whether any indexed energy matches: ``bool(matches(energy))``."""
        half = max(3.0 * (self._u_max**2 + energy.uncertainty_kev**2) ** 0.5, 1.0)
        return any(energies_match(e, energy) for _, e in self._window(energy.kev, half))


class _HalfLifeFields(NamedTuple):
    seconds: float | None
    uncertainty_seconds: float


class HalfLife(_HalfLifeFields):
    """Either stable, or a positive half-life in seconds with uncertainty."""

    __slots__ = ()

    def __new__(cls, seconds: float | None = None, uncertainty_seconds: float = 0.0):
        if seconds is not None and not 0 < seconds < _INF:
            raise ValueError("half-life must be finite and positive")
        if not 0 <= uncertainty_seconds < _INF:
            raise ValueError("uncertainty must be finite and nonnegative")
        return tuple.__new__(cls, (seconds, uncertainty_seconds))

    @property
    def is_stable(self) -> bool:
        return self.seconds is None

    @staticmethod
    def stable() -> "HalfLife":
        return HalfLife(None)


# Accepted identifier spellings, case-insensitive:
#   "U-238"  "238U"  "u238"  "Pa-234m"  "234mPa"  "Tc-99m"  "Ac-225@m2"
#   "99tc@142.6836kev"
_SUFFIX_RE = re.compile(
    r"^(?:m(?P<ord>[2-9]\d*)?|(?P<kev>\d+(?:\.\d+)?(?:e[+-]?\d+)?)(?:kev)?)$"
)
_A_FIRST_RE = re.compile(r"^(?P<a>\d{1,3})(?P<tail>[a-z][a-z0-9]*)$")
_EL_FIRST_RE = re.compile(r"^(?P<el>[a-z]{1,3})(?P<a>\d{1,3})(?P<m>m(?:[2-9]\d*)?)?$")
_META_TAIL_RE = re.compile(r"^m(?P<ord>[2-9]\d*)?(?P<el>[a-z]{1,3})$")


def _parse_meta(token: str) -> LevelSpec:
    return LevelSpec.meta(1 if token == "m" else int(token[1:]))


def _parse_base(base: str) -> tuple[str, int, LevelSpec]:
    """Parse '<A><el>', '<el><A>', '<A>m<el>', '<el><A>m..' (already lowercased)."""
    m = _EL_FIRST_RE.match(base)
    if m and canonical_symbol(m.group("el")):
        level = _parse_meta(m.group("m")) if m.group("m") else LevelSpec.ground()
        return m.group("el"), int(m.group("a")), level
    m = _A_FIRST_RE.match(base)
    if m:
        a, tail = int(m.group("a")), m.group("tail")
        # A full-element tail wins over a metastable reading: "24mg" is Mg-24
        # and "98mo" is Mo-98, while "234mpa" falls through to Pa-234m.
        if canonical_symbol(tail):
            return tail, a, LevelSpec.ground()
        mm = _META_TAIL_RE.match(tail)
        if mm and canonical_symbol(mm.group("el")):
            return mm.group("el"), a, LevelSpec.meta(int(mm.group("ord") or 1))
        raise UnknownElement(f"unknown element symbol in {base!r}")
    raise MalformedId(f"unrecognized nuclide identifier: {base!r}")


def parse_nuclide_id(text: str) -> Nuclide:
    """Parse a nuclide identifier into a canonical Nuclide.

    Raises UnknownElement, MassOutOfRange, or MalformedId.
    """
    if not text or not text.strip():
        raise MalformedId("empty nuclide identifier")
    work = text.strip().lower()

    level_override: LevelSpec | None = None
    if "@" in work:
        work, _, suffix = work.partition("@")
        m = _SUFFIX_RE.match(suffix.strip())
        if not m:
            raise MalformedId(f"bad level suffix in {text!r}")
        if m.group("kev") is not None:
            try:
                level_override = LevelSpec.energy(float(m.group("kev")))
            except ValueError as exc:
                raise MalformedId(f"bad level energy in {text!r}: {exc}") from exc
        else:
            level_override = _parse_meta(
                "m" if m.group("ord") is None else "m" + m.group("ord")
            )

    if "-" in work:
        left, _, right = work.partition("-")
        if not left or not right:
            raise MalformedId(f"unrecognized nuclide identifier: {text!r}")
        if left[0].isdigit():
            work = left + right  # "234-pa" -> "234pa"
        else:
            m = re.match(r"^(\d{1,3})(m(?:[2-9]\d*)?)?$", right)
            if not m:
                raise MalformedId(f"unrecognized nuclide identifier: {text!r}")
            work = m.group(1) + (m.group(2) or "") + left  # "pa-234m" -> "234mpa"

    el, a, level = _parse_base(work)
    if level_override is not None:
        if not level.is_ground:
            raise MalformedId(f"conflicting level specifications in {text!r}")
        level = level_override
    return Nuclide(el, a, level)


def format_nuclide_id(n: Nuclide) -> str:
    """Canonical lowercase identifier: '<A><element>' plus level suffix."""
    return f"{n.mass_number}{n.element.lower()}{n.level.suffix()}"


def display_name(n: Nuclide) -> str:
    """Human-oriented form used in plots and reports, e.g. 'Pa-234m'."""
    if n.level.is_ground:
        suffix = ""
    elif n.level.kind == "meta":
        suffix = "m" if n.level.ordinal == 1 else f"m{n.level.ordinal}"
    else:
        suffix = f"@{n.level.kev:g}keV"
    return f"{n.element}-{n.mass_number}{suffix}"
