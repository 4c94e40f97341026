"""The file format of stored parses (see `DataStore.stored_parse`).

A stored parse is a header line, ``nuclibgen-parse <source> <data>``, then
the pickled parse. ``<source>`` is a SHA-256 of the package's source files, so
a stored parse is read only by the code that wrote it: any edit to the
parsers, the record types or anything else makes every stored parse a miss
once. ``<data>`` is a SHA-256 of the parsed datasets' keys and bodies. A file
with another header is stale or foreign and is not unpickled. The unpickler
admits only the parse types below, so a stored parse can build the package's
records and values and nothing else, and a load that is not shaped like the
parser's output (a list of decay records or a level scheme, and a list of
warnings) is a miss. The fields of the records are not checked: a file forged
with the right header from these types can still hold wrong values. Only runs
that read datasets back from the cache import this module, the one that
imports pickle.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from .dataaccess import KIND_LEVELS, RawDataset, write_atomically
from .errors import CacheWriteError
from .nuclide import DecayMode, EnergyValue, HalfLife, LevelSpec, Nuclide, RadiationType
from .records import DecayRecord, LevelRecord, LevelScheme, TransitionRecord


def source_digest(package: Path) -> str:
    """SHA-256 of the names and bytes of the ``*.py`` files in ``package``."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


SOURCE_DIGEST = source_digest(Path(__file__).parent)

# The classes a stored parse may name: what the parsers build their output from.
_PARSE_TYPES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (DecayRecord, LevelRecord, TransitionRecord, LevelScheme, Nuclide,
                LevelSpec, EnergyValue, HalfLife, RadiationType, DecayMode, frozenset)
}


class _ParseUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> type:
        cls = _PARSE_TYPES.get((module, name))
        if cls is None:
            raise pickle.UnpicklingError(f"{module}.{name} is not a parse type")
        return cls


def _is_parse(result, levels: bool) -> bool:
    """Whether ``result`` is shaped like what the parser of these datasets
    returns; raises when it is not a pair."""
    parsed, warnings = result
    if levels:
        fits = type(parsed) is LevelScheme
    else:
        fits = type(parsed) is list and all(type(record) is DecayRecord for record in parsed)
    return fits and type(warnings) is list and all(type(w) is str for w in warnings)


def load_or_parse(path: Path, parse, *raws: RawDataset | None) -> tuple[object, bool]:
    """``(parse(*raws), False)``, stored at ``path`` afterwards, or ``(the
    parse stored at path, True)`` when its header matches this code and these
    datasets and it loads shaped like a parse."""
    digest = hashlib.sha256()
    for raw in raws:
        if raw is not None:
            digest.update(f"{raw.key.serialize()} {len(raw.body)}\n{raw.body}".encode())
    header = f"nuclibgen-parse {SOURCE_DIGEST} {digest.hexdigest()}\n".encode()
    try:
        with open(path, "rb") as stored:
            if stored.read(len(header)) == header:
                result = _ParseUnpickler(stored).load()
                if _is_parse(result, raws[0].key.kindcode == KIND_LEVELS):
                    return result, True
    except Exception:  # missing, truncated, undecodable or foreign: a miss
        pass
    result = parse(*raws)
    try:
        path.parent.mkdir(exist_ok=True)
        write_atomically(path, lambda out: (out.write(header), pickle.dump(result, out)))
    except (OSError, CacheWriteError):
        pass  # the parse is not stored; the next run parses again
    return result, False
