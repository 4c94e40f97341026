"""The file format of stored parses (see `DataStore.stored_parse`).

A stored parse is a header line, ``nuclibgen-parse <source> <data>``, then
the pickled parse. ``<source>`` is a SHA-256 of the package's source files, so
a stored parse is read only by the code that wrote it: any edit to the
parsers, the record types or anything else makes every stored parse a miss
once. ``<data>`` is a SHA-256 of the parsed datasets' keys and bodies. A file
with another header is stale or foreign and is not unpickled. The unpickler
admits only the parse types below, so a stored parse can build the package's
records and values and nothing else, and a load that is not shaped like the
parser's output is a miss: a nuclide's decay entry is lists of decay records,
of their daughters and of warnings, and a level scheme comes with a list of
warnings. The fields of the records are not checked: a file forged with the
right header from these types can still hold wrong values. A level scheme is
stored as its levels, isomers and cascade graph; its lookup memos are rebuilt
on load. Only runs that read datasets back from the cache import this module,
the one that imports pickle.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from .dataaccess import KIND_LEVELS, RawDataset, write_atomically
from .errors import CacheWriteError
from .nuclide import DecayMode, EnergyValue, HalfLife, LevelSpec, Nuclide, RadiationType
from .records import DaughterFeed, DecayRecord, LevelRecord, LevelScheme


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
    for cls in (DecayRecord, DaughterFeed, LevelRecord, LevelScheme, Nuclide,
                LevelSpec, EnergyValue, HalfLife, RadiationType, DecayMode, frozenset)
}


class _ParseUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> type:
        cls = _PARSE_TYPES.get((module, name))
        if cls is None:
            raise pickle.UnpicklingError(f"{module}.{name} is not a parse type")
        return cls


def _is_list_of(values, cls: type) -> bool:
    return type(values) is list and all(type(value) is cls for value in values)


def _is_parse(result, levels: bool) -> bool:
    """Whether ``result`` is shaped like what the parser of these datasets
    returns: a level scheme and its warnings, or decay records, their
    daughters and the warnings. Raises when it has another length."""
    if levels:
        scheme, warnings = result
        fits = type(scheme) is LevelScheme
    else:
        records, daughters, warnings = result
        fits = _is_list_of(records, DecayRecord) and _is_list_of(daughters, DaughterFeed)
    return fits and _is_list_of(warnings, str)


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
