"""Exception hierarchy shared across the package."""


class NuclibError(Exception):
    """Base class for all package-specific errors."""


# --- nuclide identifier parsing ---------------------------------------------

class MalformedId(NuclibError):
    """Identifier text is empty or does not match any accepted form."""


class UnknownElement(MalformedId):
    """Identifier names an element symbol outside H..Og."""


class MassOutOfRange(MalformedId):
    """Mass number is outside 1..300."""


# --- data access -------------------------------------------------------------

class NetworkError(NuclibError):
    """Transport-level failure; never recorded in the absence registry."""


class OfflineMiss(NuclibError):
    """Offline mode is set and the dataset is neither cached nor registered absent."""


class CacheWriteError(NuclibError):
    """The cache file could not be written."""


class RegistryIoError(NuclibError):
    """The absence registry file could not be read or rewritten."""


# --- dataset parsing ---------------------------------------------------------

class HeaderMismatch(NuclibError):
    """A raw dataset does not follow the endpoint's CSV contract: it lacks a
    required column or the CSV reader rejects it."""


class NuclideMismatch(NuclibError):
    """Two datasets that must describe one nuclide disagree."""


# --- chain construction ------------------------------------------------------

class DataUnavailable(NuclibError):
    """A dataset required for chain traversal is neither cached nor fetchable."""


class DepthExceeded(NuclibError):
    """Traversal visited more nuclides than the configured cap."""


class EmptySubset(NuclibError):
    """A radionuclide subset resolved to no members."""


# --- library building --------------------------------------------------------

class InvertedBounds(NuclibError):
    """A prune interval has lo > hi."""


# --- rendering / export ------------------------------------------------------

class UnsupportedFormat(NuclibError):
    """Requested table format is not one of csv/html/xml/tex/json."""


class IoError(NuclibError):
    """An output file could not be written."""


# --- peak qualification --------------------------------------------------------

class InvalidInput(NuclibError, ValueError):
    """A peak list, an imported library CSV, a marker registry or a qualify
    setting is unreadable or out of range. Also a ValueError, which these
    checks used to raise."""


# --- configuration -----------------------------------------------------------

class ConfigParseError(NuclibError):
    """YAML input is syntactically or semantically invalid."""


class UnknownKey(ConfigParseError):
    """Configuration contains a key outside the documented schema."""
