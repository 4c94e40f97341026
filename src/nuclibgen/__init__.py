"""Automated generation of tailored radionuclide libraries for alpha,
beta, and gamma spectrometry.

From user-designated progenitor radionuclides the package recursively
computes decay chains, retrieves and caches evaluated nuclear data,
validates energy-level feasibility, infers isomers, prunes by nuclear
parameters, and emits tables (csv, html, xml, tex, json), lineage trees
and annotated plots. Works both as a library and through the ``nuclibgen`` CLI.
"""

__version__ = "0.1.0"

from .chains import (
    DecayChain,
    LineageTree,
    RadionuclideSubset,
    assemble_subset,
    build_progeny,
    render_lineage,
)
from .dataaccess import (
    AbsenceRegistry,
    AccessConfig,
    DataStore,
    DatasetKey,
    RawDataset,
)
from .errors import NuclibError
from .export import export_table, import_library_csv
from .identify import Peak, PeakList, qualify_peaks
from .levels import cascade_visit, flatten_levels
from .library import (
    LibraryEntry,
    PruneBounds,
    RadionuclideLibrary,
    assemble_library,
    prune,
)
from .nuclide import (
    DecayMode,
    EnergyValue,
    HalfLife,
    LevelSpec,
    Nuclide,
    RadiationType,
    format_nuclide_id,
    parse_nuclide_id,
)
from .plot import MarkerRegistry, PlotWindow, plot_library
from .records import (
    DecayRecord,
    LevelRecord,
    LevelScheme,
    extract_daughters,
    parse_decay_records,
    parse_level_scheme,
)

__all__ = [
    "AbsenceRegistry",
    "AccessConfig",
    "DataStore",
    "DatasetKey",
    "DecayChain",
    "DecayMode",
    "DecayRecord",
    "EnergyValue",
    "HalfLife",
    "LevelRecord",
    "LevelScheme",
    "LevelSpec",
    "LibraryEntry",
    "LineageTree",
    "MarkerRegistry",
    "Nuclide",
    "NuclibError",
    "Peak",
    "PeakList",
    "PlotWindow",
    "PruneBounds",
    "RadiationType",
    "RadionuclideLibrary",
    "RadionuclideSubset",
    "RawDataset",
    "assemble_library",
    "assemble_subset",
    "build_progeny",
    "cascade_visit",
    "export_table",
    "extract_daughters",
    "flatten_levels",
    "format_nuclide_id",
    "import_library_csv",
    "parse_decay_records",
    "parse_level_scheme",
    "parse_nuclide_id",
    "plot_library",
    "prune",
    "qualify_peaks",
    "render_lineage",
]
