"""Property-graph substrate: model, indexed store, CSV and YARS-PG I/O."""

from .csv_io import export_csv, import_csv, read_csv, write_csv
from .model import (
    PGEdge,
    PGNode,
    PGStats,
    PropertyGraph,
    PropertyValue,
    Scalar,
)
from .store import PropertyGraphStore
from .yarspg import export_yarspg, import_yarspg

__all__ = [
    "PGEdge",
    "PGNode",
    "PGStats",
    "PropertyGraph",
    "PropertyGraphStore",
    "PropertyValue",
    "Scalar",
    "export_csv",
    "export_yarspg",
    "import_csv",
    "import_yarspg",
    "read_csv",
    "write_csv",
]
