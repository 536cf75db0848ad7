"""Neo4j-style bulk CSV export/import for property graphs.

The paper loads transformed graphs into Neo4j; rdf2pg's Neo4JWriter was
"enhanced to produce the graph in CSV format" for efficient bulk loading.
This module reproduces that interchange: one ``nodes.csv`` with
``id:ID``, ``:LABEL``, and property columns, and one ``edges.csv`` with
``:START_ID``, ``:END_ID``, ``:TYPE``, and property columns.  Arrays use
the Neo4j convention of ``;``-separated values.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

from ..errors import GraphError
from .model import PropertyGraph, PropertyValue

ARRAY_SEPARATOR = ";"
LABEL_SEPARATOR = ";"
EMPTY_ARRAY_MARKER = "\\a"


def _escape_scalar_text(text: str) -> str:
    """Escape the array separator (and the escape char) inside values."""
    return text.replace("\\", "\\\\").replace(ARRAY_SEPARATOR, "\\" + ARRAY_SEPARATOR)


def _unescape_scalar_text(text: str) -> str:
    return text.replace("\\" + ARRAY_SEPARATOR, ARRAY_SEPARATOR).replace("\\\\", "\\")


def _split_unescaped(text: str) -> list[str]:
    """Split at separators that are not preceded by the escape char."""
    if "\\" not in text:
        return text.split(ARRAY_SEPARATOR)
    parts: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            current.append(ch)
            current.append(text[i + 1])
            i += 2
            continue
        if ch == ARRAY_SEPARATOR:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def _encode_value(value: PropertyValue) -> str:
    if isinstance(value, list):
        if not value:
            # A bare separator would decode as [""], so the empty array
            # gets its own marker.
            return EMPTY_ARRAY_MARKER
        return ARRAY_SEPARATOR.join(_encode_scalar(v) for v in value) + ARRAY_SEPARATOR
    return _encode_scalar(value)


def _encode_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value == "":
        # An empty CSV cell means "property absent"; empty strings get an
        # explicit escape marker so they survive the round trip.
        return "\\e"
    if isinstance(value, str) and _parses_as_non_string(value):
        # A *string* that looks like a number/boolean gets a string-type
        # marker so the round trip preserves its type.
        return "\\s" + _escape_scalar_text(value)
    return _escape_scalar_text(str(value))


def _parses_as_non_string(text: str) -> bool:
    if text in ("true", "false", "\\e", EMPTY_ARRAY_MARKER):
        return True
    if text.startswith("\\s"):
        return True
    if _INT_RE.match(text):
        return True
    return bool(_FLOAT_RE.match(text) and any(c in text for c in ".eE"))


def _decode_value(text: str) -> PropertyValue:
    if text == EMPTY_ARRAY_MARKER:
        return []
    parts = _split_unescaped(text)
    if len(parts) > 1 and parts[-1] == "":
        # Trailing (unescaped) separator marks an array value.
        return [_decode_scalar(part) for part in parts[:-1]]
    return _decode_scalar(text)


_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?$")


def _decode_scalar(text: str) -> object:
    if text == "\\e":
        return ""
    if text.startswith("\\s"):
        return _unescape_scalar_text(text[2:])
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text) and any(c in text for c in ".eE"):
        return float(text)
    return _unescape_scalar_text(text)


def export_csv(graph: PropertyGraph) -> tuple[str, str]:
    """Serialize the graph; returns ``(nodes_csv, edges_csv)`` strings."""
    node_keys = sorted({k for n in graph.nodes.values() for k in n.properties})
    nodes_buffer = io.StringIO()
    writer = csv.writer(nodes_buffer, lineterminator="\n")
    writer.writerow(["id:ID", ":LABEL", *node_keys])
    for node in graph.nodes.values():
        row = [node.id, LABEL_SEPARATOR.join(sorted(node.labels))]
        for key in node_keys:
            value = node.properties.get(key)
            row.append("" if value is None else _encode_value(value))
        writer.writerow(row)

    edge_keys = sorted({k for e in graph.edges.values() for k in e.properties})
    edges_buffer = io.StringIO()
    writer = csv.writer(edges_buffer, lineterminator="\n")
    writer.writerow(["id", ":START_ID", ":END_ID", ":TYPE", *edge_keys])
    for edge in graph.edges.values():
        row = [edge.id, edge.src, edge.dst, LABEL_SEPARATOR.join(sorted(edge.labels))]
        for key in edge_keys:
            value = edge.properties.get(key)
            row.append("" if value is None else _encode_value(value))
        writer.writerow(row)

    return nodes_buffer.getvalue(), edges_buffer.getvalue()


def import_csv(nodes_csv: str, edges_csv: str) -> PropertyGraph:
    """Rebuild a property graph from its CSV serialization.

    Raises:
        GraphError: when required columns are missing.
    """
    graph = PropertyGraph()

    node_reader = csv.reader(io.StringIO(nodes_csv))
    header = next(node_reader, None)
    if header is None or header[:2] != ["id:ID", ":LABEL"]:
        raise GraphError("nodes CSV must start with columns id:ID,:LABEL")
    node_keys = header[2:]
    for row in node_reader:
        if not row:
            continue
        node_id, label_field, *values = row
        labels = [lab for lab in label_field.split(LABEL_SEPARATOR) if lab]
        properties: dict[str, PropertyValue] = {}
        for key, text in zip(node_keys, values):
            if text != "":
                properties[key] = _decode_value(text)
        graph.add_node(node_id, labels=labels, properties=properties)

    edge_reader = csv.reader(io.StringIO(edges_csv))
    header = next(edge_reader, None)
    if header is None or header[:4] != ["id", ":START_ID", ":END_ID", ":TYPE"]:
        raise GraphError("edges CSV must start with columns id,:START_ID,:END_ID,:TYPE")
    edge_keys = header[4:]
    for row in edge_reader:
        if not row:
            continue
        edge_id, src, dst, label_field, *values = row
        labels = [lab for lab in label_field.split(LABEL_SEPARATOR) if lab]
        properties = {}
        for key, text in zip(edge_keys, values):
            if text != "":
                properties[key] = _decode_value(text)
        graph.add_edge(src, dst, labels=labels, properties=properties, edge_id=edge_id)

    return graph


def write_csv(graph: PropertyGraph, directory: str | Path) -> tuple[Path, Path]:
    """Write ``nodes.csv`` and ``edges.csv`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes_csv, edges_csv = export_csv(graph)
    nodes_path = directory / "nodes.csv"
    edges_path = directory / "edges.csv"
    nodes_path.write_text(nodes_csv, encoding="utf-8")
    edges_path.write_text(edges_csv, encoding="utf-8")
    return nodes_path, edges_path


def read_csv(directory: str | Path) -> PropertyGraph:
    """Read a graph written by :func:`write_csv`."""
    directory = Path(directory)
    nodes_csv = (directory / "nodes.csv").read_text(encoding="utf-8")
    edges_csv = (directory / "edges.csv").read_text(encoding="utf-8")
    return import_csv(nodes_csv, edges_csv)
