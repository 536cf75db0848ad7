"""Exception hierarchy for the S3PG reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
package layout: parsing, validation, schema handling, transformation, and
querying each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParseError(ReproError):
    """A serialized document (N-Triples, Turtle, DDL, query text) is invalid.

    Attributes:
        line: 1-based line number of the offending input, when known.
        column: 1-based column number, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TermError(ReproError):
    """An RDF term (IRI, literal, blank node) is malformed."""


class GraphError(ReproError):
    """An operation on an RDF graph or property graph is invalid."""


class ShapeError(ReproError):
    """A SHACL shape definition is malformed or inconsistent."""


class SchemaError(ReproError):
    """A PG-Schema definition is malformed or inconsistent."""


class ValidationError(ReproError):
    """Raised when strict validation is requested and the data does not conform."""


class TransformError(ReproError):
    """The RDF-to-PG transformation cannot proceed.

    Typically raised when instance data refers to types not covered by the
    shape schema and the transformation runs in strict mode.
    """


class ChangefeedError(ReproError):
    """A CDC changefeed source or checkpoint is malformed or inconsistent."""


class SnapshotError(ReproError):
    """A binary graph snapshot is corrupt, truncated, or unsupported.

    Raised eagerly on load — a bad file produces this error, never a
    silently wrong graph.
    """


class QueryError(ReproError):
    """A query is syntactically or semantically invalid for the engine."""


class TranslationError(ReproError):
    """A SPARQL query cannot be translated to Cypher for the given mapping."""
