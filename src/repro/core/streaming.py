"""File-based streaming data transformation (Algorithm 1's input model).

Algorithm 1 "takes G in the form of file F and reads F triple by triple to
process the stream of triples".  :func:`transform_file` follows that
discipline literally: the N-Triples file is scanned twice (once per phase
of :meth:`DataTransformer.transform`) and no triple set is ever
materialized in memory — the peak footprint is the output property graph
plus the entity-type map, which is what lets the paper process hundreds of
millions of triples within a 32 GB budget.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from ..rdf.ntriples import iter_ntriples
from ..rdf.terms import Triple
from .config import DEFAULT_OPTIONS, TransformOptions
from .data_transform import DataTransformer, TransformedGraph
from .schema_transform import SchemaTransformResult


class _NTriplesFile:
    """A re-iterable over an N-Triples file: every ``iter()`` is a fresh scan."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def __iter__(self) -> Iterator[Triple]:
        return iter_ntriples(self.path)


def transform_file(
    path: str | Path,
    schema_result: SchemaTransformResult,
    options: TransformOptions = DEFAULT_OPTIONS,
) -> TransformedGraph:
    """Transform an N-Triples file with the streaming two-pass algorithm.

    ``stats.triples_processed`` counts the first pass only.
    """
    return DataTransformer(schema_result, options).transform(_NTriplesFile(path))
