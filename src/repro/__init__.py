"""S3PG: Transforming RDF Graphs to Property Graphs using Standardized Schemas.

A from-scratch reproduction of the SIGMOD paper by Rabbani, Lissandrini,
Bonifati, and Hose.  The package implements the full stack the paper
builds on:

* :mod:`repro.rdf` — RDF terms, indexed triple store, N-Triples/Turtle;
* :mod:`repro.shacl` — SHACL shape model, parser, validator;
* :mod:`repro.shapes` — QSE-style shape extraction from data;
* :mod:`repro.pg` — property graphs, indexed store, CSV/YARS-PG I/O;
* :mod:`repro.pgschema` — PG-Schema types, PG-Keys, conformance, DDL;
* :mod:`repro.core` — the S3PG transformation itself (schema + data,
  parsimonious & non-parsimonious, inverses, incremental updates);
* :mod:`repro.baselines` — NeoSemantics and rdf2pg reimplementations;
* :mod:`repro.query` — SPARQL & Cypher engines and the query translator;
* :mod:`repro.datasets` — synthetic DBpedia/Bio2RDF-like KGs, workloads;
* :mod:`repro.eval` — the experiment harness behind ``benchmarks/``.

Quickstart::

    from repro import transform
    from repro.datasets import university_graph, university_shapes

    result = transform(university_graph(), university_shapes())
    print(result.graph)            # the property graph
    print(result.pg_schema)        # the PG-Schema
"""

from .core.config import DEFAULT_OPTIONS, MONOTONE_OPTIONS, TransformOptions
from .core.pipeline import S3PG, TransformResult, transform

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_OPTIONS",
    "MONOTONE_OPTIONS",
    "S3PG",
    "TransformOptions",
    "TransformResult",
    "transform",
    "__version__",
]
