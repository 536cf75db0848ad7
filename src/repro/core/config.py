"""Configuration for the S3PG transformation.

The single user-facing switch of the paper is *parsimonious* vs
*non-parsimonious* (Sections 4.1.1 / 4.2.1): parsimonious encodes
single-valued literal properties as key/value attributes inside nodes,
while non-parsimonious models every property as an edge to a value node,
trading output size for full monotonicity under schema evolution.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransformOptions:
    """Options controlling both schema and data transformation.

    Attributes:
        parsimonious: use the parsimonious model (default True).  With
            False, the non-parsimonious (fully monotone) model is used.
        on_unknown: what to do with triples not covered by the shape
            schema: ``"fallback"`` converts them with a generic
            heterogeneous-property rule (fully information preserving),
            ``"skip"`` drops them (lossy; useful for comparisons),
            ``"error"`` raises :class:`repro.errors.TransformError`.
    """

    parsimonious: bool = True
    on_unknown: str = "fallback"

    def __post_init__(self) -> None:
        if self.on_unknown not in ("fallback", "skip", "error"):
            raise ValueError(
                f"on_unknown must be fallback/skip/error, got {self.on_unknown!r}"
            )


#: The default (parsimonious) configuration.
DEFAULT_OPTIONS = TransformOptions()

#: The non-parsimonious, fully monotone configuration (Section 4.2.1).
MONOTONE_OPTIONS = TransformOptions(parsimonious=False)
