"""Deterministic naming of PG labels, keys, and type names from IRIs.

S3PG derives property-graph identifiers from IRIs, e.g. the class
``schema:ShoppingCenter`` becomes the label ``sch_ShoppingCenter`` and the
predicate ``dbp:address`` becomes the relationship type ``dbp_address``
(cf. the Q22 Cypher queries in Section 5.2).  Names must be deterministic
(monotonicity) and collision-free (information preservation), so the
resolver keeps a registry and disambiguates clashes with a stable hash
suffix.
"""

from __future__ import annotations

import hashlib
import re

from ..namespaces import local_name
from ..rdf.namespace import PrefixMap

_IDENTIFIER_RE = re.compile(r"[^0-9A-Za-z_]")


def sanitize(text: str) -> str:
    """Turn arbitrary text into a safe PG identifier fragment."""
    cleaned = _IDENTIFIER_RE.sub("_", text).strip("_")
    if not cleaned:
        cleaned = "x"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _short_hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:6]


class NameResolver:
    """Maps IRIs to unique PG names and remembers the inverse.

    Args:
        prefixes: prefix table used to derive ``prefix_local`` names; an
            IRI outside every prefix gets its bare local name.
    """

    def __init__(self, prefixes: PrefixMap | None = None):
        self.prefixes = prefixes or PrefixMap.with_defaults()
        self._iri_to_name: dict[str, str] = {}
        self._name_to_iri: dict[str, str] = {}

    def name_for(self, iri: str) -> str:
        """The stable PG name for ``iri`` (allocating it on first use)."""
        cached = self._iri_to_name.get(iri)
        if cached is not None:
            return cached
        candidate = self._base_name(iri)
        if candidate in self._name_to_iri and self._name_to_iri[candidate] != iri:
            candidate = f"{candidate}_{_short_hash(iri)}"
        self._iri_to_name[iri] = candidate
        self._name_to_iri[candidate] = iri
        return candidate

    def _base_name(self, iri: str) -> str:
        compacted = self.prefixes.compact(iri)
        if compacted != iri:
            prefix, local = compacted.split(":", 1)
            return sanitize(f"{prefix}_{local}")
        return sanitize(local_name(iri))

    def iri_for(self, name: str) -> str | None:
        """The IRI a name was allocated for, or None."""
        return self._name_to_iri.get(name)

    def known_names(self) -> dict[str, str]:
        """A copy of the name -> IRI registry."""
        return dict(self._name_to_iri)


def type_name_for(label: str) -> str:
    """Derive a PG-Schema node/edge type name from a label.

    ``Person`` -> ``personType``; ``dbp_address`` -> ``dbp_addressType``.
    """
    if not label:
        return "anonType"
    return label[0].lower() + label[1:] + "Type"
