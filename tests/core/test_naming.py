"""Tests for deterministic PG naming."""

from repro.core import NameResolver, sanitize, type_name_for
from repro.rdf import PrefixMap


class TestSanitize:
    def test_passthrough(self):
        assert sanitize("Person") == "Person"

    def test_replaces_special_characters(self):
        assert sanitize("a-b.c d") == "a_b_c_d"

    def test_leading_digit_prefixed(self):
        assert sanitize("1abc") == "_1abc"

    def test_empty_falls_back(self):
        assert sanitize("///") == "x"


class TestTypeNames:
    def test_lower_camel_with_suffix(self):
        assert type_name_for("Person") == "personType"

    def test_prefixed_label(self):
        assert type_name_for("dbp_address") == "dbp_addressType"

    def test_empty(self):
        assert type_name_for("") == "anonType"


class TestNameResolver:
    def test_prefixed_naming(self):
        resolver = NameResolver(PrefixMap({"dbp": "http://dbpedia.org/property/"}))
        assert resolver.name_for("http://dbpedia.org/property/address") == "dbp_address"

    def test_local_name_fallback(self):
        resolver = NameResolver(PrefixMap({}))
        assert resolver.name_for("http://unknown.example/ns#Thing") == "Thing"

    def test_stable_across_calls(self):
        resolver = NameResolver()
        first = resolver.name_for("http://x/a")
        assert resolver.name_for("http://x/a") == first

    def test_collisions_disambiguated(self):
        resolver = NameResolver(PrefixMap({}))
        a = resolver.name_for("http://one.example/Thing")
        b = resolver.name_for("http://two.example/Thing")
        assert a != b

    def test_inverse_lookup(self):
        resolver = NameResolver()
        name = resolver.name_for("http://x/a")
        assert resolver.iri_for(name) == "http://x/a"
        assert resolver.iri_for("unknown") is None

    def test_known_names_registry(self):
        resolver = NameResolver()
        resolver.name_for("http://x/a")
        assert "http://x/a" in resolver.known_names().values()
