"""Round-trip tests for the Neo4j-style bulk CSV serialization."""

import itertools

import pytest

from repro.errors import GraphError
from repro.pg import PropertyGraph, export_csv, import_csv, read_csv, write_csv
from repro.pg.csv_io import _split_unescaped


def build_graph() -> PropertyGraph:
    g = PropertyGraph()
    g.add_node("a", labels={"Person"}, properties={
        "iri": "http://x/a", "name": "Ann, the 1st", "age": 30,
        "scores": [1, 2, 3], "active": True,
    })
    g.add_node("b", labels={"Person", "Student"}, properties={"iri": "http://x/b"})
    g.add_node("c", labels=set(), properties={"weight": 2.5})
    g.add_edge("a", "b", labels={"knows"}, properties={"since": 2020}, edge_id="e1")
    g.add_edge("b", "c", labels={"likes"}, edge_id="e2")
    return g


def test_round_trip_structurally_equal():
    g = build_graph()
    nodes_csv, edges_csv = export_csv(g)
    again = import_csv(nodes_csv, edges_csv)
    assert g.structurally_equal(again)


def test_headers_follow_neo4j_convention():
    nodes_csv, edges_csv = export_csv(build_graph())
    assert nodes_csv.splitlines()[0].startswith("id:ID,:LABEL")
    assert edges_csv.splitlines()[0].startswith("id,:START_ID,:END_ID,:TYPE")


def test_array_encoding_uses_semicolons():
    nodes_csv, _ = export_csv(build_graph())
    assert "1;2;3;" in nodes_csv


def test_booleans_round_trip():
    g = build_graph()
    again = import_csv(*export_csv(g))
    assert again.get_node("a").properties["active"] is True


def test_numbers_round_trip_with_types():
    again = import_csv(*export_csv(build_graph()))
    assert again.get_node("a").properties["age"] == 30
    assert again.get_node("c").properties["weight"] == 2.5


def test_commas_in_values_survive():
    again = import_csv(*export_csv(build_graph()))
    assert again.get_node("a").properties["name"] == "Ann, the 1st"


def test_multi_labels_round_trip():
    again = import_csv(*export_csv(build_graph()))
    assert again.get_node("b").labels == {"Person", "Student"}


def test_invalid_node_header_raises():
    with pytest.raises(GraphError):
        import_csv("wrong,header\n", "id,:START_ID,:END_ID,:TYPE\n")


def test_invalid_edge_header_raises():
    with pytest.raises(GraphError):
        import_csv("id:ID,:LABEL\n", "bad,header,x,y\n")


def test_file_round_trip(tmp_path):
    g = build_graph()
    nodes_path, edges_path = write_csv(g, tmp_path / "out")
    assert nodes_path.exists() and edges_path.exists()
    assert read_csv(tmp_path / "out").structurally_equal(g)


def test_empty_graph_round_trip():
    g = PropertyGraph()
    assert import_csv(*export_csv(g)).node_count() == 0


class TestSeparatorEscaping:
    """Values containing the ';' array separator must round-trip."""

    def test_scalar_ending_with_separator(self):
        g = PropertyGraph()
        g.add_node("n", properties={"v": "ends-with;"})
        again = import_csv(*export_csv(g))
        assert again.get_node("n").properties["v"] == "ends-with;"

    def test_array_values_containing_separator(self):
        g = PropertyGraph()
        g.add_node("n", properties={"arr": ["a;b", "c"]})
        again = import_csv(*export_csv(g))
        assert again.get_node("n").properties["arr"] == ["a;b", "c"]

    def test_backslashes_round_trip(self):
        g = PropertyGraph()
        g.add_node("n", properties={"v": "back\\slash;x", "w": "\\"})
        again = import_csv(*export_csv(g))
        assert again.structurally_equal(g)

    def test_bare_separator_value(self):
        g = PropertyGraph()
        g.add_node("n", properties={"v": ";"})
        again = import_csv(*export_csv(g))
        assert again.get_node("n").properties["v"] == ";"

    def test_empty_string_values_survive(self):
        g = PropertyGraph()
        g.add_node("n", properties={"v": "", "arr": ["", "x"]})
        again = import_csv(*export_csv(g))
        assert again.get_node("n").properties["v"] == ""
        assert again.get_node("n").properties["arr"] == ["", "x"]

    def test_literal_backslash_e_survives(self):
        g = PropertyGraph()
        g.add_node("n", properties={"v": "\\e"})
        again = import_csv(*export_csv(g))
        assert again.get_node("n").properties["v"] == "\\e"

    def test_numeric_looking_strings_keep_type(self):
        g = PropertyGraph()
        g.add_node("n", properties={
            "s_int": "12", "s_bool": "true", "s_float": "3.5",
            "i": 12, "b": True, "f": 3.5,
        })
        again = import_csv(*export_csv(g))
        assert g.structurally_equal(again)
        props = again.get_node("n").properties
        assert props["s_int"] == "12" and props["i"] == 12
        assert props["s_bool"] == "true" and props["b"] is True


def test_empty_array_round_trips():
    g = PropertyGraph()
    g.add_node("n", properties={"empty": [], "one": [""], "two": ["", ""]})
    again = import_csv(*export_csv(g))
    props = again.get_node("n").properties
    assert props["empty"] == []
    assert props["one"] == [""]
    assert props["two"] == ["", ""]
    assert g.structurally_equal(again)


def test_empty_array_distinct_from_marker_string():
    g = PropertyGraph()
    g.add_node("n", properties={"arr": [], "text": "\\a", "boxed": ["\\a"]})
    again = import_csv(*export_csv(g))
    props = again.get_node("n").properties
    assert props["arr"] == []
    assert props["text"] == "\\a"
    assert props["boxed"] == ["\\a"]


def _split_char_by_char(text: str) -> list[str]:
    """The character loop the decoder runs on cells holding an escape."""
    parts, current, i = [], [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            current += text[i:i + 2]
            i += 2
            continue
        if text[i] == ";":
            parts.append("".join(current))
            current = []
        else:
            current.append(text[i])
        i += 1
    parts.append("".join(current))
    return parts


def test_split_fast_path_equals_character_loop():
    # Every string of length <= 7 over {a, ;, \}: with and without escapes.
    for n in range(8):
        for chars in itertools.product("a;\\", repeat=n):
            text = "".join(chars)
            assert _split_unescaped(text) == _split_char_by_char(text), text
