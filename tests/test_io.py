from __future__ import annotations

import json
import re

import pytest

import helpers
from slimfork import GridSpec, build_diagram, canonical_key, grid, io
from slimfork.construct import ForkScript
from slimfork.errors import ParseError, ValidationError


class TestDocuments:
    def test_grid22_document_shape(self, g22):
        obj = io.diagram_to_obj(g22)
        assert obj == {
            "name": "grid-2x2",
            "elements": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
            "upper_covers": {"0": [2, 1], "1": [3], "2": [3], "3": []},
        }

    def test_round_trip_bytes(self, tmp_path, s7):
        path = tmp_path / "s7.json"
        io.save(s7, path)
        first = path.read_bytes()
        io.save(io.load(path), path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_round_trip_structure(self, tmp_path, diagram):
        path = tmp_path / "d.json"
        io.save(diagram, path)
        loaded = io.load(path)
        assert loaded.upper == diagram.upper
        assert loaded.lower == diagram.lower
        assert loaded.name == (diagram.name or f"lattice-{diagram.n}")

    def test_labels_survive(self, tmp_path):
        d = build_diagram([[1], []], labels=["bot", None], name="tiny")
        path = tmp_path / "tiny.json"
        io.save(d, path)
        loaded = io.load(path)
        assert loaded.labels == ("bot", None)

    def test_permuted_ids_load_isomorphic(self, tmp_path, s7):
        obj = io.diagram_to_obj(s7)
        mapping = {i: 10 * (i + 1) for i in range(s7.n)}
        permuted = {
            "name": "s7-permuted",
            "elements": [{"id": mapping[i]} for i in range(s7.n)],
            "upper_covers": {
                str(mapping[int(k)]): [mapping[j] for j in row]
                for k, row in obj["upper_covers"].items()
            },
        }
        path = tmp_path / "perm.json"
        path.write_text(json.dumps(permuted))
        loaded = io.load(path)
        assert loaded.n == s7.n
        assert canonical_key(loaded) == canonical_key(s7)

    def test_sparse_ids_densified(self, tmp_path):
        doc = {
            "name": "chain",
            "elements": [{"id": 30}, {"id": 10}, {"id": 20}],
            "upper_covers": {"10": [20], "20": [30], "30": []},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        loaded = io.load(path)
        assert loaded.upper == ((1,), (2,), ())

    def test_self_cover_is_validation_error(self, tmp_path):
        doc = {"name": "bad", "elements": [{"id": 0}], "upper_covers": {"0": [0]}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            io.load(path)

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all {",
            '"just a string"',
            "[]",
            '{"elements": []}',
            '{"name": 3, "elements": [{"id": 0}], "upper_covers": {}}',
            '{"elements": [{"id": 0}, {"id": 0}], "upper_covers": {}}',
            '{"elements": [{"id": 0}], "upper_covers": {"0": [7]}}',
            '{"elements": [{"id": 0}], "upper_covers": {"x": []}}',
            '{"elements": [{"id": 0}], "upper_covers": {"0": "no"}}',
            '{"elements": [{"id": true}], "upper_covers": {}}',
        ],
    )
    def test_malformed_documents(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ParseError):
            io.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            io.load(tmp_path / "missing.json")

    @pytest.mark.parametrize("first, second", [("1", "01"), ("1", "+1"), ("10", "1_0")])
    def test_two_keys_naming_one_element(self, tmp_path, first, second):
        # without the check the second row would silently replace the first
        ids = [0, 1, 2, 10]
        doc = {
            "elements": [{"id": i} for i in ids],
            "upper_covers": {"0": [1, 2], "1": [10], "2": [10], "10": []},
        }
        doc["upper_covers"][second] = []
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        key = int(first)
        with pytest.raises(ParseError, match=f"both name element {key}"):
            io.load(path)

    @pytest.mark.parametrize(
        "doc, key",
        [
            # the last "1" row alone would make the 3-chain 0 < 1 < 2
            ('{"elements": [{"id": 0}, {"id": 1}, {"id": 2}], '
             '"upper_covers": {"0": [1], "1": [], "1": [2], "2": []}}', "1"),
            ('{"name": "a", "name": "b", "elements": [{"id": 0}], '
             '"upper_covers": {"0": []}}', "name"),
            ('{"elements": [{"id": 0, "id": 1}], "upper_covers": {"0": []}}', "id"),
        ],
        ids=["upper_covers", "top level", "element"],
    )
    def test_repeated_json_key(self, tmp_path, doc, key):
        path = tmp_path / "dup.json"
        path.write_text(doc)
        with pytest.raises(ParseError, match=f"key '{key}' repeated"):
            io.load(path)

    def test_derived_lower_lists_across_family(self):
        # documents carry only upper lists; the lower lists rebuilt from
        # them must follow the plane order for every family member
        from slimfork import EnumSpec, enumerate_family

        family = enumerate_family(EnumSpec(4, 4, 2, max_elements=24))
        assert len(family) > 50
        for entry in family.members():
            rebuilt = io.obj_to_diagram(io.diagram_to_obj(entry.diagram))
            assert rebuilt.upper == entry.diagram.upper
            assert helpers.plane_order_pairs(rebuilt) > 0


class TestScripts:
    def test_round_trip(self, tmp_path):
        script = ForkScript(GridSpec(3, 3), (4, 0))
        path = tmp_path / "s.script.json"
        io.save_script(script, path)
        assert io.load_script(path) == script
        assert json.loads(path.read_text()) == {"grid": [3, 3], "steps": [4, 0]}

    def test_repeated_json_key(self, tmp_path):
        path = tmp_path / "dup.script.json"
        path.write_text('{"grid": [2, 2], "steps": [], "steps": [0]}')
        with pytest.raises(ParseError, match="key 'steps' repeated"):
            io.load_script(path)


DOT_EDGE = re.compile(r'^\s*"(\d+)" -> "(\d+)";$')
DOT_NODE = re.compile(r'"(\d+)" \[label="([^"]*)"\];')


def parse_dot(text: str):
    """Minimal DOT reader for the subset render_dot emits."""
    lines = text.strip().splitlines()
    header = re.fullmatch(r'digraph "(.*)" \{', lines[0])
    assert header, lines[0]
    assert lines[-1] == "}"
    assert lines[1].strip() == "rankdir=BT;"
    ranks = []
    edges = []
    for line in lines[2:-1]:
        stripped = line.strip()
        if stripped.startswith("{ rank=same;") and stripped.endswith("}"):
            ranks.append([int(m.group(1)) for m in DOT_NODE.finditer(stripped)])
            continue
        match = DOT_EDGE.match(line)
        assert match, f"unparsed line: {line!r}"
        edges.append((int(match.group(1)), int(match.group(2))))
    return header.group(1), ranks, edges


class TestRenderDot:
    def test_c2(self, c2):
        _, ranks, edges = parse_dot(io.render_dot(c2))
        assert sum(len(r) for r in ranks) == 2
        assert edges == [(0, 1)]

    def test_grid22_ranks(self, g22):
        _, ranks, edges = parse_dot(io.render_dot(g22))
        assert len(edges) == 4
        assert ranks[0] == [0]
        assert set(ranks[1]) == {1, 2}
        assert ranks[1] == [2, 1]  # left-to-right order follows the drawing
        assert ranks[2] == [3]

    def test_s7(self, s7):
        _, ranks, edges = parse_dot(io.render_dot(s7))
        assert sum(len(r) for r in ranks) == 7
        assert len(edges) == 9
        rank_of = {x: i for i, r in enumerate(ranks) for x in r}
        assert rank_of[4] < rank_of[3]  # m sits below the top

    def test_deterministic(self, g33):
        assert io.render_dot(g33) == io.render_dot(g33)

    def test_label_escaping(self):
        d = build_diagram([[1], []], labels=['say "hi"', None], name='q"uote')
        text = io.render_dot(d)
        parse_dot(text)
        assert '\\"hi\\"' in text
