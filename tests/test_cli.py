from __future__ import annotations

import json
import time

import pytest

import helpers
from slimfork import (
    DIAGRAM_MAX_ELEMENTS,
    ForkScript,
    GridSpec,
    SearchResult,
    all_congruences_oracle,
    canonical_key,
    cli,
    con_matcher,
    grid,
    io,
)
from slimfork.cli import main


def run(capsys, *argv) -> tuple[int, dict | None]:
    status = main(list(argv))
    out = capsys.readouterr().out.strip()
    payload = json.loads(out.splitlines()[-1]) if out else None
    return status, payload


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def s7_path(workdir, s7):
    path = workdir / "s7.json"
    io.save(s7, path)
    return path


class TestGridCommand:
    def test_writes_document(self, workdir, capsys):
        status, payload = run(capsys, "grid", "2", "2")
        assert status == 0
        assert payload == {"n": 4, "written": "grid-2x2.json"}
        loaded = io.load(workdir / "grid-2x2.json")
        assert loaded.upper == grid(GridSpec(2, 2)).upper

    def test_too_small_is_invalid_input(self, workdir, capsys):
        status, _ = run(capsys, "grid", "1", "5")
        assert status == 2


class TestForkCommand:
    def test_fork_grid(self, workdir, capsys):
        run(capsys, "grid", "2", "2")
        status, payload = run(capsys, "fork", "grid-2x2.json", "--cell", "0")
        assert status == 0
        assert payload["n"] == 7 and payload["m"] == 4
        loaded = io.load(workdir / payload["written"])
        assert canonical_key(loaded) == canonical_key(helpers.s7())

    def test_bad_cell(self, workdir, capsys):
        run(capsys, "grid", "2", "2")
        status, _ = run(capsys, "fork", "grid-2x2.json", "--cell", "3")
        assert status == 2


class TestScriptCommand:
    def test_runs_script(self, workdir, capsys):
        (workdir / "double.script.json").write_text('{"grid": [2, 2], "steps": [0, 0]}')
        status, payload = run(
            capsys, "script", "double.script.json", "--trace-dir", "stages"
        )
        assert status == 0
        assert payload["n"] == 10 and payload["stages"] == 3
        assert (workdir / "stages" / "stage-002.json").exists()

    def test_bad_step(self, workdir, capsys):
        (workdir / "bad.script.json").write_text('{"grid": [2, 2], "steps": [9]}')
        status, _ = run(capsys, "script", "bad.script.json")
        assert status == 2


class TestRepeatedJsonKey:
    @pytest.mark.parametrize(
        "argv",
        [("check", "dup.json", "--props", "sm"), ("script", "dup.script.json")],
        ids=["document", "script"],
    )
    def test_exits_two(self, workdir, capsys, argv):
        (workdir / "dup.json").write_text(
            '{"elements": [{"id": 0}, {"id": 1}, {"id": 2}], '
            '"upper_covers": {"0": [1], "1": [], "1": [2], "2": []}}'
        )
        (workdir / "dup.script.json").write_text('{"grid": [2, 2], "steps": [], "steps": [0]}')
        status = main(list(argv))
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "repeated in one JSON object" in captured.err


class TestDiagramCap:
    @pytest.mark.parametrize(
        "argv",
        [("grid", "50", "50"), ("script", "big.script.json"), ("check", "chain.json")],
        ids=["grid", "script", "document"],
    )
    def test_over_cap_exits_two_fast(self, workdir, capsys, argv):
        (workdir / "big.script.json").write_text('{"grid": [50, 50], "steps": [0]}')
        n = DIAGRAM_MAX_ELEMENTS + 1
        chain_doc = {
            "name": "chain",
            "elements": [{"id": i} for i in range(n)],
            "upper_covers": {str(i): [i + 1] for i in range(n - 1)},
        }
        (workdir / "chain.json").write_text(json.dumps(chain_doc))
        start = time.perf_counter()
        status = main(list(argv))
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "the cap is 2048" in captured.err
        assert elapsed < 1.0


class TestCheckCommand:
    def test_p2_on_s7(self, s7_path, capsys):
        status, payload = run(capsys, "check", str(s7_path), "--props", "p2")
        assert status == 0
        assert payload == {"p2": "holds", "dual_atoms": 2}

    def test_all_props_on_s7(self, s7_path, capsys):
        status, payload = run(capsys, "check", str(s7_path))
        assert status == 0
        assert payload["slim"] and payload["sm"] and payload["graded"]
        assert payload["rect"] and payload["p1"]
        assert payload["prime_ideals"] is True

    def test_failing_prop_exits_one(self, workdir, capsys):
        io.save(helpers.n5(), workdir / "n5.json")
        status, payload = run(capsys, "check", "n5.json", "--props", "sm,graded")
        assert status == 1
        assert payload == {"sm": False, "graded": False}

    def test_rect_failure(self, workdir, capsys):
        io.save(helpers.chain(3), workdir / "c3.json")
        status, payload = run(capsys, "check", "c3.json", "--props", "rect")
        assert status == 1
        assert payload["rect"] is False and "rect_reason" in payload

    def test_two_keys_naming_one_element_exit_two(self, workdir, capsys):
        doc = {
            "elements": [{"id": 0}, {"id": 1}, {"id": 2}],
            "upper_covers": {"0": [1], "1": [], "01": [2], "2": []},
        }
        (workdir / "dup.json").write_text(json.dumps(doc))
        status = main(["check", "dup.json"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "both name element 1" in captured.err

    def test_unknown_prop(self, s7_path, capsys):
        status, _ = run(capsys, "check", str(s7_path), "--props", "bogus")
        assert status == 2

    def test_p2_fails_on_m3(self, workdir, capsys):
        io.save(helpers.m3(), workdir / "m3.json")
        status = main(["check", "m3.json", "--props", "p2"])
        assert status == 1
        assert capsys.readouterr().out == '{"dual_atoms":1,"p2":"fails"}\n'

    def test_p2_exempt_on_tiny_lattice(self, workdir, capsys):
        io.save(helpers.chain(2), workdir / "c2.json")
        status, payload = run(capsys, "check", "c2.json", "--props", "p2")
        assert status == 0
        assert payload == {"p2": "exempt"}

    @pytest.mark.parametrize(
        "content", ["{", "[1,2", '{"elements": 3}', "", '{"a": }']
    )
    def test_fuzzed_inputs_never_succeed(self, workdir, capsys, content):
        (workdir / "junk.json").write_text(content)
        for argv in (
            ["check", "junk.json", "--props", "p2"],
            ["con", "junk.json"],
            ["fork", "junk.json", "--cell", "0"],
            ["render", "junk.json", "--dot", "out.dot"],
            ["search", "junk.json"],
        ):
            status = main(argv)
            capsys.readouterr()
            assert status == 2


class TestConCommand:
    def test_full_lattice(self, s7_path, capsys):
        status, payload = run(capsys, "con", str(s7_path))
        assert status == 0
        assert payload["size"] == 5
        assert len(payload["congruences"]) == 5

    def test_ji(self, s7_path, capsys):
        status, payload = run(capsys, "con", str(s7_path), "--ji")
        assert status == 0
        assert payload["count"] == 3
        assert sorted(payload["covers"]) == [[0, 1], [0, 2]]

    def test_dual_atoms(self, s7_path, capsys):
        status, payload = run(capsys, "con", str(s7_path), "--dual-atoms")
        assert status == 0
        assert payload["dual_atoms"] == 2

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_dual_atom_members_are_oracle_coatoms(self, workdir, capsys, diagram):
        io.save(diagram, workdir / "d.json")
        status, payload = run(capsys, "con", "d.json", "--dual-atoms")
        assert status == 0
        oracle = all_congruences_oracle(diagram)
        coatoms = [
            [list(b) for b in oracle.members[i].blocks()] for i in oracle.coatom_indices()
        ]
        assert payload == {"dual_atoms": len(coatoms), "members": coatoms}

    def test_too_large_exits_two(self, workdir, capsys):
        # J of the 12 x 12 grid is a 22-element antichain: 2^22 congruences
        io.save(grid(GridSpec(12, 12)), workdir / "g.json")
        start = time.perf_counter()
        status = main(["con", "g.json"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert elapsed < 10.0


class TestEnumerateCommand:
    def test_small_campaign(self, workdir, capsys):
        status, payload = run(
            capsys,
            "enumerate", "--pmax", "3", "--qmax", "3", "--max-forks", "1",
            "--out", "family",
        )
        assert status == 0
        assert payload["ok"] is True
        assert payload["family_size"] == len(
            json.loads((workdir / "family" / "index.json").read_text())["classes"]
        )
        assert (workdir / "family" / "report.json").exists()
        index = json.loads((workdir / "family" / "index.json").read_text())
        first = index["classes"][0]
        assert (workdir / "family" / first["file"]).exists()

    def test_max_elements_cap_exits_two_before_any_work(self, workdir, capsys):
        start = time.perf_counter()
        status = main([
            "enumerate", "--pmax", "40", "--qmax", "40", "--max-elements", "2048",
            "--out", "family",
        ])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "max_elements" in captured.err
        assert not (workdir / "family").exists()
        assert elapsed < 1.0

    def test_deterministic_index(self, workdir, capsys):
        for name in ("a", "b"):
            status, _ = run(
                capsys,
                "enumerate", "--pmax", "2", "--qmax", "3", "--max-forks", "1",
                "--out", name,
            )
            assert status == 0
        assert (workdir / "a" / "index.json").read_bytes() == (
            workdir / "b" / "index.json"
        ).read_bytes()


class TestSearchCommand:
    def test_c3_note(self, workdir, capsys):
        io.save(helpers.chain(3), workdir / "c3.json")
        status, payload = run(
            capsys,
            "search", "c3.json", "--pmax", "4", "--qmax", "4", "--max-forks", "3",
        )
        assert status == 0
        assert payload["witnesses"] == []
        assert payload["note"] == "single dual atom"
        assert payload["scanned"] == 0

    def test_b2_witness(self, workdir, capsys):
        io.save(grid(GridSpec(2, 2)), workdir / "b2.json")
        status, payload = run(
            capsys,
            "search", "b2.json", "--pmax", "3", "--qmax", "3", "--max-forks", "0",
        )
        assert status == 0
        assert {"grid": [2, 2], "steps": []} in payload["witnesses"]

    def test_b8_witness(self, workdir, capsys):
        io.save(helpers.boolean(8), workdir / "b8.json")
        status, payload = run(
            capsys,
            "search", "b8.json", "--pmax", "5", "--qmax", "5", "--max-forks", "0",
        )
        assert status == 0
        assert payload["witnesses"] == [{"grid": [5, 5], "steps": []}]
        assert payload["note"] == "1 witness(es) among 10 classes"

    def test_non_distributive_target(self, workdir, capsys):
        io.save(helpers.m3(), workdir / "m3.json")
        status, _ = run(capsys, "search", "m3.json", "--pmax", "2", "--qmax", "2")
        assert status == 2

    def test_wrong_witness_fails_reverification(self, workdir, capsys, monkeypatch):
        # Con of the 2 x 3 grid is B3, not B2
        b2 = grid(GridSpec(2, 2))
        wrong = SearchResult([ForkScript(GridSpec(2, 3))], "planted", 1, con_matcher(b2))
        monkeypatch.setattr(cli, "search_representation", lambda target, spec: wrong)
        io.save(b2, workdir / "b2.json")
        status = main(["search", "b2.json", "--max-forks", "0"])
        captured = capsys.readouterr()
        assert status == 1
        assert "failed re-verification" in captured.err


class TestRenderCommand:
    def test_writes_dot(self, workdir, capsys, s7_path):
        status, payload = run(capsys, "render", str(s7_path), "--dot", "s7.dot")
        assert status == 0
        text = (workdir / "s7.dot").read_text()
        assert text.startswith('digraph "')
        assert text.count("->") == 9


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_missing_file(self, workdir, capsys):
        assert main(["check", "nope.json"]) == 2
        capsys.readouterr()
