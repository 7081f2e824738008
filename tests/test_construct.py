from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slimfork import (
    ForkScript,
    GridSpec,
    boundary_chains,
    build_diagram,
    canonical_key,
    four_cells,
    grid,
    insert_fork,
    is_graded,
    is_isomorphic,
    is_semimodular,
    is_slim,
    rectangular_profile,
    run_script,
)
from slimfork import construct
from slimfork.errors import (
    NotACell,
    NotRectangular,
    ScriptError,
    SpecTooSmall,
    ValidatorFailed,
)


class TestGrid:
    def test_too_small(self):
        with pytest.raises(SpecTooSmall):
            grid(GridSpec(1, 5))
        with pytest.raises(SpecTooSmall):
            grid(GridSpec(3, 1))

    def test_grid22_structure(self, g22):
        assert g22.n == 4
        assert g22.upper == ((2, 1), (3,), (3,), ())
        assert g22.lower == ((), (0,), (0,), (2, 1))

    def test_grid33_shape(self, g33):
        assert g33.n == 9
        assert g33.height(g33.top) == 4
        assert len(four_cells(g33)) == 4

    def test_row_major_ids(self, g32):
        # (i, j) -> i*q + j with covers up each chain
        assert g32.upper[0] == (2, 1)
        assert g32.upper[2] == (4, 3)
        assert g32.upper[4] == (5,)


class TestRectangularProfile:
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_grid_corners(self, p, q):
        profile = rectangular_profile(grid(GridSpec(p, q)))
        assert profile.c_l == (p - 1) * q
        assert profile.c_r == q - 1

    def test_chain_not_rectangular(self, c3):
        with pytest.raises(NotRectangular):
            rectangular_profile(c3)

    def test_c2_not_rectangular(self, c2):
        with pytest.raises(NotRectangular):
            rectangular_profile(c2)

    def test_s7_profile(self, s7):
        profile = rectangular_profile(s7)
        assert (profile.c_l, profile.c_r) == (2, 1)

    @pytest.mark.parametrize(
        "upper",
        [
            # a square with a one-element tail on top: 1 v 2 = 3, not the top
            [[1, 2], [3], [3], [4], []],
            # a square on a one-element tail: 2 ^ 3 = 1, not the bottom
            [[1], [2, 3], [4], [4], []],
        ],
    )
    def test_not_complementary(self, upper):
        with pytest.raises(NotRectangular, match="not complementary"):
            rectangular_profile(build_diagram(upper))

    def test_complementarity(self):
        for p, q in [(2, 2), (3, 4)]:
            d = grid(GridSpec(p, q))
            profile = rectangular_profile(d)
            assert d.meet(profile.c_l, profile.c_r) == d.bottom
            assert d.join(profile.c_l, profile.c_r) == d.top


class TestInsertFork:
    def test_s7_base_case(self, g22):
        result = insert_fork(g22, four_cells(g22)[0])
        s7 = result.diagram
        assert s7.n == 7
        assert result.m == 4
        assert result.left_leg == (5,)
        assert result.right_leg == (6,)
        assert s7.upper == ((5, 6), (3,), (3,), (), (3,), (2, 4), (4, 1))
        assert s7.lower == ((), (6,), (5,), (2, 4, 1), (5, 6), (0,), (0,))

    def test_fork_grid33_center(self, g33):
        result = helpers.fork_at(g33, 4)
        assert result.diagram.n == 14
        assert result.diagram.height(result.diagram.top) == 5
        assert len(result.left_leg) == 2
        assert len(result.right_leg) == 2

    def test_fork_grid32_left_boundary(self, g32):
        result = helpers.fork_at(g32, 2)
        assert result.diagram.n == 10
        assert len(result.left_leg) == 1
        assert len(result.right_leg) == 2

    def test_not_a_cell(self, g33):
        from slimfork import FourCell

        with pytest.raises(NotACell):
            insert_fork(g33, FourCell(o=0, a_l=3, a_r=4, t=7))

    def test_non_slim_input_rejected(self, m3):
        from slimfork.errors import ValidatorFailed

        for cell in four_cells(m3):
            with pytest.raises(ValidatorFailed):
                insert_fork(m3, cell)

    def test_leaves_parent_unchanged(self, g33):
        before = (g33.upper, g33.lower, g33.up, g33.down)
        for cell in four_cells(g33):
            result = insert_fork(g33, cell)
            assert (g33.upper, g33.lower, g33.up, g33.down) == before
            assert result.diagram.n == g33.n + 1 + len(result.left_leg) + len(result.right_leg)
            assert result.m == g33.n

    @pytest.mark.parametrize(
        "upper, message",
        [
            # the dual of S7: graded, one level above the 2x2 grid, not semimodular
            ([[], [6], [5], [2, 4, 1], [5, 6], [0], [0]], "not semimodular"),
            # M3 under a one-element tail: graded and semimodular, J(L) has width 3
            ([[1, 2, 3], [4], [4], [4], [5], []], "contains a diamond"),
            # M3: a lattice of the 2x2 grid's height
            ([[1, 2, 3], [4], [4], [4], []], "height did not increase"),
            # N5: one level above the 2x2 grid, neither graded nor semimodular
            ([[1, 3], [2], [4], [4], []], "not graded"),
        ],
        ids=["dual-s7", "m3-tail", "m3", "n5"],
    )
    def test_build_fork_rejects_hand_built_edits(self, g22, upper, message, monkeypatch):
        monkeypatch.setattr(construct, "_fork_upper", lambda diagram, cell: (upper, len(upper) - 1, (), ()))
        with pytest.raises(ValidatorFailed, match=message):
            insert_fork(g22, four_cells(g22)[0])

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_leg_lengths_on_grids(self, p, q):
        g = grid(GridSpec(p, q))
        for cell in four_cells(g):
            i, j = divmod(cell.o, q)
            result = insert_fork(g, cell)
            assert len(result.left_leg) == j + 1
            assert len(result.right_leg) == i + 1
            assert result.diagram.n == g.n + 2 + i + j + 1

    def test_fork_preserves_structure(self, g33):
        result = helpers.fork_at(g33, 4)
        d = result.diagram
        assert is_slim(d) and is_semimodular(d) and is_graded(d)
        rectangular_profile(d)
        left, right = boundary_chains(d)
        assert left[0] == d.bottom and left[-1] == d.top
        assert right[0] == d.bottom and right[-1] == d.top

    def test_new_element_count(self, s7):
        for cell in four_cells(s7):
            result = insert_fork(s7, cell)
            assert result.diagram.n == s7.n + 1 + len(result.left_leg) + len(result.right_leg)

    @pytest.mark.parametrize(
        "diagram", [d for d in helpers.semimodular_corpus() if d.name != "m3"],
        ids=lambda d: d.name,
    )
    def test_maximal_chains_after_fork(self, diagram):
        for cell in four_cells(diagram):
            result = insert_fork(diagram, cell)
            if result.diagram.n > 20:
                continue
            target = diagram.height(diagram.top) + 1
            for length in _maximal_chain_lengths(result.diagram):
                assert length == target


def _maximal_chain_lengths(diagram):
    lengths = []
    stack = [(diagram.bottom, 0)]
    while stack:
        x, depth = stack.pop()
        if x == diagram.top:
            lengths.append(depth)
            continue
        for y in diagram.upper[x]:
            stack.append((y, depth + 1))
    return lengths


class TestRunScript:
    def test_single_fork_is_s7(self, s7):
        final, trace = run_script(ForkScript(GridSpec(2, 2), (0,)))
        assert len(trace) == 2
        assert is_isomorphic(final, s7)

    def test_empty_script_is_grid(self, g33):
        final, trace = run_script(ForkScript(GridSpec(3, 3)))
        assert trace == (final,)
        assert canonical_key(final) == canonical_key(g33)

    def test_double_fork(self):
        final, trace = run_script(ForkScript(GridSpec(2, 2), (0, 0)))
        assert final.n == 10
        assert len(trace) == 3
        rectangular_profile(final)

    def test_stage_rectangularity(self):
        _, trace = run_script(ForkScript(GridSpec(3, 3), (4, 0)))
        for stage in trace:
            rectangular_profile(stage)

    def test_bad_selector(self):
        with pytest.raises(ScriptError, match="step 1"):
            run_script(ForkScript(GridSpec(2, 2), (3,)))

    def test_error_carries_step_index(self):
        with pytest.raises(ScriptError, match="step 2"):
            run_script(ForkScript(GridSpec(2, 2), (0, 99)))

    def test_determinism(self):
        from slimfork import io

        script = ForkScript(GridSpec(3, 3), (4, 0))
        a, _ = run_script(script)
        b, _ = run_script(script)
        assert a.upper == b.upper and a.lower == b.lower
        assert io.canonical_json(io.diagram_to_obj(a)) == io.canonical_json(
            io.diagram_to_obj(b)
        )


class TestRandomScripts:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_fork_walks_stay_valid(self, data):
        p = data.draw(st.integers(2, 3), label="p")
        q = data.draw(st.integers(2, 3), label="q")
        diagram = grid(GridSpec(p, q))
        steps = []
        for _ in range(data.draw(st.integers(0, 3), label="forks")):
            cells = four_cells(diagram)
            cell = cells[data.draw(st.integers(0, len(cells) - 1), label="cell")]
            before_height = diagram.height(diagram.top)
            result = insert_fork(diagram, cell)
            steps.append(cell.o)
            diagram = result.diagram
            assert diagram.height(diagram.top) == before_height + 1
            rectangular_profile(diagram)
        replayed, _ = run_script(ForkScript(GridSpec(p, q), tuple(steps)))
        assert replayed.upper == diagram.upper
        assert replayed.lower == diagram.lower


class TestForkScriptJson:
    def test_round_trip(self):
        script = ForkScript(GridSpec(3, 2), (2, 0))
        obj = script.to_obj()
        assert obj == {"grid": [3, 2], "steps": [2, 0]}
        assert ForkScript.from_obj(json.loads(json.dumps(obj))) == script

    def test_rejects_malformed(self):
        from slimfork.errors import ParseError

        for bad in [
            [],
            {"grid": [2], "steps": []},
            {"grid": [2, 2], "steps": "x"},
            {"grid": [2, 2]},
            {"grid": [2, True], "steps": []},
        ]:
            with pytest.raises(ParseError):
                ForkScript.from_obj(bad)
