from __future__ import annotations

import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slimfork import (
    DIAGRAM_MAX_ELEMENTS,
    FourCell,
    GridSpec,
    PlanarDiagram,
    boundary_chains,
    build_diagram,
    canonical_key,
    four_cells,
    grid,
    is_graded,
    is_isomorphic,
    is_semimodular,
    is_slim,
    insert_fork,
    ji_width_at_most_two,
    planar_key,
    posets,
)
from slimfork.diagram import find_m3, find_n5
from slimfork.errors import (
    CycleDetected,
    DuplicateCover,
    NotALattice,
    NotBounded,
    TooLarge,
    ValidationError,
)


class TestBuild:
    def test_singleton(self):
        d = build_diagram([[]])
        assert d.n == 1 and d.bottom == d.top == 0

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            build_diagram([[1], [0]])

    def test_self_cover(self):
        with pytest.raises(CycleDetected):
            build_diagram([[0]])

    def test_two_maximal(self):
        with pytest.raises(NotBounded):
            build_diagram([[1, 2], [], []])

    def test_two_minimal(self):
        with pytest.raises(NotBounded):
            build_diagram([[2], [2], []])

    def test_duplicate_cover(self):
        with pytest.raises(DuplicateCover):
            build_diagram([[1, 1], []])

    def test_transitive_edge(self):
        with pytest.raises(ValidationError):
            build_diagram([[1, 2], [2], []])

    @pytest.mark.parametrize(
        "upper, edge",
        [
            ([[1, 2], [2], []], "0 -< 2"),
            ([[2, 1], [2], []], "0 -< 2"),
            ([[1, 3], [2], [3], []], "0 -< 3"),
            ([[1], [2, 3], [3], []], "1 -< 3"),
            ([[1, 2, 3], [2], [3], []], "0 -< 2"),
        ],
    )
    def test_implied_edge_message(self, upper, edge):
        # the first implied cover of the first offending row is named
        with pytest.raises(ValidationError, match=rf"^edge {edge} is implied by a longer chain$"):
            build_diagram(upper)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            build_diagram([[5], []])

    def test_not_a_lattice(self):
        # bowtie: two atoms under two coatoms, then bounded
        with pytest.raises(NotALattice, match=r"^elements 1 and 2 have no join$"):
            build_diagram([[1, 2], [3, 4], [3, 4], [5], [5], []])

    def test_joins_within_ji_are_not_enough(self):
        # J(L) is the three atoms, whose pairwise joins 4, 5 and 6 exist,
        # but 4 and 5 have two minimal upper bounds, 7 and 8
        upper = [[1, 2, 3], [4, 6], [4, 5], [5, 6], [7, 8], [7, 8], [7, 8], [9], [9], []]
        assert not helpers.all_pairs_is_lattice(upper)
        with pytest.raises(NotALattice, match=r"^elements 4 and 3 have no join$"):
            build_diagram(upper)

    def test_empty(self):
        with pytest.raises(NotBounded):
            build_diagram([])

    def test_derived_lower_lists_match_plane_order(self):
        pairs = 0
        for p in range(2, 9):
            for q in range(2, 9):
                pairs += helpers.plane_order_pairs(grid(GridSpec(p, q)))
        assert pairs == 28 * 28

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mirror_reverses_lower_lists(self, data):
        d = _fork_script_diagram(data)
        assert helpers.mirror(d).lower == tuple(row[::-1] for row in d.lower)

    def test_cap(self):
        with pytest.raises(TooLarge):
            helpers.chain(DIAGRAM_MAX_ELEMENTS + 1)


def _check_lattice_verdict(upper):
    """build_diagram refuses ``upper`` exactly when the all-pairs oracle does."""
    is_lattice = helpers.all_pairs_is_lattice(upper)
    try:
        build_diagram(upper)
    except NotALattice as exc:
        assert not is_lattice, upper
        x, y = map(int, re.fullmatch(r"elements (\d+) and (\d+) have no join", str(exc)).groups())
        up = helpers.up_masks(upper)
        assert up[x] & up[y] not in up, (upper, str(exc))
    else:
        assert is_lattice, upper
    return is_lattice


class TestLatticeCheck:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_all_pairs_oracle(self, data):
        n = data.draw(st.integers(3, 9))
        pairs = list(itertools.combinations(range(1, n - 1), 2))
        related = [p for p in pairs if data.draw(st.booleans())]
        _check_lattice_verdict(helpers.bounded_poset(n, related))

    def test_agrees_on_seeded_sample(self):
        rng = random.Random(20_111)
        verdicts = []
        for _ in range(10_000):
            n = rng.randint(3, 9)
            density = rng.random()
            related = [
                p for p in itertools.combinations(range(1, n - 1), 2) if rng.random() < density
            ]
            verdicts.append(_check_lattice_verdict(helpers.bounded_poset(n, related)))
        assert verdicts.count(False) >= 250

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_oracle_accepts_corpus(self, diagram):
        assert helpers.all_pairs_is_lattice(diagram.upper)


def _build_outcome(build, upper):
    """The tables a build gives, or the type and message of what it raises."""
    try:
        d = build(upper)
    except Exception as exc:
        return type(exc), str(exc)
    return d.upper, d.lower, d.up, d.down, d.heights, d.bottom, d.top


def _shuffled(upper, rng: random.Random) -> list[list[int]]:
    """``upper`` with its elements renamed at random, so index order is not topological."""
    perm = helpers.random_permutation(len(upper), rng)
    out = [[] for _ in upper]
    for i, row in enumerate(upper):
        out[perm[i]] = [perm[j] for j in row]
    return out


def _malformed(rng: random.Random) -> list[list[int]]:
    """A shuffled bounded poset's upper lists with one to three seeded defects."""
    n = rng.randint(3, 9)
    related = [p for p in itertools.combinations(range(1, n - 1), 2) if rng.random() < 0.4]
    upper = _shuffled(helpers.bounded_poset(n, related), rng)
    up = helpers.up_masks(upper)
    top = next(x for x, m in enumerate(up) if m == 1 << x)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(n)
        row = upper[i]
        above = [j for j in range(n) if up[i] >> j & 1 and j != i]
        kind = rng.randrange(7)
        if kind == 0 and above:  # a cycle
            upper[rng.choice(above)].append(i)
        elif kind == 1:
            row.insert(rng.randint(0, len(row)), rng.choice([-2, -1, len(upper), len(upper) + 1]))
        elif kind == 2:
            row.insert(rng.randint(0, len(row)), i)
        elif kind == 3 and row:
            row.insert(rng.randint(0, len(row)), rng.choice(row))
        elif kind == 4:  # an edge that a longer chain implies
            far = [j for j in above if j not in row]
            if far:
                row.insert(rng.randint(0, len(row)), rng.choice(far))
        elif kind == 5:  # a second minimal or a second maximal element
            if rng.random() < 0.5:
                upper.append([i])
            else:
                row.append(len(upper))
                upper.append([])
        else:  # a second minimal upper bound of two elements, below the top
            a, b = rng.randrange(n), rng.randrange(n)
            upper[a].append(len(upper))
            upper[b].append(len(upper))
            upper.append([top])
    return upper


class TestBuildAgainstMultipass:
    """build_diagram against the oracle that scans each table in its own pass."""

    def _same(self, upper):
        got = _build_outcome(build_diagram, upper)
        assert got == _build_outcome(helpers.build_diagram_multipass, upper), upper
        return got

    def test_acceptance_classes_and_grid_forks(self, acceptance_family):
        g = grid(GridSpec(3, 4))
        forks = [insert_fork(g, cell).diagram for cell in four_cells(g)]
        diagrams = [entry.diagram for entry in acceptance_family.members()] + forks
        assert len(diagrams) == 842 + 6
        for d in diagrams:
            assert self._same(d.upper) == (
                d.upper, d.lower, d.up, d.down, d.heights, d.bottom, d.top
            )

    def test_seeded_bounded_posets(self):
        rng = random.Random(22_001)
        refused = 0
        for _ in range(3_000):
            # no bounded poset of 5 or fewer elements fails to be a lattice
            n = rng.randint(3, 10) if rng.random() < 0.5 else 10
            density = rng.uniform(0.2, 0.6)
            related = [
                p for p in itertools.combinations(range(1, n - 1), 2) if rng.random() < density
            ]
            got = self._same(_shuffled(helpers.bounded_poset(n, related), rng))
            refused += got[0] is NotALattice
        assert refused >= 300, refused

    def test_seeded_malformed_inputs(self):
        rng = random.Random(22_002)
        raised = collections.Counter()
        for _ in range(2_000):
            got = self._same(_malformed(rng))
            if isinstance(got[0], type):
                raised[got[0]] += 1
        kinds = (CycleDetected, ValidationError, DuplicateCover, NotBounded)
        assert all(raised[kind] >= 100 for kind in kinds), raised


class TestTables:
    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_lattice_axioms(self, diagram):
        n = diagram.n
        if n <= 12:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(417)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(10_000)
            )
        meet, join = diagram.meet, diagram.join
        for x, y, z in triples:
            assert meet(x, y) == meet(y, x)
            assert join(x, y) == join(y, x)
            assert meet(x, meet(y, z)) == meet(meet(x, y), z)
            assert join(x, join(y, z)) == join(join(x, y), z)
            assert meet(x, join(x, y)) == x
            assert join(x, meet(x, y)) == x

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_heights_respect_covers(self, diagram):
        assert diagram.height(diagram.bottom) == 0
        for i, j in diagram.cover_pairs():
            assert diagram.height(j) >= diagram.height(i) + 1

    def test_masks_are_the_only_tables(self):
        slots = set(PlanarDiagram.__slots__)
        assert {"up", "down", "heights"} <= slots
        assert not {"meet", "join", "tables", "left_rank"} & slots

    @pytest.mark.parametrize("p, q", [(15, 17), (16, 16)])
    def test_grid_meet_join_are_coordinatewise(self, p, q):
        # element (i, j) of a grid has id i*q + j, so its coordinates are divmod(id, q)
        d = grid(GridSpec(p, q))
        coords = [divmod(x, q) for x in range(d.n)]
        for x, (i, j) in enumerate(coords):
            for y, (k, l) in enumerate(coords):
                assert d.meet(x, y) == min(i, k) * q + min(j, l)
                assert d.join(x, y) == max(i, k) * q + max(j, l)

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_down_is_transpose_of_up(self, diagram):
        up, down = diagram.up, diagram.down
        for x in range(diagram.n):
            assert down[x] == sum(1 << y for y in range(diagram.n) if (up[y] >> x) & 1)

    def test_meet_join_against_definition(self, s7):
        # brute-force maxima of common lower bounds
        n = s7.n
        for x in range(n):
            for y in range(n):
                lower = [z for z in range(n) if s7.leq(z, x) and s7.leq(z, y)]
                best = max(lower, key=lambda z: sum(s7.leq(w, z) for w in lower))
                assert s7.meet(x, y) == best


class TestSharedRowsAndLazyIndexes:
    def test_equal_rows_are_one_object(self, acceptance_family):
        diagrams = [e.diagram for e in acceptance_family.members()]
        for rows in (
            [row for d in diagrams for row in d.upper],
            [row for d in diagrams for row in d.lower],
        ):
            assert len({id(row) for row in rows}) == len(set(rows))

    def test_fresh_fork_has_no_index(self, g33):
        d = insert_fork(g33, four_cells(g33)[2]).diagram
        assert d._up_index is None and d._down_index is None
        d.join(d.bottom, d.top)
        assert d._up_index is not None and d._down_index is None
        d.meet(d.bottom, d.top)
        assert d._down_index is not None

    @pytest.mark.parametrize("first", ["meet", "join"])
    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_indexes_invert_the_masks(self, diagram, first):
        d = build_diagram(diagram.upper)
        getattr(d, first)(d.bottom, d.top)
        up_index, down_index = d.up_index, d.down_index
        assert up_index == {m: i for i, m in enumerate(d.up)}
        assert down_index == {m: i for i, m in enumerate(d.down)}
        assert d.up_index is up_index and d.down_index is down_index


class TestValidators:
    def test_semimodular(self, g33, n5, s7):
        assert is_semimodular(g33)
        assert not is_semimodular(n5)
        assert is_semimodular(s7)

    def test_n5_witness(self, n5):
        # meet of c=3 and a=1 is the bottom, covered by c, but a is not
        # covered by their join
        assert n5.meet(3, 1) == 0
        assert 3 in n5.upper[0]
        assert n5.join(3, 1) == 4
        assert 4 not in n5.upper[1]

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_birkhoff_matches_all_pairs_oracle(self, diagram):
        for d in (diagram, helpers.mirror(diagram)):
            assert is_semimodular(d) == helpers.all_pairs_semimodular(d)

    def test_birkhoff_matches_all_pairs_oracle_on_seeded_sample(self):
        rng = random.Random(19_001)
        verdicts = []
        for _ in range(3_000):
            n = rng.randint(3, 10)
            density = rng.random()
            related = [
                p for p in itertools.combinations(range(1, n - 1), 2) if rng.random() < density
            ]
            try:
                d = build_diagram(helpers.bounded_poset(n, related))
            except NotALattice:
                continue
            verdict = helpers.all_pairs_semimodular(d)
            assert is_semimodular(d) == verdict, d.upper
            verdicts.append(verdict)
        assert verdicts.count(True) >= 1_500 and verdicts.count(False) >= 900

    def test_known_cases_of_the_local_tests(self, m3, n5):
        b3 = helpers.boolean_cube()
        assert is_semimodular(b3) and is_slim(b3)
        assert not ji_width_at_most_two(b3)
        assert not is_slim(m3) and not ji_width_at_most_two(m3)
        for d in (n5, helpers.mirror(n5)):
            assert not is_semimodular(d) and not helpers.all_pairs_semimodular(d)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_local_tests_match_oracles_on_fork_scripts(self, data):
        d = _fork_script_diagram(data, max_forks=4)
        for e in (d, helpers.mirror(d)):
            assert is_semimodular(e) == helpers.all_pairs_semimodular(e)
            assert ji_width_at_most_two(e) == is_slim(e)

    def test_slim(self, m3, s7):
        assert not is_slim(m3)
        assert is_slim(grid(GridSpec(4, 4)))
        assert is_slim(s7)

    def test_find_m3_on_m3(self, m3):
        assert find_m3(m3) == (0, 1, 2, 3, 4)

    def test_find_n5_on_n5(self, n5):
        witness = find_n5(n5)
        assert witness is not None and witness[0] == 0 and witness[-1] == 4

    def test_graded(self, g23, n5, g33):
        assert is_graded(g23)
        assert not is_graded(n5)
        assert is_graded(helpers.fork_at(g33, 4).diagram)

    @pytest.mark.parametrize("diagram", helpers.semimodular_corpus(), ids=lambda d: d.name)
    def test_semimodular_corpus_is_graded(self, diagram):
        if is_semimodular(diagram):
            assert is_graded(diagram)

    @pytest.mark.parametrize("diagram", helpers.semimodular_corpus(), ids=lambda d: d.name)
    def test_slim_matches_two_chain_criterion(self, diagram):
        ji = [
            x for x in range(diagram.n)
            if x != diagram.bottom and len(diagram.lower[x]) == 1
        ]
        has_three_antichain = any(
            not diagram.leq(x, y) and not diagram.leq(y, x)
            and not diagram.leq(x, z) and not diagram.leq(z, x)
            and not diagram.leq(y, z) and not diagram.leq(z, y)
            for x, y, z in itertools.combinations(ji, 3)
        )
        assert ji_width_at_most_two(diagram) == (not has_three_antichain)
        if is_semimodular(diagram):
            assert is_slim(diagram) == (not has_three_antichain)


class TestFourCells:
    def test_grid_cell_counts(self):
        for p in range(2, 6):
            for q in range(2, 6):
                cells = four_cells(grid(GridSpec(p, q)))
                assert len(cells) == (p - 1) * (q - 1)

    def test_grid22_single_cell(self, g22):
        assert four_cells(g22) == [FourCell(o=0, a_l=2, a_r=1, t=3)]

    def test_s7_has_three_cells(self, s7):
        cells = four_cells(s7)
        assert len(cells) == 3
        assert [c.o for c in cells] == sorted(c.o for c in cells)

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_cell_invariants(self, diagram):
        for cell in four_cells(diagram):
            assert cell.a_l in diagram.upper[cell.o]
            assert cell.a_r in diagram.upper[cell.o]
            assert cell.t in diagram.upper[cell.a_l]
            assert cell.t in diagram.upper[cell.a_r]
            assert diagram.meet(cell.a_l, cell.a_r) == cell.o
            assert diagram.join(cell.a_l, cell.a_r) == cell.t
            pos = diagram.upper[cell.o].index(cell.a_l)
            assert diagram.upper[cell.o][pos + 1] == cell.a_r
            pos = diagram.lower[cell.t].index(cell.a_l)
            assert diagram.lower[cell.t][pos + 1] == cell.a_r


class TestBoundaryChains:
    def test_grid32(self, g32):
        left, right = boundary_chains(g32)
        assert left == (0, 2, 4, 5)
        assert right == (0, 1, 3, 5)

    def test_chain(self, c4):
        left, right = boundary_chains(c4)
        assert left == right == (0, 1, 2, 3)

    def test_s7(self, s7_result):
        left, right = boundary_chains(s7_result.diagram)
        u_l, u_r = s7_result.left_leg[0], s7_result.right_leg[0]
        top = s7_result.diagram.top
        assert left == (0, u_l, 2, top)
        assert right == (0, u_r, 1, top)


class TestCanonicalKeys:
    def test_grid_transpose(self):
        assert is_isomorphic(grid(GridSpec(2, 3)), grid(GridSpec(3, 2)))

    def test_grid_vs_chain(self, g22, c4):
        assert not is_isomorphic(g22, c4)
        assert canonical_key(g22) != canonical_key(c4)

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_relabeling_invariance(self, diagram, data):
        perm = data.draw(st.permutations(range(diagram.n)))
        relabeled = helpers.relabel(diagram, list(perm))
        assert canonical_key(relabeled) == canonical_key(diagram)
        assert is_isomorphic(relabeled, diagram)

    def test_distinct_classes_in_corpus(self):
        keys = {}
        for d in helpers.lattice_corpus():
            keys.setdefault(canonical_key(d), []).append(d.name)
        # grid-2x3 and grid-3x2 collapse; everything else is distinct
        collisions = [names for names in keys.values() if len(names) > 1]
        assert collisions == [["grid-2x3", "grid-3x2"]]

    def test_keys_agree_with_permutation_search(self):
        # brute-force oracle: try every bijection on diagrams up to 7 elements
        def brute_isomorphic(a, b):
            if a.n != b.n:
                return False
            targets = [set(row) for row in b.upper]
            for perm in itertools.permutations(range(a.n)):
                if all(
                    {perm[j] for j in a.upper[i]} == targets[perm[i]]
                    for i in range(a.n)
                ):
                    return True
            return False

        small = [d for d in helpers.lattice_corpus() if d.n <= 7]
        rng = random.Random(99)
        small += [
            helpers.relabel(d, helpers.random_permutation(d.n, rng))
            for d in small[:4]
        ]
        for a in small:
            for b in small:
                assert is_isomorphic(a, b) == brute_isomorphic(a, b), (a.name, b.name)


def _fork_script_diagram(data, max_forks=3):
    p, q = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    d = grid(GridSpec(p, q))
    for _ in range(data.draw(st.integers(0, max_forks))):
        d = insert_fork(d, data.draw(st.sampled_from(four_cells(d)))).diagram
    return d


class TestPlanarKey:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_on_fork_scripts(self, data):
        d = _fork_script_diagram(data)
        key = planar_key(d)
        assert planar_key(helpers.mirror(d)) == key
        perm = data.draw(st.permutations(range(d.n)))
        assert planar_key(helpers.relabel(d, list(perm))) == key

    def test_grid_transpose_collides(self):
        assert planar_key(grid(GridSpec(2, 3))) == planar_key(grid(GridSpec(3, 2)))

    def test_distinct_classes_in_corpus(self):
        keys = {}
        for d in helpers.lattice_corpus():
            keys.setdefault(planar_key(d), []).append(d.name)
        collisions = [names for names in keys.values() if len(names) > 1]
        assert collisions == [["grid-2x3", "grid-3x2"]]

    def test_rejects_element_not_above_bottom(self):
        with pytest.raises(ValidationError, match=r"^element 2 is not above the bottom 0$"):
            helpers.planar_key_both_codes([[1], [], [1]], 0)

    def test_matches_both_codes_on_acceptance_candidates(self, acceptance_family):
        spec = acceptance_family.spec
        candidates = [
            grid(GridSpec(p, q))
            for p in range(2, spec.p_max + 1)
            for q in range(2, min(spec.q_max, spec.max_elements // p) + 1)
        ]
        for entry in acceptance_family.members():
            if entry.forks < spec.max_forks:
                for cell in four_cells(entry.diagram):
                    fork = insert_fork(entry.diagram, cell).diagram
                    if fork.n <= spec.max_elements:
                        candidates.append(fork)
        assert len(candidates) == acceptance_family.candidates == 1737
        for d in candidates:
            assert planar_key(d) == helpers.planar_key_both_codes(d.upper, d.bottom)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_both_codes_on_fork_scripts(self, data):
        d = _fork_script_diagram(data)
        perm = data.draw(st.permutations(range(d.n)))
        for e in (d, helpers.mirror(d), helpers.relabel(d, list(perm))):
            assert planar_key(e) == helpers.planar_key_both_codes(e.upper, e.bottom)

    @pytest.mark.parametrize(
        "diagram",
        [grid(GridSpec(k, k)) for k in range(2, 7)] + [helpers.chain(5), helpers.m3(), helpers.boolean(3)],
        ids=lambda d: d.name,
    )
    def test_matches_both_codes_on_self_mirror_drawings(self, diagram):
        # the two codes tie, so the row comparison runs to the last row
        mirror = [row[::-1] for row in diagram.upper]
        code = helpers.drawing_code(diagram.upper, diagram.bottom)
        assert helpers.drawing_code(mirror, diagram.bottom) == code
        assert planar_key(diagram) == helpers.planar_key_both_codes(diagram.upper, diagram.bottom)
        assert planar_key(diagram) == repr((diagram.n, code)).encode("ascii")
