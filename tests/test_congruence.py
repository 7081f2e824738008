from __future__ import annotations

import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slimfork import (
    GridSpec,
    Partition,
    all_congruences_oracle,
    at_most_two_covers,
    congruence_lattice,
    dual_atom_count,
    filter_candidate,
    four_cells,
    grid,
    insert_fork,
    is_congruence,
    is_prime_ideal,
    ji_congruences,
    ji_poset_of,
    lattice_isomorphic,
    posets,
    prime_ideal_congruence,
    principal_congruence,
    principal_ideal,
    swing_ji_congruences,
)
from slimfork import congruence
from slimfork.diagram import find_m3, find_n5
from slimfork.errors import (
    NotAnIdeal,
    NotDistributive,
    NotPrime,
    TooLarge,
    TooSmall,
    ValidatorFailed,
)

PREDICATE_CORPUS = helpers.oracle_corpus() + [helpers.three_chain_con()]


def blocks(part: Partition) -> list[list[int]]:
    return [list(b) for b in part.blocks()]


class TestPartition:
    def test_normalize_first_occurrence(self):
        assert Partition.normalize([7, 3, 7, 1]).block_of == (0, 1, 0, 2)

    def test_blocks_canonical(self):
        part = Partition.normalize([1, 0, 1, 0])
        assert blocks(part) == [[0, 2], [1, 3]]

    def test_join_transitive_closure(self):
        a = Partition.normalize([0, 0, 1, 2])
        b = Partition.normalize([0, 1, 1, 2])
        assert blocks(a.join(b)) == [[0, 1, 2], [3]]

    def test_meet_common_refinement(self):
        a = Partition.normalize([0, 0, 1, 1])
        b = Partition.normalize([0, 1, 1, 0])
        assert blocks(a.meet(b)) == [[0], [1], [2], [3]]

    def test_refines(self):
        fine = Partition.singletons(4)
        coarse = Partition.single_block(4)
        mid = Partition.normalize([0, 0, 1, 1])
        assert fine.refines(mid) and mid.refines(coarse)
        assert not coarse.refines(mid)
        assert mid.refines(mid)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_join_meet_lattice_laws(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        draw_part = lambda: Partition.normalize(
            data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        )
        a, b, c = draw_part(), draw_part(), draw_part()
        assert a.join(b) == b.join(a)
        assert a.meet(b) == b.meet(a)
        assert a.join(a.meet(b)) == a
        assert a.meet(a.join(b)) == a
        assert a.join(b.join(c)) == a.join(b).join(c)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.refines(a.join(b)) and a.meet(b).refines(a)


class TestPrincipalCongruence:
    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_reflexive_pair_is_identity(self, diagram):
        for x in range(diagram.n):
            assert principal_congruence(diagram, x, x) == Partition.singletons(diagram.n)

    def test_grid22_atom_pair(self, g22):
        assert blocks(principal_congruence(g22, 0, 2)) == [[0, 2], [1, 3]]

    def test_s7_bottom_leg_pair(self, s7_result):
        s7 = s7_result.diagram
        u_l = s7_result.left_leg[0]
        part = principal_congruence(s7, 0, u_l)
        assert blocks(part) == [[0, 2, 5], [1, 3, 4, 6]]

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_matches_oracle_minimal_congruence(self, diagram):
        oracle = all_congruences_oracle(diagram)
        for a in range(diagram.n):
            for b in range(diagram.n):
                containing = [
                    part for part in oracle.members if part.same(a, b)
                ]
                minimal = containing[0]
                for part in containing[1:]:
                    minimal = minimal.meet(part)
                assert principal_congruence(diagram, a, b) == minimal

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_equals_closure_over_every_element(self, diagram):
        for d in (diagram, helpers.mirror(diagram)):
            for a, b in d.cover_pairs():
                expected = helpers.principal_congruence_by_definition(d, a, b)
                assert principal_congruence(d, a, b) == expected, (a, b)

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_interval_monotonicity(self, diagram, data):
        n = diagram.n
        element = st.integers(0, n - 1)
        a0, b0 = data.draw(element), data.draw(element)
        a, b = diagram.meet(a0, b0), diagram.join(a0, b0)
        u, v = data.draw(element), data.draw(element)
        c = diagram.meet(diagram.join(u, a), b)
        d = diagram.meet(diagram.join(diagram.join(v, c), a), b)
        assert diagram.leq(a, c) and diagram.leq(c, d) and diagram.leq(d, b)
        inner = principal_congruence(diagram, c, d)
        outer = principal_congruence(diagram, a, b)
        assert inner.refines(outer)


class TestOracle:
    def test_too_large(self, g33):
        with pytest.raises(TooLarge):
            all_congruences_oracle(g33)

    def test_c2(self, c2):
        assert len(all_congruences_oracle(c2)) == 2

    def test_grid22_is_boolean_square(self, g22):
        con = all_congruences_oracle(g22)
        assert len(con) == 4
        assert [blocks(p) for p in con.members] == [
            [[0], [1], [2], [3]],
            [[0, 1], [2, 3]],
            [[0, 2], [1, 3]],
            [[0, 1, 2, 3]],
        ]

    def test_s7_has_five(self, s7):
        assert len(all_congruences_oracle(s7)) == 5

    def test_n5_frozen(self, n5):
        con = all_congruences_oracle(n5)
        assert [blocks(p) for p in con.members] == [
            [[0], [1], [2], [3], [4]],
            [[0], [1, 2], [3], [4]],
            [[0, 1, 2], [3, 4]],
            [[0, 3], [1, 2, 4]],
            [[0, 1, 2, 3, 4]],
        ]

    def test_m3_is_simple(self, m3):
        assert len(all_congruences_oracle(m3)) == 2

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_is_congruence_equals_definition(self, diagram):
        for rgs in congruence._restricted_growth_strings(diagram.n):
            part = Partition(rgs)
            assert is_congruence(diagram, part) == helpers.congruence_by_definition(diagram, part)

    def test_every_member_is_congruence(self, s7):
        for part in all_congruences_oracle(s7).members:
            assert is_congruence(s7, part)


class TestCongruenceLattice:
    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_equals_oracle(self, diagram):
        engine = congruence_lattice(diagram)
        oracle = all_congruences_oracle(diagram)
        assert engine.members == oracle.members
        assert engine.up == oracle.up
        assert (engine.bottom, engine.top) == (oracle.bottom, oracle.top)

    def test_grid_con_is_boolean(self):
        for p, q in [(2, 2), (3, 2), (3, 3), (4, 3)]:
            con = congruence_lattice(grid(GridSpec(p, q)))
            k = p + q - 2
            assert len(con) == 2 ** k
            assert len(con.atom_indices()) == k
            ji = ji_poset_of(con)
            # every join-irreducible is an atom: Boolean shape
            assert len(ji) == k
            assert ji.maximal_indices() == tuple(range(k))

    def test_s7_shape(self, s7):
        con = congruence_lattice(s7)
        assert len(con) == 5
        assert len(con.coatom_indices()) == 2

    def test_wrong_ji_order_raises(self, s7, monkeypatch):
        # J(Con S7) as an antichain has 8 down-sets, but they join to only
        # the 5 congruences of S7
        ji = ji_congruences(s7)
        antichain = congruence.JiPoset(ji.members, [1 << i for i in range(len(ji))], ji.generators)
        monkeypatch.setattr(congruence, "ji_congruences", lambda diagram: antichain)
        with pytest.raises(ValidatorFailed, match="have the same join"):
            congruence_lattice(s7)

    def test_cap(self, g33, monkeypatch):
        # Con of the 3 x 3 grid is B4, 16 congruences
        monkeypatch.setattr(congruence, "CON_MAX_MEMBERS", 16)
        assert len(congruence_lattice(g33)) == 16
        monkeypatch.setattr(congruence, "CON_MAX_MEMBERS", 15)
        with pytest.raises(TooLarge):
            congruence_lattice(g33)

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_birkhoff_count(self, diagram):
        if diagram.n > 14:
            return
        con = congruence_lattice(diagram)
        ji = ji_poset_of(con)
        down = [0] * len(ji)
        for i in range(len(ji)):
            for j in range(len(ji)):
                if i != j and (ji.up[j] >> i) & 1:
                    down[i] |= 1 << j
        assert len(con) == len(posets.ideal_masks(down))

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_members_are_congruences(self, diagram):
        con = congruence_lattice(diagram)
        if diagram.n > 20:
            return
        for part in con.members:
            assert is_congruence(diagram, part)

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_distributivity_small(self, diagram):
        con = congruence_lattice(diagram)
        members = con.members
        for a, b, c in itertools.product(members, repeat=3):
            left = a.meet(b.join(c))
            right = a.meet(b).join(a.meet(c))
            assert left == right

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_closed_under_meet_and_join(self, diagram):
        members = set(congruence_lattice(diagram).members)
        for a, b in itertools.product(members, repeat=2):
            assert a.meet(b) in members
            assert a.join(b) in members

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_isomorphic_to_ji_down_sets(self, diagram):
        con = congruence_lattice(diagram)
        ji = ji_poset_of(con)
        down = [0] * len(ji)
        for i in range(len(ji)):
            for j in range(len(ji)):
                if i != j and (ji.up[j] >> i) & 1:
                    down[i] |= 1 << j
        ideals = posets.ideal_masks(down)
        inclusion = [
            sum(1 << j for j, other in enumerate(ideals) if mask & ~other == 0)
            for mask in ideals
        ]
        key_ideals = posets.canonical_key(posets.cover_lists_from_up(inclusion))
        key_con = posets.canonical_key(con.cover_lists())
        assert key_ideals == key_con


class TestJiPoset:
    def test_grid32_antichain(self, g32):
        ji = ji_congruences(g32)
        assert len(ji) == 3
        assert all(ji.up[i] == 1 << i for i in range(3))

    def test_c2_single_point(self, c2):
        ji = ji_congruences(c2)
        assert len(ji) == 1

    def test_s7_vee_shape(self, s7_result):
        s7 = s7_result.diagram
        u_l, u_r = s7_result.left_leg[0], s7_result.right_leg[0]
        a_l = 2
        ji = ji_congruences(s7)
        assert len(ji) == 3
        gamma = principal_congruence(s7, u_l, a_l)
        alpha = principal_congruence(s7, 0, u_l)
        beta = principal_congruence(s7, 0, u_r)
        assert set(ji.members) == {gamma, alpha, beta}
        gi = ji.members.index(gamma)
        ai = ji.members.index(alpha)
        bi = ji.members.index(beta)
        assert (ji.up[gi] >> ai) & 1 and (ji.up[gi] >> bi) & 1
        assert not (ji.up[ai] >> bi) & 1 and not (ji.up[bi] >> ai) & 1

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_ji_members_are_covering_pair_principals(self, diagram):
        principals = {
            principal_congruence(diagram, a, b) for a, b in diagram.cover_pairs()
        }
        ji = ji_congruences(diagram)
        assert set(ji.members) == principals

    def test_grid_ji_count_matches_ji_elements(self):
        for p, q in [(2, 2), (3, 3), (4, 4)]:
            d = grid(GridSpec(p, q))
            ji_elements = [
                x for x in range(d.n) if x != d.bottom and len(d.lower[x]) == 1
            ]
            assert len(ji_congruences(d)) == len(ji_elements)


class TestJiCongruences:
    def test_equals_cover_pair_oracle_on_campaign(self, campaign_oracle_ji):
        for entry, oracle in campaign_oracle_ji:
            assert ji_congruences(entry.diagram) == oracle, entry.script.to_obj()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_cover_pair_oracle_on_fork_scripts(self, data):
        p, q = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        d = grid(GridSpec(p, q))
        for _ in range(data.draw(st.integers(0, 3))):
            d = insert_fork(d, data.draw(st.sampled_from(four_cells(d)))).diagram
        assert ji_congruences(d) == helpers.all_cover_pairs_ji(d)

    @pytest.mark.parametrize("diagram", PREDICATE_CORPUS, ids=lambda d: d.name)
    def test_equals_ji_of_partition_oracle(self, diagram):
        expected = ji_poset_of(all_congruences_oracle(diagram))
        assert ji_congruences(diagram) == expected
        assert helpers.all_cover_pairs_ji(diagram) == expected

    def test_self_check_rejects_identity_member(self, g22, monkeypatch):
        monkeypatch.setattr(
            congruence, "principal_congruence", lambda d, a, b: Partition.singletons(d.n)
        )
        with pytest.raises(ValidatorFailed):
            ji_congruences(g22)

    def test_self_check_rejects_members_below_top(self, g22, monkeypatch):
        fixed = principal_congruence(g22, 0, 1)
        monkeypatch.setattr(congruence, "principal_congruence", lambda d, a, b: fixed)
        with pytest.raises(ValidatorFailed):
            ji_congruences(g22)


def assert_swing_engine_matches(diagram, expected) -> None:
    """The swing engine on the diagram and on its mirror image has the J
    order of ``expected``, whatever order lists the members.

    Also: the members are listed in a linear extension of the order, and
    each generator's principal congruence is its member.
    """
    ji = swing_ji_congruences(diagram)
    order = helpers.ji_order(expected)
    assert helpers.ji_order(ji) == order
    assert helpers.ji_order(swing_ji_congruences(helpers.mirror(diagram))) == order
    assert all(u & ((1 << i) - 1) == 0 for i, u in enumerate(ji.up))
    for (a, b), member in zip(ji.generators, ji.members):
        assert principal_congruence(diagram, a, b) == member


class TestSwingJiCongruences:
    """The Swing Lemma engine against the closure engine and its oracles."""

    def test_equals_closure_engine_and_oracle_on_campaign(self, campaign_oracle_ji):
        for entry, oracle in campaign_oracle_ji:
            d = entry.diagram
            assert ji_congruences(d) == oracle, entry.script.to_obj()
            assert_swing_engine_matches(d, oracle)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_closure_engine_on_fork_scripts(self, data):
        p, q = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        d = grid(GridSpec(p, q))
        for _ in range(data.draw(st.integers(0, 4))):
            d = insert_fork(d, data.draw(st.sampled_from(four_cells(d)))).diagram
        expected = ji_congruences(d)
        assert helpers.all_cover_pairs_ji(d) == expected
        assert_swing_engine_matches(d, expected)

    def test_s7_order_needs_swings(self, s7, monkeypatch):
        # the fork top covers three elements; only the swings from the
        # outer edges to the middle one put the middle trajectory below
        # the other two
        with_swings = swing_ji_congruences(s7)
        assert helpers.ji_order(with_swings) == helpers.ji_order(
            ji_poset_of(all_congruences_oracle(s7))
        )
        assert with_swings.up[0] == 0b111
        monkeypatch.setattr(
            congruence, "_swing_arcs", lambda d, classes: [0] * (max(classes.values()) + 1)
        )
        classes_only = swing_ji_congruences(s7)
        assert classes_only.up == (0b001, 0b010, 0b100)
        assert helpers.ji_order(classes_only) != helpers.ji_order(with_swings)

    def test_partitions_built_on_read(self, s7, monkeypatch):
        ji = swing_ji_congruences(s7)
        built = []
        real = congruence._forest
        monkeypatch.setattr(
            congruence, "_forest", lambda n, edges: built.append(n) or real(n, edges)
        )
        assert len(ji) == 3 and dual_atom_count(ji.up) == 2
        assert not ji.is_dual_atom(Partition.singletons(s7.n).same)
        assert built == []
        members = ji.members
        assert len(built) == 3 and len(members) == 3
        assert ji.members is members and len(built) == 3

    def test_self_check_rejects_identity_member(self, g22, monkeypatch):
        # every class generated by a pair (a, a): its member is the identity,
        # the join of no members
        real = congruence._edge_classes
        monkeypatch.setattr(
            congruence, "_edge_classes", lambda d: {(a, a): c for (a, _), c in real(d).items()}
        )
        with pytest.raises(ValidatorFailed, match="join of the members below it"):
            swing_ji_congruences(g22)

    def test_self_check_rejects_members_below_top(self, g22, monkeypatch):
        real = congruence._edge_classes
        monkeypatch.setattr(
            congruence, "_edge_classes", lambda d: {e: c for e, c in real(d).items() if c == 0}
        )
        with pytest.raises(ValidatorFailed, match="do not join to the top"):
            swing_ji_congruences(g22)

    def test_self_check_reads_the_maximal_members(self, s7, monkeypatch):
        # read upside down, the order takes the fork's middle trajectory,
        # the one minimal member, for the one maximal member, and the
        # edges of that trajectory do not connect the lattice
        def minimal_elements(up):
            return [
                i for i in range(len(up))
                if all(j == i or not (u >> i) & 1 for j, u in enumerate(up))
            ]

        monkeypatch.setattr(congruence.posets, "maximal_elements", minimal_elements)
        with pytest.raises(ValidatorFailed, match="do not join to the top"):
            swing_ji_congruences(s7)


def two_chain(ji) -> bool:
    """The not_c3 test of ``verify_claims``: J is a two-element chain."""
    return len(ji) == 2 and dual_atom_count(ji.up) == 1


class TestJiPredicates:
    """Claims read from J(Con L), against the full oracle lattice."""

    @pytest.mark.parametrize("diagram", PREDICATE_CORPUS, ids=lambda d: d.name)
    def test_dual_atom_count_and_p2(self, diagram):
        coatoms = len(all_congruences_oracle(diagram).coatom_indices())
        assert dual_atom_count(ji_congruences(diagram).up) == coatoms

    @pytest.mark.parametrize("diagram", PREDICATE_CORPUS, ids=lambda d: d.name)
    def test_p1(self, diagram):
        oracle_ji = ji_poset_of(all_congruences_oracle(diagram))
        assert at_most_two_covers(ji_congruences(diagram).up) == at_most_two_covers(oracle_ji.up)

    @pytest.mark.parametrize("diagram", PREDICATE_CORPUS, ids=lambda d: d.name)
    def test_not_c3(self, diagram):
        # every three-element lattice is a chain
        assert two_chain(ji_congruences(diagram)) == (
            len(all_congruences_oracle(diagram)) == 3
        )

    def test_not_c3_detects_three_chain(self):
        assert two_chain(ji_congruences(helpers.three_chain_con()))

    @pytest.mark.parametrize("diagram", PREDICATE_CORPUS, ids=lambda d: d.name)
    def test_dual_atom_membership(self, diagram):
        oracle = all_congruences_oracle(diagram)
        coatoms = set(oracle.coatom_indices())
        ji = ji_congruences(diagram)
        from_con = ji_poset_of(oracle)
        for i, part in enumerate(oracle.members):
            assert ji.is_dual_atom(part.same) == (i in coatoms), part.blocks()
            assert from_con.is_dual_atom(part.same) == (i in coatoms), part.blocks()


class TestDualAtoms:
    def test_chain_has_one(self, c3):
        _, ji_up = posets.join_irreducible_order(c3.up)
        assert dual_atom_count(ji_up) == 1

    def test_grid22_con(self, g22):
        assert dual_atom_count(ji_poset_of(congruence_lattice(g22)).up) == 2

    def test_s7_con(self, s7):
        assert dual_atom_count(ji_poset_of(congruence_lattice(s7)).up) == 2

    @pytest.mark.parametrize("diagram", helpers.lattice_corpus(), ids=lambda d: d.name)
    def test_coatom_and_ji_counts_agree(self, diagram):
        con = congruence_lattice(diagram)
        assert len(con.coatom_indices()) == len(ji_poset_of(con).maximal_indices())

    def test_dual_atoms_from_j_are_coatoms_on_campaign(self, campaign):
        family, _, _ = campaign
        for entry in family.members():
            con = congruence_lattice(entry.diagram)
            coatoms = [con.members[i] for i in con.coatom_indices()]
            assert ji_congruences(entry.diagram).dual_atoms() == coatoms, entry.script.to_obj()


class TestP1P2:
    def test_check_p1(self, s7, g22):
        for diagram in (s7, grid(GridSpec(4, 4)), g22):
            assert at_most_two_covers(ji_congruences(diagram).up)

    def test_claw_fails_two_cover_bound(self):
        claw_up = [0b1111, 0b0010, 0b0100, 0b1000]
        assert not at_most_two_covers(claw_up)
        assert at_most_two_covers([0b111, 0b010, 0b100])

    def test_check_p2(self, g22, s7):
        assert dual_atom_count(ji_congruences(g22).up) == 2
        assert dual_atom_count(ji_congruences(s7).up) == 2

    def test_check_p2_fails_on_simple_lattice(self, c3, m3):
        # the diamond is simple, so its congruence lattice has one coatom
        assert dual_atom_count(ji_congruences(m3).up) == 1
        assert dual_atom_count(ji_congruences(c3).up) == 2


class TestIdeals:
    def test_principal_ideal_members(self, g33):
        ideal = principal_ideal(g33, 6)
        assert ideal == (0, 3, 6)

    def test_column_ideal_is_prime(self, g33):
        assert is_prime_ideal(g33, principal_ideal(g33, 6))

    def test_short_column_is_not_prime(self, g33):
        # witness: (2,0) ^ (0,1) = bottom lies inside, arguments outside
        assert not is_prime_ideal(g33, principal_ideal(g33, 3))

    def test_s7_boundary_ideal(self, s7):
        ideal = principal_ideal(s7, 2)
        assert set(ideal) == {0, 5, 2}
        assert is_prime_ideal(s7, ideal)

    def test_not_an_ideal(self, s7, g22):
        with pytest.raises(NotAnIdeal):
            is_prime_ideal(s7, [2])  # not down-closed
        with pytest.raises(NotAnIdeal):
            is_prime_ideal(g22, [0, 1, 2])  # not join-closed

    @pytest.mark.parametrize("diagram", helpers.oracle_corpus(), ids=lambda d: d.name)
    def test_every_subset_against_definitions(self, diagram):
        n = diagram.n
        for mask in range(1 << n):
            members = frozenset(x for x in range(n) if (mask >> x) & 1)
            if helpers.ideal_by_definition(diagram, members):
                expected = helpers.prime_ideal_by_definition(diagram, members)
                assert is_prime_ideal(diagram, members) == expected, sorted(members)
                continue
            with pytest.raises(NotAnIdeal) as info:
                is_prime_ideal(diagram, members)
            if all(y in members for x in members for y in range(n) if diagram.leq(y, x)):
                # the message names two maximal members whose join lies outside
                x, y = map(int, re.search(r"at (\d+) v (\d+)$", str(info.value)).groups())
                assert x != y and {x, y} <= members
                assert not any(diagram.leq(x, z) or diagram.leq(y, z) for z in members - {x, y})
                assert diagram.join(x, y) not in members

    def test_empty_and_full_are_not_prime(self, g22):
        assert not is_prime_ideal(g22, [])
        assert not is_prime_ideal(g22, range(4))

    def test_prime_ideal_congruence_s7(self, s7_result):
        s7 = s7_result.diagram
        part = prime_ideal_congruence(s7, principal_ideal(s7, 2))
        assert part == principal_congruence(s7, 0, s7_result.left_leg[0])
        con = congruence_lattice(s7)
        assert part in {con.members[i] for i in con.coatom_indices()}

    def test_prime_ideal_congruence_grid(self, g22):
        part = prime_ideal_congruence(g22, principal_ideal(g22, 2))
        assert blocks(part) == [[0, 2], [1, 3]]
        con = congruence_lattice(g22)
        assert part in {con.members[i] for i in con.coatom_indices()}

    def test_bottom_singleton_not_prime(self, g22):
        with pytest.raises(NotPrime):
            prime_ideal_congruence(g22, [0])


class TestFilterCandidate:
    def test_c3(self, c3):
        profile = filter_candidate(c3)
        assert profile.p1_ok and not profile.p2_ok

    def test_boolean_square(self, g22):
        profile = filter_candidate(g22)
        assert profile.p1_ok and profile.p2_ok

    def test_boolean_cube(self):
        profile = filter_candidate(helpers.boolean_cube())
        assert profile.p1_ok and profile.p2_ok

    def test_chains_all_rejected(self):
        for k in range(3, 8):
            assert not filter_candidate(helpers.chain(k)).p2_ok

    def test_single_coatom_tail(self):
        assert not filter_candidate(helpers.single_coatom_candidate()).p2_ok

    def test_not_distributive(self, n5, m3):
        with pytest.raises(NotDistributive):
            filter_candidate(n5)
        with pytest.raises(NotDistributive):
            filter_candidate(m3)

    def test_too_small(self, c2):
        with pytest.raises(TooSmall):
            filter_candidate(c2)

    @pytest.mark.parametrize(
        "diagram, message",
        [
            (helpers.n5(), "candidate contains a pentagon sublattice"),
            (helpers.m3(), "candidate contains a diamond sublattice"),
            (helpers.s7(), "candidate contains a pentagon sublattice"),
        ],
        ids=["n5", "m3", "s7"],
    )
    def test_not_distributive_messages(self, diagram, message):
        for d in (diagram, helpers.mirror(diagram)):
            with pytest.raises(NotDistributive) as info:
                filter_candidate(d)
            assert type(info.value) is NotDistributive
            assert str(info.value) == message

    def test_down_set_count_agrees_with_sublattice_search(self, search_family):
        corpus = helpers.oracle_corpus() + helpers.lattice_corpus()
        corpus += [helpers.mirror(d) for d in corpus]
        corpus += [helpers.boolean(k) for k in range(2, 6)]
        corpus += [entry.diagram for entry in search_family.members()]
        verdicts = set()
        for d in corpus:
            if d.n <= 2:
                continue
            if find_m3(d) is not None:
                expected = "candidate contains a diamond sublattice"
            elif find_n5(d) is not None:
                expected = "candidate contains a pentagon sublattice"
            else:
                expected = None
            try:
                filter_candidate(d)
                got = None
            except NotDistributive as exc:
                got = str(exc)
            assert got == expected, d.name
            verdicts.add(expected)
        assert len(verdicts) == 3

    def test_boolean_8_is_fast(self):
        b8 = helpers.boolean(8)
        start = time.perf_counter()
        profile = filter_candidate(b8)
        assert time.perf_counter() - start < 1.0
        assert profile.p1_ok and profile.p2_ok


class TestLatticeIsomorphic:
    def test_con_grid22_vs_boolean_square(self, g22):
        assert lattice_isomorphic(congruence_lattice(g22), g22)

    def test_con_s7_vs_chain(self, s7):
        assert not lattice_isomorphic(congruence_lattice(s7), helpers.chain(5))

    def test_self_relabeled(self, g33):
        rng = random.Random(5)
        perm = helpers.random_permutation(g33.n, rng)
        assert lattice_isomorphic(g33, helpers.relabel(g33, perm))

    def test_two_congruence_lattices(self, g22, c3):
        assert lattice_isomorphic(congruence_lattice(g22), congruence_lattice(c3))
