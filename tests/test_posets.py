from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from slimfork import posets, swing_ji_congruences
from slimfork.errors import CycleDetected, TooLarge


def test_topological_order_rejects_cycle():
    with pytest.raises(CycleDetected):
        posets.topological_order([[1], [0]])


def test_up_masks_chain():
    up = helpers.up_masks([[1], [2], []])
    assert up == [0b111, 0b110, 0b100]


def test_cover_lists_from_up_drops_transitive_edges():
    up = helpers.up_masks([[1], [2], []])
    assert posets.cover_lists_from_up(up) == [[1], [2], []]
    square = helpers.up_masks([[1, 2], [3], [3], []])
    assert posets.cover_lists_from_up(square) == [[1, 2], [3], [3], []]


def test_heights_and_depths():
    covers = [[1, 3], [2], [4], [4], []]  # pentagon
    assert posets.heights(covers) == [0, 1, 2, 1, 3]
    assert posets.depths(covers) == [3, 2, 1, 1, 0]


def test_ideal_masks_counts():
    # antichain of 3: all subsets are ideals
    assert len(posets.ideal_masks([0, 0, 0])) == 8
    # chain of 3: only prefixes
    strict_down = [0b000, 0b001, 0b011]
    assert sorted(posets.ideal_masks(strict_down)) == [0b000, 0b001, 0b011, 0b111]


def test_ideal_masks_are_down_closed():
    strict_down = [0, 0, 0b011, 0b100]  # two minimal, one middle, one top
    masks = posets.ideal_masks(strict_down)
    assert len(set(masks)) == len(masks)
    for mask in masks:
        for e in posets.bit_indices(mask):
            assert strict_down[e] & ~mask == 0


def test_canonical_key_distinguishes_and_identifies():
    chain3 = [[1], [2], []]
    vee = [[1, 2], [], []]
    assert posets.canonical_key(chain3) != posets.canonical_key(vee)
    # relabeled 3-chains: 0 < 2 < 1 and 2 < 1 < 0
    assert posets.canonical_key(chain3) == posets.canonical_key([[2], [], [1]])
    assert posets.canonical_key(chain3) == posets.canonical_key([[], [0], [1]])


def test_maximal_elements():
    square = helpers.up_masks([[1, 2], [3], [3], []])
    assert posets.maximal_elements(square) == [3]
    assert posets.maximal_elements([0b01, 0b10]) == [0, 1]


def test_join_irreducible_order_of_pentagon():
    up = helpers.up_masks([[1, 3], [2], [4], [4], []])
    # one lower cover each: a=1, b=2, c=3; b lies above a only
    assert posets.join_irreducible_order(up) == ([1, 2, 3], [0b011, 0b010, 0b100])


def test_ideal_masks_limit():
    antichain = [0, 0, 0]
    assert len(posets.ideal_masks(antichain, 8)) == 8
    with pytest.raises(TooLarge):
        posets.ideal_masks(antichain, 7)


@st.composite
def cover_digraphs(draw):
    """An acyclic digraph of at most 8 elements under a random labelling."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    perm = draw(st.permutations(range(n)))
    covers: list[list[int]] = [[] for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), edge in zip(pairs, edges):
        if edge:
            covers[perm[i]].append(perm[j])
    return covers


def relabelled(covers, perm):
    out: list[list[int]] = [[] for _ in covers]
    for i, ups in enumerate(covers):
        out[perm[i]] = [perm[j] for j in ups]
    return out


class TestCanonicalKeyAgainstOracle:
    """Twin pruning leaves every key byte as the unpruned search has it."""

    @settings(max_examples=300, deadline=None)
    @given(cover_digraphs(), st.randoms(use_true_random=False))
    def test_random_digraphs(self, covers, rng):
        key = posets.canonical_key(covers)
        assert key == helpers.canonical_key_unpruned(covers)
        perm = helpers.random_permutation(len(covers), rng)
        assert posets.canonical_key(relabelled(covers, perm)) == key

    @pytest.mark.parametrize("family_name", ["search_family", "acceptance_family"])
    def test_ji_orders_of_families(self, request, family_name):
        rng = random.Random(11)
        for entry in request.getfixturevalue(family_name).members():
            covers = swing_ji_congruences(entry.diagram).cover_lists()
            key = posets.canonical_key(covers)
            assert key == helpers.canonical_key_unpruned(covers), entry.script.to_obj()
            perm = helpers.random_permutation(len(covers), rng)
            assert posets.canonical_key(relabelled(covers, perm)) == key

    @pytest.mark.parametrize(
        "covers",
        [
            [[1], [2, 3], [], []],
            [[2, 3], [2, 3], [], []],
            # crowns of 4 and 8 elements: colour refinement puts all six
            # minimal elements in one cell, but only the crown of 4 has twins
            [[6, 7], [6, 7], [8, 11], [8, 9], [9, 10], [10, 11]] + [[] for _ in range(6)],
        ],
        ids=["twin-tops", "bowtie", "two-crowns"],
    )
    def test_twins_among_non_twins(self, covers):
        key = helpers.canonical_key_unpruned(covers)
        rng = random.Random(5)
        for _ in range(20):
            perm = helpers.random_permutation(len(covers), rng)
            assert posets.canonical_key(relabelled(covers, perm)) == key


class TestCanonicalKeyCost:
    def test_antichains_and_boolean_ji_orders(self):
        orders = [[[] for _ in range(n)] for n in range(2, 12)]
        for k in range(1, 11):
            _, ji_up = posets.join_irreducible_order(helpers.boolean(k).up)
            orders.append(posets.cover_lists_from_up(ji_up))
            assert orders[-1] == [[] for _ in range(k)]
        start = time.perf_counter()
        for covers in orders:
            posets.canonical_key(covers)
        assert time.perf_counter() - start < 5.0
