from __future__ import annotations

import pytest

from slimfork import posets
from slimfork.errors import CycleDetected, TooLarge


def test_topological_order_rejects_cycle():
    with pytest.raises(CycleDetected):
        posets.topological_order([[1], [0]])


def test_up_masks_chain():
    up = posets.up_masks([[1], [2], []])
    assert up == [0b111, 0b110, 0b100]


def test_cover_lists_from_up_drops_transitive_edges():
    up = posets.up_masks([[1], [2], []])
    assert posets.cover_lists_from_up(up) == [[1], [2], []]
    square = posets.up_masks([[1, 2], [3], [3], []])
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


def test_max_upper_covers_claw():
    # one bottom below a 3-antichain
    up = [0b1111, 0b0010, 0b0100, 0b1000]
    assert posets.max_upper_covers(up) == 3


def test_canonical_key_distinguishes_and_identifies():
    chain3 = [[1], [2], []]
    vee = [[1, 2], [], []]
    assert posets.canonical_key(chain3) != posets.canonical_key(vee)
    # relabeled 3-chains: 0 < 2 < 1 and 2 < 1 < 0
    assert posets.canonical_key(chain3) == posets.canonical_key([[2], [], [1]])
    assert posets.canonical_key(chain3) == posets.canonical_key([[], [0], [1]])


def test_maximal_elements():
    square = posets.up_masks([[1, 2], [3], [3], []])
    assert posets.maximal_elements(square) == [3]
    assert posets.maximal_elements([0b01, 0b10]) == [0, 1]


def test_join_irreducible_order_of_pentagon():
    up = posets.up_masks([[1, 3], [2], [4], [4], []])
    # one lower cover each: a=1, b=2, c=3; b lies above a only
    assert posets.join_irreducible_order(up) == ([1, 2, 3], [0b011, 0b010, 0b100])


def test_ideal_masks_limit():
    antichain = [0, 0, 0]
    assert len(posets.ideal_masks(antichain, 8)) == 8
    with pytest.raises(TooLarge):
        posets.ideal_masks(antichain, 7)
