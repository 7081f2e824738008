"""Helpers on abstract finite posets encoded with integer bitmasks.

An order on elements 0..n-1 is passed around either as per-element
upper-cover lists or as ``up`` masks, where bit j of up[i] is set iff
i <= j (reflexive). Everything here is small-n combinatorics; no
attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .errors import CycleDetected, TooLarge


def bit_indices(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def predecessor_lists(covers: Sequence[Sequence[int]]) -> list[list[int]]:
    """Transpose cover lists: out[j] lists every i with i -< j."""
    preds: list[list[int]] = [[] for _ in covers]
    for i, ups in enumerate(covers):
        for j in ups:
            preds[j].append(i)
    return preds


def topological_order(covers: Sequence[Sequence[int]]) -> list[int]:
    """Kahn order of the cover digraph; raises CycleDetected if cyclic."""
    n = len(covers)
    indeg = [0] * n
    for ups in covers:
        for j in ups:
            indeg[j] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while queue:
        x = queue.popleft()
        order.append(x)
        for j in covers[x]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != n:
        raise CycleDetected("cover digraph contains a cycle")
    return order


def heights(covers: Sequence[Sequence[int]], order: Sequence[int] | None = None) -> list[int]:
    """Length of the longest chain up to each element from a minimal one."""
    n = len(covers)
    if order is None:
        order = topological_order(covers)
    h = [0] * n
    for x in order:
        for j in covers[x]:
            if h[j] < h[x] + 1:
                h[j] = h[x] + 1
    return h


def depths(covers: Sequence[Sequence[int]], order: Sequence[int] | None = None) -> list[int]:
    """Length of the longest chain from each element up to a maximal one."""
    n = len(covers)
    if order is None:
        order = topological_order(covers)
    d = [0] * n
    for x in reversed(order):
        for j in covers[x]:
            if d[x] < d[j] + 1:
                d[x] = d[j] + 1
    return d


def cover_lists_from_up(up: Sequence[int]) -> list[list[int]]:
    """Upper-cover lists recovered from a reflexive reachability relation."""
    n = len(up)
    strict = [up[i] & ~(1 << i) for i in range(n)]
    out = []
    for i in range(n):
        above_twice = 0
        for k in bit_indices(strict[i]):
            above_twice |= strict[k]
        out.append(bit_indices(strict[i] & ~above_twice))
    return out


def maximal_elements(up: Sequence[int]) -> list[int]:
    """Elements with nothing strictly above them, ascending."""
    return [i for i, mask in enumerate(up) if mask == 1 << i]


def join_irreducible_order(up: Sequence[int]) -> tuple[list[int], list[int]]:
    """The elements of a finite lattice with exactly one lower cover.

    ``up`` is the lattice's reflexive order. Returns the join-irreducible
    elements ascending, and their reflexive up masks re-indexed over
    that list.
    """
    lower = predecessor_lists(cover_lists_from_up(up))
    ji = [i for i, below in enumerate(lower) if len(below) == 1]
    index = {orig: new for new, orig in enumerate(ji)}
    return ji, [sum(1 << index[j] for j in bit_indices(up[i]) if j in index) for i in ji]


def ideal_masks(strict_down: Sequence[int], limit: int | None = None) -> list[int]:
    """All down-closed subsets, one bitmask each, generated exactly once.

    Elements are added along a linear extension, so the list grows from
    the empty ideal and its length equals the number of ideals. Each
    ideal comes after every ideal it contains. Raises TooLarge as soon
    as the list grows past ``limit``.
    """
    n = len(strict_down)
    order = sorted(range(n), key=lambda i: (strict_down[i].bit_count(), i))
    ideals = [0]
    for e in order:
        bit = 1 << e
        need = strict_down[e]
        grown = [m | bit for m in ideals if need & ~m == 0]
        ideals.extend(grown)
        if limit is not None and len(ideals) > limit:
            raise TooLarge(f"more than {limit} down-sets")
    return ideals


def _ranked(values: list) -> list[int]:
    rank = {v: r for r, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def canonical_key(covers: Sequence[Sequence[int]]) -> bytes:
    """Canonical byte form of an unlabeled cover digraph.

    Two inputs yield equal keys exactly when their orders are
    isomorphic. Invariant colouring is refined to a fixpoint, then ties
    are broken by individualisation search; the minimum encoding over
    all branches is canonical.

    Twins, elements with the same upper and the same lower covers, are
    branched on once per split cell. Swapping two twins is an
    automorphism of the cover digraph. While neither is individualised
    it fixes the colouring (refinement commutes with automorphisms), so
    individualising one or the other reaches the same leaf encodings,
    and the minimum is unchanged. An n-antichain, the J order of the
    Boolean lattice B_n, takes n search nodes instead of n! leaves.
    Symmetry without twins is still searched in full: k disjoint
    2-chains still take k! leaves.
    """
    n = len(covers)
    if n == 0:
        return b"(0, ())"
    up = [tuple(us) for us in covers]
    dn = predecessor_lists(up)
    order = topological_order(up)
    hts = heights(up, order)
    dps = depths(up, order)
    base = [(hts[i], dps[i], len(up[i]), len(dn[i])) for i in range(n)]
    rng = range(n)

    def refined(cols: list[int]) -> list[int]:
        while True:
            sig = [
                (cols[i],
                 tuple(sorted(cols[j] for j in up[i])),
                 tuple(sorted(cols[j] for j in dn[i])))
                for i in rng
            ]
            nxt = _ranked(sig)
            if nxt == cols:
                return cols
            cols = nxt

    def encode(cols: list[int]) -> tuple:
        rows: list[tuple[int, ...]] = [()] * n
        for i in rng:
            rows[cols[i]] = tuple(sorted(cols[j] for j in up[i]))
        return tuple(rows)

    best: tuple | None = None

    def search(cols: list[int]) -> None:
        nonlocal best
        cols = refined(cols)
        counts: dict[int, int] = {}
        for c in cols:
            counts[c] = counts.get(c, 0) + 1
        split = min((c for c, k in counts.items() if k > 1), default=None)
        if split is None:
            enc = encode(cols)
            if best is None or enc < best:
                best = enc
            return
        # Twin classes are read only here, in the split cell, so inputs
        # that refine to discrete colours pay nothing for them.
        reps: dict[tuple, int] = {}
        for i in rng:
            if cols[i] == split:
                reps.setdefault((frozenset(up[i]), frozenset(dn[i])), i)
        for v in reps.values():
            branched = _ranked([
                (c, 1 if (c == split and i != v) else 0)
                for i, c in enumerate(cols)
            ])
            search(branched)

    search(_ranked(base))
    return repr((n, best)).encode("ascii")
