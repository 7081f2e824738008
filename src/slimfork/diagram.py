"""Immutable planar Hasse diagrams with their reachability masks.

A diagram stores, for every element, the list of its upper covers and
the list of its lower covers, both ordered left to right as in a plane
drawing. Reachability masks and heights are computed once at
construction; the dicts that map masks back to elements are built on
first use, once, and equal rows are one shared tuple across diagrams.
All of it is read-only once built, so diagrams can be shared freely
between concurrent computations.

Only the upper lists are given; lower lists are always derived. Elements
are ranked by a leftmost-first traversal from the bottom and each
element's lower covers are sorted by that rank. A slim semimodular
lattice has one planar diagram up to reflection, so the upper lists fix
the plane order of the lower lists, and this ranking reproduces it.

A build makes two passes over a topological order of the covers. The
pass up the order computes the down masks and the heights; the pass
down it computes the up masks and finds every cover that a longer chain
implies. The masks are the only tables of the order: the meet of x and
y is the element whose down mask is down[x] & down[y], and the join the
element whose up mask is up[x] & up[y], each found by one lookup in a
dict built on first use. Diagrams are capped at DIAGRAM_MAX_ELEMENTS
elements, because the lattice check at construction tests up to
n·|J(L)| joins of n-bit masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NoReturn, Optional, Sequence

from . import posets
from .errors import (
    CycleDetected,
    DuplicateCover,
    NotALattice,
    NotBounded,
    TooLarge,
    ValidationError,
)

# The lattice check at construction tests up to n·|J(L)| joins of n-bit
# masks.
DIAGRAM_MAX_ELEMENTS = 2_048

# Interned cover rows, each its own key (see build_diagram).
_rows: dict[tuple[int, ...], tuple[int, ...]] = {}


@dataclass(frozen=True)
class FourCell:
    """A covering square o -< a_l, a_r -< t with nothing inside."""

    o: int
    a_l: int
    a_r: int
    t: int


class PlanarDiagram:
    """A finite bounded poset with ordered cover lists.

    Construct through :func:`build_diagram`; instances are immutable by
    convention and hash/compare by identity. Cover rows are shared
    between diagrams.

    Bit j of ``up[i]`` is set iff i <= j, and bit j of ``down[i]`` iff
    j <= i; ``heights[i]`` is the length of the longest chain from the
    bottom up to i. The meet of x and y is the element whose down mask
    is ``down[x] & down[y]``, and their join the element whose up mask
    is ``up[x] & up[y]``; ``down_index`` and ``up_index`` map each mask
    back to its element. Each index is built on first use, and a second
    build gives an equal dict, so diagrams still share safely.
    """

    __slots__ = (
        "n", "upper", "lower", "labels", "name", "up", "down", "heights",
        "bottom", "top", "_up_index", "_down_index", "_key",
    )

    def __init__(self, upper, lower, labels, name, up, down, heights, bottom, top):
        self.n = len(upper)
        self.upper = upper
        self.lower = lower
        self.labels = labels
        self.name = name
        self.up = up
        self.down = down
        self.heights = heights
        self.bottom = bottom
        self.top = top
        self._up_index = None
        self._down_index = None
        self._key = None

    @property
    def up_index(self) -> dict[int, int]:
        if self._up_index is None:
            self._up_index = {m: i for i, m in enumerate(self.up)}
        return self._up_index

    @property
    def down_index(self) -> dict[int, int]:
        if self._down_index is None:
            self._down_index = {m: i for i, m in enumerate(self.down)}
        return self._down_index

    def leq(self, x: int, y: int) -> bool:
        return (self.up[x] >> y) & 1 == 1

    def meet(self, x: int, y: int) -> int:
        down = self.down
        return self.down_index[down[x] & down[y]]

    def join(self, x: int, y: int) -> int:
        up = self.up
        return self.up_index[up[x] & up[y]]

    def height(self, x: int) -> int:
        return self.heights[x]

    def cover_pairs(self) -> Iterator[tuple[int, int]]:
        for i, ups in enumerate(self.upper):
            for j in ups:
                yield i, j

    def __repr__(self) -> str:
        return f"PlanarDiagram(n={self.n}, name={self.name!r})"


def _mask(ids: Sequence[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def build_diagram(
    upper: Sequence[Sequence[int]],
    *,
    labels: Optional[Sequence[Optional[str]]] = None,
    name: Optional[str] = None,
) -> PlanarDiagram:
    """Validate raw ordered cover lists and attach their masks and heights.

    ``upper`` gives the ordered upper covers per element; the ordered
    lower covers are derived from them. The digraph must be acyclic, a
    genuine cover relation, and bounded (unique least and greatest
    element); meets and joins must exist for all pairs. Raises
    TooLarge above DIAGRAM_MAX_ELEMENTS elements, and CycleDetected,
    NotBounded, DuplicateCover, NotALattice or ValidationError
    accordingly.

    The lattice check tests only the joins y v j for j in J(L), the
    elements with exactly one lower cover j_*, and y > j_* with
    j not <= y. In a finite poset with a least element these joins
    decide lattice-ness:

    (i) Each z is the least upper bound of J(z), the elements of J(L)
        below z, by induction along a linear extension. The least upper
        bound s of J(z) exists, as a chain of joins x v j starting at
        the bottom, and s <= z. If s < z, then z is not in J(L), so it
        has two or more lower covers, and s lies below one of them, c.
        Any other lower cover c' satisfies c' = lub(J(c')) <= s <= c,
        but distinct lower covers are incomparable.
    (ii) x v y = x v j_1 v ... v j_m over J(y) = {j_1, ..., j_m}, and
        each step is a join x v j.
    (iii) Every join x v j with j in J(L) exists, by induction along a
        linear extension of J(L): y = x v j_* exists by (i) and (ii)
        over J(j_*), whose members all come before j. Each upper bound
        of {x, j} lies above j_*, so the upper bounds of {x, j} are
        those of {y, j}. If j <= y, the join is y; if y = j_*, it is
        j; otherwise y v j is tested.

    A finite join-semilattice with a least element is a lattice, so
    meets need no test.

    Kahn's order is read twice: up it for the down masks and the
    heights, and down it for the up masks and the implied-edge test.
    A failure is reported as the index-order scans that these passes
    replace report it: the first implied edge of the first offending
    row, and the first pair (x, j) without a join, x-major, so the
    message does not depend on the order.

    Equal cover rows are one tuple, interned in a module table that
    holds at most the distinct rows built in the process.
    """
    n = len(upper)
    if n == 0:
        raise NotBounded("empty diagram has no least element")
    if n > DIAGRAM_MAX_ELEMENTS:
        raise TooLarge(f"diagram has {n} elements; the cap is {DIAGRAM_MAX_ELEMENTS}")
    ups: list[list[int]] = []
    indeg = [0] * n
    for i, raw in enumerate(upper):
        row = list(map(int, raw))
        for j in row:
            if j < 0 or j >= n:
                raise ValidationError(f"element {i} lists cover {j} outside [0, {n})")
            if j == i:
                raise CycleDetected(f"element {i} covers itself")
            indeg[j] += 1
        if len(row) > 1 and len(set(row)) != len(row):
            raise DuplicateCover(f"element {i} lists a cover twice: {row}")
        ups.append(row)

    # Kahn's order, read while it grows; up it: down masks and heights
    minimal = [i for i in range(n) if not indeg[i]]
    order = minimal[:]
    down_mask = [1 << i for i in range(n)]
    height = [0] * n
    for x in order:
        dx, hx = down_mask[x], height[x] + 1
        for j in ups[x]:
            down_mask[j] |= dx
            if height[j] < hx:
                height[j] = hx
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) != n:
        raise CycleDetected("cover digraph contains a cycle")

    # down the order: up masks, and the covers that a longer chain implies
    up_mask = [0] * n
    implied = False
    for x in reversed(order):
        covers = above = 0
        for k in ups[x]:
            bit = 1 << k
            covers |= bit
            above |= up_mask[k] ^ bit
        if above & covers:
            implied = True
        up_mask[x] = above | covers | 1 << x
    if implied:
        for i, row in enumerate(ups):
            above = 0
            for k in row:
                above |= up_mask[k] ^ 1 << k
            for j in row:
                if above >> j & 1:
                    raise ValidationError(f"edge {i} -< {j} is implied by a longer chain")

    maximal = [i for i in range(n) if not ups[i]]
    if len(minimal) != 1:
        raise NotBounded(f"no unique least element; minimal elements: {minimal}")
    if len(maximal) != 1:
        raise NotBounded(f"no unique greatest element; maximal elements: {maximal}")
    bottom, top = minimal[0], maximal[0]

    # lower covers listed in the order the leftmost-first walk visits them
    lows: list[list[int]] = [[] for _ in range(n)]
    for x in _left_walk(ups, bottom)[1]:
        for j in ups[x]:
            lows[j].append(x)

    up_set = set(up_mask)
    ji = [j for j, low in enumerate(lows) if len(low) == 1]
    for j in ji:
        uj, below = up_mask[j], lows[j][0]
        # the y > j_* with j not <= y
        rest = up_mask[below] & ~uj ^ 1 << below
        while rest:
            low = rest & -rest
            if up_mask[low.bit_length() - 1] & uj not in up_set:
                _raise_first_missing_join(up_mask, ji, up_set)
            rest ^= low

    lab = None if labels is None else tuple(labels)
    if lab is not None and len(lab) != n:
        raise ValidationError(f"{len(lab)} labels for {n} elements")
    share = _rows.setdefault
    up_rows, low_rows = list(map(tuple, ups)), list(map(tuple, lows))
    return PlanarDiagram(
        tuple(map(share, up_rows, up_rows)),
        tuple(map(share, low_rows, low_rows)),
        lab,
        name,
        tuple(up_mask),
        tuple(down_mask),
        tuple(height),
        bottom,
        top,
    )


def _raise_first_missing_join(up_mask: list[int], ji: list[int], up_set: set[int]) -> NoReturn:
    """Raise NotALattice on the first pair (x, j) without a join, x-major, j in J(L)."""
    for x, ux in enumerate(up_mask):
        for j in ji:
            if ux & up_mask[j] not in up_set:
                raise NotALattice(f"elements {x} and {j} have no join")
    raise AssertionError("every join x v j exists")


def _left_walk(
    upper: Sequence[Sequence[int]], bottom: int, mirrored: bool = False
) -> tuple[list[int], list[int]]:
    """Rank and visit order of a depth-first walk taking leftmost covers first.

    ``order`` lists the elements in first-visit order, and ``rank[x]``
    is the position of x in it, or -1 when x is not above ``bottom``.
    With ``mirrored`` the walk takes rightmost covers first, as the
    plain walk does on the mirror image.
    """
    rank = [-1] * len(upper)
    order: list[int] = []
    stack = [bottom]
    while stack:
        x = stack.pop()
        if rank[x] < 0:
            rank[x] = len(order)
            order.append(x)
            stack.extend(upper[x] if mirrored else reversed(upper[x]))
    return rank, order


def is_graded(diagram: PlanarDiagram) -> bool:
    """Every cover raises the height by exactly one."""
    h = diagram.heights
    return all(h[j] == h[i] + 1 for i, j in diagram.cover_pairs())


def is_semimodular(diagram: PlanarDiagram) -> bool:
    """Birkhoff's covering condition: if a and b cover x, then a v b covers both.

    In a finite lattice this condition is equivalent to upper
    semimodularity, x ^ y -< x implying y -< x v y (Stern, "Semimodular
    Lattices", 1999). A common upper cover t of a != b is their join:
    a < a v b <= t and t covers a. So the condition reads "every two
    upper covers of an element share an upper cover", tested on the
    cover rows alone in O(edges) set operations.
    """
    upper = diagram.upper
    for ups in upper:
        for k, a in enumerate(ups):
            for b in ups[k + 1:]:
                if set(upper[a]).isdisjoint(upper[b]):
                    return False
    return True


def find_m3(diagram: PlanarDiagram):
    """A diamond sublattice (o, x, y, z, t) if one exists, else None."""
    n = diagram.n
    up, down = diagram.up, diagram.down
    meet, join = diagram.meet, diagram.join
    full = (1 << n) - 1
    inc = [full & ~(up[i] | down[i]) for i in range(n)]
    for x in range(n):
        for y in posets.bit_indices(inc[x] >> (x + 1) << (x + 1)):
            m, j = meet(x, y), join(x, y)
            both = inc[x] & inc[y]
            for z in posets.bit_indices(both >> (y + 1) << (y + 1)):
                if meet(x, z) == m and meet(y, z) == m and join(x, z) == j and join(y, z) == j:
                    return m, x, y, z, j
    return None


def find_n5(diagram: PlanarDiagram):
    """A pentagon sublattice (o, z, x, y, t) with z < x if one exists."""
    n = diagram.n
    up, down = diagram.up, diagram.down
    meet, join = diagram.meet, diagram.join
    full = (1 << n) - 1
    inc = [full & ~(up[i] | down[i]) for i in range(n)]
    for z in range(n):
        for x in posets.bit_indices(up[z] & ~(1 << z)):
            for y in posets.bit_indices(inc[z] & inc[x]):
                if meet(x, y) == meet(z, y) and join(x, y) == join(z, y):
                    return meet(x, y), z, x, y, join(x, y)
    return None


def is_slim(diagram: PlanarDiagram) -> bool:
    """No diamond sublattice anywhere in the diagram."""
    return find_m3(diagram) is None


def irreducibles(diagram: PlanarDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """J(L) and M(L): the elements with exactly one lower, and one upper, cover."""
    ji = tuple(x for x, low in enumerate(diagram.lower) if len(low) == 1)
    return ji, tuple(x for x, ups in enumerate(diagram.upper) if len(ups) == 1)


def ji_width_at_most_two(diagram: PlanarDiagram) -> bool:
    """No three elements with exactly one lower cover are pairwise incomparable.

    Czédli and Schmidt ("Slim semimodular lattices. I. A visual
    approach", Order 29, 2012) call a finite lattice L slim when J(L),
    its set of join-irreducible elements, "contains no three-element
    antichain"; slim lattices are planar, and a planar semimodular
    lattice is slim in this sense exactly when it has no M3 sublattice.
    So on a planar semimodular diagram this test agrees with
    :func:`is_slim`, at the cost of |J(L)|^2 mask operations. Elsewhere
    it may not: the Boolean lattice B3 has no M3 sublattice, but its
    three atoms form a 3-antichain in J(B3). Use it only after
    :func:`is_semimodular` has passed.
    """
    up, down = diagram.up, diagram.down
    ji = [x for x, low in enumerate(diagram.lower) if len(low) == 1]
    ji_mask = _mask(ji)
    for x in ji:
        # the members of J(L) incomparable to x, and those of them above x in index
        ix = ji_mask & ~(up[x] | down[x])
        rest = ix >> x << x
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            if ix & ~(up[y] | down[y]):
                return False
            rest ^= low
    return True


def cell_defect(diagram: PlanarDiagram, o: int, a_l: int, a_r: int, t: int) -> Optional[str]:
    """Reason the quadruple is not a covering square of the diagram, or None."""
    for x in (o, a_l, a_r, t):
        if not 0 <= x < diagram.n:
            return f"element {x} out of range"
    row = diagram.upper[o]
    if a_l not in row:
        return f"{a_l} is not an upper cover of {o}"
    pos = row.index(a_l)
    if pos + 1 >= len(row) or row[pos + 1] != a_r:
        return f"{a_l} and {a_r} are not adjacent in the upper list of {o}"
    if diagram.meet(a_l, a_r) != o:
        return f"meet of {a_l} and {a_r} is not {o}"
    if diagram.join(a_l, a_r) != t:
        return f"join of {a_l} and {a_r} is not {t}"
    if t not in diagram.upper[a_l] or t not in diagram.upper[a_r]:
        return f"{t} does not cover both {a_l} and {a_r}"
    low = diagram.lower[t]
    pos = low.index(a_l)
    if pos + 1 >= len(low) or low[pos + 1] != a_r:
        return f"{a_l} and {a_r} are not adjacent in the lower list of {t}"
    return None


def four_cells(diagram: PlanarDiagram) -> list[FourCell]:
    """All covering squares, ordered by bottom element then left atom slot.

    A square is a pair of upper covers adjacent in the bottom's list
    that passes :func:`cell_defect` with their join as its top.
    """
    cells = []
    for o, row in enumerate(diagram.upper):
        for a_l, a_r in zip(row, row[1:]):
            t = diagram.join(a_l, a_r)
            if cell_defect(diagram, o, a_l, a_r, t) is None:
                cells.append(FourCell(o, a_l, a_r, t))
    return cells


def boundary_chains(diagram: PlanarDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Leftmost and rightmost cover walks from bottom to top."""
    chains = []
    for side in (0, -1):
        x = diagram.bottom
        chain = [x]
        while x != diagram.top:
            x = diagram.upper[x][side]
            chain.append(x)
        chains.append(tuple(chain))
    return chains[0], chains[1]


def canonical_key(diagram: PlanarDiagram) -> bytes:
    """Canonical byte string; equal exactly for isomorphic diagrams."""
    if diagram._key is None:
        diagram._key = posets.canonical_key(diagram.upper)
    return diagram._key


def planar_key(diagram: PlanarDiagram) -> bytes:
    """Canonical byte string of a drawing, up to relabelling and reflection.

    A drawing code renumbers the elements by the leftmost-first walk
    from the bottom, which reaches every element of a built diagram,
    and lists the ordered upper lists in that numbering; the mirror
    image, every list reversed, has a code of its own, and the key
    holds the smaller of the two. Each orientation is walked once, the
    codes are compared row by row up to their first difference, and
    only the smaller one is written out.
    The key encodes the whole cover digraph, so equal keys mean equal
    drawings up to relabelling and reflection. A slim rectangular
    lattice has only one planar diagram up to reflection (Czédli and
    Grätzer, 2014), so on such lattices the key separates isomorphism
    classes as :func:`canonical_key` does, in linear time.
    """
    upper, bottom = diagram.upper, diagram.bottom
    rank, order = _left_walk(upper, bottom)
    mrank, morder = _left_walk(upper, bottom, mirrored=True)
    mirrored = False
    for x, y in zip(order, morder):
        row = [rank[z] for z in upper[x]]
        mrow = [mrank[z] for z in reversed(upper[y])]
        if row != mrow:
            mirrored = mrow < row
            break
    if mirrored:
        at = mrank.__getitem__
        code = tuple([tuple(map(at, reversed(upper[x]))) for x in morder])
    else:
        at = rank.__getitem__
        code = tuple([tuple(map(at, upper[x])) for x in order])
    return repr((len(upper), code)).encode("ascii")


def is_isomorphic(a: PlanarDiagram, b: PlanarDiagram) -> bool:
    """Unlabeled order isomorphism, decided through canonical keys."""
    return a.n == b.n and canonical_key(a) == canonical_key(b)
