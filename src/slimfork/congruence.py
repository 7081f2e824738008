"""Congruences of a finite lattice diagram.

Every question starts from J(Con L), the ordered set of join-irreducible
congruences. Because congruence lattices of lattices are distributive,
J(Con L) determines Con L (Birkhoff), and every claim is read from it:
dual atoms, the two-cover bound, the three-element-chain test and
dual-atom membership of a congruence. Both engines first merge the
covering edges into classes through covering squares (the trajectories
of a slim rectangular lattice); they differ in how they order the
classes.

- :func:`swing_ji_congruences` needs a slim, planar, semimodular (SPS)
  diagram and reads the order off the diagram by Grätzer's Swing Lemma,
  with no closure. It serves the callers whose diagrams are always
  family members, which are SPS by construction: ``verify_claims`` and
  the ``search`` matcher.
- :func:`ji_congruences` works on any finite lattice: it runs one
  principal-congruence closure per class and compares the results. It
  serves the CLI's ``check`` and ``con``, whose inputs may be non-SPS
  (N5, M3, Boolean lattices) or drawn with upper lists in a non-planar
  order, and it is the test oracle of the swing engine.

The full congruence lattice is built only on demand, as the joins of the
down-sets of J(Con L), and is capped at CON_MAX_MEMBERS congruences.

Also provided: a brute-force oracle that tests every set partition,
prime ideals (the claim reads their masks, with the partition oracle
:func:`prime_ideal_congruence`), and the necessary-condition filter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import posets
from .diagram import PlanarDiagram, boundary_chains, canonical_key, find_m3, irreducibles
from .errors import (
    NotAnIdeal,
    NotDistributive,
    NotPrime,
    TooLarge,
    TooSmall,
    ValidatorFailed,
)

ORACLE_MAX_ELEMENTS = 8
CON_MAX_MEMBERS = 65_536


@dataclass(frozen=True)
class Partition:
    """An equivalence relation stored as a block index per element.

    Block indices are normalized to first-occurrence order, so equal
    relations compare and hash equal.
    """

    block_of: tuple[int, ...]

    @staticmethod
    def normalize(assign: Sequence) -> "Partition":
        seen: dict = {}
        out = []
        for a in assign:
            if a not in seen:
                seen[a] = len(seen)
            out.append(seen[a])
        return Partition(tuple(out))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((0,) * n)

    @property
    def n(self) -> int:
        return len(self.block_of)

    @property
    def num_blocks(self) -> int:
        return max(self.block_of) + 1 if self.block_of else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Canonical block form: sorted members, blocks by first element."""
        buckets: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            buckets[b].append(x)
        return tuple(tuple(b) for b in buckets)

    def same(self, x: int, y: int) -> bool:
        return self.block_of[x] == self.block_of[y]

    def refines(self, other: "Partition") -> bool:
        """Every block of self lies inside one block of other."""
        image: dict[int, int] = {}
        for mine, theirs in zip(self.block_of, other.block_of):
            known = image.setdefault(mine, theirs)
            if known != theirs:
                return False
        return True

    def join(self, other: "Partition") -> "Partition":
        """Transitive closure of the union of the two relations."""
        return _join_all(self.n, (self, other))

    def meet(self, other: "Partition") -> "Partition":
        """Common refinement."""
        return Partition.normalize(list(zip(self.block_of, other.block_of)))

    def sort_key(self) -> tuple:
        return (self.n - self.num_blocks, self.blocks())


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], size: list[int], a: int, b: int) -> bool:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    if size[ra] < size[rb]:
        ra, rb = rb, ra
    parent[rb] = ra
    size[ra] += size[rb]
    return True


def _forest(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find parents of range(n) after merging each pair."""
    parent = list(range(n))
    size = [1] * n
    for a, b in pairs:
        _union(parent, size, a, b)
    return parent


def _join_all(n: int, parts: Iterable[Partition]) -> Partition:
    """Join of partitions of range(n); the identity for no partitions."""
    parent = list(range(n))
    size = [1] * n
    for part in parts:
        first: dict[int, int] = {}
        for i, b in enumerate(part.block_of):
            j = first.setdefault(b, i)
            if j != i:
                _union(parent, size, i, j)
    return Partition.normalize([_find(parent, i) for i in range(n)])


def is_congruence(diagram: PlanarDiagram, part: Partition) -> bool:
    """Compatibility of the relation with meet and join.

    Each element is compared against the first of its block; by
    transitivity that covers every related pair. Only x v j for j in
    J(L) and x ^ m for m in M(L) are compared. That is enough: in a
    finite lattice every element is the join of the join-irreducible
    elements below it and the meet of the meet-irreducible elements
    above it (Grätzer, "Lattice Theory: Foundation", 2011), so an
    equivalence compatible with every x v j and x ^ m is compatible with
    every join and meet.
    """
    up, down = diagram.up, diagram.down
    up_index, down_index = diagram.up_index, diagram.down_index
    ji, mi = irreducibles(diagram)
    ji_up = [up[j] for j in ji]
    mi_down = [down[m] for m in mi]
    bo = part.block_of
    rows: dict[int, list[int]] = {}
    for x in range(diagram.n):
        ux, dx = up[x], down[x]
        row = [bo[up_index[ux & u]] for u in ji_up] + [bo[down_index[dx & d]] for d in mi_down]
        if rows.setdefault(bo[x], row) != row:
            return False
    return True


def principal_congruence(diagram: PlanarDiagram, a: int, b: int) -> Partition:
    """Smallest congruence collapsing a with b.

    Fixpoint closure: every merged pair (x, y) forces the merges of
    (x v j, y v j) for j in J(L) and (x ^ m, y ^ m) for m in M(L), with
    blocks held in a union-by-size forest. Every element is a join of
    join-irreducibles and a meet of meet-irreducibles (Grätzer, "Lattice
    Theory: Foundation", 2011), so the result is compatible with every
    join and meet; each merge costs |J(L)| + |M(L)| mask lookups.
    """
    n = diagram.n
    up, down = diagram.up, diagram.down
    up_index, down_index = diagram.up_index, diagram.down_index
    ji, mi = irreducibles(diagram)
    ji_up = [up[j] for j in ji]
    mi_down = [down[m] for m in mi]
    parent = list(range(n))
    size = [1] * n
    pending: deque[tuple[int, int]] = deque([(a, b)])
    while pending:
        x, y = pending.popleft()
        if not _union(parent, size, x, y):
            continue
        ux, uy = up[x], up[y]
        for u in ji_up:
            jz, jw = up_index[ux & u], up_index[uy & u]
            if _find(parent, jz) != _find(parent, jw):
                pending.append((jz, jw))
        dx, dy = down[x], down[y]
        for d in mi_down:
            mz, mw = down_index[dx & d], down_index[dy & d]
            if _find(parent, mz) != _find(parent, mw):
                pending.append((mz, mw))
    return Partition.normalize([_find(parent, i) for i in range(n)])


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences of one diagram ordered by refinement.

    ``up`` holds reflexive refinement masks over member indices;
    members are sorted coarsest-last, so the identity partition comes
    first and the all-collapsing one last.
    """

    members: tuple[Partition, ...]
    up: tuple[int, ...]
    bottom: int
    top: int

    def __len__(self) -> int:
        return len(self.members)

    def cover_lists(self) -> list[list[int]]:
        return posets.cover_lists_from_up(self.up)

    def coatom_indices(self) -> tuple[int, ...]:
        covs = self.cover_lists()
        return tuple(i for i in range(len(self.members)) if self.top in covs[i])

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(self.cover_lists()[self.bottom])


class JiPoset:
    """The join-irreducible congruences with their refinement order.

    Members are listed finest first, in a linear extension of the order:
    a member comes after every member it strictly refines. ``up`` holds
    reflexive refinement masks over member indices, and ``generators[i]``
    is a pair (a, b) with con(a, b) equal to member i; the two diagram
    engines give a covering edge. By Birkhoff, a congruence corresponds
    to the down-set of the members that refine it, so the questions below
    are answered from J alone.

    ``members`` may be given as a function of no arguments, which is
    called when the partitions are first read. Two posets are equal when
    they list the same members in the same order with the same masks;
    generators are not compared.
    """

    __slots__ = ("up", "generators", "_members")

    def __init__(
        self,
        members: Sequence[Partition] | Callable[[], Sequence[Partition]],
        up: Sequence[int],
        generators: Sequence[tuple[int, int]],
    ):
        self.up = tuple(up)
        self.generators = tuple(generators)
        self._members = members if callable(members) else tuple(members)

    @property
    def members(self) -> tuple[Partition, ...]:
        if callable(self._members):
            self._members = tuple(self._members())
        return self._members

    def __len__(self) -> int:
        return len(self.up)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JiPoset):
            return NotImplemented
        return self.up == other.up and self.members == other.members

    def cover_lists(self) -> list[list[int]]:
        return posets.cover_lists_from_up(self.up)

    def maximal_indices(self) -> tuple[int, ...]:
        return tuple(posets.maximal_elements(self.up))

    def dual_atoms(self) -> list[Partition]:
        """The dual atoms of Con L, finest first.

        Each is the join of J minus one maximal member.
        """
        atoms = []
        for i in self.maximal_indices():
            rest = [m for j, m in enumerate(self.members) if j != i]
            atoms.append(_join_all(self.members[i].n, rest))
        return sorted(atoms, key=Partition.sort_key)

    def is_dual_atom(self, collapses: Callable[[int, int], bool]) -> bool:
        """Whether a congruence theta is a dual atom of Con L.

        ``collapses(a, b)`` must be the pair test of a congruence theta,
        such as ``theta.same`` or a prime ideal's mask test. A member
        con(a, b) refines theta exactly when theta collapses a with b, so
        theta is a dual atom exactly when one member fails and is maximal.
        """
        outside = [i for i, (a, b) in enumerate(self.generators) if not collapses(a, b)]
        return len(outside) == 1 and self.up[outside[0]] == 1 << outside[0]


def _lattice_from_members(members: Iterable[Partition]) -> CongruenceLattice:
    """Assemble a congruence lattice from an explicit member set."""
    ms = sorted(set(members), key=Partition.sort_key)
    k = len(ms)
    up = [0] * k
    for i in range(k):
        for j in range(k):
            if ms[i].refines(ms[j]):
                up[i] |= 1 << j
    n = ms[0].n if ms else 0
    bottom = ms.index(Partition.singletons(n))
    top = ms.index(Partition.single_block(n))
    return CongruenceLattice(tuple(ms), tuple(up), bottom, top)


def all_congruences_oracle(diagram: PlanarDiagram) -> CongruenceLattice:
    """Brute-force oracle: test every set partition for compatibility.

    Exponential in the element count; refuses diagrams with more than
    ORACLE_MAX_ELEMENTS elements.
    """
    if diagram.n > ORACLE_MAX_ELEMENTS:
        raise TooLarge(
            f"oracle enumerates all partitions; {diagram.n} > {ORACLE_MAX_ELEMENTS} elements"
        )
    found = []
    for rgs in _restricted_growth_strings(diagram.n):
        part = Partition(rgs)
        if is_congruence(diagram, part):
            found.append(part)
    return _lattice_from_members(found)


def _restricted_growth_strings(n: int):
    """All set partitions of range(n) as normalized block vectors."""
    if n == 0:
        yield ()
        return
    a = [0] * n

    def rec(i: int, width: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(width + 1):
            a[i] = v
            yield from rec(i + 1, width + 1 if v == width else width)

    yield from rec(1, 1)


def _edge_classes(diagram: PlanarDiagram) -> dict[tuple[int, int], int]:
    """The class of every covering edge under perspectivity in squares.

    In a covering square o -< a, b -< t = a v b the edges [o, a] and
    [b, t] are perspective, as are [o, b] and [a, t], and perspective
    edges generate the same principal congruence. The edges are merged
    through every covering square; in a slim rectangular lattice the
    classes are the trajectories, height(L) of them. Classes are numbered
    0, 1, ... in the order of their first edge in ``cover_pairs``.
    """
    edges = list(diagram.cover_pairs())
    edge_id = {edge: i for i, edge in enumerate(edges)}
    parent = list(range(len(edges)))
    size = [1] * len(edges)
    upper = diagram.upper
    for o, ups in enumerate(upper):
        for k, a in enumerate(ups):
            for b in ups[k + 1:]:
                t = diagram.join(a, b)
                if t in upper[a] and t in upper[b]:
                    _union(parent, size, edge_id[o, a], edge_id[b, t])
                    _union(parent, size, edge_id[o, b], edge_id[a, t])
    number: dict[int, int] = {}
    return {
        edge: number.setdefault(_find(parent, i), len(number)) for i, edge in enumerate(edges)
    }


def jh_permutation(diagram: PlanarDiagram) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """The Jordan–Hölder permutation pi of a slim semimodular diagram, and its trajectories.

    The classes of :func:`_edge_classes` are the trajectories, and each
    crosses either boundary chain in one edge (Czédli and Schmidt, "Slim
    semimodular lattices. II. A description by permutations", Order,
    2014). Trajectory i is the one through the i-th edge of the left
    chain, counted from 1 at the bottom, and pi[i - 1] is the position of
    its edge on the right chain. Returns pi and the trajectory number of
    every covering edge. Raises ValidatorFailed when the classes do not
    cross each boundary chain once.
    """
    classes = _edge_classes(diagram)
    left, right = (
        {classes[edge]: k for k, edge in enumerate(zip(chain, chain[1:]), 1)}
        for chain in boundary_chains(diagram)
    )
    h = diagram.height(diagram.top)
    if not len(left) == len(right) == max(classes.values(), default=-1) + 1 == h:
        raise ValidatorFailed("the trajectories do not cross each boundary chain once")
    pi = [0] * len(left)
    for c, k in left.items():
        pi[k - 1] = right[c]
    return tuple(pi), {edge: left[c] for edge, c in classes.items()}


def ji_congruences(diagram: PlanarDiagram) -> JiPoset:
    """The join-irreducible congruences of any finite lattice, one closure per class.

    The distinct principal congruences of covering pairs are exactly the
    join-irreducible congruences of a finite lattice. The edges are
    merged into classes through covering squares (:func:`_edge_classes`),
    one closure runs per class, and the distinct results are ordered by
    refinement: con(a, b) refines theta exactly when theta collapses a
    with b. Members are sorted by ``Partition.sort_key``.

    This engine makes no assumption on the lattice, so the CLI's
    ``check`` and ``con`` use it on their inputs, which may be non-SPS
    or drawn with upper lists in a non-planar order. Family members go
    through :func:`swing_ji_congruences`, which needs no closure; this
    engine is its test oracle.

    Self-check: raises ValidatorFailed when a member is the join of the
    members strictly below it, or when the members do not join to the
    all-collapsing partition.
    """
    first_edge: dict[int, tuple[int, int]] = {}
    for edge, c in _edge_classes(diagram).items():
        first_edge.setdefault(c, edge)
    generator: dict[Partition, tuple[int, int]] = {}
    for a, b in first_edge.values():
        generator.setdefault(principal_congruence(diagram, a, b), (a, b))
    members = sorted(generator, key=Partition.sort_key)
    up = [
        sum(1 << j for j, theta in enumerate(members) if theta.same(*generator[m]))
        for m in members
    ]

    n = diagram.n
    for i, m in enumerate(members):
        below = [members[j] for j in range(len(members)) if j != i and (up[j] >> i) & 1]
        if _join_all(n, below) == m:
            raise ValidatorFailed(
                f"congruence {m.blocks()} is the join of the members below it"
            )
    if n > 1 and _join_all(n, members) != Partition.single_block(n):
        raise ValidatorFailed("the join-irreducible congruences do not join to the top")
    return JiPoset(members, up, [generator[m] for m in members])


def _swing_arcs(diagram: PlanarDiagram, classes: dict[tuple[int, int], int]) -> list[int]:
    """Per edge class, the mask of the classes its edges swing to.

    An edge [c, b] swings to [c', b] when b covers at least three
    elements and c' is neither the leftmost nor the rightmost of them;
    ``diagram.lower`` lists them left to right.
    """
    arcs = [0] * (max(classes.values(), default=-1) + 1)
    for b, low in enumerate(diagram.lower):
        if len(low) < 3:
            continue
        inner = 0
        for c in low[1:-1]:
            inner |= 1 << classes[c, b]
        for c in low:
            arcs[classes[c, b]] |= inner
    return arcs


def swing_ji_congruences(diagram: PlanarDiagram) -> JiPoset:
    """J(Con L) of a slim, planar, semimodular lattice, with no closure.

    Grätzer's Swing Lemma ("Congruences in slim, planar, semimodular
    lattices: the Swing Lemma", Acta Sci. Math. (Szeged) 81 (2015); a
    direct proof is in Czédli and Makay, "Swing lattice game and a direct
    proof of the Swing Lemma for planar semimodular lattices", Acta Sci.
    Math. (Szeged) 83 (2017)):

        Let L be an SPS lattice and let p and q be distinct prime
        intervals in L. Then q is collapsed by con(p) iff there exists a
        prime interval r and sequence of prime intervals
        r = r_0, r_1, ..., r_n = q such that p is up-perspective to r,
        and r_i is up-perspective to, down-perspective to, or swings to
        r_{i+1} for i = 0, ..., n - 1.

    The lemma goes on to restrict the sequence further; that part is not
    needed here. p swings to q when 1_p = 1_q covers at least three
    elements and 0_q is neither the leftmost nor the rightmost of them.
    In a semimodular lattice a perspectivity of prime intervals is a
    chain of covering squares, so perspective edges lie in one class of
    :func:`_edge_classes`, and con(p) collapses q exactly when q's class
    is reachable from p's by swing arcs (:func:`_swing_arcs`). The
    reachability is closed over at most height(L) classes with bitmasks.
    Classes that reach each other generate the same congruence, so each
    set of them is one member, and member i refines member j exactly
    when j reaches i. The blocks of a member are the connected
    components of the edges in the classes it reaches; they are built
    only when ``members`` is read. Members are listed by the number of
    classes they reach, then by their lowest class: finest first, but
    not always in the order of :func:`ji_congruences`.

    ``diagram`` must be SPS with ``lower`` in plane order, as every
    family member is; on other inputs the result is wrong.
    :func:`ji_congruences` is the engine for any lattice.

    Self-check: raises ValidatorFailed on either failure that
    :func:`ji_congruences` checks, both read here from the reach masks
    with no closure: a member is the join of the members strictly below
    it (its generating edge lies in one component of the edges of the
    classes it strictly reaches), or the maximal members do not join to
    the top (the edges of the classes they reach leave the lattice in
    more than one component).
    """
    classes = _edge_classes(diagram)
    arcs = _swing_arcs(diagram, classes)
    edges_of: list[list[tuple[int, int]]] = [[] for _ in arcs]
    for edge, c in classes.items():
        edges_of[c].append(edge)
    reach = [arc | 1 << c for c, arc in enumerate(arcs)]
    for m in range(len(reach)):
        for i, r in enumerate(reach):
            if (r >> m) & 1:
                reach[i] = r | reach[m]

    own: dict[int, int] = {}
    for c, r in enumerate(reach):
        own[r] = own.get(r, 0) | 1 << c
    # fewer classes reached means finer, and the lowest class breaks ties
    reaches = sorted(own, key=lambda r: (r.bit_count(), own[r] & -own[r]))
    up = [sum(1 << j for j, rj in enumerate(reaches) if ri & ~rj == 0) for ri in reaches]
    generators = [edges_of[(own[r] & -own[r]).bit_length() - 1][0] for r in reaches]

    def edges_in(mask: int) -> list[tuple[int, int]]:
        return [edge for c in posets.bit_indices(mask) for edge in edges_of[c]]

    n = diagram.n
    for r, (a, b) in zip(reaches, generators):
        parent = _forest(n, edges_in(r & ~own[r]))
        if _find(parent, a) == _find(parent, b):
            raise ValidatorFailed(
                f"the congruence of edge {(a, b)} is the join of the members below it"
            )
    # the join of all members is the join of the maximal ones
    top_reach = 0
    for i in posets.maximal_elements(up):
        top_reach |= reaches[i]
    parent = _forest(n, edges_in(top_reach))
    if any(_find(parent, x) != _find(parent, 0) for x in range(n)):
        raise ValidatorFailed("the join-irreducible congruences do not join to the top")

    def members() -> list[Partition]:
        forests = [_forest(n, edges_in(r)) for r in reaches]
        return [Partition.normalize([_find(f, x) for x in range(n)]) for f in forests]

    return JiPoset(members, up, generators)


def congruence_lattice(diagram: PlanarDiagram) -> CongruenceLattice:
    """Every congruence, as the joins of the down-sets of J(Con L).

    Every congruence is the join of the join-irreducible congruences
    below it, and distinct down-sets give distinct joins (Birkhoff), so
    two equal joins mean a wrong J order and raise ValidatorFailed. The
    size is exponential in |J(Con L)|; the claims need only J, so build
    this only when a caller needs every congruence. Raises TooLarge as
    soon as there are more than CON_MAX_MEMBERS down-sets.
    """
    ji = ji_congruences(diagram)
    k = len(ji)
    strict_down = [
        sum(1 << j for j in range(k) if j != i and (ji.up[j] >> i) & 1) for i in range(k)
    ]
    try:
        masks = posets.ideal_masks(strict_down, CON_MAX_MEMBERS)
    except TooLarge as exc:
        raise TooLarge(f"Con L has more than {CON_MAX_MEMBERS} members; |J(Con L)| = {k}") from exc

    # J is sorted finest first, so the highest member of a down-set is
    # maximal in it, and removing it leaves a down-set listed earlier.
    join_of = {0: Partition.singletons(diagram.n)}
    for mask in masks[1:]:
        e = mask.bit_length() - 1
        join_of[mask] = join_of[mask ^ (1 << e)].join(ji.members[e])
    masks = sorted(join_of, key=lambda mask: join_of[mask].sort_key())
    for x, y in zip(masks, masks[1:]):
        if join_of[x] == join_of[y]:
            raise ValidatorFailed(f"down-sets {x:#b} and {y:#b} of J(Con L) have the same join")
    ms = [join_of[mask] for mask in masks]
    up = [0] * len(ms)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & ~mj == 0:
                up[i] |= 1 << j
    bottom = ms.index(join_of[0])
    top = ms.index(Partition.single_block(diagram.n))
    return CongruenceLattice(tuple(ms), tuple(up), bottom, top)


def ji_poset_of(con: CongruenceLattice) -> JiPoset:
    """Members with exactly one lower cover, in their refinement order.

    A member's generator is the first pair it collapses that its lower
    cover does not: the principal congruence of that pair lies below the
    member and not below its lower cover, so it is the member.
    """
    ji, up = posets.join_irreducible_order(con.up)
    covs = con.cover_lists()
    generators = []
    for i in ji:
        (below,) = [j for j, ups in enumerate(covs) if i in ups]
        generators.append(_separating_pair(con.members[i], con.members[below]))
    return JiPoset([con.members[i] for i in ji], up, generators)


def _separating_pair(theta: Partition, finer: Partition) -> tuple[int, int]:
    """A pair that theta collapses and the strictly finer partition does not."""
    first: dict[int, int] = {}
    for y, block in enumerate(theta.block_of):
        x = first.setdefault(block, y)
        if not finer.same(x, y):
            return x, y
    raise ValueError("the partition does not strictly refine theta")


def dual_atom_count(ji_up: Sequence[int]) -> int:
    """Dual atoms of a finite distributive lattice, from its J order.

    ``ji_up`` holds the reflexive up masks of the join-irreducible
    elements. By Birkhoff each dual atom is the join of J minus one
    maximal member, so they are as many as the maximal members.
    """
    return len(posets.maximal_elements(ji_up))


def at_most_two_covers(up: Sequence[int]) -> bool:
    """Whether every element of the poset has at most two upper covers."""
    return all(len(c) <= 2 for c in posets.cover_lists_from_up(up))


def principal_ideal(diagram: PlanarDiagram, x: int) -> tuple[int, ...]:
    """All elements below x, ascending."""
    return tuple(posets.bit_indices(diagram.down[x]))


def _ideal_mask(diagram: PlanarDiagram, ideal) -> int:
    """The mask of a down- and join-closed subset; raises NotAnIdeal otherwise.

    A nonempty finite down-set is join-closed exactly when it is a
    principal ideal, so the join test is one lookup among the down
    masks. Otherwise it has two maximal members, whose join lies outside.
    """
    members = frozenset(ideal)
    mask = sum(1 << x for x in members)
    for x in members:
        if diagram.down[x] & ~mask:
            raise NotAnIdeal(f"subset is not down-closed below element {x}")
    if mask and mask not in diagram.down_index:
        x, y = [x for x in sorted(members) if diagram.up[x] & mask == 1 << x][:2]
        raise NotAnIdeal(f"subset is not join-closed at {x} v {y}")
    return mask


def is_prime_ideal(diagram: PlanarDiagram, ideal) -> bool:
    """Whether a (validated) ideal is proper, nonempty and prime.

    Prime: a meet can only land in the ideal when one of its arguments
    is already there; equivalently the complement, an up-set, is
    meet-closed. A nonempty finite up-set is meet-closed exactly when it
    is a principal filter, so this is one lookup among the up masks.
    Raises NotAnIdeal when the input is not down- and join-closed.
    """
    mask = _ideal_mask(diagram, ideal)
    full = (1 << diagram.n) - 1
    if mask in (0, full):
        return False
    return full & ~mask in diagram.up_index


def prime_ideal_congruence(diagram: PlanarDiagram, ideal) -> Partition:
    """The two-block partition separating a prime ideal from its complement.

    Always a congruence, and a dual atom of Con L, since a coarser
    congruence merges the two blocks. The prime-ideal claim reads this
    off the ideal mask; this test oracle re-checks both facts: NotPrime
    for a non-prime ideal, ValidatorFailed for a compatibility failure.
    """
    if not is_prime_ideal(diagram, ideal):
        raise NotPrime("the given ideal is not a proper nonempty prime ideal")
    members = frozenset(ideal)
    part = Partition.normalize([0 if x in members else 1 for x in range(diagram.n)])
    if not is_congruence(diagram, part):
        raise ValidatorFailed("prime ideal did not induce a congruence")
    return part


@dataclass(frozen=True)
class CandidateProfile:
    """Necessary-condition summary for a candidate congruence lattice."""

    p1_ok: bool
    p2_ok: bool


def filter_candidate(candidate: PlanarDiagram) -> CandidateProfile:
    """Screen a distributive lattice against the two necessary conditions.

    p1_ok: every join-irreducible element has at most two covers in the
    order of join-irreducible elements. p2_ok: the lattice has at least
    two dual atoms. Both are read from that order, as for a congruence
    lattice. Raises TooSmall for candidates with at most two elements
    and NotDistributive when a pentagon or diamond exists.

    Distributivity is decided by counting down-sets of J(L) in
    O(|L|·|J(L)|). In a finite lattice x ↦ ↓x ∩ J(L) is injective, and
    by Birkhoff's representation theorem it is onto the down-sets of
    J(L) exactly when L is distributive. So L is distributive iff J(L)
    has exactly |L| down-sets, and the count stops past |L|. It counts
    the up-sets, the complements of the down-sets, which need no
    transposed masks. Only a non-distributive candidate is searched for
    a diamond, which names the failure; without one, a pentagon exists
    (the M3-N5 theorem of Dedekind and Birkhoff).
    """
    if candidate.n <= 2:
        raise TooSmall(f"candidate must have more than 2 elements, got {candidate.n}")
    _, ji_up = posets.join_irreducible_order(candidate.up)
    try:
        posets.ideal_masks([m & ~(1 << i) for i, m in enumerate(ji_up)], limit=candidate.n)
    except TooLarge:
        if find_m3(candidate) is not None:
            raise NotDistributive("candidate contains a diamond sublattice") from None
        raise NotDistributive("candidate contains a pentagon sublattice") from None
    return CandidateProfile(at_most_two_covers(ji_up), dual_atom_count(ji_up) >= 2)


def lattice_isomorphic(a, b) -> bool:
    """Order isomorphism of finite lattices.

    Accepts diagrams and congruence lattices in either slot; decided by
    comparing canonical keys of the cover structures. The key prunes
    only twins, so it may take factorial time on symmetric lattices
    without them, such as B_k with its k! automorphisms. search compares
    J orders instead, where the symmetry of B_k is all twins, and keeps
    this as its test oracle.
    """
    return _structure_key(a) == _structure_key(b)


def _structure_key(x) -> bytes:
    if isinstance(x, CongruenceLattice):
        return posets.canonical_key(x.cover_lists())
    return canonical_key(x)
