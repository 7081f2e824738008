"""Shared corpus of small lattice diagrams used across the test suite."""

from __future__ import annotations

import random

from slimfork import (
    EnumSpec,
    FamilyIndex,
    ForkResult,
    ForkScript,
    GridSpec,
    JiPoset,
    Partition,
    PlanarDiagram,
    build_diagram,
    canonical_key,
    cell_at,
    congruence_lattice,
    four_cells,
    grid,
    insert_fork,
    lattice_isomorphic,
    posets,
    principal_congruence,
    rectangular_profile,
)
from slimfork.diagram import DIAGRAM_MAX_ELEMENTS, _left_walk
from slimfork.errors import (
    CycleDetected,
    DuplicateCover,
    NotALattice,
    NotBounded,
    TooLarge,
    ValidationError,
)

ACCEPTANCE_SPEC = EnumSpec(p_max=4, q_max=4, max_forks=3, max_elements=40)


def chain(k: int) -> PlanarDiagram:
    return build_diagram([[i + 1] for i in range(k - 1)] + [[]], name=f"chain-{k}")


def n5() -> PlanarDiagram:
    # 0 -< a=1 -< b=2 -< 4 and 0 -< c=3 -< 4
    return build_diagram([[1, 3], [2], [4], [4], []], name="n5")


def m3() -> PlanarDiagram:
    return build_diagram([[1, 2, 3], [4], [4], [4], []], name="m3")


def boolean(k: int) -> PlanarDiagram:
    """The Boolean lattice of the subsets of a k-element set."""
    upper = [[x | 1 << b for b in range(k) if not x >> b & 1] for x in range(1 << k)]
    return build_diagram(upper, name=f"b{k}")


def boolean_cube() -> PlanarDiagram:
    return build_diagram(
        [[1, 2, 3], [4, 5], [4, 6], [5, 6], [7], [7], [7], []], name="b3"
    )


def single_coatom_candidate() -> PlanarDiagram:
    # Boolean square with one extra element on top: distributive, one dual atom.
    return build_diagram([[1, 2], [3], [3], [4], []], name="b2-tail")


def three_chain_con() -> PlanarDiagram:
    # Not semimodular; its congruence lattice is the three-element chain.
    return build_diagram([[1, 3], [2, 4], [5], [5], [5], []], name="c3-con")


def s7_result() -> ForkResult:
    g = grid(GridSpec(2, 2))
    return insert_fork(g, four_cells(g)[0])


def s7() -> PlanarDiagram:
    return s7_result().diagram


def fork_at(diagram: PlanarDiagram, bottom: int) -> ForkResult:
    return insert_fork(diagram, cell_at(diagram, bottom))


def relabel(diagram: PlanarDiagram, perm: list[int]) -> PlanarDiagram:
    """Copy of the diagram with element i renamed to perm[i]."""
    upper = [[] for _ in range(diagram.n)]
    for i in range(diagram.n):
        upper[perm[i]] = [perm[j] for j in diagram.upper[i]]
    return build_diagram(upper, name=diagram.name)


def mirror(diagram: PlanarDiagram) -> PlanarDiagram:
    """The left-right reflection: every upper list reversed."""
    return build_diagram([row[::-1] for row in diagram.upper], name=diagram.name)


def plane_order_pairs(diagram: PlanarDiagram) -> int:
    """Check the lower lists against the upper lists; return the pairs checked.

    For each adjacent pair (a, b) of a lower list, both must cover
    o = a meet b, and a, b must be adjacent in that order in o's upper
    list: the square o, a, b, t is drawn with a on the left in both.
    """
    pairs = 0
    for t, row in enumerate(diagram.lower):
        for a, b in zip(row, row[1:]):
            o = diagram.meet(a, b)
            ups = diagram.upper[o]
            assert a in ups and b in ups, (diagram.name, t, a, b)
            assert ups.index(b) == ups.index(a) + 1, (diagram.name, t, a, b)
            pairs += 1
    return pairs


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def oracle_corpus() -> list[PlanarDiagram]:
    """Diagrams small enough for the all-partitions oracle."""
    return [
        chain(2),
        chain(3),
        grid(GridSpec(2, 2)),
        grid(GridSpec(2, 3)),
        n5(),
        m3(),
        s7(),
    ]


def lattice_corpus() -> list[PlanarDiagram]:
    """Wider corpus, including diagrams beyond oracle range."""
    return oracle_corpus() + [
        chain(4),
        grid(GridSpec(3, 2)),
        grid(GridSpec(3, 3)),
        grid(GridSpec(4, 4)),
        fork_at(grid(GridSpec(3, 3)), 4).diagram,
        fork_at(grid(GridSpec(3, 2)), 2).diagram,
        fork_at(s7(), 0).diagram,
    ]


def up_masks(covers, order=None) -> list[int]:
    """Reflexive reachability masks computed over the cover digraph."""
    n = len(covers)
    if order is None:
        order = posets.topological_order(covers)
    up = [0] * n
    for x in reversed(order):
        mask = 1 << x
        for j in covers[x]:
            mask |= up[j]
        up[x] = mask
    return up


def build_diagram_multipass(upper) -> PlanarDiagram:
    """Oracle for ``build_diagram``: a separate pass per table, and every join x v j tested.

    Checks in the same order and raises the same exceptions with the
    same messages; the rows of the result are not interned.
    """
    n = len(upper)
    if n == 0:
        raise NotBounded("empty diagram has no least element")
    if n > DIAGRAM_MAX_ELEMENTS:
        raise TooLarge(f"diagram has {n} elements; the cap is {DIAGRAM_MAX_ELEMENTS}")
    ups: list[list[int]] = []
    for i, raw in enumerate(upper):
        row = [int(j) for j in raw]
        for j in row:
            if j < 0 or j >= n:
                raise ValidationError(f"element {i} lists cover {j} outside [0, {n})")
            if j == i:
                raise CycleDetected(f"element {i} covers itself")
        if len(set(row)) != len(row):
            raise DuplicateCover(f"element {i} lists a cover twice: {row}")
        ups.append(row)

    order = posets.topological_order(ups)
    up_mask = up_masks(ups, order)
    for i, row in enumerate(ups):
        above = 0
        for k in row:
            above |= up_mask[k] ^ 1 << k
        for j in row:
            if above >> j & 1:
                raise ValidationError(f"edge {i} -< {j} is implied by a longer chain")

    preds = posets.predecessor_lists(ups)
    down_mask = up_masks(preds, order[::-1])
    minimal = [i for i in range(n) if down_mask[i] == 1 << i]
    maximal = [i for i in range(n) if up_mask[i] == 1 << i]
    if len(minimal) != 1:
        raise NotBounded(f"no unique least element; minimal elements: {minimal}")
    if len(maximal) != 1:
        raise NotBounded(f"no unique greatest element; maximal elements: {maximal}")
    bottom, top = minimal[0], maximal[0]

    height = posets.heights(ups, order)
    rank, _ = _left_walk(ups, bottom)
    lows = [sorted(pre, key=rank.__getitem__) for pre in preds]

    up_set = set(up_mask)
    ji = [j for j, pre in enumerate(preds) if len(pre) == 1]
    for x, ux in enumerate(up_mask):
        for j in ji:
            if ux & up_mask[j] not in up_set:
                raise NotALattice(f"elements {x} and {j} have no join")
    return PlanarDiagram(
        tuple(map(tuple, ups)), tuple(map(tuple, lows)), None, None,
        tuple(up_mask), tuple(down_mask), tuple(height), bottom, top,
    )


def all_pairs_is_lattice(upper) -> bool:
    """Oracle for the lattice check of ``build_diagram``: every pair has a meet and a join.

    ``upper`` lists the upper covers of a bounded, acyclic, transitively
    reduced digraph.
    """
    n = len(upper)
    up_mask = up_masks(upper)
    down_mask = up_masks(posets.predecessor_lists(upper))
    down_index, up_index = set(down_mask), set(up_mask)
    for x in range(n):
        dx, ux = down_mask[x], up_mask[x]
        for y in range(x, n):
            if dx & down_mask[y] not in down_index or ux & up_mask[y] not in up_index:
                return False
    return True


def drawing_code(upper, bottom: int) -> tuple:
    """The ordered upper lists renumbered by the leftmost-first walk from ``bottom``."""
    rank = [-1] * len(upper)
    stack, count = [bottom], 0
    while stack:
        x = stack.pop()
        if rank[x] < 0:
            rank[x] = count
            count += 1
            stack.extend(reversed(upper[x]))
    if -1 in rank:
        raise ValidationError(f"element {rank.index(-1)} is not above the bottom {bottom}")
    code: list[tuple[int, ...]] = [()] * len(upper)
    for x, row in enumerate(upper):
        code[rank[x]] = tuple(rank[y] for y in row)
    return tuple(code)


def planar_key_both_codes(upper, bottom: int) -> bytes:
    """Oracle for ``planar_key``: both drawing codes written out in full, then the smaller."""
    mirror = [row[::-1] for row in upper]
    best = min(drawing_code(upper, bottom), drawing_code(mirror, bottom))
    return repr((len(upper), best)).encode("ascii")


def bounded_poset(n: int, related) -> list[list[int]]:
    """Upper covers of the order on 0..n-1 generated by ``related``, with 0 least and n-1 greatest.

    ``related`` holds pairs i < j of elements strictly between 0 and n-1.
    """
    above = [[] for _ in range(n)]
    for i, j in related:
        above[i].append(j)
    up = [0] * n
    up[n - 1] = 1 << n - 1
    for i in range(n - 2, 0, -1):
        mask = 1 << i | 1 << n - 1
        for j in above[i]:
            mask |= up[j]
        up[i] = mask
    up[0] = (1 << n) - 1
    return posets.cover_lists_from_up(up)


def all_pairs_semimodular(diagram: PlanarDiagram) -> bool:
    """Oracle for ``is_semimodular``: whenever x meet y is covered by x, the join covers y."""
    n = diagram.n
    meet, join = diagram.meet, diagram.join
    cov = [sum(1 << t for t in row) for row in diagram.upper]
    for x in range(n):
        for y in range(n):
            m = meet(x, y)
            if m != x and (cov[m] >> x) & 1 and not (cov[y] >> join(x, y)) & 1:
                return False
    return True


def congruence_by_definition(diagram: PlanarDiagram, part: Partition) -> bool:
    """Oracle for ``is_congruence``: every related pair, joined and met with every element."""
    n = diagram.n
    meet, join = diagram.meet, diagram.join
    for x in range(n):
        for y in range(n):
            if part.same(x, y):
                for z in range(n):
                    if not part.same(join(x, z), join(y, z)):
                        return False
                    if not part.same(meet(x, z), meet(y, z)):
                        return False
    return True


def principal_congruence_by_definition(diagram: PlanarDiagram, a: int, b: int) -> Partition:
    """Oracle for ``principal_congruence``: the closure over every element.

    Starting from a and b in one block, sweep every related pair (x, y)
    and every z, merging the blocks of x v z and y v z and of x ^ z and
    y ^ z, until a sweep merges nothing.
    """
    n = diagram.n
    meet, join = diagram.meet, diagram.join
    label = list(range(n))

    def merge(u: int, v: int) -> bool:
        lu, lv = label[u], label[v]
        if lu == lv:
            return False
        for i in range(n):
            if label[i] == lv:
                label[i] = lu
        return True

    changed = merge(a, b)
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                if label[x] == label[y]:
                    for z in range(n):
                        changed |= merge(join(x, z), join(y, z))
                        changed |= merge(meet(x, z), meet(y, z))
    return Partition.normalize(label)


def ideal_by_definition(diagram: PlanarDiagram, members: frozenset[int]) -> bool:
    """Oracle for the ideal test: down-closed, and closed under every join."""
    n = diagram.n
    if any(diagram.leq(y, x) and y not in members for x in members for y in range(n)):
        return False
    return all(diagram.join(x, y) in members for x in members for y in members)


def prime_ideal_by_definition(diagram: PlanarDiagram, members: frozenset[int]) -> bool:
    """Oracle for ``is_prime_ideal`` on an ideal: proper, nonempty, and no
    meet of two outside elements inside."""
    outside = [x for x in range(diagram.n) if x not in members]
    if not members or not outside:
        return False
    return all(diagram.meet(x, y) not in members for x in outside for y in outside)


def semimodular_corpus() -> list[PlanarDiagram]:
    return [d for d in lattice_corpus() if d.name != "n5"]


def all_cover_pairs_ji(diagram: PlanarDiagram) -> JiPoset:
    """Oracle for ``ji_congruences``: one closure for every covering pair.

    The distinct principal congruences of all covering pairs, sorted
    finest first and ordered by refinement, each with the first covering
    pair that generates it.
    """
    generator: dict[Partition, tuple[int, int]] = {}
    for a, b in diagram.cover_pairs():
        generator.setdefault(principal_congruence(diagram, a, b), (a, b))
    members = sorted(generator, key=Partition.sort_key)
    up = [
        sum(1 << j for j, other in enumerate(members) if m.refines(other))
        for m in members
    ]
    return JiPoset(members, up, [generator[m] for m in members])


def ji_order(ji: JiPoset) -> dict[Partition, frozenset[Partition]]:
    """Each member of J with the members it refines, whatever order lists them.

    Compares J orders from engines that list the members in different
    linear extensions; ``JiPoset`` equality also compares the listing.
    """
    ms = ji.members
    return {
        m: frozenset(ms[j] for j in range(len(ms)) if (u >> j) & 1)
        for m, u in zip(ms, ji.up)
    }


def con_diagrams(family: FamilyIndex) -> list[tuple[ForkScript, PlanarDiagram]]:
    """Each class's witness script with its full Con L as a diagram."""
    return [
        (e.script, build_diagram(congruence_lattice(e.diagram).cover_lists()))
        for e in family.members()
    ]


def con_lattice_witnesses(
    target: PlanarDiagram, cons: list[tuple[ForkScript, PlanarDiagram]]
) -> list[ForkScript]:
    """Oracle for the scan of ``search_representation``.

    ``cons`` comes from ``con_diagrams``. Every class whose full
    congruence lattice ``lattice_isomorphic`` finds isomorphic to the
    target is a witness, in family order. Diagrams cache their canonical
    keys, so reusing ``cons`` across targets keys each Con L once.
    """
    return [
        script for script, con in cons
        if con.n == target.n and lattice_isomorphic(con, target)
    ]


def generic_key_enumeration(
    spec: EnumSpec,
) -> tuple[list[tuple[ForkScript, PlanarDiagram]], dict[bytes, tuple[ForkScript, PlanarDiagram]]]:
    """Oracle for ``enumerate_family``: the enumeration before planar keys.

    Every fork goes through the full ``insert_fork``, which raises on a
    failed validator, and every candidate must be rectangular. Candidates
    are keyed by the generic ``canonical_key``; each wave keeps the first
    candidate of every new key in (key, script) order. Returns every
    candidate with its script, grids first, and the classes by key.
    """
    wave = [
        (ForkScript(GridSpec(p, q)), grid(GridSpec(p, q)))
        for p in range(2, spec.p_max + 1)
        for q in range(2, spec.q_max + 1)
        if p * q <= spec.max_elements
    ]
    candidates: list[tuple[ForkScript, PlanarDiagram]] = []
    classes: dict[bytes, tuple[ForkScript, PlanarDiagram]] = {}
    for forks in range(spec.max_forks + 1):
        candidates += wave
        frontier = []
        for script, diagram in sorted(wave, key=lambda c: (canonical_key(c[1]), c[0].sort_key())):
            rectangular_profile(diagram)
            key = canonical_key(diagram)
            if key not in classes:
                classes[key] = (script, diagram)
                frontier.append((script, diagram))
        if forks == spec.max_forks:
            break
        wave = []
        for script, diagram in frontier:
            for cell in four_cells(diagram):
                forked = insert_fork(diagram, cell).diagram
                if forked.n <= spec.max_elements:
                    wave.append((ForkScript(script.grid, script.steps + (cell.o,)), forked))
    return candidates, classes


def canonical_key_unpruned(covers) -> bytes:
    """Oracle for ``posets.canonical_key``: the same search with no twin pruning.

    Branches on every member of each split cell, so it visits n! leaves
    on an n-antichain. Keep inputs to about 8 elements.
    """
    n = len(covers)
    if n == 0:
        return b"(0, ())"
    up = [tuple(us) for us in covers]
    dn = posets.predecessor_lists(up)
    order = posets.topological_order(up)
    hts = posets.heights(up, order)
    dps = posets.depths(up, order)

    def ranked(values: list) -> list[int]:
        rank = {v: r for r, v in enumerate(sorted(set(values)))}
        return [rank[v] for v in values]

    def refined(cols: list[int]) -> list[int]:
        while True:
            nxt = ranked([
                (cols[i],
                 tuple(sorted(cols[j] for j in up[i])),
                 tuple(sorted(cols[j] for j in dn[i])))
                for i in range(n)
            ])
            if nxt == cols:
                return cols
            cols = nxt

    def leaves(cols: list[int]):
        cols = refined(cols)
        split = min((c for c in set(cols) if cols.count(c) > 1), default=None)
        if split is None:
            rows: list[tuple[int, ...]] = [()] * n
            for i in range(n):
                rows[cols[i]] = tuple(sorted(cols[j] for j in up[i]))
            yield tuple(rows)
            return
        for v in range(n):
            if cols[v] == split:
                yield from leaves(ranked([
                    (c, 1 if (c == split and i != v) else 0) for i, c in enumerate(cols)
                ]))

    best = min(leaves(ranked([(hts[i], dps[i], len(up[i]), len(dn[i])) for i in range(n)])))
    return repr((n, best)).encode("ascii")
