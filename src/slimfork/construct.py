"""Grids, rectangular boundary profiles, and fork insertion.

A fork adds one new element under a covering square's top, then runs a
staircase of edge-subdividing elements from the square down-left to
the left boundary chain and, mirror-symmetrically, down-right to the
right boundary chain. :func:`insert_fork` edits the cover lists, then
builds the result with mandatory structural validation; a fork that
breaks slimness, semimodularity, gradedness or the one-level height
increase raises ValidatorFailed. Grids and forks are written as
ordered upper-cover lists only; :func:`build_diagram` derives every
lower list from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .diagram import (
    DIAGRAM_MAX_ELEMENTS,
    FourCell,
    PlanarDiagram,
    boundary_chains,
    build_diagram,
    cell_defect,
    four_cells,
    is_graded,
    is_semimodular,
    ji_width_at_most_two,
)
from .errors import (
    LatticeError,
    NotACell,
    NotRectangular,
    ParseError,
    ScriptError,
    SpecTooSmall,
    TooLarge,
    ValidatorFailed,
)


@dataclass(frozen=True)
class GridSpec:
    """Chain lengths of a grid; both must be at least 2."""

    p: int
    q: int


@dataclass(frozen=True)
class RectangularProfile:
    """The doubly-irreducible element of each boundary chain."""

    c_l: int
    c_r: int


@dataclass(frozen=True)
class ForkScript:
    """A grid size plus an ordered list of fork sites.

    Each step names the bottom element of the covering square to fork,
    using ids of the diagram current at that step. Serializes as
    ``{"grid": [p, q], "steps": [o_id, ...]}``.
    """

    grid: GridSpec
    steps: tuple[int, ...] = ()

    def to_obj(self) -> dict:
        return {"grid": [self.grid.p, self.grid.q], "steps": list(self.steps)}

    @classmethod
    def from_obj(cls, obj) -> "ForkScript":
        if not isinstance(obj, dict):
            raise ParseError("fork script must be a JSON object")
        grid_part = obj.get("grid")
        steps = obj.get("steps")
        if (
            not isinstance(grid_part, (list, tuple))
            or len(grid_part) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in grid_part)
        ):
            raise ParseError('fork script needs "grid": [p, q] with integer sides')
        if not isinstance(steps, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in steps
        ):
            raise ParseError('fork script needs "steps": [o_id, ...] with integer ids')
        return cls(GridSpec(grid_part[0], grid_part[1]), tuple(steps))

    def sort_key(self) -> tuple:
        return (self.grid.p, self.grid.q, self.steps)


@dataclass(frozen=True)
class ForkResult:
    """A fork insertion's diagram plus the ids of the new elements."""

    diagram: PlanarDiagram
    m: int
    left_leg: tuple[int, ...]
    right_leg: tuple[int, ...]


def grid(spec: GridSpec) -> PlanarDiagram:
    """Direct product of two chains drawn with the p-chain going up-left.

    Element (i, j) has id i*q + j; upper covers are listed as
    [(i+1, j), (i, j+1)], left then right. Raises TooLarge when p*q is
    above DIAGRAM_MAX_ELEMENTS.
    """
    p, q = spec.p, spec.q
    if p < 2 or q < 2:
        raise SpecTooSmall(f"grid sides must both be at least 2, got {p}x{q}")
    if p * q > DIAGRAM_MAX_ELEMENTS:
        raise TooLarge(f"grid {p}x{q} has {p * q} elements; the cap is {DIAGRAM_MAX_ELEMENTS}")

    def ident(i: int, j: int) -> int:
        return i * q + j

    upper: list[list[int]] = []
    for i in range(p):
        for j in range(q):
            ups = []
            if i + 1 < p:
                ups.append(ident(i + 1, j))
            if j + 1 < q:
                ups.append(ident(i, j + 1))
            upper.append(ups)
    return build_diagram(upper, name=f"grid-{p}x{q}")


def rectangular_profile(diagram: PlanarDiagram) -> RectangularProfile:
    """Locate the unique doubly-irreducible element of each boundary chain.

    The two elements must be distinct and complementary; otherwise
    NotRectangular is raised with the reason.
    """
    left, right = boundary_chains(diagram)

    def doubly_irreducible(chain: Sequence[int], side: str) -> int:
        found = [
            x for x in chain
            if x not in (diagram.bottom, diagram.top)
            and len(diagram.upper[x]) == 1
            and len(diagram.lower[x]) == 1
        ]
        if not found:
            raise NotRectangular(f"no doubly-irreducible element on the {side} boundary")
        if len(found) > 1:
            raise NotRectangular(
                f"multiple doubly-irreducible elements on the {side} boundary: {found}"
            )
        return found[0]

    c_l = doubly_irreducible(left, "left")
    c_r = doubly_irreducible(right, "right")
    if c_l == c_r:
        raise NotRectangular(f"both boundary candidates are element {c_l}")
    up, down = diagram.up, diagram.down
    if down[c_l] & down[c_r] != down[diagram.bottom] or up[c_l] & up[c_r] != up[diagram.top]:
        raise NotRectangular(f"elements {c_l} and {c_r} are not complementary")
    return RectangularProfile(c_l, c_r)


def _staircase(
    diagram: PlanarDiagram,
    o: int,
    w: int,
    side: str,
    chain_edges: set[tuple[int, int]],
) -> list[tuple[int, int]]:
    """Edges (o_k, w_k) to subdivide, walking cells toward one boundary.

    Starting from the square's bottom edge, the walk continues while
    the current edge is off the boundary chain: the next cell has the
    current w as its top and the current o as the atom nearer the
    boundary. Each expected cell is validated before stepping into it.
    """
    steps: list[tuple[int, int]] = []
    for _ in range(diagram.n + 1):
        steps.append((o, w))
        if (o, w) in chain_edges:
            return steps
        low = diagram.lower[w]
        pos = low.index(o)
        npos = pos - 1 if side == "left" else pos + 1
        if npos < 0 or npos >= len(low):
            raise ValidatorFailed(
                f"staircase stuck at edge {o} -< {w}: no neighbour toward the {side} boundary"
            )
        x = low[npos]
        o2 = diagram.meet(x, o)
        quad = (o2, x, o, w) if side == "left" else (o2, o, x, w)
        reason = cell_defect(diagram, *quad)
        if reason is not None:
            raise ValidatorFailed(
                f"staircase at edge {o} -< {w} expected a covering square: {reason}"
            )
        o, w = o2, x
    raise ValidatorFailed(f"staircase from {steps[0]} did not reach the {side} boundary")


def _fork_upper(
    diagram: PlanarDiagram, cell: FourCell
) -> tuple[list[list[int]], int, tuple[int, ...], tuple[int, ...]]:
    """The upper lists, m and legs of a fork at a covering square, not yet built.

    The new top element m is covered by the square's top, slotted
    between the two atoms. Each staircase edge o_k -< w_k is split by a
    new element that also covers the previous leg element (or m), with
    cover-list slots inherited from the edge it subdivides. New ids are
    assigned n, n+1, ... in order m, left leg top-down, right leg
    top-down. Raises NotACell, or ValidatorFailed when a staircase
    meets no covering square.
    """
    defect = cell_defect(diagram, cell.o, cell.a_l, cell.a_r, cell.t)
    if defect is not None:
        raise NotACell(defect)
    lchain, rchain = boundary_chains(diagram)
    lsteps = _staircase(diagram, cell.o, cell.a_l, "left", set(zip(lchain, lchain[1:])))
    rsteps = _staircase(diagram, cell.o, cell.a_r, "right", set(zip(rchain, rchain[1:])))

    m = diagram.n
    lids = [m + 1 + k for k in range(len(lsteps))]
    rids = [m + 1 + len(lsteps) + k for k in range(len(rsteps))]
    added = 1 + len(lids) + len(rids)
    upper = [list(row) for row in diagram.upper] + [[] for _ in range(added)]
    upper[m] = [cell.t]
    for k, (ok, wk) in enumerate(lsteps):
        u = lids[k]
        upper[ok][upper[ok].index(wk)] = u
        upper[u] = [wk, m if k == 0 else lids[k - 1]]
    for k, (ok, wk) in enumerate(rsteps):
        v = rids[k]
        upper[ok][upper[ok].index(wk)] = v
        upper[v] = [m if k == 0 else rids[k - 1], wk]
    return upper, m, tuple(lids), tuple(rids)


def insert_fork(diagram: PlanarDiagram, cell: FourCell) -> ForkResult:
    """Insert a fork at a covering square of a slim semimodular diagram.

    The cover lists come from :func:`_fork_upper`. The result must be a lattice
    one level taller than the parent, graded, semimodular and slim; otherwise
    ValidatorFailed is raised. Semimodular implies graded (Jordan–Dedekind), so
    gradedness is tested only to name a failure. Both structural tests are
    local: semimodularity is Birkhoff's covering condition
    (:func:`is_semimodular`), and slimness, tested once semimodularity holds,
    is the width test on J(L) (:func:`ji_width_at_most_two`). A failed width
    test is reported as "result contains a diamond", its meaning on planar
    semimodular lattices. The parent is left unchanged.
    """
    upper, m, left_leg, right_leg = _fork_upper(diagram, cell)
    labels = None
    if diagram.labels is not None:
        labels = diagram.labels + (None,) * (len(upper) - diagram.n)
    name = f"{diagram.name or 'lattice'}-fork{cell.o}"
    try:
        out = build_diagram(upper, labels=labels, name=name)
    except LatticeError as exc:
        raise ValidatorFailed(f"fork at {cell} produced an invalid diagram: {exc}") from exc

    if out.height(out.top) != diagram.height(diagram.top) + 1:
        raise ValidatorFailed(f"fork at {cell}: height did not increase by exactly 1")
    if not is_semimodular(out):
        reason = "semimodular" if is_graded(out) else "graded"
        raise ValidatorFailed(f"fork at {cell}: result is not {reason}")
    if not ji_width_at_most_two(out):
        raise ValidatorFailed(f"fork at {cell}: result contains a diamond")
    return ForkResult(out, m, left_leg, right_leg)


def cell_at(diagram: PlanarDiagram, o: int) -> FourCell:
    """The one covering square with bottom ``o``; raises NotACell otherwise."""
    matches = [c for c in four_cells(diagram) if c.o == o]
    if not matches:
        raise NotACell(f"no covering square has bottom {o}")
    if len(matches) > 1:
        raise NotACell(f"bottom {o} is ambiguous between {matches}")
    return matches[0]


def run_script(script: ForkScript) -> tuple[PlanarDiagram, tuple[PlanarDiagram, ...]]:
    """Build the grid and apply every fork step in order.

    Returns the final diagram together with the full stage trace
    (grid first, final diagram last). Every stage must admit a
    rectangular profile; failures carry the step index.
    """
    diagram = grid(script.grid)
    _require_rectangular(diagram, 0)
    trace = [diagram]
    for idx, o_id in enumerate(script.steps, start=1):
        try:
            diagram = insert_fork(diagram, cell_at(diagram, o_id)).diagram
        except LatticeError as exc:
            raise ScriptError(f"step {idx}: {exc}") from exc
        _require_rectangular(diagram, idx)
        trace.append(diagram)
    return diagram, tuple(trace)


def _require_rectangular(diagram: PlanarDiagram, step: int) -> None:
    try:
        rectangular_profile(diagram)
    except NotRectangular as exc:
        raise ScriptError(f"step {step}: stage is not rectangular: {exc}") from exc
