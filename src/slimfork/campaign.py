"""Exhaustive enumeration of the grid-plus-forks family and claim checks.

Enumeration runs breadth first over fork counts. A slim semimodular
diagram has a Jordan–Hölder permutation pi (:func:`congruence.jh_permutation`),
and a fork at a covering square inserts one point into it, so one work
unit reads pi off a single frontier diagram and predicts the permutation
of a fork at every covering square, with no cover-list edit. Candidates
are keyed by the orbit key min(pi, pi^-1), which separates isomorphism
classes as the planar key (:func:`diagram.planar_key`) does, and merged
in (key, script) order with first-witness-wins; only the first candidate
of each new key is forked (:func:`construct.insert_fork`), planar-keyed
and profiled.
So the family and the chosen witness scripts are identical for any
work-order permutation. Units are pure functions over immutable
diagrams and may be executed concurrently; the merge is the only
sequential step.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import __version__, posets
from .congruence import (
    JiPoset,
    at_most_two_covers,
    dual_atom_count,
    filter_candidate,
    is_prime_ideal,
    jh_permutation,
    principal_ideal,
    swing_ji_congruences,
)
from .construct import (
    ForkScript,
    GridSpec,
    RectangularProfile,
    grid,
    insert_fork,
    rectangular_profile,
)
from .diagram import PlanarDiagram, four_cells, planar_key
from .errors import (
    BudgetExceeded,
    NotRectangular,
    ValidationError,
    ValidatorFailed,
)

CLAIM_P2 = "p2"
CLAIM_P1 = "p1"
CLAIM_PRIME_IDEALS = "prime_ideals"
CLAIM_NOT_C3 = "not_c3"
CLAIM_NAMES = (CLAIM_P2, CLAIM_P1, CLAIM_PRIME_IDEALS, CLAIM_NOT_C3)

NOTE_SINGLE_DUAL_ATOM = "single dual atom"
NOTE_P1_VIOLATION = "a join-irreducible element has more than two covers"


# Bounds a family's cost before any grid is built: the number of grids
# and of their forks grows with the size allowed. The S and M specs use
# 40 and 48.
ENUM_MAX_ELEMENTS = 255


@dataclass(frozen=True)
class EnumSpec:
    """Bounds for the family enumeration.

    ``max_elements`` may not exceed ENUM_MAX_ELEMENTS (255), so that the
    cost of a family is bounded before any grid is built.
    """

    p_max: int
    q_max: int
    max_forks: int
    max_elements: int = 40
    max_classes: int = 100_000

    def __post_init__(self):
        if self.p_max < 2 or self.q_max < 2:
            raise ValidationError("grid bounds must both be at least 2")
        if self.max_forks < 0:
            raise ValidationError("max_forks must be nonnegative")
        if not 0 <= self.max_elements <= ENUM_MAX_ELEMENTS:
            raise ValidationError(
                f"max_elements must be between 0 and {ENUM_MAX_ELEMENTS}, got {self.max_elements}"
            )
        if self.max_classes < 1:
            raise ValidationError("max_classes must be positive")

    def to_obj(self) -> dict:
        return {
            "p_max": self.p_max,
            "q_max": self.q_max,
            "max_forks": self.max_forks,
            "max_elements": self.max_elements,
            "max_classes": self.max_classes,
        }


@dataclass(frozen=True)
class FamilyEntry:
    """One isomorphism class: representative, witness script, profile.

    ``perm`` is the Jordan–Hölder permutation predicted for the
    representative, checked against the diagram when it is expanded.
    """

    key: bytes
    diagram: PlanarDiagram
    script: ForkScript
    profile: RectangularProfile
    forks: int
    perm: tuple[int, ...]

    def stats(self) -> dict:
        return {
            "n": self.diagram.n,
            "forks": self.forks,
            "height": self.diagram.height(self.diagram.top),
            "cells": len(four_cells(self.diagram)),
        }


class FamilyIndex:
    """Isomorphism classes keyed by planar key, iterated in key order.

    ``candidates`` counts the grids and forks that were keyed, duplicates
    included.
    """

    def __init__(self, spec: EnumSpec, entries: dict[bytes, FamilyEntry], candidates: int):
        self.spec = spec
        self._entries = entries
        self.candidates = candidates

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[bytes]:
        return sorted(self._entries)

    def members(self) -> list[FamilyEntry]:
        return [self._entries[k] for k in self.keys()]

    def get(self, key: bytes) -> Optional[FamilyEntry]:
        return self._entries.get(key)


def _entry(key: bytes, diagram: PlanarDiagram, script: ForkScript, forks: int, perm: tuple) -> FamilyEntry:
    try:
        profile = rectangular_profile(diagram)
    except NotRectangular as exc:
        raise ValidatorFailed(
            f"enumerated diagram from {script.to_obj()} is not rectangular: {exc}"
        ) from exc
    return FamilyEntry(key, diagram, script, profile, forks, perm)


def _fork_permutation(pi: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """pi after a fork at the covering square whose lower edges lie on trajectories i and k.

    The left lower edge lies on trajectory i, the right one on k. The
    fork's staircases split the left chain edge of i and the right chain
    edge of k, and the new trajectory runs through both upper halves: it
    is trajectory i + 1, and its right position is pi(k) + 1.
    """
    j = pi[k - 1]
    shifted = [v + (v > j) for v in pi]
    return tuple(shifted[:i] + [j + 1] + shifted[i:])


def _inversions(pi: tuple[int, ...]) -> int:
    return sum(a > b for x, a in enumerate(pi) for b in pi[x + 1:])


def _orbit_key(pi: tuple[int, ...]) -> tuple[int, ...]:
    """min(pi, pi^-1): the mirror image of a diagram has the inverse permutation."""
    inverse = [0] * len(pi)
    for x, v in enumerate(pi, 1):
        inverse[v - 1] = x
    return min(pi, tuple(inverse))


def _expand(entry: FamilyEntry, spec: EnumSpec, rng: Optional[random.Random]) -> list[tuple]:
    """One work unit: the keyed permutation of a fork at every covering square.

    Raises ValidatorFailed when the permutation read off the diagram is
    not the one predicted for it.
    """
    d = entry.diagram
    pi, trajectory = jh_permutation(d)
    if pi != entry.perm:
        raise ValidatorFailed(
            f"{entry.script.to_obj()} has Jordan–Hölder permutation {pi}, not the predicted {entry.perm}"
        )
    cells = four_cells(d)
    if rng is not None:
        rng.shuffle(cells)
    out = []
    for cell in cells:
        i, k = trajectory[cell.o, cell.a_l], trajectory[cell.o, cell.a_r]
        j = pi[k - 1]
        # |L'| = h' + 1 + inv(pi'): the new trajectory crosses every old
        # one that it separates on exactly one boundary chain
        if d.n + 1 + sum((v > j) == (x < i) for x, v in enumerate(pi)) > spec.max_elements:
            continue
        perm = _fork_permutation(pi, i, k)
        script = ForkScript(entry.script.grid, entry.script.steps + (cell.o,))
        out.append((_orbit_key(perm), script, d, cell, perm))
    return out


def _merge(
    entries: dict[bytes, FamilyEntry], seen: set, wave: list[tuple], spec: EnumSpec, forks: int
) -> list[FamilyEntry]:
    """Add the first candidate of each new orbit key, in (orbit key, script) order.

    A candidate is (orbit key, script, source, cell, perm): a grid with
    no cell, or a fork at a cell of its parent diagram. ``seen`` holds
    the orbit keys of every wave so far. Only a winner is forked by
    :func:`insert_fork` and planar-keyed; the others make no edit. Raises
    ValidatorFailed when a winner's size or length is not that of its
    permutation, or when its drawing is already a class, that is, when
    the orbit key splits a class.
    """
    added = []
    for okey, script, source, cell, perm in sorted(wave, key=lambda c: (c[0], c[1].sort_key())):
        if okey in seen:
            continue
        seen.add(okey)
        diagram = source if cell is None else insert_fork(source, cell).diagram
        if diagram.n != len(perm) + 1 + _inversions(perm) or diagram.height(diagram.top) != len(perm):
            raise ValidatorFailed(
                f"{script.to_obj()} has {diagram.n} elements and length {diagram.height(diagram.top)},"
                f" which do not fit its Jordan–Hölder permutation {perm}"
            )
        key = planar_key(diagram)
        if key in entries:
            raise ValidatorFailed(
                f"{script.to_obj()} draws the class of {entries[key].script.to_obj()} under another orbit key"
            )
        entries[key] = entry = _entry(key, diagram, script, forks, perm)
        added.append(entry)
        if len(entries) > spec.max_classes:
            raise BudgetExceeded(f"family exceeded {spec.max_classes} isomorphism classes")
    return added


def enumerate_family(spec: EnumSpec, shuffle_seed: Optional[int] = None) -> FamilyIndex:
    """All grid-plus-forks diagrams within bounds, deduplicated up to isomorphism.

    ``shuffle_seed`` permutes work order only; the resulting index,
    including witness scripts, is the same for every seed.
    """
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    entries: dict[bytes, FamilyEntry] = {}
    seen: set[tuple[int, ...]] = set()
    seeds = []
    for p in range(2, min(spec.p_max, spec.max_elements // 2) + 1):
        for q in range(2, min(spec.q_max, spec.max_elements // p) + 1):
            g = grid(GridSpec(p, q))
            pi, _ = jh_permutation(g)
            seeds.append((_orbit_key(pi), ForkScript(GridSpec(p, q)), g, None, pi))
    candidates = len(seeds)
    frontier = _merge(entries, seen, seeds, spec, 0)
    for forks in range(1, spec.max_forks + 1):
        units = list(frontier)
        if rng is not None:
            rng.shuffle(units)
        wave: list[tuple] = []
        for unit in units:
            wave.extend(_expand(unit, spec, rng))
        candidates += len(wave)
        frontier = _merge(entries, seen, wave, spec, forks)
        if not frontier:
            break
    return FamilyIndex(spec, entries, candidates)


@dataclass
class ClaimReport:
    """Machine-readable verdicts for the family-wide claims."""

    family_size: int
    candidates: int
    checked: dict[str, int]
    passed: dict[str, int]
    failed: dict[str, int]
    counterexamples: list[dict]
    wall_time_s: float
    enum_spec: EnumSpec

    def ok(self) -> bool:
        return not self.counterexamples

    def to_obj(self, include_timing: bool = True) -> dict:
        obj = {
            "family_size": self.family_size,
            "claims": {
                name: {
                    "checked": self.checked.get(name, 0),
                    "passed": self.passed.get(name, 0),
                    "failed": self.failed.get(name, 0),
                }
                for name in CLAIM_NAMES
            },
            "counterexamples": self.counterexamples,
            "ok": self.ok(),
            "enum_spec": self.enum_spec.to_obj(),
            "tool_version": __version__,
        }
        if include_timing:
            obj["wall_time_s"] = round(self.wall_time_s, 3)
            obj["stats"] = {"candidates": self.candidates, "classes": self.family_size}
        return obj


def verify_claims(family: FamilyIndex) -> ClaimReport:
    """Check every family member against the four family-wide claims.

    p2: more than two elements implies at least two dual atoms in the
    congruence lattice. p1: every join-irreducible congruence has at
    most two covers among join-irreducible congruences. prime_ideals:
    the two boundary ideals are distinct prime ideals whose congruences
    are two distinct dual atoms (:func:`rectangular_profile` never picks
    the bottom or the top as a boundary element). not_c3: no congruence
    lattice is the three-element chain.
    Every verdict is read from J(Con L), which the Swing Lemma engine gives
    without a closure, since every member is slim, planar and semimodular, and
    from the ideal masks; no Con L or partition is built. Failures are counted
    and carry the replayable witness script.
    """
    start = time.perf_counter()
    checked = {name: 0 for name in CLAIM_NAMES}
    passed = {name: 0 for name in CLAIM_NAMES}
    failed = {name: 0 for name in CLAIM_NAMES}
    counterexamples: list[dict] = []

    def record(name: str, ok: bool, entry: FamilyEntry, detail: str) -> None:
        checked[name] += 1
        if ok:
            passed[name] += 1
        else:
            failed[name] += 1
            counterexamples.append(
                {"claim": name, "script": entry.script.to_obj(), "detail": detail}
            )

    for entry in family.members():
        lattice = entry.diagram
        ji = swing_ji_congruences(lattice)
        count = dual_atom_count(ji.up)

        if lattice.n > 2:
            record(CLAIM_P2, count >= 2, entry, f"{count} dual atom(s)")

        record(CLAIM_P1, at_most_two_covers(ji.up), entry, "a join-irreducible congruence has more than two covers")

        ok, detail = _prime_ideal_claim(lattice, entry.profile, ji)
        record(CLAIM_PRIME_IDEALS, ok, entry, detail)

        # J is a two-element chain exactly when Con L is the three-element chain
        record(
            CLAIM_NOT_C3,
            not (len(ji) == 2 and count == 1),
            entry,
            "congruence lattice is the three-element chain",
        )

    return ClaimReport(
        family_size=len(family),
        candidates=family.candidates,
        checked=checked,
        passed=passed,
        failed=failed,
        counterexamples=counterexamples,
        wall_time_s=time.perf_counter() - start,
        enum_spec=family.spec,
    )


def boundary_ideal_facts(
    lattice: PlanarDiagram, profile: RectangularProfile, ji: JiPoset
) -> tuple[bool, dict]:
    """The prime-ideal claim for the two boundary elements, fact by fact.

    Records both principal ideals, whether they are distinct and whether each
    is prime. Only when all three hold is ``distinct_dual_atoms`` added:
    whether both two-block congruences are dual atoms of Con L, decided from
    ``ji`` and the ideal masks. A prime ideal's congruence collapses a with b
    exactly when both lie on one side of it (test oracle:
    ``prime_ideal_congruence``); distinct ideals give distinct ones. Returns
    whether the claim holds (``distinct_dual_atoms`` is true) and the facts.
    """
    left = principal_ideal(lattice, profile.c_l)
    right = principal_ideal(lattice, profile.c_r)
    facts: dict = {
        "c_l": profile.c_l,
        "c_r": profile.c_r,
        "left_ideal": list(left),
        "right_ideal": list(right),
        "distinct": set(left) != set(right),
        "left_prime": is_prime_ideal(lattice, left),
        "right_prime": is_prime_ideal(lattice, right),
    }
    if facts["distinct"] and facts["left_prime"] and facts["right_prime"]:
        facts["distinct_dual_atoms"] = all(
            ji.is_dual_atom(lambda a, b: (mask >> a ^ mask >> b) & 1 == 0)
            for mask in (lattice.down[profile.c_l], lattice.down[profile.c_r])
        )
    return facts.get("distinct_dual_atoms", False), facts


def _prime_ideal_claim(
    lattice: PlanarDiagram, profile: RectangularProfile, ji: JiPoset
) -> tuple[bool, str]:
    ok, facts = boundary_ideal_facts(lattice, profile, ji)
    if ok:
        return True, ""
    if not facts["distinct"]:
        return False, "boundary ideals coincide"
    if not facts["left_prime"]:
        return False, f"[0, {profile.c_l}] is not a prime ideal"
    if not facts["right_prime"]:
        return False, f"[0, {profile.c_r}] is not a prime ideal"
    return False, "an induced congruence is not a dual atom"


@dataclass
class SearchResult:
    """Outcome of a representation search for one target lattice."""

    witnesses: list[ForkScript]
    note: str
    scanned: int
    # the scan's comparison, from con_matcher; None when no scan ran
    matches: Optional[Callable[[PlanarDiagram], bool]] = None

    def to_obj(self) -> dict:
        return {
            "witnesses": [w.to_obj() for w in self.witnesses],
            "note": self.note,
            "scanned": self.scanned,
        }


def con_matcher(target: PlanarDiagram) -> Callable[[PlanarDiagram], bool]:
    """A test of whether Con L of a diagram is isomorphic to ``target``.

    ``target`` must be distributive. By Birkhoff, finite distributive
    lattices are isomorphic exactly when their J orders are: compare |J|,
    then canonical keys, keying the target on the first size match only.
    The diagrams matched are family members or replays of their scripts,
    all slim, planar and semimodular, so J comes from the Swing Lemma
    engine.
    """
    _, target_up = posets.join_irreducible_order(target.up)
    target_key = None

    def matches(diagram: PlanarDiagram) -> bool:
        nonlocal target_key
        ji = swing_ji_congruences(diagram)
        if len(ji) != len(target_up):
            return False
        if target_key is None:
            target_key = posets.canonical_key(posets.cover_lists_from_up(target_up))
        return posets.canonical_key(ji.cover_lists()) == target_key

    return matches


def search_representation(target: PlanarDiagram, spec: EnumSpec) -> SearchResult:
    """Family members whose congruence lattice matches the target.

    The necessary-condition filter runs first for targets with more
    than two elements: a single dual atom rejects the target outright,
    without any scan, as does a join-irreducible element with more
    than two covers; a target that is not distributive raises. Otherwise
    the whole family is scanned with :func:`con_matcher` and every
    witness script is returned.
    """
    if target.n > 2:
        profile = filter_candidate(target)
        if not profile.p2_ok:
            return SearchResult([], NOTE_SINGLE_DUAL_ATOM, 0)
        if not profile.p1_ok:
            return SearchResult([], NOTE_P1_VIOLATION, 0)
    family = enumerate_family(spec)
    matches = con_matcher(target)
    witnesses = [entry.script for entry in family.members() if matches(entry.diagram)]
    if witnesses:
        note = f"{len(witnesses)} witness(es) among {len(family)} classes"
    else:
        note = f"no witness among {len(family)} classes"
    return SearchResult(witnesses, note, len(family), matches)
