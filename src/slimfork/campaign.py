"""Exhaustive enumeration of the grid-plus-forks family and claim checks.

Enumeration runs breadth first over fork counts. One work unit edits
the cover lists of a single frontier diagram for a fork at every
covering square and keys each edit by its planar key
(:func:`diagram.planar_key`), with no order table built. Unit results
are merged in (key, script) order with first-witness-wins, and only the
first candidate of each new key is built, validated and profiled, so
the family and the chosen witness scripts are identical for any
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
    prime_ideal_congruence,
    principal_ideal,
    swing_ji_congruences,
)
from .construct import (
    ForkEdit,
    ForkScript,
    GridSpec,
    RectangularProfile,
    build_fork,
    check_fork_growth,
    fork_edits,
    grid,
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
    """One isomorphism class: representative, witness script, profile."""

    key: bytes
    diagram: PlanarDiagram
    script: ForkScript
    profile: RectangularProfile
    forks: int

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


def _entry(key: bytes, diagram: PlanarDiagram, script: ForkScript, forks: int) -> FamilyEntry:
    try:
        profile = rectangular_profile(diagram)
    except NotRectangular as exc:
        raise ValidatorFailed(
            f"enumerated diagram from {script.to_obj()} is not rectangular: {exc}"
        ) from exc
    return FamilyEntry(key, diagram, script, profile, forks)


def _expand(entry: FamilyEntry, spec: EnumSpec, rng: Optional[random.Random]) -> list[tuple]:
    """One work unit: the keyed cover-list edit of a fork at every covering square."""
    cells = four_cells(entry.diagram)
    if rng is not None:
        rng.shuffle(cells)
    out = []
    for edit in fork_edits(entry.diagram, cells):
        if len(edit.upper) > spec.max_elements:
            continue
        script = ForkScript(entry.script.grid, entry.script.steps + (edit.cell.o,))
        out.append((planar_key(edit.upper, entry.diagram.bottom), script, edit))
    return out


def _merge(entries: dict[bytes, FamilyEntry], wave: list[tuple], spec: EnumSpec, forks: int) -> list[FamilyEntry]:
    """Add the first candidate of each new key, in (key, script) order.

    A candidate is (key, script, source), the source being a grid or a
    fork edit. An edit is built and validated only when it wins its key:
    equal planar keys mean equal drawings, so validity is the winner's.
    Every other edit checks its growth over its own parent against the
    class representative.
    """
    added = []
    for key, script, source in sorted(wave, key=lambda c: (c[0], c[1].sort_key())):
        is_fork = isinstance(source, ForkEdit)
        entry = entries.get(key)
        if entry is not None:
            if is_fork:
                check_fork_growth(source, entry.diagram)
            continue
        diagram = build_fork(source).diagram if is_fork else source
        entries[key] = entry = _entry(key, diagram, script, forks)
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
    seeds = []
    for p in range(2, min(spec.p_max, spec.max_elements // 2) + 1):
        for q in range(2, min(spec.q_max, spec.max_elements // p) + 1):
            g = grid(GridSpec(p, q))
            seeds.append((planar_key(g.upper, g.bottom), ForkScript(GridSpec(p, q)), g))
    candidates = len(seeds)
    frontier = _merge(entries, seeds, spec, 0)
    for forks in range(1, spec.max_forks + 1):
        units = list(frontier)
        if rng is not None:
            rng.shuffle(units)
        wave: list[tuple] = []
        for unit in units:
            wave.extend(_expand(unit, spec, rng))
        candidates += len(wave)
        frontier = _merge(entries, wave, spec, forks)
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
    when neither boundary element is the top, the two boundary ideals
    are distinct prime ideals whose congruences are two distinct dual
    atoms. not_c3: no congruence lattice is the three-element chain.
    Every verdict is read from J(Con L), which the Swing Lemma engine
    gives without a closure, since every member is slim, planar and
    semimodular; the full congruence lattice is never built. Failures
    are counted and carry the replayable witness script.
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

        profile = entry.profile
        if profile.c_l != lattice.top and profile.c_r != lattice.top:
            ok, detail = _prime_ideal_claim(lattice, profile, ji)
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

    Records both principal ideals, whether they are distinct and
    whether each is prime. Only when all three hold is
    ``distinct_dual_atoms`` added: whether both two-block congruences
    are dual atoms of Con L, decided from ``ji``. Distinct ideals give
    distinct two-block congruences. Returns whether the claim holds
    (exactly when ``distinct_dual_atoms`` is present and true) and the facts.
    """
    left = principal_ideal(lattice, profile.c_l)
    right = principal_ideal(lattice, profile.c_r)
    facts: dict = {
        "c_l": profile.c_l,
        "c_r": profile.c_r,
        "left_ideal": list(left.members),
        "right_ideal": list(right.members),
        "distinct": set(left.members) != set(right.members),
        "left_prime": is_prime_ideal(lattice, left),
        "right_prime": is_prime_ideal(lattice, right),
    }
    if facts["distinct"] and facts["left_prime"] and facts["right_prime"]:
        facts["distinct_dual_atoms"] = all(
            ji.is_dual_atom(prime_ideal_congruence(lattice, ideal))
            for ideal in (left, right)
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
    _, target_up = posets.join_irreducible_order(target.tables.up)
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
