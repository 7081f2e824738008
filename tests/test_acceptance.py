"""Acceptance suite: one test per criterion, printing one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The family campaign
(grids up to 4x4, up to 3 forks, at most 40 elements) is built once per
session by the ``campaign`` fixture in conftest.py and shared; the
determinism criterion rebuilds it under a shuffled work order.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import helpers
from slimfork import (
    EnumSpec,
    GridSpec,
    all_congruences_oracle,
    at_most_two_covers,
    canonical_key,
    congruence_lattice,
    dual_atom_count,
    enumerate_family,
    filter_candidate,
    four_cells,
    grid,
    insert_fork,
    is_graded,
    is_semimodular,
    is_slim,
    ji_congruences,
    ji_poset_of,
    planar_key,
    prime_ideal_congruence,
    principal_congruence,
    principal_ideal,
    rectangular_profile,
    search_representation,
    verify_claims,
)
from slimfork.campaign import NOTE_SINGLE_DUAL_ATOM

FAMILY_SPEC = helpers.ACCEPTANCE_SPEC


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({title}): PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence on the small corpus"):
        start = time.perf_counter()
        for diagram in helpers.oracle_corpus():
            assert diagram.n <= 8
            oracle = all_congruences_oracle(diagram)
            engine = congruence_lattice(diagram)
            assert engine.members == oracle.members, diagram.name
            assert engine.up == oracle.up, diagram.name
            oracle_members = oracle.members
            for a in range(diagram.n):
                for b in range(diagram.n):
                    containing = [p for p in oracle_members if p.same(a, b)]
                    minimal = containing[0]
                    for part in containing[1:]:
                        minimal = minimal.meet(part)
                    assert principal_congruence(diagram, a, b) == minimal, (
                        diagram.name, a, b,
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_2_seven_element_fork_facts():
    with criterion(2, "facts about the single-fork 7-element lattice"):
        result = helpers.s7_result()
        s7 = result.diagram
        u_l, u_r = result.left_leg[0], result.right_leg[0]
        a_l, a_r = 2, 1

        con = congruence_lattice(s7)
        assert len(con) == 5
        assert set(con.members) == set(all_congruences_oracle(s7).members)

        ji = ji_poset_of(con)
        assert len(ji) == 3
        gamma = principal_congruence(s7, u_l, a_l)
        alpha = principal_congruence(s7, 0, u_l)
        beta = principal_congruence(s7, 0, u_r)
        assert set(ji.members) == {gamma, alpha, beta}
        gi, ai, bi = (ji.members.index(p) for p in (gamma, alpha, beta))
        assert (ji.up[gi] >> ai) & 1 and (ji.up[gi] >> bi) & 1
        assert not (ji.up[ai] >> bi) & 1 and not (ji.up[bi] >> ai) & 1

        assert dual_atom_count(ji.up) == len(con.coatom_indices()) == 2
        coatoms = {con.members[i] for i in con.coatom_indices()}
        theta_l = prime_ideal_congruence(s7, principal_ideal(s7, a_l))
        theta_r = prime_ideal_congruence(s7, principal_ideal(s7, a_r))
        assert coatoms == {theta_l, theta_r}

        production = ji_congruences(s7)
        assert at_most_two_covers(production.up) is True
        assert dual_atom_count(production.up) == 2


def test_criterion_3_grid_congruence_lattices():
    with criterion(3, "grid congruence lattices are Boolean"):
        start = time.perf_counter()
        for p in range(2, 5):
            for q in range(2, 5):
                con = congruence_lattice(grid(GridSpec(p, q)))
                k = p + q - 2
                assert len(con) == 2 ** k, (p, q)
                assert len(con.atom_indices()) == k, (p, q)
                assert len(con.coatom_indices()) == k, (p, q)
                ji = ji_poset_of(con)
                assert len(ji) == k and ji.maximal_indices() == tuple(range(k))
                assert set(ji.members) == {con.members[i] for i in con.atom_indices()}
                assert dual_atom_count(ji.up) == len(con.coatom_indices()) >= 2
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"grid facts took {elapsed:.1f}s"


def test_criterion_4_family_p2(campaign):
    family, report, elapsed = campaign
    with criterion(4, "two dual atoms across the enumerated family"):
        assert len(family) > 0
        members = family.members()
        assert all(e.diagram.n > 2 for e in members)
        assert report.checked["p2"] == len(members)
        assert report.failed["p2"] == 0, [
            c for c in report.counterexamples if c["claim"] == "p2"
        ]
        assert elapsed < 300.0, f"campaign took {elapsed:.1f}s"


def test_criterion_5_boundary_prime_ideals(campaign):
    family, report, _ = campaign
    with criterion(5, "boundary ideals are distinct prime ideals and dual atoms"):
        members = family.members()
        applicable = [
            e for e in members
            if e.profile.c_l != e.diagram.top and e.profile.c_r != e.diagram.top
        ]
        assert report.checked["prime_ideals"] == len(applicable)
        assert report.failed["prime_ideals"] == 0, [
            c for c in report.counterexamples if c["claim"] == "prime_ideals"
        ]
        # doubly-irreducible boundary elements are never the top here
        assert len(applicable) == len(members)


def test_criterion_6_family_p1(campaign):
    family, report, _ = campaign
    with criterion(6, "two-cover bound across the enumerated family"):
        assert report.checked["p1"] == len(family)
        assert report.failed["p1"] == 0, [
            c for c in report.counterexamples if c["claim"] == "p1"
        ]


def test_criterion_7_three_chain_not_representable():
    with criterion(7, "the three-element chain is rejected by the dual-atom filter"):
        c3 = helpers.chain(3)
        for spec in (
            EnumSpec(2, 2, 0),
            EnumSpec(3, 3, 1),
            EnumSpec(4, 4, 2),
            EnumSpec(4, 4, 3),
        ):
            result = search_representation(c3, spec)
            assert result.witnesses == []
            assert result.note == NOTE_SINGLE_DUAL_ATOM
            assert result.scanned == 0  # rejected before any scan
        for k in range(3, 8):
            assert not filter_candidate(helpers.chain(k)).p2_ok
        assert not filter_candidate(helpers.single_coatom_candidate()).p2_ok


def test_criterion_8_fork_insertion_invariants(campaign):
    family, _, _ = campaign
    with criterion(8, "fork bookkeeping and validators on every insertion"):
        for entry in family.members():
            diagram = grid(entry.script.grid)
            for o_id in entry.script.steps:
                cells = [c for c in four_cells(diagram) if c.o == o_id]
                assert len(cells) == 1
                before_n = diagram.n
                before_h = diagram.height(diagram.top)
                result = insert_fork(diagram, cells[0])
                diagram = result.diagram
                assert diagram.n == before_n + 1 + len(result.left_leg) + len(result.right_leg)
                assert diagram.height(diagram.top) == before_h + 1
                assert is_slim(diagram) and is_semimodular(diagram) and is_graded(diagram)
                rectangular_profile(diagram)
            assert planar_key(diagram) == entry.key
            assert canonical_key(diagram) == canonical_key(entry.diagram)
        for p in range(2, 5):
            for q in range(2, 5):
                g = grid(GridSpec(p, q))
                for cell in four_cells(g):
                    i, j = divmod(cell.o, q)
                    result = insert_fork(g, cell)
                    assert len(result.left_leg) == j + 1
                    assert len(result.right_leg) == i + 1


def test_criterion_9_determinism_under_shuffled_work_order(campaign):
    family, report, _ = campaign
    with criterion(9, "shuffled work order reproduces the campaign byte for byte"):
        shuffled_family = enumerate_family(FAMILY_SPEC, shuffle_seed=271828)
        assert shuffled_family.keys() == family.keys()
        assert [e.script for e in shuffled_family.members()] == [
            e.script for e in family.members()
        ]
        shuffled_report = verify_claims(shuffled_family)
        base_bytes = json.dumps(report.to_obj(include_timing=False), sort_keys=True)
        shuffled_bytes = json.dumps(
            shuffled_report.to_obj(include_timing=False), sort_keys=True
        )
        assert base_bytes == shuffled_bytes
