from __future__ import annotations

import hashlib
import time

import pytest

import helpers
from slimfork import (
    ENUM_MAX_ELEMENTS,
    EnumSpec,
    ForkScript,
    GridSpec,
    RectangularProfile,
    build_diagram,
    canonical_key,
    congruence_lattice,
    dual_atom_count,
    enumerate_family,
    four_cells,
    grid,
    insert_fork,
    is_congruence,
    is_graded,
    is_prime_ideal,
    is_semimodular,
    is_slim,
    ji_congruences,
    ji_poset_of,
    ji_width_at_most_two,
    jh_permutation,
    planar_key,
    prime_ideal_congruence,
    principal_congruence,
    principal_ideal,
    rectangular_profile,
    search_representation,
    swing_ji_congruences,
    verify_claims,
)
from slimfork import campaign as campaign_module
from slimfork import congruence as congruence_module
from slimfork.campaign import NOTE_SINGLE_DUAL_ATOM, boundary_ideal_facts
from slimfork.errors import BudgetExceeded, NotDistributive, ValidationError, ValidatorFailed


class TestEnumSpec:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            EnumSpec(1, 4, 0)
        with pytest.raises(ValidationError):
            EnumSpec(2, 2, -1)
        with pytest.raises(ValidationError):
            EnumSpec(2, 2, 0, max_classes=0)

    def test_max_elements_cap(self):
        assert ENUM_MAX_ELEMENTS == 255
        EnumSpec(2, 2, 0, max_elements=ENUM_MAX_ELEMENTS)
        for bad in (-1, ENUM_MAX_ELEMENTS + 1, 2_048):
            with pytest.raises(ValidationError, match="max_elements"):
                EnumSpec(40, 40, 0, max_elements=bad)


class TestEnumerateFamily:
    def test_grid22_one_fork(self):
        family = enumerate_family(EnumSpec(2, 2, 1))
        assert len(family) == 2
        by_forks = {e.forks for e in family.members()}
        assert by_forks == {0, 1}
        assert sum(e.forks == 1 for e in family.members()) == 1

    def test_grids_only_dedupes_transpose(self):
        family = enumerate_family(EnumSpec(3, 3, 0))
        assert len(family) == 3
        scripts = sorted(e.script.to_obj()["grid"] for e in family.members())
        assert scripts == [[2, 2], [2, 3], [3, 3]]

    def test_s7_entry_present(self):
        family = enumerate_family(EnumSpec(2, 2, 1))
        s7 = helpers.s7()
        entry = family.get(planar_key(s7))
        assert entry is not None
        assert canonical_key(entry.diagram) == canonical_key(s7)
        assert entry.script == ForkScript(GridSpec(2, 2), (0,))

    def test_max_elements_prunes(self):
        family = enumerate_family(EnumSpec(2, 2, 2, max_elements=7))
        # the double fork has 10 elements and must be pruned
        assert {e.diagram.n for e in family.members()} == {4, 7}

    def test_empty_when_no_grid_fits(self):
        family = enumerate_family(EnumSpec(2, 2, 1, max_elements=3))
        assert len(family) == 0

    def test_grid_bounds_far_above_the_size_cap_cost_nothing(self):
        start = time.perf_counter()
        family = enumerate_family(EnumSpec(10**9, 10**9, 0, max_elements=6))
        assert time.perf_counter() - start < 1.0
        # the 2x2, 2x3 and 3x2 grids; the last two are one class
        assert family.candidates == 3
        assert sorted(e.diagram.n for e in family.members()) == [4, 6]

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            enumerate_family(EnumSpec(4, 4, 0, max_classes=2))

    def test_soundness_of_every_entry(self):
        family = enumerate_family(EnumSpec(3, 3, 1))
        for entry in family.members():
            d = entry.diagram
            assert is_slim(d) and is_semimodular(d) and is_graded(d)
            profile = rectangular_profile(d)
            assert profile == entry.profile

    def test_local_tests_match_oracles_on_acceptance_family(self, campaign):
        family, _, _ = campaign
        for entry in family.members():
            d = entry.diagram
            assert is_semimodular(d) and helpers.all_pairs_semimodular(d)
            assert ji_width_at_most_two(d) and is_slim(d)

    def test_scripts_replay_to_same_key(self):
        from slimfork import run_script

        family = enumerate_family(EnumSpec(3, 3, 2, max_elements=20))
        for entry in family.members():
            replay, _ = run_script(entry.script)
            assert planar_key(replay) == entry.key
            assert canonical_key(replay) == canonical_key(entry.diagram)

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_shuffled_work_order_is_identical(self, seed):
        spec = EnumSpec(3, 3, 2, max_elements=24)
        base = enumerate_family(spec)
        shuffled = enumerate_family(spec, shuffle_seed=seed)
        assert base.keys() == shuffled.keys()
        assert [e.script for e in base.members()] == [e.script for e in shuffled.members()]

    def test_acceptance_family_digest(self, campaign):
        # sha256 over the members in key order, as at the commit before
        # candidates were keyed by permutation
        digest = hashlib.sha256()
        for e in campaign[0].members():
            digest.update(e.key + repr(e.script.to_obj()).encode())
        assert digest.hexdigest() == "756d85b639e12ddcfdaa7871eb64f214946b1c4f7445aeb3e3a3fa84ce483344"


class TestJordanHolderPermutation:
    @pytest.mark.parametrize("p", range(2, 7))
    @pytest.mark.parametrize("q", range(2, 7))
    def test_grid(self, p, q):
        pi, _ = jh_permutation(grid(GridSpec(p, q)))
        assert pi == tuple(range(q, q + p - 1)) + tuple(range(1, q))

    def test_refuses_a_diamond(self):
        # the three atom edges of M3 lie in one class, so no trajectory
        # crosses both boundary chains once
        with pytest.raises(ValidatorFailed, match="boundary chain"):
            jh_permutation(helpers.m3())

    def test_every_class_has_its_predicted_permutation_and_size(self, acceptance_family):
        for e in acceptance_family.members():
            pi, _ = jh_permutation(e.diagram)
            assert pi == e.perm
            assert e.diagram.n == len(pi) + 1 + campaign_module._inversions(pi)

    def test_insertion_rule_on_acceptance_forks(self, acceptance_family):
        spec = acceptance_family.spec
        forks = 0
        for e in acceptance_family.members():
            if e.forks == spec.max_forks:
                continue
            pi, trajectory = jh_permutation(e.diagram)
            for cell in four_cells(e.diagram):
                child = insert_fork(e.diagram, cell).diagram
                if child.n > spec.max_elements:
                    continue
                forks += 1
                i, k = trajectory[cell.o, cell.a_l], trajectory[cell.o, cell.a_r]
                assert jh_permutation(child)[0] == campaign_module._fork_permutation(pi, i, k)
        assert forks == 1728

    def test_winner_must_fit_its_permutation(self, monkeypatch):
        real = campaign_module._fork_permutation

        def swapped(pi, i, k):
            # one inversion more or fewer than the fork has
            perm = real(pi, i, k)
            return (perm[1], perm[0]) + perm[2:]

        monkeypatch.setattr(campaign_module, "_fork_permutation", swapped)
        with pytest.raises(ValidatorFailed, match="do not fit its Jordan–Hölder permutation"):
            enumerate_family(EnumSpec(3, 3, 1))

    def test_expanded_class_must_have_its_predicted_permutation(self, monkeypatch):
        # the inverse has the size, the length and the orbit key of the
        # true permutation, so only the read-off check catches it
        real = campaign_module._fork_permutation

        def inverted(pi, i, k):
            perm = real(pi, i, k)
            return tuple(sorted(range(1, len(perm) + 1), key=lambda x: perm[x - 1]))

        monkeypatch.setattr(campaign_module, "_fork_permutation", inverted)
        enumerate_family(EnumSpec(3, 3, 1))
        with pytest.raises(ValidatorFailed, match="not the predicted"):
            enumerate_family(EnumSpec(3, 3, 2))

    def test_orbit_key_may_not_split_a_class(self, monkeypatch):
        # keyed by pi alone, the 2x3 grid and its mirror image, the 3x2 grid,
        # both win
        monkeypatch.setattr(campaign_module, "_orbit_key", lambda pi: pi)
        with pytest.raises(ValidatorFailed, match="under another orbit key"):
            enumerate_family(EnumSpec(3, 3, 0))


class TestAgainstGenericKeyEnumeration:
    """Planar keys before validation give the family of the old path.

    The old path builds and validates every candidate and keys it with
    the generic canonical key.
    """

    @pytest.fixture(scope="class")
    def oracle(self):
        return helpers.generic_key_enumeration(helpers.ACCEPTANCE_SPEC)

    def test_every_candidate_validates(self, oracle, campaign):
        candidates, _ = oracle
        assert len(candidates) == campaign[0].candidates == 1737
        assert sum(not script.steps for script, _ in candidates) == 9

    def test_planar_and_generic_keys_partition_alike(self, oracle):
        candidates, _ = oracle

        def partition(key):
            groups: dict = {}
            for i, (_, diagram) in enumerate(candidates):
                groups.setdefault(key(diagram), set()).add(i)
            return {frozenset(group) for group in groups.values()}

        assert partition(planar_key) == partition(canonical_key)

    def test_orbit_and_planar_keys_partition_alike(self, oracle):
        candidates, _ = oracle
        groups: dict = {}
        for _, d in candidates:
            groups.setdefault(campaign_module._orbit_key(jh_permutation(d)[0]), set()).add(
                planar_key(d)
            )
        assert all(len(keys) == 1 for keys in groups.values())
        assert len(groups) == len({planar_key(d) for _, d in candidates})

    def test_family_equals_oracle(self, oracle, campaign):
        _, classes = oracle
        expected = {
            planar_key(d): (script, d.upper, d.lower)
            for script, d in classes.values()
        }
        got = {
            e.key: (e.script, e.diagram.upper, e.diagram.lower)
            for e in campaign[0].members()
        }
        assert got == expected


class TestVerifyClaims:
    def test_small_family_all_pass(self):
        family = enumerate_family(EnumSpec(3, 3, 1))
        report = verify_claims(family)
        assert report.ok()
        assert report.family_size == len(family)
        for name in ("p2", "p1", "prime_ideals", "not_c3"):
            assert report.checked[name] == len(family)
            assert report.failed[name] == 0

    def test_empty_family_vacuous(self):
        family = enumerate_family(EnumSpec(2, 2, 0, max_elements=3))
        report = verify_claims(family)
        assert report.ok()
        assert report.family_size == 0
        assert all(v == 0 for v in report.checked.values())

    def test_s7_dual_atoms_are_the_leg_congruences(self):
        family = enumerate_family(EnumSpec(2, 2, 2))
        report = verify_claims(family)
        assert report.ok()
        s7r = helpers.s7_result()
        s7 = s7r.diagram
        con = congruence_lattice(s7)
        coatoms = {con.members[i] for i in con.coatom_indices()}
        expected = {
            principal_congruence(s7, 0, s7r.left_leg[0]),
            principal_congruence(s7, 0, s7r.right_leg[0]),
        }
        assert coatoms == expected
        assert expected == {
            prime_ideal_congruence(s7, principal_ideal(s7, 2)),
            prime_ideal_congruence(s7, principal_ideal(s7, 1)),
        }

    def test_report_shape(self):
        family = enumerate_family(EnumSpec(2, 2, 1))
        obj = verify_claims(family).to_obj()
        assert obj["ok"] is True
        assert obj["family_size"] == 2
        assert obj["enum_spec"]["p_max"] == 2
        assert "wall_time_s" in obj
        assert obj["stats"] == {"candidates": 2, "classes": 2}
        untimed = verify_claims(family).to_obj(include_timing=False)
        assert "wall_time_s" not in untimed and "stats" not in untimed

    def test_stats_on_acceptance_campaign(self, campaign):
        family, report, _ = campaign
        assert family.candidates == 1737
        assert report.to_obj()["stats"] == {"candidates": 1737, "classes": 842}

    def test_no_compatibility_scan(self, campaign, monkeypatch):
        family, report, _ = campaign

        def refuse(diagram, part):
            raise AssertionError("verify_claims ran a compatibility scan")

        monkeypatch.setattr(congruence_module, "is_congruence", refuse)
        untimed = verify_claims(family).to_obj(include_timing=False)
        assert untimed == report.to_obj(include_timing=False)


def _pair_table(lattice, collapses):
    """A pair test read on every pair of an element with the bottom or the top."""
    return [collapses(x, e) for x in range(lattice.n) for e in (lattice.bottom, lattice.top)]


class _RecordingJi:
    """A JiPoset stand-in that records each is_dual_atom call as it is made.

    The pair test may close over a loop variable, so it is read at call
    time, not afterwards.
    """

    def __init__(self, lattice, ji):
        self.lattice, self.ji, self.calls = lattice, ji, []

    def is_dual_atom(self, collapses):
        verdict = self.ji.is_dual_atom(collapses)
        self.calls.append((verdict, _pair_table(self.lattice, collapses)))
        return verdict


def assert_mask_tests_match_partitions(lattice, profile, ji):
    """The prime-ideal claim's mask tests agree with the two-block partitions.

    Each partition comes from the oracle ``prime_ideal_congruence`` and
    must pass the full compatibility scan. Each mask test must decide
    ``is_dual_atom`` as the partition's ``same`` does, and agree with it
    on every pair with the bottom or the top.
    """
    recording = _RecordingJi(lattice, ji)
    ok, _ = boundary_ideal_facts(lattice, profile, recording)
    assert ok and len(recording.calls) == 2
    for c, (verdict, table) in zip((profile.c_l, profile.c_r), recording.calls):
        part = prime_ideal_congruence(lattice, principal_ideal(lattice, c))
        assert is_congruence(lattice, part)
        assert verdict == ji.is_dual_atom(part.same)
        assert table == _pair_table(lattice, part.same)


class TestPrimeIdealMasks:
    """The prime-ideal claim reads the ideal masks; the partitions are its oracle."""

    def test_every_acceptance_class(self, acceptance_family):
        for entry in acceptance_family.members():
            ji = swing_ji_congruences(entry.diagram)
            assert_mask_tests_match_partitions(entry.diagram, entry.profile, ji)

    def test_every_prime_principal_ideal_of_the_corpus(self):
        # pairs each prime with the next, so every prime is read on both sides;
        # the 2-element chain has a single prime ideal and no pair
        paired = 0
        for diagram in helpers.lattice_corpus():
            primes = [x for x in range(diagram.n) if is_prime_ideal(diagram, principal_ideal(diagram, x))]
            if len(primes) < 2:
                continue
            ji = ji_congruences(diagram)
            for x, y in zip(primes, primes[1:] + primes[:1]):
                assert_mask_tests_match_partitions(diagram, RectangularProfile(x, y), ji)
                paired += 1
        assert paired == 36


class TestDualAtomCount:
    def test_grid_rank_on_every_acceptance_class(self, acceptance_family):
        # the paper's "at least two", as the exact count (p - 1) + (q - 1)
        for entry in acceptance_family.members():
            count = dual_atom_count(swing_ji_congruences(entry.diagram).up)
            assert count == entry.script.grid.p + entry.script.grid.q - 2, entry.script.to_obj()


class TestSearchRepresentation:
    def test_c3_short_circuits(self):
        for spec in [EnumSpec(2, 2, 0), EnumSpec(3, 3, 1), EnumSpec(4, 4, 2)]:
            result = search_representation(helpers.chain(3), spec)
            assert result.witnesses == []
            assert result.note == NOTE_SINGLE_DUAL_ATOM
            assert result.scanned == 0

    def test_b2_witnessed_by_grid22(self):
        result = search_representation(grid(GridSpec(2, 2)), EnumSpec(3, 3, 0))
        assert ForkScript(GridSpec(2, 2)) in result.witnesses
        assert result.scanned == 3

    def test_c2_scans_and_misses(self):
        result = search_representation(helpers.chain(2), EnumSpec(3, 3, 1))
        assert result.witnesses == []
        assert result.scanned > 0
        # every family member has at least two dual atoms in its congruence lattice
        for entry in enumerate_family(EnumSpec(3, 3, 1)).members():
            con = congruence_lattice(entry.diagram)
            assert dual_atom_count(ji_poset_of(con).up) == len(con.coatom_indices()) >= 2

    def test_longer_chains_rejected(self):
        for k in (4, 5):
            result = search_representation(helpers.chain(k), EnumSpec(2, 2, 1))
            assert result.witnesses == [] and result.note == NOTE_SINGLE_DUAL_ATOM

    def test_non_distributive_target(self):
        with pytest.raises(NotDistributive):
            search_representation(helpers.m3(), EnumSpec(2, 2, 0))

    def test_s7_con_witnessed(self):
        from slimfork import lattice_isomorphic

        # a square on a one-step stem: the congruence lattice of the
        # single-fork diagram
        target = build_diagram([[1], [2, 3], [4], [4], []], name="square-on-stem")
        assert lattice_isomorphic(congruence_lattice(helpers.s7()), target)
        result = search_representation(target, EnumSpec(2, 2, 1))
        assert ForkScript(GridSpec(2, 2), (0,)) in result.witnesses


class TestSearchAgainstConLatticeOracle:
    """Birkhoff search equals the full Con L plus lattice_isomorphic scan."""

    SPEC = EnumSpec(4, 4, 1, 40)

    @pytest.fixture(scope="class")
    def family(self):
        return enumerate_family(self.SPEC)

    @pytest.fixture(scope="class")
    def cons(self, family):
        return helpers.con_diagrams(family)

    @pytest.mark.parametrize(
        "target",
        [helpers.chain(3)] + [helpers.boolean(k) for k in range(2, 6)],
        ids=lambda d: d.name,
    )
    def test_named_targets(self, cons, target):
        expected = helpers.con_lattice_witnesses(target, cons)
        assert search_representation(target, self.SPEC).witnesses == expected

    def test_con_of_every_one_fork_class(self, family, cons):
        one_fork = 0
        for entry, (script, target) in zip(family.members(), cons):
            if entry.forks != 1:
                continue
            one_fork += 1
            expected = helpers.con_lattice_witnesses(target, cons)
            assert script in expected
            got = search_representation(target, self.SPEC).witnesses
            assert got == expected, script.to_obj()
        assert one_fork == 21
