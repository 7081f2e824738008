from __future__ import annotations

import time

import pytest

import helpers
from slimfork import EnumSpec, GridSpec, enumerate_family, grid, verify_claims


@pytest.fixture(scope="session")
def campaign():
    """The acceptance campaign: family, claim report and elapsed seconds."""
    start = time.perf_counter()
    family = enumerate_family(helpers.ACCEPTANCE_SPEC)
    report = verify_claims(family)
    elapsed = time.perf_counter() - start
    return family, report, elapsed


@pytest.fixture(scope="session")
def acceptance_family(campaign):
    """The 842 classes of the acceptance campaign."""
    return campaign[0]


@pytest.fixture(scope="session")
def search_family():
    """The 137 classes that the search-batch benchmark scans."""
    return enumerate_family(EnumSpec(4, 4, 2))


@pytest.fixture(scope="session")
def campaign_oracle_ji(campaign):
    """Each acceptance class with its J(Con L) from the all-cover-pairs oracle."""
    family, _, _ = campaign
    return [(entry, helpers.all_cover_pairs_ji(entry.diagram)) for entry in family.members()]


@pytest.fixture
def c2():
    return helpers.chain(2)


@pytest.fixture
def c3():
    return helpers.chain(3)


@pytest.fixture
def c4():
    return helpers.chain(4)


@pytest.fixture
def g22():
    return grid(GridSpec(2, 2))


@pytest.fixture
def g23():
    return grid(GridSpec(2, 3))


@pytest.fixture
def g32():
    return grid(GridSpec(3, 2))


@pytest.fixture
def g33():
    return grid(GridSpec(3, 3))


@pytest.fixture
def n5():
    return helpers.n5()


@pytest.fixture
def m3():
    return helpers.m3()


@pytest.fixture
def s7_result():
    return helpers.s7_result()


@pytest.fixture
def s7(s7_result):
    return s7_result.diagram
