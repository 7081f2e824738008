"""Slim rectangular lattices by fork insertion, their congruence
lattices, and exhaustive verification of congruence properties over the
grid-plus-forks family."""

__version__ = "0.1.0"

from .diagram import (
    DIAGRAM_MAX_ELEMENTS,
    FourCell,
    PlanarDiagram,
    boundary_chains,
    build_diagram,
    canonical_key,
    four_cells,
    is_graded,
    is_isomorphic,
    is_semimodular,
    is_slim,
    ji_width_at_most_two,
    planar_key,
)
from .construct import (
    ForkResult,
    ForkScript,
    GridSpec,
    RectangularProfile,
    cell_at,
    grid,
    insert_fork,
    rectangular_profile,
    run_script,
)
from .congruence import (
    CandidateProfile,
    CongruenceLattice,
    JiPoset,
    Partition,
    all_congruences_oracle,
    at_most_two_covers,
    congruence_lattice,
    dual_atom_count,
    filter_candidate,
    is_congruence,
    is_prime_ideal,
    jh_permutation,
    ji_congruences,
    ji_poset_of,
    lattice_isomorphic,
    prime_ideal_congruence,
    principal_congruence,
    principal_ideal,
    swing_ji_congruences,
)
from .campaign import (
    ClaimReport,
    ENUM_MAX_ELEMENTS,
    EnumSpec,
    FamilyEntry,
    FamilyIndex,
    SearchResult,
    con_matcher,
    enumerate_family,
    search_representation,
    verify_claims,
)
from . import errors, io, posets

__all__ = [name for name in dir() if not name.startswith("_")]
