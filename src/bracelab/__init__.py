"""bracelab: finite skew braces, from construction to Hopf-Galois counts.

A skew brace is one finite set carrying two group operations tied
together by a compatibility law.  This package builds them from
multiplication tables, nilpotent algebras, and exact factorizations;
validates the law, read directly or through the holomorph; counts the
Hopf-Galois structures a brace induces; and enumerates all braces on a
small additive group through regular subgroups of its holomorph.

The :mod:`bracelab.cli` module exposes the same operations as the
``bracelab`` command.
"""

from .algebras import (
    CATALOG_NAMES,
    NilpotentAlgebra,
    additive_group,
    catalog,
    circle_group,
    cubes_vanish,
    cyclic_ring,
    make_algebra,
    power_ideal_dims,
    quasi_inverse,
    to_brace,
)
from .braces import (
    CounterexampleTriple,
    ExponentReport,
    HolomorphWitness,
    SkewBrace,
    are_brace_isomorphic,
    brace_automorphism_group,
    brace_from_groups,
    exponent_compare,
    find_axiom_failures,
    is_biskew,
    is_two_sided,
    l_map,
    make_brace,
    opposite_brace,
    prepare_brace_groups,
    square_agreement_set,
    trivial_brace,
    validate_direct,
    validate_via_holomorph,
)
from .census import (
    BraceCensus,
    CensusEntry,
    classify_braces,
    enumerate_braces,
)
from .errors import BraceLabError
from .factorizations import (
    ExactFactorization,
    S4Report,
    byott_embedding,
    circle_from_factorization,
    demo_s4,
    is_semidirect,
    left_group,
    pair_group,
    right_group,
    validate_factorization,
)
from .formats import (
    read_algebra,
    read_brace,
    read_brace_tables,
    read_group,
    write_algebra,
    write_brace,
    write_group,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    PermRepresentation,
    abelian_group,
    are_isomorphic,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    generating_sequence,
    heisenberg_group,
    holomorph,
    left_regular,
    m3_group,
    make_group,
    recognize,
    semidirect_product,
    subgroup_closure,
    symmetric_group,
)
from .hgs import HGSCountReport, ReciprocityReport, count_hgs, reciprocity_check
from .perms import (
    Perm,
    PermutationGroup,
    compose,
    cycle_string,
    parse_cycles,
    perm_order,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # groups
    "FiniteGroup", "GroupHom", "PermRepresentation", "make_group",
    "cyclic_group", "abelian_group", "symmetric_group", "dihedral_group",
    "heisenberg_group", "m3_group", "direct_product", "semidirect_product",
    "subgroup_closure", "automorphism_group", "are_isomorphic",
    "generating_sequence", "left_regular", "holomorph", "recognize",
    # permutations
    "Perm", "PermutationGroup", "compose", "cycle_string", "parse_cycles",
    "perm_order",
    # braces
    "SkewBrace", "CounterexampleTriple", "HolomorphWitness", "ExponentReport",
    "make_brace", "prepare_brace_groups", "brace_from_groups",
    "validate_direct", "validate_via_holomorph", "find_axiom_failures",
    "trivial_brace", "opposite_brace", "l_map", "is_biskew", "is_two_sided",
    "brace_automorphism_group", "exponent_compare", "square_agreement_set",
    "are_brace_isomorphic",
    # algebras
    "NilpotentAlgebra", "make_algebra", "cyclic_ring", "catalog",
    "CATALOG_NAMES", "power_ideal_dims", "cubes_vanish", "quasi_inverse",
    "additive_group", "circle_group", "to_brace",
    # factorizations
    "ExactFactorization", "validate_factorization", "left_group",
    "right_group", "pair_group", "circle_from_factorization",
    "byott_embedding", "is_semidirect", "S4Report", "demo_s4",
    # counting and enumeration
    "HGSCountReport", "ReciprocityReport", "count_hgs", "reciprocity_check",
    "BraceCensus", "CensusEntry", "enumerate_braces", "classify_braces",
    # files
    "read_group", "write_group", "read_brace", "read_brace_tables",
    "write_brace", "read_algebra", "write_algebra",
    # errors
    "BraceLabError",
]
