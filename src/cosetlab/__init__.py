"""Coset algebra on small finite groups: counting laws for how left cosets
of several subgroups meet, and exhaustive searches for pairwise disjoint
coset families."""

__version__ = "0.1.0"

from .cache import CacheRecord, cache_lattice, cached_subgroups, spec_hash
from .catalog import CATALOG, catalog_names, catalog_spec, load_catalog_group
from .cosets import (
    coset_labels,
    disjointable,
    left_cosets,
    meeting_matrix,
)
from .counting import (
    RValue,
    TripleCensus,
    TripleInequalities,
    census,
    lattice_census,
    r_strict_upper,
    r_value,
    triple_inequalities,
    triple_orbits,
)
from .errors import (
    CacheCorrupt,
    CacheStale,
    CliqueCapExceeded,
    ConsistencyError,
    CosetlabError,
    CounterOverflow,
    GroupSpecError,
    NotAGroup,
    OrderCapExceeded,
    ParentMismatch,
    SubgroupCountCapExceeded,
    UnknownFamily,
)
from .groups import FiniteGroup, GroupSpec, direct_product, load_group
from .lemmas import LEMMA_IDS, LemmaSuiteResult, run_lemma_suite
from .subgroups import (
    Lattice,
    Subgroup,
    close_generators,
    enumerate_subgroups,
    subgroup_from_elements,
)
from .verifier import (
    PairRows,
    PairStats,
    VerificationReport,
    Violation,
    candidate_cliques,
    pair_table,
    search_disjoint_tuple,
    verify_group,
)


__all__ = [
    "CATALOG",
    "CacheCorrupt",
    "CacheRecord",
    "CacheStale",
    "CliqueCapExceeded",
    "ConsistencyError",
    "CosetlabError",
    "CounterOverflow",
    "FiniteGroup",
    "GroupSpec",
    "GroupSpecError",
    "LEMMA_IDS",
    "Lattice",
    "LemmaSuiteResult",
    "NotAGroup",
    "OrderCapExceeded",
    "PairRows",
    "PairStats",
    "ParentMismatch",
    "RValue",
    "Subgroup",
    "SubgroupCountCapExceeded",
    "TripleCensus",
    "TripleInequalities",
    "UnknownFamily",
    "VerificationReport",
    "Violation",
    "cache_lattice",
    "cached_subgroups",
    "candidate_cliques",
    "catalog_names",
    "catalog_spec",
    "census",
    "close_generators",
    "coset_labels",
    "direct_product",
    "disjointable",
    "enumerate_subgroups",
    "lattice_census",
    "left_cosets",
    "load_catalog_group",
    "load_group",
    "meeting_matrix",
    "pair_table",
    "r_strict_upper",
    "r_value",
    "run_lemma_suite",
    "search_disjoint_tuple",
    "spec_hash",
    "subgroup_from_elements",
    "triple_inequalities",
    "triple_orbits",
    "verify_group",
]
