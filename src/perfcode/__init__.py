"""Subgroup perfect codes in Cayley graphs of small finite groups."""

from .codes import (
    CodeVerdict,
    Criterion,
    connection_set,
    decide,
    double_coset_condition,
    find_inverse_closed_transversal,
    is_perfect_code_in_cayley_graph,
    omega_coset_sets,
    omega_criterion,
    search_connection_set,
    square_coset_condition,
    sylow_reduction,
    verdict_to_json,
)
from .construct import (
    alternating,
    build_named,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    quaternion8,
    special_linear_2_3,
    symmetric,
)
from .corpus import (
    CorpusEntry,
    CrossCheckReport,
    Provenance,
    builtin_corpus,
    cross_check,
    make_entry,
    report_emit,
)
from .extraspecial import (
    ExtraspecialClassification,
    Family,
    build_family,
    central_product,
    classify_extraspecial,
    classify_sylow_extraspecial,
    is_extraspecial,
    sylow_2_classification,
)
from .group import (
    FiniteGroup,
    Subgroup,
    closure,
    full_subgroup,
    group_from_permutations,
    group_to_json,
    load_group,
    trivial_subgroup,
)
from .subgroups import (
    CosetDecomposition,
    all_subgroups,
    center,
    coset_decomposition,
    is_normal,
    normalizer,
    sylow_2_subgroup,
    two_part,
)

__version__ = "0.1.0"
