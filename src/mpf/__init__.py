"""Exact analysis of modified planar functions and their components.

Everything is computed in exact integer arithmetic: field elements are
ints, truth tables are bit-packed ints, spectra are Gaussian-integer
vectors.  The package provides independent routes to the same planarity
verdict (shifted-derivative permutation tests, flat twisted spectra of
the components, relative-difference-set checks on the graph), so each
route can serve as an oracle for the others.
"""

from .boolfun import TruthTable, from_values, table_from_json
from .errors import FilterDisagreementError, InputError, MpfError
from .gf2n import (
    FieldSpec,
    default_modulus,
    dual_mask,
    fe_mul,
    field_from_json,
    field_to_json,
    make_field,
    poly_is_irreducible,
    sigma,
    trace_n,
)
from .planar import (
    DOPolynomial,
    PlanarVerdict,
    VectorialFunction,
    do_to_table,
    function_from_json,
    function_to_json,
    is_modified_planar_components,
    is_modified_planar_perm,
)
from .rds import (
    GroupSpec,
    RdsReport,
    forbidden_subgroup,
    graph_of,
    group_elements,
    group_for,
    group_identity,
    group_inverse,
    group_op,
    rds_verify_bruteforce,
    rds_verify_characters,
)
from .search import (
    SearchJob,
    SearchReport,
    class_size,
    run_search,
)
from .transforms import (
    GaussianInt,
    Spectrum,
    bent4_witnesses,
    fwht,
    is_flat,
    transform_U,
    transform_V,
)

__version__ = "0.1.0"
