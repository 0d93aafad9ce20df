"""Exact analysis of modified planar functions and their components.

Everything is computed in exact integer arithmetic: field elements are
ints, truth tables are bit-packed ints, spectra are Gaussian-integer
vectors.  The package provides independent routes to the same planarity
verdict (shifted-derivative permutation tests, flat twisted spectra of
the components, relative-difference-set checks on the graph), so each
route can serve as an oracle for the others.
"""

from .boolfun import TruthTable, from_values
from .errors import FilterDisagreementError, InputError, MpfError
from .gf2n import (
    fe_mul,
    make_field,
    sigma,
    trace_n,
)
from .planar import (
    DOPolynomial,
    VectorialFunction,
    do_to_table,
    is_modified_planar_components,
    is_modified_planar_perm,
)
from .rds import (
    graph_of,
    group_for,
    rds_verify_bruteforce,
    rds_verify_characters,
)
from .search import (
    SearchJob,
    run_search,
)
from .transforms import (
    bent4_witnesses,
    is_flat,
    transform_U,
    transform_V,
)

__version__ = "0.1.0"
