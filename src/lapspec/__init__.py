"""Exact-arithmetic Laplacian integrality decisions for sparse graph families.

The library decides integrality of Laplacian (and signless Laplacian)
spectra exactly, reconstructs and verifies a catalog of parametric
quotient-matrix computations, and exhaustively checks the six-family
classification of integral members of the one- and two-hub families.
"""

from .graphs import (
    FamilyConfig,
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    degree_sequence,
    disjoint_union,
    empty_graph,
    firefly,
    from_graph6,
    graph_to_config,
    is_bipartite,
    is_connected,
    join,
    path,
    quotient_cells,
    realize,
    star,
    to_graph6,
    vertex_connectivity,
)
from .matrices import IntMatrix, char_poly
from .partitions import (
    coarsest_equitable_refinement,
    format_partition,
    parse_partition,
    quotient_matrix,
)
from .polys import (
    DEFAULT_PRECISION,
    LAMBDA,
    MPoly,
    RootReport,
    divides,
    integer_roots,
    interpolate,
    isolate_lowest_root,
    only_integer_roots,
    parse_poly,
    poly_text,
    poly_value,
    split_integer_roots,
)
from .spectra import (
    SpectralValue,
    SpectrumReport,
    algebraic_connectivity_from_poly,
    is_L_integral,
    is_Q_integral,
    kind_matrix,
    kind_poly,
    laplacian,
    signless_laplacian,
    spectrum,
)
from .enumeration import (
    canonical_form,
    enumerate_family,
    theorem_tag,
    verify_theorem,
)
from .families import (
    build_quotient,
    case_config,
    case_ids,
    closed_form_root_check,
    cross_check_with_realization,
    erratum_entries,
    verify_printed_matrix,
    verify_printed_polynomial,
    verify_sign_claims,
)

__version__ = "0.1.0"
