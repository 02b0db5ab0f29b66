"""Exact-arithmetic toolkit for moment polytopes.

Validates the Delzant conditions on rational polytopes, decomposes them
into signed half-open vertex cones for indicator and lattice-point
identities, computes moment-graph cohomology by exact divisibility
constraints, and evaluates fixed-point sums for volumes and push-forwards.
Every computation is over the rationals and is cross-checked against an
independent brute-force oracle.
"""

from .algebra import (
    Poly,
    Vec,
    dot,
    generic_vector,
    poly_quotient_by_linear,
    primitive,
)
from .errors import (
    DegenerateInputError,
    DomainError,
    EmptyRegionError,
    NonSimpleVertexError,
    NotDelzantError,
    NotGenericError,
    UnboundedRegionError,
)
from .polytopes import (
    Polytope,
    SmoothnessReport,
    catalog_specs,
    cube,
    dilate,
    from_halfspaces,
    from_spec,
    hirzebruch,
    lattice_points_oracle,
    simplex,
    smoothness_report,
    tight_box,
    volume_oracle,
)
from .polar import (
    PolarizedCone,
    choose_polarizing_vector,
    is_polarizing,
    polar_decompose,
    signed_indicator_sum,
    signed_lattice_count,
)
from .gkm import (
    MomentGraph,
    betti_numbers,
    facet_class,
    free_module_check,
    gkm_check,
    gkm_degree_basis,
    gkm_dimension,
    moment_graph,
)
from .localization import (
    euler_class_at,
    pushforward,
    volume_localization,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
