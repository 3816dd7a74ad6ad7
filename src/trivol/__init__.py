"""trivol: exact volume of the trilinear-graph convex hull over a box.

The convex hull of {(x1*x2*x3, x1, x2, x3)} over a box [a1,b1] x [a2,b2]
x [a3,b3] with 0 <= a_i < b_i is a 4-polytope on eight extreme points.
This package computes its exact volume three independent ways (a closed
formula, a mixed-volume slice integration, and a brute-force 4D hull)
and cross-checks them with rational arithmetic, no tolerances anywhere.
"""

from .errors import (
    DegenerateHull,
    DegenerateTetrahedron,
    EmptyPolytope,
    InternalDisagreement,
    InvalidBounds,
    OmegaViolated,
    TrivolError,
)
from .geometry import (
    Tetrahedron,
    facet_normal_set,
    hull_volume_3d,
    orient,
    support,
    tetra_volume,
)
from .mixed_volume import (
    VolumeCubic,
    fit_cubic,
    minkowski_sum_vertices,
    mixed_volume_against,
    volume_cubic,
)
from .oracle import (
    Facet4,
    hull_facets_4d,
    hull_volume_4d,
    monte_carlo_volume,
)
from .rational import format_rational, parse_rational
from .trilinear import (
    Box3Bounds,
    OmegaBox,
    PipelineIntermediates,
    VolumeReport,
    build_Q,
    build_R,
    closed_form_volume,
    cross_section_volume,
    extreme_points,
    hull_volume_formula,
    integrate_cross_sections,
    mixed_volumes_QR,
    omega_check,
    omega_dprime_check,
    omega_normalize,
    omega_prime_check,
    ordering_values,
    pipeline_volume,
    q_facet_directions,
    q_vertex_points,
    r_facet_directions,
    r_vertex_points,
    support_max_z,
)

__version__ = "0.1.0"

__all__ = [
    "TrivolError",
    "InvalidBounds",
    "DegenerateTetrahedron",
    "DegenerateHull",
    "EmptyPolytope",
    "OmegaViolated",
    "InternalDisagreement",
    "parse_rational",
    "format_rational",
    "Tetrahedron",
    "orient",
    "facet_normal_set",
    "support",
    "tetra_volume",
    "hull_volume_3d",
    "VolumeCubic",
    "mixed_volume_against",
    "minkowski_sum_vertices",
    "fit_cubic",
    "volume_cubic",
    "Box3Bounds",
    "OmegaBox",
    "PipelineIntermediates",
    "VolumeReport",
    "ordering_values",
    "omega_normalize",
    "omega_check",
    "omega_prime_check",
    "omega_dprime_check",
    "q_vertex_points",
    "r_vertex_points",
    "cross_section_volume",
    "build_Q",
    "build_R",
    "q_facet_directions",
    "r_facet_directions",
    "support_max_z",
    "mixed_volumes_QR",
    "integrate_cross_sections",
    "hull_volume_formula",
    "closed_form_volume",
    "pipeline_volume",
    "extreme_points",
    "Facet4",
    "hull_facets_4d",
    "hull_volume_4d",
    "monte_carlo_volume",
    "__version__",
]
