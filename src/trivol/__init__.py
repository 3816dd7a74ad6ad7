"""trivol: exact volume of the trilinear-graph convex hull over a box.

The convex hull of {(x1*x2*x3, x1, x2, x3)} over a box [a1,b1] x [a2,b2]
x [a3,b3] with 0 <= a_i < b_i is a 4-polytope on eight extreme points.
This package computes its exact volume three independent ways (a closed
formula, a mixed-volume slice integration, and a brute-force 4D hull)
and cross-checks them with rational arithmetic, no tolerances anywhere.

The package namespace holds what a caller needs for that one number and
the errors it may raise; everything else is imported from its module,
for example ``from trivol.mixed_volume import volume_cubic``.
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
from .oracle import hull_volume_4d
from .rational import parse_rational
from .trilinear import Box3Bounds, VolumeReport, closed_form_volume, extreme_points, pipeline_volume

__version__ = "0.1.0"

__all__ = [
    "TrivolError",
    "InvalidBounds",
    "DegenerateTetrahedron",
    "DegenerateHull",
    "EmptyPolytope",
    "OmegaViolated",
    "InternalDisagreement",
    "Box3Bounds",
    "VolumeReport",
    "closed_form_volume",
    "pipeline_volume",
    "extreme_points",
    "hull_volume_4d",
    "parse_rational",
    "__version__",
]
