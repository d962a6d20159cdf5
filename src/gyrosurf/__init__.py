"""Spinning-disk dynamics on curved surfaces.

A rapidly spinning disk rolling-without-twisting on a surface feels a
velocity-deflecting force proportional to its axial angular momentum and
the Gaussian curvature at its contact point, exactly the way a charged
particle feels a magnetic field normal to a plane.  This package builds
the surfaces, integrates the disk models (from exact to the magnetic
limit), and verifies the identities tying them together; the heavy
symmetric top falls out as the constant-curvature special case.
"""

from .charts import Domain, SurfaceChart, custom, cylinder, plane, saddle, \
    sphere, torus
from .dynamics import (
    DiskParams,
    FullState,
    ReducedState,
    TopParams,
    TopSphereEquivalence,
    axial_spin,
    parallel_transport_rate,
    top_to_sphere,
)
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    ExpressionError,
    GridMismatchError,
    GyrosurfError,
    InsufficientSamplesError,
    MissingEmbeddingError,
    NonFiniteStateError,
    NonOrthogonalChartError,
    NonSymmetricError,
    OpenLoopError,
    QuadratureError,
    SingularMassMatrixError,
    SpeedFloorError,
)
from .expressions import Expression
from .geometry import (
    GeometryJet,
    curvature_density,
    gauss_bonnet_patch_K,
    geometry_jet,
    rotate90,
)
from .integrators import IntegratorSettings, Trajectory, integrate
from .models import (
    FullDiskModel,
    GeodesicModel,
    MagneticModel,
    ReducedDiskModel,
    SurfaceModel,
    TopModel,
)
from .potentials import Potential, axis_cosine, from_expression, none
from .verify import (
    HolonomyResult,
    LatitudeLoop,
    RectangleLoop,
    ResidualReport,
    compare_trajectories,
    el_residual_oracle,
    hjh_identity,
    holonomy_loop,
    wrap_angle,
)

__version__ = "0.1.0"

__all__ = [
    "Domain", "SurfaceChart", "custom", "cylinder", "plane", "saddle",
    "sphere", "torus",
    "DiskParams", "FullState", "ReducedState", "TopParams",
    "TopSphereEquivalence", "axial_spin", "parallel_transport_rate",
    "top_to_sphere",
    "ConfigError", "DegenerateMetricError", "DomainError", "ExpressionError",
    "GridMismatchError", "GyrosurfError", "InsufficientSamplesError",
    "MissingEmbeddingError", "NonFiniteStateError", "NonOrthogonalChartError",
    "NonSymmetricError", "OpenLoopError", "QuadratureError",
    "SingularMassMatrixError", "SpeedFloorError",
    "Expression",
    "GeometryJet", "curvature_density", "gauss_bonnet_patch_K",
    "geometry_jet", "rotate90",
    "IntegratorSettings", "Trajectory", "integrate",
    "FullDiskModel", "GeodesicModel", "MagneticModel", "ReducedDiskModel",
    "SurfaceModel", "TopModel",
    "Potential", "axis_cosine", "from_expression", "none",
    "HolonomyResult", "LatitudeLoop", "RectangleLoop", "ResidualReport",
    "compare_trajectories", "el_residual_oracle", "hjh_identity",
    "holonomy_loop", "wrap_angle",
    "__version__",
]
