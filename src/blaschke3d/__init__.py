"""blaschke3d: convex polyhedra from prescribed face normals and areas.

Reconstructs bodies from their face data (direction/area pairs satisfying
the closure identity), computes Minkowski and Blaschke sums, and verifies
the volume inequalities relating the two additions.
"""
from .errors import (ClosureViolation, DegenerateAngle, DegenerateBody,
                     DuplicateDirection, GenerationFailed, InvalidPolygon,
                     LinearProgramFailed, NewtonDivergence, NonConvexInput,
                     NonPositiveArea, NonPositiveScale, OracleFailed,
                     ParseError, PremiseViolated, RankDeficient,
                     StepSizeUnderflow, ToolkitError, UnboundedRegion)
from .fileio import (export_off, format_herisson, import_off,
                     parse_herisson_file, parse_polygon_file)
from .geometry import (ContainmentResult, MeshPolyhedron, SupportPolyhedron,
                       contains_by_translation, convex_hull,
                       integral_mean_curvature, intersect_halfspaces,
                       support_value, validate_mesh, vector_area_residual,
                       volume)
from .herisson import (Herisson, blaschke_add, blaschke_scale,
                       herisson_of_mesh, random_herisson, validate_herisson)
from .inequalities import (FuzzConfig, InequalityReport,
                           brunn_minkowski_check, exponent_check,
                           fuzz_campaign, homothety_ratio, kneser_suss_check,
                           lemma_inequality, monotonicity_check,
                           sum_comparison_check)
from .solver import (ContinuationConfig, SolveTrace, area_jacobian,
                     continuation_solve, initial_polyhedron,
                     oracle_solve_small)
from .spherical import SphericalPolygon, spherical_identity_residual
from .sums import blaschke_sum_bodies, minkowski_sum

__version__ = "0.1.0"
