"""Exact sub-Riemannian distances, geodesics and cut loci on SU(2) and SO(3).

The package is pure Python.  numpy is a dependency, but `import srdist`
loads none, nor does any SU(2) or SO(3) distance, geodesic, cut-locus or
oracle call on elements built from floats or rows of floats.  numpy is
imported on the first `SU2Element.as_matrix` call; the `random_*`
samplers take a numpy generator, and `srdist.verify` and the CLI import
it.
"""

from .algebra import (
    AlgebraVector,
    InvalidElementError,
    SO3Element,
    SU2Element,
    klein_omega,
    lift_so3,
    random_so3,
    random_su2,
    su2_exp,
    su2_inv,
    su2_mul,
)
from .cutlocus import (
    CutLocusClass,
    CutTag,
    classify_cut_locus_so3,
    conjugate_locus_so3,
    in_cut_locus_su2_l2,
)
from .flawed_system import NonuniquenessReport, br_system_residual, demonstrate_br_nonuniqueness
from .geodesics import (
    GeodesicParams,
    cut_time_bound,
    geodesic_point,
    geodesic_point_exp,
    geodesic_point_so3,
)
from .oracle import GridSpec, ShootNoMatchError, ShootResult, shoot_min_time, shoot_min_time_so3
from .so3_distance import (
    SO3_DIAMETER_BOUND,
    distance_so3,
    distance_so3_pair,
    distance_so3_via_lifts,
    lift_distance_results,
)
from .su2_distance import (
    DistanceCase,
    DistanceResult,
    DomainError,
    arg_long,
    arg_short,
    beta_domain_max,
    distance_su2,
    distance_su2_pair,
    solve_monotone,
    time_long,
    time_short,
)

__version__ = "0.1.0"

# The oracle's scan has one implementation, in plain Python floats.
BACKEND = "python"

__all__ = [
    "AlgebraVector",
    "BACKEND",
    "CutLocusClass",
    "CutTag",
    "DistanceCase",
    "DistanceResult",
    "DomainError",
    "GeodesicParams",
    "GridSpec",
    "InvalidElementError",
    "NonuniquenessReport",
    "SO3Element",
    "SO3_DIAMETER_BOUND",
    "SU2Element",
    "ShootNoMatchError",
    "ShootResult",
    "arg_long",
    "arg_short",
    "beta_domain_max",
    "br_system_residual",
    "classify_cut_locus_so3",
    "conjugate_locus_so3",
    "cut_time_bound",
    "demonstrate_br_nonuniqueness",
    "distance_so3",
    "distance_so3_pair",
    "distance_so3_via_lifts",
    "distance_su2",
    "distance_su2_pair",
    "geodesic_point",
    "geodesic_point_exp",
    "geodesic_point_so3",
    "in_cut_locus_su2_l2",
    "klein_omega",
    "lift_distance_results",
    "lift_so3",
    "random_so3",
    "random_su2",
    "shoot_min_time",
    "shoot_min_time_so3",
    "solve_monotone",
    "su2_exp",
    "su2_inv",
    "su2_mul",
    "time_long",
    "time_short",
]
