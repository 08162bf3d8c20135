"""Random access tests and measurement incompatibility in convex state spaces."""

from .core import (
    Ball,
    Measurement,
    Polytope,
    Theory,
    dichotomic_measurement,
    distinguishable,
    dual_rays_from_vertices,
    evaluate,
    is_valid_effect,
    is_valid_measurement,
    mix,
    norm_with_argmax,
    operational_dimension,
    order_unit_norm,
    post_process,
    trivial_measurement,
    validate_theory,
)
from .errors import InputError, ParseError, SolverError, UnsupportedBackendError, ValidationError
from .io import (
    measurement_from_file,
    theory_from_file,
    write_measurement,
    write_theory,
)
from .jointness import (
    DegreeReport,
    JointWitness,
    check_compatible,
    harmonic_joint,
    harmonic_smearing_weights,
    incompatibility_degree,
    maximally_incompatible_dichotomic,
)
from .linalg import EPS, Facet, LpProblem, LpResult, enumerate_facets, solve_lp
from .polygons import (
    BruteForceResult,
    SweepRow,
    TableReport,
    TableVariant,
    brute_force_rat_max,
    odd_polygon_compatible_pair,
    parity_class,
    polygon_compatible_max,
    polygon_rat_closed_form,
    polygon_rat_upper_bound,
    sweep,
    verify_table,
)
from .rat import (
    CertificateVerdict,
    RatReport,
    certify_incompatibility,
    classical_rac_value,
    compatible_bound,
    connection_check,
    rat_success,
    rat_success_given_states,
)
from .storability import (
    StorabilityReport,
    decoding_power,
    has_super_information_storability,
    information_storability,
    ntomic_bound,
    restricted_storability,
)
from .zoo import (
    PolygonSpec,
    hypercube,
    polygon,
    polygon_effect_label,
    polygon_order,
    polygon_ray,
    polygon_state,
    qubit2,
    qubit2_effect,
    qubit2_state,
    rebit,
    rebit_effect,
    rebit_state,
    simplex,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
