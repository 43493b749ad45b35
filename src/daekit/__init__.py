"""Numerical toolkit for semi-explicit index-1 DAEs.

Computes the degree of the tangent field a constrained system induces on its
constraint manifold (via the sign(det d2g) * deg(f, g) reduction, with an
independent boundary oracle), classifies equilibria by periodic resonance,
and traces branches of forced periodic orbits by shooting and
pseudo-arclength continuation.
"""

from .dae import Box, ManifoldPoint, SystemDef, solve_constraint, validate
from .dae import forcing_field, perturbed_field, reduced_field, tangency_defect
from .dae import tangent_field
from .degree import (
    DegreeReport,
    VectorField,
    ZeroRecord,
    chart_index,
    degree_boundary_oracle,
    degree_sum,
    degree_via_slice,
    find_zeros,
    reduced_matrix,
    system_field,
    tangent_field_degree,
)
from .expr import (
    evaluate,
    evaluate_dual,
    parse,
    substitute,
    symbolic_diff,
    to_string,
    variables,
)
from .flow import Trajectory, integrate, time_T_map
from .periodic import (
    Branch,
    ResonanceVerdict,
    classify_resonance,
    continue_branch,
    multiplicity_scan,
    reduce_hessenberg,
    reduce_implicit,
    shoot,
)
from .sysfile import load_system

__version__ = "0.1.0"
