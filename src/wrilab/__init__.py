"""Numerical laboratory for velocity-estimation objective landscapes in a
homogeneous 1D acoustic transmission setup.

The package provides closed-form forward/adjoint modeling for a point source
and its distributed extension, least-squares and penalty (source-extension)
objectives with both variational and closed-form evaluation routes, landscape
scans that verify the far-region argmin predictions, and a projected-descent
basin mapper.  The `wrilab` console script exposes all of it as CSV-emitting
subcommands.
"""

from .acoustics import (
    Geometry,
    Wavelet,
    extension_source,
    field_solution,
    green_solution,
    lambda_admissible_max,
    mollifier,
    normal_constant,
    point_forward,
    point_right_inverse,
    separation_scale,
)
from .analysis import (
    ScanResult,
    SupportReport,
    TheoremReport,
    alpha_sweep_argmin,
    beta_parameter,
    nonsmoothness_diagnostic,
    scan_landscape,
    supports_disjoint,
    theorem1_verify,
    theorem2_verify,
)
from .descent import (
    DescentReport,
    basin_map,
    classify_minimizer,
    descend,
    golden_section_min,
)
from .grids import (
    Field,
    SpaceGrid,
    TimeGrid,
    Trace,
    cumulative_integral,
    eval_interp,
    inner_product_field,
    inner_product_trace,
)
from .objectives import (
    Experiment,
    ObjectiveValue,
    WriConfig,
    annihilator_value,
    fwi_plateau,
    fwi_value,
    gradient,
    make_experiment,
    make_objective,
    quadratic_form_checks,
    weight_apply,
    wri_value,
)
from .operators import (
    CgReport,
    LinearMap,
    adjoint_general,
    adjoint_test,
    cg_solve_dataspace,
    forward_general,
    make_aligned_S,
    make_discrete_S,
)

__all__ = [
    "CgReport",
    "DescentReport",
    "Experiment",
    "Field",
    "Geometry",
    "LinearMap",
    "ObjectiveValue",
    "ScanResult",
    "SpaceGrid",
    "SupportReport",
    "TheoremReport",
    "TimeGrid",
    "Trace",
    "Wavelet",
    "WriConfig",
    "adjoint_general",
    "adjoint_test",
    "alpha_sweep_argmin",
    "annihilator_value",
    "basin_map",
    "beta_parameter",
    "cg_solve_dataspace",
    "classify_minimizer",
    "cumulative_integral",
    "descend",
    "eval_interp",
    "extension_source",
    "field_solution",
    "forward_general",
    "fwi_plateau",
    "fwi_value",
    "golden_section_min",
    "gradient",
    "green_solution",
    "inner_product_field",
    "inner_product_trace",
    "lambda_admissible_max",
    "make_aligned_S",
    "make_discrete_S",
    "make_experiment",
    "make_objective",
    "mollifier",
    "nonsmoothness_diagnostic",
    "normal_constant",
    "point_forward",
    "point_right_inverse",
    "quadratic_form_checks",
    "scan_landscape",
    "separation_scale",
    "supports_disjoint",
    "theorem1_verify",
    "theorem2_verify",
    "weight_apply",
    "wri_value",
]
