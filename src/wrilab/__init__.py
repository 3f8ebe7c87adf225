"""Numerical laboratory for velocity-estimation objective landscapes in a
homogeneous 1D acoustic transmission setup.

The package provides closed-form forward/adjoint modeling for a point source
and its distributed extension, least-squares and penalty (source-extension)
objectives in closed form, checked against the CG solve of the extended-source
problem, landscape scans that verify the far-region argmin predictions, and a
projected-descent basin mapper.  The `wrilab` console script exposes all of it as CSV-emitting
subcommands.
"""

from .acoustics import (
    Geometry,
    Wavelet,
    extension_source,
    lambda_admissible_max,
    mollifier,
    normal_constant,
    point_forward,
    point_right_inverse,
    separation_scale,
)
from .analysis import (
    ScanResult,
    TheoremReport,
    alpha_sweep_argmin,
    beta_parameter,
    nonsmoothness_diagnostic,
    scan_landscape,
    theorem1_verify,
    theorem2_verify,
)
from .descent import (
    DescentReport,
    basin_map,
    classify_minimizer,
)
from .grids import (
    SpaceGrid,
    TimeGrid,
    Trace,
    eval_interp,
    inner_product_trace,
)
from .objectives import (
    Experiment,
    ObjectiveValue,
    annihilator_value,
    fwi_plateau,
    fwi_value,
    make_experiment,
    make_objective,
    wri_value,
)
from .operators import (
    CgReport,
    LinearMap,
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
    "Geometry",
    "LinearMap",
    "ObjectiveValue",
    "ScanResult",
    "SpaceGrid",
    "TheoremReport",
    "TimeGrid",
    "Trace",
    "Wavelet",
    "adjoint_test",
    "alpha_sweep_argmin",
    "annihilator_value",
    "basin_map",
    "beta_parameter",
    "cg_solve_dataspace",
    "classify_minimizer",
    "eval_interp",
    "extension_source",
    "forward_general",
    "fwi_plateau",
    "fwi_value",
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
    "scan_landscape",
    "separation_scale",
    "theorem1_verify",
    "theorem2_verify",
    "wri_value",
]
