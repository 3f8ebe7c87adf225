"""Numerical laboratory for velocity-estimation objective landscapes in a
homogeneous 1D acoustic transmission setup.

The package provides closed-form forward/adjoint modeling for a point source
and its distributed extension, least-squares and penalty (source-extension)
objectives in closed form, checked against the CG solve of the extended-source
problem, landscape scans that verify the far-region argmin predictions, and a
projected-descent basin mapper.  The `wrilab` console script exposes all of it
as CSV-emitting subcommands.

Modules:

    grids       uniform grids, sampled traces, trace inner product, interpolation
    acoustics   Geometry, Wavelet and the closed-form point-source solution
    operators   matrix-free distributed forward map, its adjoint, CG solver
    objectives  misfit, penalty and annihilator objectives
    analysis    landscape scans and the far-region argmin checks
    descent     projected steepest descent and basin mapping
    checks      identity measurements shared by verify and the tests
    cli         config parsing, the four subcommands, CSV output

Each name is imported from the module that defines it, for example
``from wrilab.acoustics import Geometry``; this package re-exports nothing.
"""
