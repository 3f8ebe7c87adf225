"""Acceptance gate: thirteen numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line with its
measured values.  Criterion 11 also pins the cycle-skipping inside the
L*lam/2 ball: starts whose predicted pulse overlaps the data reach the
target, and outward-side starts whose pulse misses it ride the plateau to a
velocity bound; its docstring gives the reason.
"""

import numpy as np
import pytest

from wrilab.acoustics import Wavelet, separation_scale
from wrilab.analysis import far_region_verify, nonsmoothness_diagnostic
from wrilab.checks import (
    extension_error, normal_identity_error, quadratic_form_residual,
    trace_norm_deviation, wri_deviations,
)
from wrilab.descent import basin_map
from wrilab.objectives import annihilator_value, fwi_value, wri_value
from wrilab.operators import adjoint_test, make_discrete_S


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_adjoint_exactness(geo):
    worst = max(adjoint_test(
        [make_discrete_S(geo, c, 0.0025, 0.00025) for c in (0.5, 1.0, 2.0)],
        n_probes=10, seed=0))
    report(1, worst <= 1e-12, f"max adjoint mismatch {worst:.3e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_02_normal_operator_identity(geo):
    dz, dt = 1.0 / 400.0, 0.02 / 40.0
    e1 = normal_identity_error(geo, 1.0, dz, dt)
    e2 = normal_identity_error(geo, 1.0, dz / 2.0, dt / 2.0)
    ok = e1 <= 2e-2 and e2 / e1 <= 0.5
    report(2, ok, f"error {e1:.3e} <= 2e-2, refinement ratio {e2 / e1:.3f} <= 0.5")
    assert e1 <= 2e-2
    assert e2 / e1 <= 0.5


def test_criterion_03_trace_norm_identity(geo):
    worst = max(trace_norm_deviation(geo, c, Wavelet("bump", lam), lam / 40.0)
                for lam in (0.04, 0.02) for c in (0.5, 1.0, 2.0))
    report(3, worst <= 1e-3, f"max |4c^2 ||S_p w||^2 - 1| = {worst:.3e} <= 1e-3")
    assert worst <= 1e-3


def test_criterion_04_plateau_value(exp02):
    dev = far_region_verify(exp02, ())[0].detail["max_plateau_rel_dev"]
    at_two = fwi_value(exp02, 2.0).value
    ok = dev <= 5e-3 and abs(at_two - 0.15625) <= 5e-3 * 0.15625
    report(4, ok, f"max far plateau deviation {dev:.3e} <= 5e-3; "
                  f"value at c=2 is {at_two:.12f} (0.15625 expected)")
    assert dev <= 5e-3
    assert at_two == pytest.approx(0.15625, rel=5e-3)


def test_criterion_05_misfit_far_argmin_at_upper_bound(exp04, exp02, exp01):
    reports = {exp.lam: far_region_verify(exp, ())[0] for exp in (exp04, exp02, exp01)}
    ok = all(
        rep.applicable and rep.passed and abs(rep.argmin_c - 2.0) <= rep.cell
        for rep in reports.values()
    )
    detail = ", ".join(f"lam={lam:g}: argmin {rep.argmin_c:g}"
                       for lam, rep in reports.items())
    report(5, ok, f"far misfit argmin at c_max for every width ({detail})")
    for rep in reports.values():
        assert rep.applicable and rep.passed
        assert abs(rep.argmin_c - 2.0) <= rep.cell


def test_criterion_06_penalty_far_argmin_tracks_beta(exp04, exp02, exp01):
    """The sign of beta = extent/c_*^2 - 4 alpha^2 picks the far argmin side.

    At lam = 0.04 the lower far segment is empty (c_* - L*lam < c_min), so the
    literal c_min prediction for beta > 0 is checked on the widths whose far
    region still reaches the lower bound; the wide pulse is checked against
    the region-aware prediction (the far region's smallest velocity).
    """
    exps = {0.04: exp04, 0.02: exp02, 0.01: exp01}
    reports = {(lam, a): far_region_verify(exp, [a])[1]
               for lam, exp in exps.items() for a in (0.25, 0.5, 0.6)}
    ok = all(rep.applicable and rep.passed for rep in reports.values())
    literal_low = all(
        abs(reports[(lam, 0.25)].argmin_c - 0.5) <= reports[(lam, 0.25)].cell
        for lam in (0.02, 0.01)
    )
    literal_high = all(
        abs(reports[(lam, 0.6)].argmin_c - 2.0) <= reports[(lam, 0.6)].cell
        for lam in exps
    )
    flat = all(
        reports[(lam, 0.5)].detail["flat_relative_variation"] <= 1e-9
        for lam in exps
    )
    wide = reports[(0.04, 0.25)]
    ok = ok and literal_low and literal_high and flat
    report(6, ok,
           "argmin c_min for beta>0 (lam 0.02, 0.01), c_max for beta<0, "
           f"flat for beta=0; caveat: at lam=0.04 the lower far segment is "
           f"empty, region-aware argmin {wide.argmin_c:.6g} (passes, "
           f"reaches_bound={wide.detail['predicted_segment_reaches_bound']})")
    assert all(rep.applicable and rep.passed for rep in reports.values())
    assert literal_low and literal_high and flat
    assert not wide.detail["predicted_segment_reaches_bound"]


def test_criterion_07_wri_route_equivalence(exp02):
    route_dev, ratio_dev, _ = wri_deviations(
        exp02, (0.6, 0.8, 1.2, 1.5, 2.0), (0.25, 0.5, 0.6), 0.0025)
    ok = route_dev <= 1e-6 and ratio_dev <= 1e-6
    report(7, ok,
           f"route agreement {route_dev:.3e} <= 1e-6, ratio deviation "
           f"{ratio_dev:.3e} <= 1e-6; the oracle supports the full constant "
           "alpha^2/(k(c)+alpha^2), not the halved variant")
    assert route_dev <= 1e-6
    assert ratio_dev <= 1e-6


def test_criterion_08_small_alpha_persistence(exp02):
    # one far-region scan serves every alpha; predicted_c is the region's
    # lower extreme wherever beta > 0
    sweep = far_region_verify(exp02, [0.25, 0.1, 0.01])[1:]
    argmins = [rep.argmin_c for rep in sweep]
    ok = (argmins == [0.5, 0.5, 0.5]
          and all(rep.beta > 0.0 for rep in sweep)
          and all(rep.argmin_c == rep.predicted_c for rep in sweep))
    report(8, ok, f"argmins {argmins} all at c_min, beta > 0 and each at the "
                  "far region's lower extreme")
    assert argmins == [0.5, 0.5, 0.5]
    assert all(rep.beta > 0.0 for rep in sweep)
    assert all(rep.argmin_c == rep.predicted_c for rep in sweep)


def test_criterion_09_extension_operator(geo):
    results = {}
    for kind in ("bump", "bump_derivative"):
        w = Wavelet(kind, 0.04)
        e1 = extension_error(geo, 1.0, w, 0.2, 0.0025, 0.00025)
        e2 = extension_error(geo, 1.0, w, 0.2, 0.00125, 0.000125)
        results[kind] = (e1, e2 / e1)
    ok = all(e1 <= 2e-2 and ratio <= 0.5 for e1, ratio in results.values())
    detail = ", ".join(f"{kind}: err {e1:.3e}, ratio {ratio:.3f}"
                       for kind, (e1, ratio) in results.items())
    report(9, ok, detail + " (err <= 2e-2, ratio <= 0.5)")
    for e1, ratio in results.values():
        assert e1 <= 2e-2
        assert ratio <= 0.5


def test_criterion_10_derivative_blowup_slopes(geo):
    lams = [0.08, 0.04, 0.02, 0.01]
    fwi = nonsmoothness_diagnostic(geo, 1.0, lams,
                                   lambda exp, cs: fwi_value(exp, cs).value)
    wri = nonsmoothness_diagnostic(geo, 1.0, lams,
                                   lambda exp, cs: wri_value(exp, cs, 0.25))
    ann = nonsmoothness_diagnostic(geo, 1.0, lams, annihilator_value)
    ok = (abs(fwi["slope"] + 1.0) <= 0.15 and abs(wri["slope"] + 1.0) <= 0.15
          and ann["grad_ratio"] < 2.0)
    report(10, ok,
           f"log-log slopes fwi {fwi['slope']:.3f}, wri {wri['slope']:.3f} "
           f"(-1 +/- 0.15); annihilator max-gradient ratio "
           f"{ann['grad_ratio']:.2f} < 2")
    assert abs(fwi["slope"] + 1.0) <= 0.15
    assert abs(wri["slope"] + 1.0) <= 0.15
    assert ann["grad_ratio"] < 2.0


def test_criterion_11_basin_structure(exp02):
    """Far starts reach the predicted bounds; the near ball cycle-skips.

    The first two clauses concern the far region: every misfit start above
    c_* + L*lam descends to the upper bound and every penalty start below
    c_* - L*lam descends to the lower bound.  Capture near the target is
    one-sided: every misfit start in the ball below c_* and every penalty
    start in the ball above c_* reaches the target.

    The ball itself (radius L*lam/2) is not a capture region.  A predicted
    pulse of width lam overlaps the data pulse only while the arrival-time
    shift |tau(c) - tau(c_*)| is below lam, i.e. within |c - c_*| of about
    0.04 here, against a radius of 0.16.  Outside that window the misfit is
    exactly its plateau, which decreases toward larger c, and the
    small-alpha penalty plateau increases with c (beta > 0).  Descent follows
    those slopes, so the objectives cycle-skip, the failure mode the paper
    states for both the misfit and the penalty objective.  Over the ball:

      (a) a start whose shift is at most lam/2 reaches the target for both
          objectives (fails if the well collapses);
      (b) a start on the outward side (misfit above c_*, penalty below c_*)
          whose pulse is disjoint from the data (shift >= lam) reaches that
          side's bound (fails if a plateau slope flips sign);
      (c) an outward-side start in the tail zone lam/2 < shift < lam ends at
          the target or at that side's bound, and no start in the ball ends
          interior_spurious.

    The cycle-skipping starts are printed.
    """
    lam = exp02.lam
    geo = exp02.geo
    c_star = exp02.c_star
    big_l = separation_scale(geo)
    starts = np.linspace(0.5, 2.0, 101)
    fwi, wri = basin_map(exp02, [None, 0.25], starts)

    upper_far = [r for r in fwi if r.c0 > c_star + big_l * lam]
    clause1 = all(r.label == "upper_bound" for r in upper_far)
    lower_far = [r for r in wri if r.c0 < c_star - big_l * lam]
    clause2 = all(r.label == "lower_bound" for r in lower_far)

    ball = 0.5 * big_l * lam
    near_fwi = [r for r in fwi if abs(r.c0 - c_star) <= ball]
    near_wri = [r for r in wri if abs(r.c0 - c_star) <= ball]
    from_below = all(r.label == "target" for r in near_fwi if r.c0 <= c_star)
    from_above = all(r.label == "target" for r in near_wri if r.c0 >= c_star)

    def shift(r):
        return abs(geo.transit_time(r.c0) - geo.transit_time(c_star))

    # (objective, near-ball reports, outward side, that side's bound)
    sides = (("misfit", near_fwi, lambda r: r.c0 > c_star, "upper_bound"),
             ("penalty", near_wri, lambda r: r.c0 < c_star, "lower_bound"))
    overlap_ok, disjoint_ok, tail_ok = True, True, True
    n_overlap, n_disjoint, skipped = 0, 0, {}  # counts are descents
    for name, near, outward, bound in sides:
        overlap = [r for r in near if shift(r) <= 0.5 * lam]
        disjoint = [r for r in near if outward(r) and shift(r) >= lam]
        tail = [r for r in near if outward(r) and 0.5 * lam < shift(r) < lam]
        n_overlap += len(overlap)
        n_disjoint += len(disjoint)
        overlap_ok &= all(r.label == "target" for r in overlap)
        disjoint_ok &= all(r.label == bound for r in disjoint)
        tail_ok &= all(r.label in ("target", bound) for r in tail)
        skipped[name] = [(round(r.c0, 6), r.label) for r in near
                         if r.label != "target"]
    no_spurious = all(r.label != "interior_spurious" for r in near_fwi + near_wri)
    clause_c = tail_ok and no_spurious

    # an empty clause would pass vacuously
    overlap_ok = overlap_ok and n_overlap > 0
    disjoint_ok = disjoint_ok and n_disjoint > 0
    ok = (clause1 and clause2 and from_below and from_above and overlap_ok
          and disjoint_ok and clause_c)
    report(11, ok,
           f"far starts: {len(upper_far)} misfit -> upper_bound "
           f"({'ok' if clause1 else 'violated'}), {len(lower_far)} penalty "
           f"-> lower_bound ({'ok' if clause2 else 'violated'}); near ball "
           f"(radius {ball:g}, {len(near_fwi)} starts each): one-sided "
           f"capture (misfit from below {from_below}, penalty from above "
           f"{from_above}); (a) {n_overlap} overlapping descents -> target "
           f"{overlap_ok}; (b) {n_disjoint} disjoint outward descents -> bound "
           f"{disjoint_ok}; (c) tail zone and no interior_spurious "
           f"{clause_c}; cycle-skipping starts: misfit {skipped['misfit']}; "
           f"penalty {skipped['penalty']}")
    assert clause1, "misfit starts above c_* + L*lam must reach the upper bound"
    assert clause2, "penalty starts below c_* - L*lam must reach the lower bound"
    assert from_below and from_above
    assert overlap_ok, "starts with shift <= lam/2 must reach the target"
    assert disjoint_ok, (
        "outward starts with disjoint pulses must cycle-skip to their bound "
        f"(misfit {skipped['misfit']}, penalty {skipped['penalty']})")
    assert clause_c, "tail-zone starts must end at the target or their bound"


def test_criterion_12_quadratic_form_rewrite(exp02):
    worst = quadratic_form_residual(exp02, (0.8, 1.0, 1.2))
    report(12, worst <= 1e-8,
           f"max residual of the right-inverse rewrite {worst:.3e} <= 1e-8")
    assert worst <= 1e-8


def test_criterion_13_annihilator_landscape(geo, exp04, exp02):
    big_l = separation_scale(geo)
    oks = []
    details = []
    for exp in (exp04, exp02):
        lam = exp.lam
        at_target = annihilator_value(exp, 1.0, "normalized")
        cs = np.linspace(0.5, 2.0, 2001)
        vals = np.array([annihilator_value(exp, c, "normalized") for c in cs])
        interior = np.flatnonzero(
            (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])) + 1
        unique = interior.size == 1
        inside = unique and abs(cs[interior[0]] - 1.0) <= big_l * lam
        oks.append(at_target <= lam**2 and unique and inside)
        details.append(
            f"lam={lam:g}: value at c_* {at_target:.3e} <= lam^2 = {lam**2:g}, "
            f"{interior.size} interior local min at "
            f"c={cs[interior[0]]:.4f}" if unique else f"lam={lam:g}: "
            f"{interior.size} interior local minima")
    report(13, all(oks), "; ".join(details))
    assert all(oks)
