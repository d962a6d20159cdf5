"""End-to-end acceptance gate.

Each test prints one pass/fail line with the measured worst case and the
tolerance it is held to, then asserts.  The scenarios are chosen so the
fixed-step integrator operates well inside its accuracy envelope (orbits
that stay away from coordinate poles); the quantities themselves are the
point, the initial data are not.
"""

import dataclasses
import math

import numpy as np
import pytest

from gyrosurf import charts, dynamics, models, verify
from gyrosurf.geometry import J_FLAT, gauss_bonnet_patch_K, geometry_jet
from gyrosurf.integrators import IntegratorSettings, integrate
from gyrosurf.suites import (
    drift,
    frame_curl_residuals,
    steady_precession_tilt_error,
    top_vs_sphere,
    zero_inertia_gap,
)

TWO_PI = 2 * math.pi


def report(num, name, worst, tol, passed=None):
    if passed is None:
        passed = worst < tol
    print("criterion %02d %s: %s (max=%.3e, tol=%.3e)"
          % (num, name, "PASS" if passed else "FAIL", worst, tol))
    assert passed


def random_points(rng, chart, n, margin=0.05):
    dom = chart.domain
    pts = np.empty((n, 2))
    for j, (lo, hi) in enumerate((dom.x1_range, dom.x2_range)):
        pts[:, j] = rng.uniform(lo + margin, hi - margin, n)
    return pts


ORTHOGONAL_CHARTS = {
    "plane": charts.plane(extent=10.0),
    "sphere": charts.sphere(1.0),
    "torus": charts.torus(2.0, 0.5),
    "cylinder": charts.cylinder(1.0, half_length=10.0),
}


def worst_curl(chart, pts, jet=geometry_jet):
    return float(np.max(np.abs(frame_curl_residuals(chart, pts, jet=jet))))


def test_criterion_01_curvature_values():
    rng = np.random.default_rng(101)
    worst = 0.0
    for R in (0.5, 1.0, 2.0):
        chart = charts.sphere(R)
        for x in random_points(rng, chart, 20):
            worst = max(worst, abs(geometry_jet(chart, x).K - 1.0 / R**2))
    for kappa in (1.0, 2.0):
        K0 = geometry_jet(charts.saddle(kappa), [0.0, 0.0]).K
        worst = max(worst, abs(K0 + kappa**2))
    report(1, "curvature_closed_forms", worst, 1e-10)

    patch_worst = 0.0
    for chart, corner in ((charts.sphere(1.0), (0.7, 0.3)),
                          (charts.torus(2.0, 0.5), (0.8, 0.4))):
        est = gauss_bonnet_patch_K(chart, corner, 0.01, 0.01)
        center = np.add(corner, 0.005)
        patch_worst = max(patch_worst,
                          abs(est - geometry_jet(chart, center).K))
    report(1, "patch_estimate_at_0.01", patch_worst, 1e-3)

    sizes = (0.04, 0.02, 0.01, 0.005)
    errs = []
    tor = charts.torus(2.0, 0.5)
    for s in sizes:
        est = gauss_bonnet_patch_K(tor, (0.8, 0.4), s, s)
        errs.append(abs(est - geometry_jet(tor, (0.8 + s / 2, 0.4 + s / 2)).K))
    order = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    report(1, "patch_convergence_order", order, 1.0, passed=order >= 1.0)


def test_criterion_02_frame_curl_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for chart in ORTHOGONAL_CHARTS.values():
        pts = random_points(rng, chart, 100)
        worst = max(worst, worst_curl(chart, pts))
    report(2, "frame_curl_equals_curvature", worst, 1e-6)


CONSERVATION_STEPS = IntegratorSettings(dt=1e-3, n_steps=10_000,
                                        sample_every=1)
DISK = dynamics.DiskParams(m=1.0, I_a=0.02, I_d=0.01, R_disk=0.2)
TOP = dynamics.TopParams(M=1.0, ell=0.5, I1=2.0, I3=1.0, g=9.8)


def test_criterion_03_conservation_laws():
    sph = charts.sphere(1.0)
    band = np.array([math.pi / 3, 0.0, 1.0, 0.5])
    equator = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    runs = {
        "geodesic": integrate(models.GeodesicModel(sph, 1.0, None), band,
                              CONSERVATION_STEPS),
        "magnetic": integrate(models.MagneticModel(sph, 1.0, 2.0), equator,
                              CONSERVATION_STEPS),
        "reduced_disk": integrate(
            models.ReducedDiskModel(sph, 1.0, 0.01, 2.0), equator,
            CONSERVATION_STEPS),
    }
    full = models.FullDiskModel(sph, DISK)
    runs["full_disk"] = integrate(
        full, full.start(equator[:2], equator[2:], 100.0), CONSERVATION_STEPS)
    top_model = models.TopModel(TOP)
    runs["top"] = integrate(
        top_model, top_model.start([math.pi / 3, 0.0], [0.0, 0.4], 30.0),
        CONSERVATION_STEPS)

    worst_E = max(drift(traj.monitors["E"]) for traj in runs.values())
    report(3, "energy_drift_all_models", worst_E, 1e-8)
    worst_p = drift(DISK.I_a * runs["full_disk"].monitors["omega_a"])
    report(3, "axial_momentum_drift_full_disk", worst_p, 1e-8)
    worst_v = drift(runs["magnetic"].monitors["speed"])
    report(3, "speed_drift_magnetic", worst_v, 1e-9)


def test_criterion_04_curvature_force_law():
    model = models.MagneticModel(charts.sphere(1.0), 1.0, 0.5)
    traj = integrate(model, np.array([math.pi / 2, 0.0, 0.0, 1.0]),
                     CONSERVATION_STEPS)
    worst = float(np.max(np.abs(traj.monitors["k_geo"] - 0.5)))
    report(4, "measured_turning_rate", worst, 1e-5)


def test_criterion_05_flat_surface_no_force():
    chart = charts.cylinder(1.0, half_length=20.0)
    y0 = np.array([0.0, 0.0, 0.3, 1.0])
    charged = integrate(models.MagneticModel(chart, 1.0, 2.0), y0,
                        CONSERVATION_STEPS)
    free = integrate(models.GeodesicModel(chart, 1.0, None), y0,
                     CONSERVATION_STEPS)
    rep = verify.compare_trajectories(charged, free)
    report(5, "charge_is_inert_on_cylinder", rep.max_abs, 1e-8)


def test_criterion_06_top_is_curvature_coupled_particle():
    # ten nutation periods: the fast frequency is about I3 w_a / I1 = 15 rad/s
    settings = IntegratorSettings(dt=1e-3, n_steps=4200, sample_every=1)
    _, rep = top_vs_sphere(TOP, [math.pi / 3, 0.0], [0.0, 0.4], 30.0,
                           settings)
    report(6, "top_matches_sphere_magnetic", rep.max_abs, 1e-6)


def test_criterion_07_steady_precession():
    errs = steady_precession_tilt_error(TOP, math.pi / 3, 30.0,
                                        CONSERVATION_STEPS)
    worst = float(np.max(np.abs(errs)))
    report(7, "steady_precession_holds_tilt", worst, 1e-8)


def test_criterion_08_zero_inertia_reduction():
    rng = np.random.default_rng(108)
    worst = 0.0
    for chart in (charts.sphere(1.0), charts.torus(2.0, 0.5)):
        for x in random_points(rng, chart, 100, margin=0.3):
            state = dynamics.ReducedState(x=x, v=rng.uniform(-2, 2, 2))
            gap = zero_inertia_gap(chart, 1.3, 0.8, state)
            worst = max(worst, float(np.max(np.abs(gap))))
    report(8, "reduced_disk_degenerates_to_magnetic", worst, 1e-10)


def test_criterion_09_equation_residual_convergence():
    sph = charts.sphere(1.0)
    full = models.FullDiskModel(sph, DISK)
    cases = {
        "geodesic": (models.GeodesicModel(sph, 1.0, None),
                     np.array([math.pi / 3, 0.0, 1.0, 0.5])),
        "magnetic": (models.MagneticModel(sph, 1.0, 2.0),
                     np.array([math.pi / 2, 0.0, 0.0, 1.0])),
        "reduced_disk": (models.ReducedDiskModel(sph, 1.0, 0.01, 2.0),
                         np.array([math.pi / 2, 0.0, 0.0, 1.0])),
        "full_disk": (full, full.start([math.pi / 2, 0.0], [0.0, 1.0], 100.0)),
    }
    grid = (4e-3, 2e-3, 1e-3)
    worst_order = math.inf
    for name, (model, y0) in cases.items():
        errs = []
        for dt in grid:
            traj = integrate(model, y0,
                             IntegratorSettings(dt=dt, n_steps=40))
            errs.append(verify.el_residual_oracle(model, traj).max_abs)
        order = np.polyfit(np.log(grid), np.log(errs), 1)[0]
        worst_order = min(worst_order, order)
    report(9, "discrete_equation_residual_order", worst_order, 1.9,
           passed=worst_order >= 1.9)


def test_criterion_10_symmetric_matrix_identity():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1000):
        A = rng.standard_normal((2, 2)) * 10 ** rng.uniform(-3, 3)
        H = A + A.T
        scale = float(np.linalg.norm(H)) ** 2
        worst = max(worst, verify.hjh_identity(H) / scale)
    report(10, "hjh_equals_det_j", worst, 1e-12)


def test_criterion_11_latitude_holonomy():
    res = verify.holonomy_loop(charts.sphere(1.0),
                               verify.LatitudeLoop(math.pi / 3))
    worst = max(abs(verify.wrap_angle(res.transport) - math.pi),
                res.mismatch)
    report(11, "holonomy_pi_at_latitude_pi_3", worst, 1e-6)


class _NoDensityMagnetic(models.MagneticModel):
    """Deliberate bug: the area density is dropped from the side force."""

    def rhs(self, y) -> np.ndarray:
        state = self.unpack(y)
        jet = geometry_jet(self.chart, state.x)
        v = state.v
        accel = -np.einsum("kij,i,j->k", jet.christoffel, v, v)
        accel = accel + (self.L * jet.K / self.m) * (jet.g_inv @ (J_FLAT @ v))
        return np.concatenate([v.copy(), accel])


def flipped_k2_jet(chart, x, **kw):
    """Deliberate bug: a sign error in the second principal component."""
    jet = geometry_jet(chart, x, **kw)
    return dataclasses.replace(jet, f=jet.f * [1.0, -1.0])


def rectified_K_jet(chart, x, **kw):
    """Deliberate bug: the curvature is rectified."""
    jet = geometry_jet(chart, x, **kw)
    return dataclasses.replace(jet, K=abs(jet.K))


def test_criterion_12_mutations_are_detected():
    rng = np.random.default_rng(112)
    sphere_pts = random_points(rng, ORTHOGONAL_CHARTS["sphere"], 100)
    torus_pts = random_points(rng, ORTHOGONAL_CHARTS["torus"], 100)

    # flipping the sign of the second principal component must blow up the
    # frame curl identity (criterion 2)
    clean = worst_curl(ORTHOGONAL_CHARTS["sphere"], sphere_pts)
    broken = worst_curl(ORTHOGONAL_CHARTS["sphere"], sphere_pts,
                        jet=flipped_k2_jet)
    report(12, "mutation_k2_sign_flip_detected", broken, 1e-6,
           passed=clean < 1e-6 < broken)

    # dropping sqrt(a11 a22) from the side force must bend the marker orbit
    # away from the constant turning rate (criterion 4)
    settings = IntegratorSettings(dt=1e-3, n_steps=10_000, sample_every=10)
    y0 = np.array([math.pi / 2, 0.0, 0.0, 1.0])
    good = integrate(models.MagneticModel(charts.sphere(1.0), 1.0, 0.5), y0,
                     settings)
    bad = integrate(_NoDensityMagnetic(charts.sphere(1.0), 1.0, 0.5), y0,
                    settings)
    good_dev = float(np.max(np.abs(good.monitors["k_geo"] - 0.5)))
    bad_dev = float(np.max(np.abs(bad.monitors["k_geo"] - 0.5)))
    report(12, "mutation_dropped_density_detected", bad_dev, 1e-5,
           passed=good_dev < 1e-5 < bad_dev)

    # rectifying the curvature must fail the identity where K < 0
    clean = worst_curl(ORTHOGONAL_CHARTS["torus"], torus_pts)
    broken = worst_curl(ORTHOGONAL_CHARTS["torus"], torus_pts,
                        jet=rectified_K_jet)
    report(12, "mutation_rectified_curvature_detected", broken, 1e-6,
           passed=clean < 1e-6 < broken)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
